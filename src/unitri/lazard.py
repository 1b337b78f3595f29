"""Lazard coordinates of Q<x2, x3>, and what the layer tower and the
rank-3 classifier both read of them.

Every f in Q<x2, x3> has unique coordinates f = sum_b a_b * x3^b with
a_b in A = Q<u_0, u_1, ...>, u_i = ad_x3^i(x2) (invariants, proof step
1).  _lazard_word computes them one word at a time; lazard_weight reads
off the weight (k, B) that places x1 + f in the upper central series of
U_3 (central), and layer_level the layer that holds f (invariants).
Verdict, the outcome both return, lives here too.  This module imports
only freealg, so a rank-3 classify compiles neither the layer tower nor
straightening.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .freealg import RankMismatchError, VariableLeakError, add_term

AMBIENT_RANK = 3
HOLDS = "holds"
FAILS = "fails"


class Verdict(namedtuple("Verdict", "kind witness")):
    """The outcome of an invariance check or a classification.

    "holds" is reserved for outcomes backed by an exact decision or
    certificate.  A failure always comes with a concrete witness and is
    certain.
    """

    __slots__ = ()

    def __new__(cls, kind, witness=None):
        # witness: a UniAut for FAILS
        if kind not in (HOLDS, FAILS):
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == FAILS and witness is None:
            raise ValueError("a failing verdict needs a witness")
        return super().__new__(cls, kind, witness)

    @classmethod
    def holds(cls):
        return cls(HOLDS)

    @classmethod
    def fails(cls, witness):
        return cls(FAILS, witness=witness)

    def to_json(self):
        out = {"kind": self.kind}
        if self.witness is not None:
            from .autgroup import aut_to_json
            out["witness"] = aut_to_json(self.witness)
        return out


class CapViolationError(ValueError):
    """A degree cap was exceeded."""


def _require_vars(p, allowed, what):
    if p.rank != AMBIENT_RANK:
        raise RankMismatchError(f"{what} must have rank {AMBIENT_RANK}")
    for v in range(1, p.rank + 1):
        if v not in allowed and p.degree_in_var(v) > 0:
            raise VariableLeakError(v, f"{what} must not involve x{v}")


def _lazard_word(word):
    """Lazard coordinates of a word in x2, x3 as ((u, b), n) pairs, n a
    positive int and u a tuple of indices: word = sum n * u_(u[0])..u_(u[-1])
    * x3^b.  The fold starts from the empty word and appends one letter
    at a time; each key yields distinct keys, so nothing cancels."""
    coords = [(((), 0), 1)]
    for letter in word:
        if letter == 3:
            coords = [((u, b + 1), n) for (u, b), n in coords]
        else:
            coords = [((u + (i,), b - i), n * math.comb(b, i))
                      for (u, b), n in coords for i in range(b + 1)]
    return coords


def lazard_weight(f):
    """The largest (k, b) over the keys of f's Lazard coordinates, k the
    number of u_0 = x2 letters in the key and b its x3-power, compared
    lexicographically; (0, -1) for f = 0.  One fold answers both
    layer_level and the rank-3 classifier (see central)."""
    _require_vars(f, (2, 3), "f")
    coords = {}
    for word, c in f.ints.items():
        for key, n in _lazard_word(word):
            add_term(coords, key, c * n)
    return max(((u.count(0), b) for u, b in coords), default=(0, -1))


def layer_level(f):
    """The least m with f in layer m (0 for f = 0), or None when f is in
    no layer: read off f's Lazard coordinates (see the invariants module
    docstring), 1 + the largest x3-power b with a nonzero coefficient,
    provided no coefficient involves u_0 = x2."""
    k, b = lazard_weight(f)
    return None if k else b + 1
