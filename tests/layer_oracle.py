"""The kernel tower at an explicit shift degree, and a sampled
re-verification on top of it, kept as oracles for the closed-form layers.

Layer m's bidegree (k, l) slice at shift degree sd is the joint kernel,
on the words with k letters x2 and l letters x3, of d3 (x3 -> 1) and
D_sd (x2 -> x3^sd) taken modulo layer m-1, solved with
`linalg.nullspace`.  Since [d3, D_j] = j*D_(j-1), that is the kernel of
d3 and every D_j with j <= sd; it contains the true layer and equals it
once sd is high enough for the slice.

`echelon_slice` builds a slice by generic elimination: the products
u_I * x3^b, which span it, put through a Fraction `Echelon`, with no use
of a triangular shape.

`sampled_reverify` puts a basis through seeded random substitutions
x2 -> x2 + g(x3), x3 -> x3 + h with deg g <= sd: an order-1 vector must
have a zero defect, a deeper one a defect inside the tower's layer below.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from unitri.freealg import NcPoly, grlex_key, ring_commutator
from unitri.invariants import invariance_defect
from unitri.linalg import Echelon, nullspace

from conftest import sample_shift


def _bidegree(word):
    k = word.count(2)
    return (k, len(word) - k)


def _derivation(word, v, image):
    """Each occurrence of x_v in a word in turn replaced by the word
    `image`, as a term dict."""
    acc = {}
    for pos, letter in enumerate(word):
        if letter == v:
            w = word[:pos] + image + word[pos + 1:]
            acc[w] = acc.get(w, 0) + 1
    return {w: Fraction(c) for w, c in acc.items() if c}


def _residue(terms, level, sd):
    """terms modulo the tower's layer `level` (layer 0 is {0})."""
    residue = {}
    comps = {}
    for w, c in terms.items():
        comps.setdefault(_bidegree(w), {})[w] = c
    for (k, l), vec in comps.items():
        ech = oracle_slice(level, k, l, sd) if level else None
        residue.update(ech.reduce(vec) if ech is not None else vec)
    return residue


@lru_cache(maxsize=None)
def oracle_slice(level, k, l, sd):
    """The tower's (k, l) slice of layer `level` at shift degree sd, as an
    Echelon of its canonical basis, or None when it is zero."""
    words = []
    for positions in itertools.combinations(range(k + l), k):
        words.append(tuple(2 if i in positions else 3 for i in range(k + l)))
    words.sort()
    rows = {}
    for col, w in enumerate(words):
        for opid, image in enumerate((_derivation(w, 3, ()),
                                      _derivation(w, 2, (3,) * sd))):
            for rw, rc in _residue(image, level - 1, sd).items():
                rows.setdefault((opid, rw), {})[col] = rc
    kern = nullspace([rows[r] for r in sorted(rows)], len(words))
    if not kern:
        return None
    ech = Echelon(key=grlex_key)
    for vec in kern:
        ech.insert({words[c]: v for c, v in vec.items()})
    return ech


def oracle_slices(level, cap, sd):
    """The tower's layer `level` up to degree cap: bidegree -> Echelon."""
    out = {}
    for k in range(cap + 1):
        for l in range(cap + 1 - k):
            ech = oracle_slice(level, k, l, sd)
            if ech is not None:
                out[(k, l)] = ech
    return out


def oracle_basis(level, cap, sd):
    """The tower's layer `level` up to degree cap as its canonical basis:
    the slices' vectors sorted by graded-lex pivot."""
    vecs = [v for ech in oracle_slices(level, cap, sd).values() for v in ech.vectors()]
    vecs.sort(key=lambda v: grlex_key(min(v, key=grlex_key)))
    return [NcPoly(3, v) for v in vecs]


def positive_compositions(n, k):
    """Tuples of k positive ints with sum n, cut at k - 1 of the n - 1 gaps."""
    if k == 0 or n < k:
        return [()] if n == k == 0 else []
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for cuts in itertools.combinations(range(1, n), k - 1)]


def echelon_slice(level, k, l):
    """The (k, l) slice of layer `level` as s_layer_basis returns it, built
    by eliminating the products u_(i_1)..u_(i_k) * x3^b (every i >= 1,
    b < level, sum i + b = l) in a graded-lex Echelon over Fractions.
    u_0 = x2 and u_(i+1) = x3*u_i - u_i*x3, by ring commutators."""
    x3 = NcPoly.variable(3, 3)
    u = [NcPoly.variable(2, 3)]
    for _ in range(l):
        u.append(ring_commutator(x3, u[-1]))
    ech = Echelon(key=grlex_key)
    for b in range(min(level - 1, l) + 1):
        for indices in positive_compositions(l - b, k):
            prod = NcPoly.one(3)
            for i in indices:
                prod = prod * u[i]
            ech.insert((prod * x3 ** b).terms)
    return tuple(NcPoly(3, v) for v in ech.vectors())


def in_layer(p, level, sd):
    """Membership of p in the tower's order-`level` layer at shift degree sd."""
    return not _residue(p.terms, level, sd)


def sampled_reverify(m, cap, basis, subst_degree, seed, trials, height):
    """True when every vector of an order-m layer basis at degree cap
    passes `trials` seeded random substitutions, with coefficient
    numerators and denominators bounded by `height`."""
    rng = random.Random(seed * 1_000_003 + m * 10_007 + cap * 101 + subst_degree)
    for _ in range(trials):
        g, h = sample_shift(rng, subst_degree, height)
        for b in basis:
            if not in_layer(invariance_defect(b, g, h), m - 1, subst_degree):
                return False
    return True
