"""Unitriangular automorphisms x_i -> x_i + f_i of Q<x1,...,xn>.

Each offset f_i may involve only variables of index greater than i, and
the last offset is a constant, so these substitutions are always
invertible and form a group under composition.

Composition order: the product phi * psi acts as phi first, then psi,
i.e. x^(phi psi) = apply(psi, x^phi).  This is the unique convention
under which conjugation in rank 2 comes out as the closed form
(x + h(y) - h(y+b) + f(y+c), y + b), which the test suite pins down
exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .freealg import (
    NcPoly,
    RankMismatchError,
    format_poly,
    join_signed_terms,
    parse_poly,
    signed_terms,
)
from .linalg import add_term


class VariableLeakError(ValueError):
    """An offset uses a variable of index <= its own slot."""

    def __init__(self, index, message=None):
        super().__init__(message or f"offset {index} uses a variable of index <= {index}")
        self.index = index


class NonConstantLastError(ValueError):
    """The last offset must be a constant."""


class UniAut:
    """A unitriangular automorphism, stored by its offsets (f_1, ..., f_n)."""

    __slots__ = ("rank", "offsets")

    def __init__(self, rank, offsets):
        offsets = tuple(offsets)
        if rank < 2:
            raise ValueError(f"rank must be >= 2, got {rank}")
        if len(offsets) != rank:
            raise ValueError(f"need {rank} offsets, got {len(offsets)}")
        for pos, f in enumerate(offsets, start=1):
            if f.rank != rank:
                raise RankMismatchError(
                    f"offset {pos} has rank {f.rank}, automorphism has rank {rank}")
        if offsets[-1].degree() > 0:
            raise NonConstantLastError("last offset must lie in Q")
        for pos, f in enumerate(offsets, start=1):
            low = min((min(w) for w in f.terms if w), default=pos + 1)
            if low <= pos:
                raise VariableLeakError(pos, f"offset {pos} involves x{low}")
        self.rank = rank
        self.offsets = offsets

    @classmethod
    def identity(cls, rank):
        return cls(rank, [NcPoly.zero(rank)] * rank)

    def is_identity(self):
        return all(f.is_zero() for f in self.offsets)

    def image(self, index):
        """The polynomial x_index + f_index."""
        x = NcPoly.variable(index, self.rank)
        # f_index never holds the word x_index, so no coefficient adds up
        return NcPoly._raw(self.rank, {**x.terms, **self.offsets[index - 1].terms})

    def images(self):
        return [self.image(i) for i in range(1, self.rank + 1)]

    def apply(self, p):
        """Image of a polynomial under this automorphism."""
        if p.rank != self.rank:
            raise RankMismatchError(f"rank {p.rank} vs {self.rank}")
        return p.substitute(self.images())

    def compose(self, other):
        """self followed by other: x^(self other) = apply(other, x^self)."""
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        images = other.images()
        new = [other.offsets[i] + self.offsets[i].substitute(images)
               for i in range(self.rank)]
        return UniAut(self.rank, new)

    __mul__ = compose

    def invert(self):
        """Two-sided inverse, found by back-substitution from x_n upward.

        The offset g_i of the inverse must cancel f_i after the variables
        above i are already corrected, so g_i = -f_i(x_j + g_j : j > i);
        triangularity makes each step depend only on later slots.
        """
        n = self.rank
        imgs = [NcPoly.variable(j, n) for j in range(1, n + 1)]
        inv = [None] * n
        for i in range(n - 1, -1, -1):
            inv[i] = -self.offsets[i].substitute(imgs)
            imgs[i] = imgs[i] + inv[i]
        return UniAut(n, inv)

    def __eq__(self, other):
        if not isinstance(other, UniAut):
            return NotImplemented
        return self.rank == other.rank and self.offsets == other.offsets

    def __hash__(self):
        return hash((self.rank, self.offsets))

    def __str__(self):
        return format_aut(self)

    def __repr__(self):
        return f"UniAut({format_aut(self)!r})"


def compose(phi, psi):
    return phi.compose(psi)


def invert(phi):
    return phi.invert()


def conjugate(phi, psi):
    """psi^{-1} phi psi."""
    return psi.invert() * phi * psi


def group_commutator(phi, psi):
    """phi^{-1} psi^{-1} phi psi."""
    return phi.invert() * psi.invert() * phi * psi


def compose_chain(auts):
    """Compose left to right: the first element of the chain acts first."""
    auts = list(auts)
    out = auts[0]
    for a in auts[1:]:
        out = out * a
    return out


def factor_semidirect(phi):
    """Split into elementary factors g_i: x_i -> x_i + f_i, others fixed.

    Recomposition runs last variable first: compose_chain([g_n, ..., g_1])
    equals phi.  In that order the later factors touch only higher
    variables, so the factor offsets are literally phi's offsets, making
    the factorization unique.
    """
    n = phi.rank
    factors = []
    for i in range(n):
        offs = [NcPoly.zero(n)] * n
        offs[i] = phi.offsets[i]
        factors.append(UniAut(n, offs))
    return factors


def derived_level_shape(phi):
    """Largest k with the last k offsets all zero (k = rank for the identity).

    This is the membership level in the chain of subgroups obtained by
    freezing trailing variables, the shape the iterated commutator
    subgroups take."""
    k = 0
    for f in reversed(phi.offsets):
        if not f.is_zero():
            break
        k += 1
    return k


def difference_preimage(target, shift=1):
    """Solve r(y + shift) - r(y) = target for r in Q<y> (rank 2, y = x2).

    The difference operator drops degree by exactly one and is triangular
    in the monomial basis, so the coefficients of r come out of a
    top-down solve: the y^j coefficient of the difference is
    sum_{k>j} C(k, j) shift^(k-j) r_k.  Any target is reachable, which is
    what makes every first-row element a commutator."""
    shift = Fraction(shift)
    if not shift:
        raise ValueError("shift must be nonzero")
    if target.rank != 2 or target.degree_in_var(1) > 0:
        raise VariableLeakError(1, "target must lie in Q<y>")
    coeffs = {len(w): c for w, c in target.terms.items()}
    r = {}
    for j in range(int(max(coeffs, default=0)), -1, -1):
        acc = sum((math.comb(k, j) * shift ** (k - j) * v
                   for k, v in r.items() if k > j), Fraction(0))
        need = coeffs.get(j, Fraction(0)) - acc
        if need:
            r[j + 1] = need / ((j + 1) * shift)
    return NcPoly._raw(2, {(2,) * k: v for k, v in r.items() if v})


# -- sampling ----------------------------------------------------------------


def _rand_coeff(rng, height, allow_zero=False):
    num = rng.randint(-height, height)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def _rand_offsets(rng, rank, max_degree, height, first_zero=False):
    offsets = []
    for i in range(1, rank + 1):
        if first_zero and i == 1:
            offsets.append(NcPoly.zero(rank))
            continue
        if i == rank:
            offsets.append(NcPoly.constant(_rand_coeff(rng, height, allow_zero=True), rank))
            continue
        terms = {}
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(0, max_degree)
            word = tuple(rng.choices(range(i + 1, rank + 1), k=length))
            add_term(terms, word, _rand_coeff(rng, height))
        offsets.append(NcPoly._raw(rank, terms))
    return offsets


def random_aut(rank, max_degree, coeff_height, seed):
    """Deterministic pseudo-random automorphism within the given bounds."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    rng = random.Random(seed)
    return UniAut(rank, _rand_offsets(rng, rank, max_degree, coeff_height))


def random_aut_rng(rng, rank, max_degree, coeff_height, first_zero=False):
    """Like random_aut but drawing from a caller-owned generator."""
    return UniAut(rank, _rand_offsets(rng, rank, max_degree, coeff_height,
                                      first_zero=first_zero))


# -- text and JSON forms ------------------------------------------------------


def format_aut(phi):
    """Semicolon-separated images, offsets in canonical term order."""
    return "; ".join(join_signed_terms([(1, f"x{i}")] + signed_terms(f))
                     for i, f in enumerate(phi.offsets, start=1))


def parse_aut(text):
    """Parse semicolon-separated images; the rank is the image count."""
    parts = text.split(";")
    rank = len(parts)
    if rank < 2:
        raise ValueError("an automorphism needs at least two images")
    offsets = []
    for i, part in enumerate(parts, start=1):
        img = parse_poly(part, rank)
        offsets.append(img - NcPoly.variable(i, rank))
    return UniAut(rank, offsets)


def aut_to_json(phi):
    return {"rank": phi.rank, "offsets": [format_poly(f) for f in phi.offsets]}


def aut_from_json(data):
    rank = data["rank"]
    return UniAut(rank, [parse_poly(s, rank) for s in data["offsets"]])
