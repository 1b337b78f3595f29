"""Unitriangular automorphisms x_i -> x_i + f_i of Q<x1,...,xn>.

Each offset f_i may involve only variables of index greater than i, and
the last offset is a constant, so these substitutions are always
invertible and form a group under composition.

That shape fixes the last two slots of every map: f_n is a constant and
f_(n-1) lies in Q[x_n], while x_n maps to x_n + f_n.  So products,
inverses and left divisions fill slot n by a constant sum and slot n-1 by
one Taylor shift (_taylor_shift); only slots 1..n-2 go through
NcPoly.substitute, which also keeps a constant offset fixed.  In rank 2,
U_2 = {(x + f(y), y + b)} multiplies as (f, b)(h, c) = (h + f(y + c),
b + c), with no substitution at all, and for phi = (f, b), psi = (h, c)
the conjugate and the commutator have closed forms:

    psi^-1 phi psi = (h - h(y+b) + f(y+c), b),
    [phi, psi]     = (h - h(y+b) + f(y+c) - f, 0).

`conjugate` computes the first by two Taylor shifts, and
`group_commutator` takes its first offset less f, since phi^-1 (g, b) =
(g - f, 0).  In ranks >= 3 both divide on the left instead of
inverting: `_solve(psi, z)` finds the y with psi * y = z by the
back-substitution that also inverts (z the identity), so the conjugate
is _solve(psi, phi * psi) and the commutator _solve(phi, psi^-1 phi psi),
and every substitution they make sends an offset of phi or of psi.

Composition order: the product phi * psi acts as phi first, then psi,
i.e. x^(phi psi) = apply(psi, x^phi).  This is the unique convention
under which conjugation in rank 2 comes out as the closed form
(x + h(y) - h(y+b) + f(y+c), y + b), which the test suite pins down
exactly.
"""

from __future__ import annotations

import math
import random

from . import freealg   # the shift reads MAX_SUBSTITUTION_TERMS where substitute does
from .freealg import (
    MAX_WORD_LENGTH,
    NcPoly,
    RankMismatchError,
    SubstitutionTooLargeError,
    VariableLeakError,
    _addend_over,
    _coefficient,
    _read_sum,
    _tokens,
    add_scaled,
    add_term,
    format_poly,
    join_signed_terms,
    parse_poly,
    signed_terms,
)

MAX_RANK = 64   # most images parse_aut accepts, as MAX_WORD_LENGTH bounds a word
_IMAGE_ENDS = (";", "")   # the tokens that close an image: its ';', the end of the text


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
            low = min(map(min, filter(None, f.ints)), default=pos + 1)
            if low <= pos:
                raise VariableLeakError(pos, f"offset {pos} involves x{low}")
        self.rank = rank
        self.offsets = offsets

    @classmethod
    def _make(cls, rank, offsets):
        # trusted constructor: offsets a tuple of rank-`rank` polynomials
        # that is already unitriangular, as every product and inverse is
        phi = cls.__new__(cls)
        phi.rank = rank
        phi.offsets = offsets
        return phi

    @classmethod
    def identity(cls, rank):
        return cls(rank, [NcPoly.zero(rank)] * rank)

    @classmethod
    def elementary(cls, index, offset):
        """The elementary map x_index -> x_index + offset, every other
        variable fixed; the rank is the offset's."""
        rank = offset.rank
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} outside rank {rank}")
        zero = NcPoly.zero(rank)
        return cls(rank, [offset if i == index else zero for i in range(1, rank + 1)])

    def is_identity(self):
        return all(f.is_zero() for f in self.offsets)

    def image(self, index):
        """The polynomial x_index + f_index."""
        return _shifted_variable(index, self.offsets[index - 1])

    def images(self):
        return [self.image(i) for i in range(1, self.rank + 1)]

    def apply(self, p):
        """Image of a polynomial under this automorphism."""
        if p.rank != self.rank:
            raise RankMismatchError(f"rank {p.rank} vs {self.rank}")
        return p.substitute(self.images())

    def compose(self, other):
        """self followed by other: x^(self other) = apply(other, x^self).

        Offset i of the product is g_i + f_i(x_j + g_j), f the offsets of
        self and g those of other.  Unitriangularity fixes the last two
        slots: f_n is a constant, so slot n is the constant sum g_n + f_n
        (_constant_sum), and f_(n-1) lies in Q[x_n] while x_n
        maps to x_n + g_n, so slot n-1 is one Taylor shift
        (_taylor_shift) with g_(n-1) as the addend.  Slots
        1..n-2 substitute f_i with g_i as the addend, so that g_i and the
        word images are summed in one int accumulator.  The shift and each
        substitution are bounded by MAX_SUBSTITUTION_TERMS, as `apply` is.
        Rank 2 has no head slot, so it fills only the two tail slots and
        builds no images.
        """
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        f, g = self.offsets, other.offsets
        tail = (_taylor_shift(f[-2], g[-1], g[-2]), _constant_sum(g[-1], f[-1]))
        if self.rank == 2:
            return UniAut._make(2, tail)
        images = other.images()
        head = tuple(fi.substitute(images, gi) for fi, gi in zip(f[:-2], g))
        return UniAut._make(self.rank, head + tail)

    __mul__ = compose

    def invert(self):
        """Two-sided inverse: the map y with self * y the identity (_solve)."""
        return _solve(self, None)

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


def _solve(psi, z):
    """The map y with psi * y == z, found by back-substitution from x_n
    upward; z None stands for the identity, so that y is psi's inverse.

    Offset i of psi * y is y_i + f_i(x_j + y_j : j > i), f the offsets of
    psi (see `compose`).  So y_i = z_i - f_i(x_j + y_j : j > i), and
    triangularity makes each step depend only on later slots: y_n =
    z_n - f_n, and y_(n-1) = z_(n-1) - f_(n-1)(x_n + y_n) is one Taylor
    shift (_taylor_shift) with z_(n-1) as the addend.  Below that each
    -f_i is substituted with z_i as the addend.  The image x_i + y_i that
    the next steps substitute is built as `image` builds it, since y_i
    holds no x_i, and only for the slots 2..n that a later step reads.

    Every substitution sends an offset of psi, never one of z, and each
    is bounded by MAX_SUBSTITUTION_TERMS, as `compose` is.  This is why
    `conjugate` and `group_commutator` divide on the left: the product
    psi^-1 * w substitutes the offsets of psi^-1, and a chain of such
    products from the left substitutes those of each product so far.
    """
    n = psi.rank
    f = psi.offsets
    if z is None:
        g, last = (None,) * n, -f[-1]
    else:
        g = z.offsets
        last = _constant_sum(g[-1], -f[-1])
    y = [None] * (n - 2) + [_taylor_shift(f[-2], last, g[-2], sign=-1), last]
    if n > 2:
        imgs = [NcPoly.variable(j, n) for j in range(1, n - 1)]
        imgs += [_shifted_variable(n - 1, y[-2]), _shifted_variable(n, last)]
        for i in range(n - 3, -1, -1):
            y[i] = (-f[i]).substitute(imgs, g[i])
            if i:
                imgs[i] = _shifted_variable(i + 1, y[i])
    return UniAut._make(n, tuple(y))


def _shifted_variable(index, f):
    """x_index + f for an offset f that holds no word x_index: no
    coefficient adds up, and gcd(f.den, f.den, *f.ints) is still 1."""
    return NcPoly._make(f.rank, f.den, {(index,): f.den, **f.ints})


def _taylor_shift(f, shift, addend=None, sign=1):
    """addend + sign * f(x_r + shift) for f in Q[x_r], r = f.rank, a
    constant polynomial `shift` and an addend of rank r (None: zero).

    With f = sum_k a_k x^k / D of degree K and shift = p/q,
    q^K f(x + p/q) = sum_k a_k q^(K-k) (qx + p)^k / D, which is B(y + p)/D
    at y = qx for the int polynomial B(y) = sum_k b_k y^k, b_k =
    a_k q^(K-k).  The coefficients h_j of B(y + p) = sum_j h_j y^j are
    the remainders of repeated synthetic division of B by (y - p).  Pass
    i divides sum_(j>=i) b_j y^(j-i) by (y - p) from the top, b_j +=
    p * b_(j+1) for j = K-1 down to i: b_i becomes the remainder h_i,
    and b_(i+1..K) the quotient that the next pass divides.  So K(K+1)/2
    int multiply-adds give f(x + p/q) = sum_j h_j q^j x^j / (D q^K),
    and one _reduced makes it canonical.

    The bound charges what NcPoly.substitute's prefix loop forms for
    the same f and image x_r + shift, so SubstitutionTooLargeError
    fires on the same inputs.  There the words of f are powers of x_r,
    the letter x_r is memoised, and each prefix x_r^j, 2 <= j <= K, is
    formed once, as the product of the image of x_r^(j-1), which has j
    terms for p != 0 and 1 for p = 0, with the image of x_r, of 2 terms
    or 1.  That is sum_(j=2..K) 2j = K^2 + K - 2 products for p != 0,
    and K - 1 for p = 0.  The loop checks its running count, which only
    grows, as it forms each product, so it raises exactly when that
    total exceeds MAX_SUBSTITUTION_TERMS, whatever the order of the
    words; for K <= 1 it forms no product and checks nothing.

    An unmoved shift, p = 0 or K = 0 (f constant), is addend + sign * f
    itself: charged to the bound as above, it is one add_scaled into the
    addend's accumulator, with no coefficient list.  The general path
    adds only the nonzero coefficients h_j.
    """
    rank = f.rank
    K = max(map(len, f.ints), default=0)
    p, q = shift.ints.get((), 0), shift.den
    if K > 1 and (K * K + K - 2 if p else K - 1) > freealg.MAX_SUBSTITUTION_TERMS:
        raise SubstitutionTooLargeError(
            f"substitution needs more than {freealg.MAX_SUBSTITUTION_TERMS} terms")
    if not (p and K):
        acc, den, scale = _addend_over(addend, f.den)
        add_scaled(acc, f.ints, sign * scale)
        return NcPoly._reduced(rank, den, acc)
    b = _coefficient_list(f)
    den = f.den
    if q != 1:   # b_k = a_k q^(K-k), in place
        qk = 1
        for k in range(K, -1, -1):
            b[k] *= qk
            qk *= q
        den *= qk // q
    for i in range(K):
        acc = b[K]
        for j in range(K - 1, i - 1, -1):
            acc = b[j] = b[j] + p * acc
    if q != 1:   # h_j q^j, in place
        qk = 1
        for j in range(K + 1):
            b[j] *= qk
            qk *= q
    acc, den, scale = _addend_over(addend, den)
    scale *= sign
    for j, n in enumerate(b):
        if n:
            add_term(acc, (rank,) * j, n * scale)
    return NcPoly._reduced(rank, den, acc)


def _coefficient_list(f):
    """[n_0, ..., n_K] for f = sum_k n_k x_r^k / f.den in Q[x_r] of degree K."""
    b = [0] * (max(map(len, f.ints), default=0) + 1)
    for w, n in f.ints.items():
        b[len(w)] = n
    return b


def _constant_sum(a, b):
    """a + b for two constant polynomials of one rank, as `+` returns it
    but without its checks: n = a_n d_b + b_n d_a over d_a d_b, one gcd
    divided out, and zero as den 1, ints {}."""
    n = a.ints.get((), 0) * b.den + b.ints.get((), 0) * a.den
    if not n:
        return NcPoly._make(a.rank, 1, {})
    den = a.den * b.den
    g = math.gcd(n, den)
    return NcPoly._make(a.rank, den // g, {(): n // g})


def compose(phi, psi):
    return phi.compose(psi)


def invert(phi):
    return phi.invert()


def conjugate(phi, psi):
    """psi^{-1} phi psi.

    In rank 2, with phi = (f, b) and psi = (h, c), this is
    (h - h(y+b) + f(y+c), b): the Taylor shift h - h(y+b), then f(y+c)
    added to it by a second shift.  The chain psi^-1 phi psi shifts h by
    -c, then -h(y-c) by b, then f - h(y+b-c) by c.  A shift's charge to
    MAX_SUBSTITUTION_TERMS (_taylor_shift) grows with the degree
    and depends on the shift only through whether it is zero.  So the
    shift of h by b costs what the chain's second one does, and that of
    f by c costs what the chain's third one does if deg f > deg h, and
    at most what its first one does otherwise: every input the chain
    admits, the closed form admits too.

    In rank >= 3, psi^-1 phi psi is the y with psi * y = phi * psi, so
    it is one product and one left division (_solve) by psi: every
    substitution sends an offset of phi or of psi, none of a product.
    """
    if phi.rank == psi.rank == 2:
        (f, b), (h, c) = phi.offsets, psi.offsets
        return UniAut._make(2, (_taylor_shift(f, c, _taylor_shift(h, b, h, -1)), b))
    return _solve(psi, phi * psi)


def group_commutator(phi, psi):
    """phi^{-1} psi^{-1} phi psi.

    This is phi^-1 (psi^-1 phi psi).  In rank 2, with phi = (f, b) and
    psi = (h, c), the conjugate is (g, b) with g = h - h(y+b) + f(y+c),
    and phi^-1 (g, b) = (g - f, 0), since phi^-1 = (-f(y-b), -b) and the
    product shifts -f(y-b) by b.  So the commutator is
    (h - h(y+b) + f(y+c) - f, 0), computed as the conjugate's two shifts,
    of h by b and of f by c, then one subtraction, which forms no product.
    The chain shifts f by -b, -f(y-b) by -c and -h(y-c) - f(y-b-c) by b.
    As a shift's charge grows with the degree and depends on the shift
    only through whether it is zero (see `conjugate`), the shift of f by
    c costs what the chain's second one does, and that of h by b what its
    third one does if deg h > deg f and at most what its first one does
    otherwise: every input the chain admits, this admits too.

    In rank >= 3 it is phi^-1 times the conjugate, so one left division
    (_solve) by phi of `conjugate`'s answer: one product and two solves,
    where the chain takes two inverses and three products, and every
    substitution sends an offset of phi or of psi.
    """
    if phi.rank == psi.rank == 2:
        return UniAut._make(2, (conjugate(phi, psi).offsets[0] - phi.offsets[0],
                                NcPoly.zero(2)))
    return _solve(phi, conjugate(phi, psi))


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
    return [UniAut.elementary(i, f) for i, f in enumerate(phi.offsets, start=1)]


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
    what makes every first-row element a commutator; r has no constant
    term.

    The solve runs in ints over one denominator, as _taylor_shift does.
    With target = sum_j a_j y^j / D of degree K and shift = p/q, put
    y = (p/q) z: q^K target = B(z) / D for the int polynomial
    B(z) = sum_j b_j z^j, b_j = a_j p^j q^(K-j), and the equation becomes
    R(z + 1) - R(z) = B(z) with r(y) = R(q y / p) / (q^K D).  Its solution
    without constant term is sum_j b_j (0^j + ... + (z-1)^j), and each of
    those sums is an int combination of binomials C(z, i), i <= j + 1, so
    F = (K+1)! clears every denominator: c = F R has int coefficients,
    found top-down by (j+1) c_(j+1) = F b_j - sum_{k>j+1} C(k, j) c_k,
    each division exact.  Then r_k = c_k q^k p^(K+1-k) / (F q^K D p^(K+1)),
    and one _reduced makes it canonical."""
    shift = _coefficient(shift)
    if not shift:
        raise ValueError("shift must be nonzero")
    if target.rank != 2 or target.degree_in_var(1) > 0:
        raise VariableLeakError(1, "target must lie in Q<y>")
    p, q = shift.numerator, shift.denominator
    a = _coefficient_list(target)
    K = len(a) - 1
    F = math.factorial(K + 1)
    c = [0] * (K + 2)
    for j in range(K, -1, -1):
        acc = F * a[j] * p ** j * q ** (K - j)
        for k in range(j + 2, K + 2):
            acc -= math.comb(k, j) * c[k]
        c[j + 1] = acc // (j + 1)
    den = F * q ** K * target.den * p ** (K + 1)
    sign = -1 if den < 0 else 1
    ints = {(2,) * k: sign * c[k] * q ** k * p ** (K + 1 - k)
            for k in range(1, K + 2) if c[k]}
    return NcPoly._reduced(2, sign * den, ints)


# -- sampling ----------------------------------------------------------------


def _rand_ratio(rng, height, allow_zero=False):
    """A random scalar as an unreduced pair (num, den) of ints, num in
    [-height, height] (nonzero unless allow_zero) and den in [1, height],
    drawn in that order.

    The draws are exactly those of rng.randint(-height, height) and
    rng.randint(1, height): randint(a, b) is a + rng._randbelow(b - a + 1)
    (the method that randint itself calls, also in a subclass of
    random.Random), so one Python call does the work of three, with no
    table of the range to draw from, whatever the height."""
    below = rng._randbelow
    num = below(2 * height + 1) - height
    while not (num or allow_zero):
        num = below(2 * height + 1) - height
    return num, below(height) + 1


def random_aut(rank, max_degree, coeff_height, seed):
    """Deterministic pseudo-random automorphism within the given bounds."""
    return random_aut_rng(random.Random(seed), rank, max_degree, coeff_height)


def random_aut_rng(rng, rank, max_degree, coeff_height):
    """Like random_aut but drawing from a caller-owned generator.  Bounds
    outside 2 <= rank <= MAX_RANK, 0 <= max_degree <= MAX_WORD_LENGTH and
    coeff_height >= 1 raise ValueError before anything is drawn.

    The maps are unitriangular by construction, so they are returned
    unvalidated: offset i draws its words over x_(i+1)..x_n only, and the
    last offset is a constant."""
    if not (2 <= rank <= MAX_RANK and 0 <= max_degree <= MAX_WORD_LENGTH
            and coeff_height >= 1):
        raise ValueError(f"no random automorphism of rank {rank}, degree <= "
                         f"{max_degree} and coefficient height {coeff_height}")
    below = rng._randbelow   # randint(0, b) is below(b + 1), as in _rand_ratio
    offsets = []
    for i in range(1, rank):
        drawn = []
        for _ in range(below(3)):
            word = tuple(rng.choices(range(i + 1, rank + 1), k=below(max_degree + 1)))
            drawn.append((word, *_rand_ratio(rng, coeff_height)))
        offsets.append(NcPoly._from_ratios(rank, drawn))
    offsets.append(NcPoly._from_ratios(
        rank, [((), *_rand_ratio(rng, coeff_height, allow_zero=True))]))
    return UniAut._make(rank, tuple(offsets))


# -- text and JSON forms ------------------------------------------------------


def format_aut(phi):
    """Semicolon-separated images, offsets in canonical term order."""
    return "; ".join(join_signed_terms([(1, f"x{i}")] + signed_terms(f))
                     for i, f in enumerate(phi.offsets, start=1))


def parse_aut(text):
    """Parse semicolon-separated images; the rank is the image count, at
    most MAX_RANK.  The whole text is split into tokens once, and the
    walk that parse_poly uses reads each image up to its ';', so a
    ParseError's position counts from the start of the whole text.
    Offset i is one NcPoly._from_ratios over the image's terms and -x_i;
    UniAut then checks that the offsets are unitriangular."""
    rank = text.count(";") + 1
    if rank > MAX_RANK:
        raise ValueError(f"an automorphism has at most {MAX_RANK} images, got {rank}")
    if rank < 2:
        raise ValueError("an automorphism needs at least two images")
    toks = _tokens(text)
    offsets = []
    i = 0
    for index in range(1, rank + 1):
        ratios, i = _read_sum(text, toks, i, rank, _IMAGE_ENDS)
        ratios.append(((index,), -1, 1))
        offsets.append(NcPoly._from_ratios(rank, ratios))
        i += 1   # past the ';'
    return UniAut(rank, offsets)


def aut_to_json(phi):
    return {"rank": phi.rank, "offsets": [format_poly(f) for f in phi.offsets]}


def aut_from_json(data):
    rank = data["rank"]
    return UniAut(rank, [parse_poly(s, rank) for s in data["offsets"]])
