"""The shift-invariant subalgebra of Q<x2, x3> and its layer tower.

Apart from the exact invariance decision (invariance_verdict), which
works in every rank n >= 3, everything here lives in the rank-3 algebra
and uses only x2 and x3.
The acting group is the rank-2 family of substitutions
x2 -> x2 + g(x3), x3 -> x3 + h with g a polynomial in x3 and h a scalar.
Layer 1 of the tower is the algebra of fixed elements; layer m+1 holds
the elements whose defect under every such substitution falls into
layer m.  Layer 0 is {0}.  Over Q a one-parameter subgroup fixes f
exactly when its derivation kills f, so f is in L_m exactly when
d3 f (x3 -> 1) and every D_j f (x2 -> x3^j) lie in L_(m-1).

Theorem.  L_m = sum_(b<m) C*x3^b, where u_i = ad_x3^i(x2) with
ad_x3(y) = x3*y - y*x3, and C = Q<u_1, u_2, ...> is the algebra of the
c generators c_k = (-1)^k * u_k.

Proof.  Let u_0 = x2, A = Q<u_0, u_1, ...> and delta = ad_x3, so that
delta(u_i) = u_(i+1).
1. Coordinates.  Every f has unique coordinates f = sum_b a_b * x3^b
   with a_b in A, and A is free on the u_i (Lazard elimination;
   Reutenauer, Free Lie Algebras, 1993).  They are computed one word at
   a time by an integer fold (_lazard_word): appending x3 raises b by
   one, and appending x2 uses x3^b * x2 = sum_i C(b,i) * u_i * x3^(b-i).
2. Derivations.  d3 and each D_j commute with delta, since d3(x3) = 1
   and D_j(x3) = 0 are central; so both kill u_i for i >= 1, and
   D_j(u_0) = x3^j.  Hence d3(sum a_b*x3^b) = sum b*a_b*x3^(b-1), and for
   a in A, D_j(a) = sum_(s<=j) C(j,s) * E_s(a) * x3^(j-s), where E_s(a)
   sums alpha * P * delta^s(S) over every term alpha*w of a and every
   split w = P * u_0 * S.
3. Containment of the sum.  Each c_k is fixed, and a shift sends
   a*x3^b with a in C to a*(x3 + h)^b, whose defect lies in
   sum_(i<b) C*x3^i; by induction C*x3^b lies in L_(b+1).
4. The converse, by induction on m.  Let f be in L_m.  Then d3 f is in
   L_(m-1), so a_b is in C for 1 <= b < m and a_b = 0 for b >= m.  That
   leaves a_0 in L_m and in A.  If a_0 is not in C, the lemma gives an
   s with E_s(a_0) != 0; then D_(s+m-1)(a_0) has the coefficient
   C(s+m-1, s) * E_s(a_0) != 0 at x3^(m-1), so it is not in L_(m-1).
5. Lemma: if a word of a contains u_0, some E_s(a) != 0.  The series
   sum_s (t^s/s!) * E_s(a) is sum alpha * P * theta(S), where
   theta = exp(t*delta) sends u_i to sum_k (t^k/k!) * u_(i+k), and
   distinct (word, occurrence) pairs give distinct (P, S).  Take the
   largest |S| = R, a prefix P0 occurring with it, and K above every
   index in a.  Only the pairs (P0, S) with |S| = R produce words
   P0 * u_(c_1)..u_(c_R) with every c_j >= K.  Among those
   S = u_(i_1)..u_(i_R) fix one weight W = sum i_j, take the coefficient
   of t^(sum c - W) and multiply it by prod c_j!: the result is
   sum beta_S * prod_j c_j(c_j - 1)..(c_j - i_j + 1).  Falling-factorial
   products are linearly independent polynomials, so this is nonzero
   at some c with every c_j >= K.

So f is in L_m exactly when a_b = 0 for every b >= m and no a_b
contains u_0 (layer_level), every layer is known exactly at every
degree, and dim L_1 up to degree D is the Fibonacci number F_(D+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .autgroup import UniAut, VariableLeakError
from .freealg import (
    NcPoly,
    RankMismatchError,
    abelianize,
    c_generator,
    format_poly,
    grlex_key,
    join_signed_terms,
    ring_commutator,
)
from .linalg import Echelon, add_scaled, add_term
from .verdict import Verdict

AMBIENT_RANK = 3


class CapViolationError(ValueError):
    """A degree cap was exceeded."""


class NonHomogeneousGeneratorError(ValueError):
    """Subalgebra generators must be homogeneous of degree >= 1."""


@dataclass(frozen=True)
class PitConfig:
    """An empty configuration.  The layers are exact, so nothing here is
    configurable; the classifier and the centre test accept one and
    ignore it."""


def _require_rank3(p, what="polynomial"):
    if p.rank != AMBIENT_RANK:
        raise RankMismatchError(f"{what} must have rank {AMBIENT_RANK}")


def _require_vars(p, allowed, what):
    _require_rank3(p, what)
    for v in range(1, p.rank + 1):
        if v not in allowed and p.degree_in_var(v) > 0:
            raise VariableLeakError(v, f"{what} must not involve x{v}")


def invariance_defect(f, g, h):
    """f(x2 + g(x3), x3 + h) - f(x2, x3); zero iff this shift fixes f."""
    _require_vars(f, (2, 3), "f")
    _require_vars(g, (3,), "g")
    h = Fraction(h)
    images = [
        NcPoly.variable(1, 3),
        NcPoly.variable(2, 3) + g,
        NcPoly.variable(3, 3) + NcPoly.constant(h, 3),
    ]
    return f.substitute(images) - f


def shift_aut(g, h):
    """The substitution above as a rank-3 automorphism fixing x1."""
    return UniAut(3, [NcPoly.zero(3), g, NcPoly.constant(h, 3)])


def _derive(p, images):
    """Derivation sending x_v to images[v] (variables not listed go to 0)."""
    acc = {}
    for word, c in p.terms.items():
        for pos, letter in enumerate(word):
            img = images.get(letter)
            if img is None:
                continue
            head, tail = word[:pos], word[pos + 1:]
            for mw, mc in img.terms.items():   # add_term inlined: hot loop
                w = head + mw + tail
                v = acc.get(w, 0) + c * mc
                if v:
                    acc[w] = v
                else:
                    acc.pop(w, None)
    return NcPoly._raw(p.rank, acc)


# -- Lazard coordinates and the layer tower -----------------------------------


# A word of degree 12 has at most C(12, 6) = 924 coordinates; this bound
# keeps the cache within a few tens of MB even when every entry is that big.
@lru_cache(maxsize=256)
def _lazard_word(word):
    """Lazard coordinates of a word in x2, x3 as ((u, b), n) pairs, n a
    positive int and u a tuple of indices: word = sum n * u_(u[0])..u_(u[-1])
    * x3^b.  The word minus its last letter is folded first (and
    memoised); each of its keys yields distinct keys, so nothing cancels."""
    if not word:
        return ((((), 0), 1),)
    prefix = _lazard_word(word[:-1])
    if word[-1] == 3:
        return tuple(((u, b + 1), n) for (u, b), n in prefix)
    return tuple(((u + (i,), b - i), n * math.comb(b, i))
                 for (u, b), n in prefix for i in range(b + 1))


def layer_level(f):
    """The least m with f in layer m (0 for f = 0), or None when f is in
    no layer: read off f's Lazard coordinates (see the module docstring),
    1 + the largest x3-power b with a nonzero coefficient, provided no
    coefficient involves u_0 = x2."""
    _require_vars(f, (2, 3), "f")
    coords = {}
    for word, c in f.terms.items():
        for key, n in _lazard_word(word):
            add_term(coords, key, c * n)
    if any(0 in u for u, _ in coords):
        return None
    return max((b + 1 for _, b in coords), default=0)


def layer_contains(p, level):
    """Membership of p in the order-`level` layer, at any degree."""
    m = layer_level(p)
    return m is not None and m <= level


def _bidegree(word):
    k = sum(1 for a in word if a == 2)
    return (k, len(word) - k)


def _compositions(n, k):
    """Tuples of k positive ints with sum n, lexicographically."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for i in range(1, n - k + 2):
        for rest in _compositions(n - i, k - 1):
            yield (i,) + rest


# A sweep over every level and cap <= 12 holds 12 * 91 slices, so this
# bound keeps a full sweep in memory and evicts only beyond it.
@lru_cache(maxsize=1200)
def _layer_slice(level, k, l):
    """Bidegree (k, l) slice of layer `level` (>= 1) as an Echelon of its
    canonical basis, or None when the slice is zero.

    The slice is spanned by the products u_(i_1)..u_(i_k) * x3^b with
    every i >= 1, b < level and sum i + b = l (the module's theorem),
    each u_i expanded as ad_x3^i(x2).  Callers must not mutate the
    returned Echelon.
    """
    ech = Echelon(key=grlex_key)
    for b in range(min(level - 1, l) + 1):
        for indices in _compositions(l - b, k):
            prod = {(): 1}
            for i in indices:
                prod = {w1 + w2: c1 * c2 for w1, c1 in prod.items()
                        for w2, c2 in _leibniz_term(i, 0)}
            ech.insert({w + (3,) * b: Fraction(c) for w, c in prod.items()})
    return ech if ech.dim else None


def _reduce_by_slices(terms, slice_of):
    """Residue of a term dict modulo a space spanned by bidegree-homogeneous
    vectors, one bidegree component at a time; slice_of maps a bidegree
    to the Echelon of the space's slice there, or None when it is zero."""
    comps = {}
    for w, c in terms.items():
        comps.setdefault(_bidegree(w), {})[w] = c
    residue = {}
    for bd, vec in comps.items():
        ech = slice_of(bd)
        residue.update(ech.reduce(vec) if ech is not None else vec)
    return residue


class GradedSubspace:
    """A subspace of Q<x2,x3> up to a degree cap, held as its bidegree
    slices (a map bidegree -> Echelon).  The slices have disjoint
    supports, so their vectors sorted by graded-lex pivot are already the
    canonical basis, and a polynomial reduces one bidegree at a time."""

    ambient = "Q<x2,x3>"

    def __init__(self, degree_cap, slices, verdict):
        self.degree_cap = degree_cap
        self._slices = slices
        vecs = [v for ech in slices.values() for v in ech.vectors()]
        vecs.sort(key=lambda v: grlex_key(min(v, key=grlex_key)))
        self.basis = [NcPoly._raw(AMBIENT_RANK, v) for v in vecs]
        self.verdict = verdict

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, p):
        return not _reduce_by_slices(p.terms, self._slices.get)

    def dims_by_degree(self):
        dims = {}
        for b in self.basis:
            d = int(b.degree()) if not b.is_zero() else 0
            dims[d] = dims.get(d, 0) + 1
        return dict(sorted(dims.items()))

    def to_json(self):
        return {
            "degree_cap": self.degree_cap,
            "ambient": self.ambient,
            "verdict": self.verdict.to_json(),
            "basis": [format_poly(b) for b in self.basis],
            "dims_by_degree": {str(d): n for d, n in self.dims_by_degree().items()},
        }


def s_layer_basis(m, cap):
    """The order-m layer inside polynomials of degree <= cap.

    The layer is held as its bidegree slices (see GradedSubspace); its
    basis is canonical (reduced echelon form under graded-lex) and
    homogeneous in bidegree.  The module's theorem gives every slice
    exactly, so the verdict holds.
    """
    if m < 1:
        raise ValueError("layer order must be >= 1")
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    slices = {}
    for k in range(cap + 1):
        for l in range(cap + 1 - k):
            ech = _layer_slice(m, k, l)
            if ech is not None:
                slices[(k, l)] = ech
    return GradedSubspace(cap, slices, Verdict.holds())


def _least_shift(p, v, image, moves):
    """The map x_v -> x_v + t*image, least t >= 1, whose defect on p
    (image of p minus p) `moves`, a test that the defect is nonzero modulo
    some subspace, given that the derivation x_v -> image moves p.

    The defect is a polynomial in t with no constant term, whose linear
    coefficient is that derivation's image, and whose degree is at most
    the x_v-degree of p; so some t up to that degree is no root.
    """
    n = p.rank
    for t in range(1, p.degree_in_var(v) + 1):
        offsets = [NcPoly.zero(n)] * n
        offsets[v - 1] = image * t
        psi = UniAut(n, offsets)
        if moves(psi.apply(p) - p):
            return psi
    raise RuntimeError("a derivation moves p but no shift does; this is a bug")


def invariance_verdict(f):
    """Exact decision whether f in Q<x2..xn>, of rank n >= 3 and degree
    d, is fixed by every unitriangular automorphism that fixes x1: holds,
    or fails with a witness that moves f.  That is so exactly when
      (c) no x_i with i <= n-2 occurs in f,
      (a) d_n f = 0, for the derivation d_n: x_n -> 1, and
      (b) D_j f = 0 for j = 0..d, for the derivations D_j: x_(n-1) -> x_n^j,
    and (b) is equivalent to D_d f = 0 alone, so to D_j f = 0 for every j.

    Proof.  The group is generated by the one-parameter groups
    x_n -> x_n + t and x_i -> x_i + t*w, w a word in x_(i+1..n).  In
    characteristic 0 such a group fixes f iff its derivation kills f (the
    group is the exponential of that locally nilpotent derivation).  For
    (b), write each x_(n-1) occurrence in a word of f as
    u*x_n^a*x_(n-1)*x_n^b*v, u not ending and v not starting in x_n.  Then
    D_j f = sum C(u, a+b, v)*u*x_n^(a+b+j)*v, and C does not depend on j.
    For j = d the inserted run is the only x_n-run of length >= d, so the
    words do not collide: D_d f = 0 forces every C, hence every D_j f, to
    vanish.  For (c), x_i -> x_n^d*x_(n-1)*x_n^d is injective on words for
    the same reason, so it kills f only when x_i is absent.

    The witness is the one-parameter map of the first failing condition,
    x_i -> x_i + t*x_n^d*x_(n-1)*x_n^d, x_n -> x_n + t, or
    x_(n-1) -> x_(n-1) + t*x_n^j with the least such j, at the least
    t >= 1 that moves f.
    """
    n = f.rank
    if n < 3:
        raise ValueError(f"rank must be >= 3, got {n}")
    if f.degree_in_var(1) > 0:
        raise VariableLeakError(1, "f must not involve x1")
    d = int(max(f.degree(), 0))
    xn = NcPoly.variable(n, n)
    for i in range(2, n - 1):
        if f.degree_in_var(i) > 0:
            return _moved_by(f, i, xn ** d * NcPoly.variable(n - 1, n) * xn ** d)
    one = NcPoly.one(n)
    if not _derive(f, {n: one}).is_zero():
        return _moved_by(f, n, one)
    for j in range(d + 1):
        if not _derive(f, {n - 1: xn ** j}).is_zero():
            return _moved_by(f, n - 1, xn ** j)
    return Verdict.holds()


def _moved_by(f, v, image):
    return Verdict.fails(_least_shift(f, v, image, lambda defect: not defect.is_zero()))


# -- subalgebra membership ----------------------------------------------------


def _product(gens, word, rank):
    """The product of gens[i] over i in word, left to right."""
    prod = NcPoly.one(rank)
    for i in word:
        prod = prod * gens[i]
    return prod


def _generator_words(total, degs):
    """Index sequences with degree sum `total`, lexicographically."""
    if total == 0:
        yield ()
        return
    for i, d in enumerate(degs):
        if d <= total:
            for rest in _generator_words(total - d, degs):
                yield (i,) + rest


class SubalgebraExpr:
    """A Q-linear combination of products of the given generators."""

    def __init__(self, terms, gens, rank):
        self.terms = list(terms)   # (coefficient, tuple of generator positions)
        self.gens = list(gens)
        self.rank = rank

    def evaluate(self):
        total = NcPoly.zero(self.rank)
        for coeff, word in self.terms:
            total = total + _product(self.gens, word, self.rank) * coeff
        return total

    def __str__(self):
        return join_signed_terms((coeff, "*".join(f"g{i + 1}" for i in word))
                                 for coeff, word in self.terms)

    def __repr__(self):
        return f"SubalgebraExpr({str(self)!r})"


def subalgebra_membership(f, gens):
    """Exact membership of f in the unital subalgebra generated by `gens`.

    Works one graded component at a time: the candidate products of the
    generators of matching total degree are enumerated by degree, then
    lexicographically on generator indices, and an exact linear solve
    either expresses the component or rules it out.  Returns the found
    expression, or None.
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero() or not g.is_homogeneous() or g.degree() < 1:
            raise NonHomogeneousGeneratorError(
                "generators must be homogeneous of degree >= 1")
        if g.rank != f.rank:
            raise RankMismatchError("generators must share the rank of f")
    degs = [int(g.degree()) for g in gens]
    terms = []
    for d, comp in f.homogeneous_components().items():
        if d == 0:
            terms.append((comp.constant_term(), ()))
            continue
        ech = Echelon(key=grlex_key, track=True)
        for word in _generator_words(d, degs):
            ech.insert(_product(gens, word, f.rank).terms, word)
        combo = ech.express(comp.terms)
        if combo is None:
            return None
        terms.extend((c, word) for word, c in sorted(combo.items()))
    return SubalgebraExpr(terms, gens, f.rank)


def c_product_span(cap):
    """Products of the c generators of total degree <= cap, unit included."""
    gens = [c_generator(k, 2, 3, rank=3) for k in range(1, cap)]
    degs = [k + 2 for k in range(len(gens))]
    return [NcPoly.one(3)] + [_product(gens, word, 3) for d in range(2, cap + 1)
                              for word in _generator_words(d, degs)]


# -- free-module straightening ------------------------------------------------


@lru_cache(maxsize=256)
def _leibniz_term(k, j):
    """ad_x2^j(ad_x3^k(x2)) with ad_y(u) = y*u - u*y, as a tuple of
    (word, integer coefficient) pairs.  It lies in the commutator
    subalgebra whenever k >= 1."""
    if j:
        y, inner = 2, _leibniz_term(k, j - 1)
    elif k:
        y, inner = 3, _leibniz_term(k - 1, 0)
    else:
        return (((2,), 1),)
    acc = {}
    for w, c in inner:
        add_term(acc, (y,) + w, c)
        add_term(acc, w + (y,), -c)
    return tuple(acc.items())


def _straighten_word(word):
    """Integer straightening map {(a, b): {word: int}} of a single word.

    The word is folded letter by letter, keeping the prefix in the form
    sum r_(a,b) * x2^a * x3^b.  Appending x3 only raises b; appending x2
    uses the Leibniz rules
      x3^b * x2 = sum_k C(b,k) * ad_x3^k(x2) * x3^(b-k)
      x2^a * u  = sum_j C(a,j) * ad_x2^j(u) * x2^(a-j)
    whose k = 0 term is x2^(a+1) * x3^b.
    """
    state = {(0, 0): {(): 1}}
    for letter in word:
        if letter == 3:
            state = {(a, b + 1): r for (a, b), r in state.items()}
            continue
        nxt = {}
        for (a, b), r in state.items():
            add_scaled(nxt.setdefault((a + 1, b), {}), r)
            for k in range(1, b + 1):
                for j in range(a + 1):
                    term = _leibniz_term(k, j)
                    scale = math.comb(b, k) * math.comb(a, j)
                    target = nxt.setdefault((a - j, b - k), {})
                    for w1, c1 in r.items():
                        c1 *= scale
                        for w2, c2 in term:   # add_term inlined: hot loop
                            w = w1 + w2
                            v = target.get(w, 0) + c1 * c2
                            if v:
                                target[w] = v
                            else:
                                del target[w]
        state = nxt
    return state


def specht_straighten(f, cap):
    """Write f as sum of r_(a,b) * x2^a * x3^b with commutator-subalgebra
    coefficients r_(a,b) on the left.

    Q<x2, x3> is a free left module over the subalgebra generated by the
    commutators, with basis the x2^a * x3^b (Lazard elimination), so the
    decomposition is unique.  It is computed in closed form: each word is
    straightened by the Leibniz rules of _straighten_word, whose
    coefficients are all integers, and f's coefficient multiplies the
    word's map once at the end.  The result is keyed by (a, b) in
    increasing order and omits zero coefficients.
    """
    _require_vars(f, (2, 3), "f")
    if f.degree() > cap:
        raise CapViolationError(f"degree {f.degree()} exceeds cap {cap}")
    out = {}
    for word, coeff in f.terms.items():
        for key, r in _straighten_word(word).items():
            add_scaled(out.setdefault(key, {}), r, coeff)
    return {k: NcPoly._raw(3, t) for k, t in sorted(out.items()) if t}


def straighten_reconstruct(components):
    """Reassemble sum r_(a,b) * x2^a * x3^b from a straightening map."""
    x2 = NcPoly.variable(2, 3)
    x3 = NcPoly.variable(3, 3)
    total = NcPoly.zero(3)
    for (alpha, beta), r in components.items():
        total = total + r * x2 ** alpha * x3 ** beta
    return total


# -- named identity checks and reports ----------------------------------------


def proposition_identity_check(k, N):
    """[c_k, x3^N] == sum_{p+q=N-1} x3^p c_{k+1} x3^q, exactly."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    x3 = NcPoly.variable(3, 3)
    ck = c_generator(k, 2, 3, rank=3)
    ck1 = c_generator(k + 1, 2, 3, rank=3)
    lhs = ring_commutator(ck, x3 ** N)
    rhs = NcPoly.zero(3)
    for p in range(N):
        rhs = rhs + x3 ** p * ck1 * x3 ** (N - 1 - p)
    return lhs == rhs


def proposition_noninvariance_probe(k, m):
    """Refute membership of [c_k, x2] in the order-m layer.

    The witness is the shift x2 -> x2 + x3^n with n = max(2, m).  Its
    defect [c_k, x3^n] has the coefficient n * c_(k+1) at x3^(n-1) in
    Lazard coordinates, so it lies outside layer m-1, and [c_k, x2]
    outside layer m.
    """
    v = ring_commutator(c_generator(k, 2, 3, rank=3), NcPoly.variable(2, 3))
    g = NcPoly.variable(3, 3) ** max(2, m)
    if layer_contains(invariance_defect(v, g, 0), m - 1):
        raise RuntimeError("the shift witness does not refute membership; this is a bug")
    return Verdict.fails(shift_aut(g, 0))


@dataclass
class PiDegreeRow:
    degree: int
    computed_dim: int
    expected_dim: int
    match: bool


@dataclass
class PiReport:
    """Comparison of the abelianized layer with its predicted image.

    Under abelianization the order-1 layer collapses to the constants and
    the order-(m+1) layer to the polynomials in x3 of degree <= m; the
    report states, per degree, the computed and predicted dimensions of
    the image, and whether the image matches the predicted span exactly.
    """

    level: int
    degree_cap: int
    rows: list
    subspace_match: bool
    verdict: Verdict

    @property
    def matches(self):
        return self.subspace_match and all(r.match for r in self.rows)


def remark_pi_check(m, cap):
    """Abelianize the order-m layer and compare with its predicted image."""
    layer = s_layer_basis(m, cap)
    images = []
    for b in layer.basis:
        img = abelianize(b)
        if not img.is_zero():
            images.append(img)
    comm_key = lambda e: (sum(e), e)
    computed = Echelon(key=comm_key)
    for img in images:
        computed.insert(img.terms)
    expected = Echelon(key=comm_key)
    for d in range(0, min(m - 1, cap) + 1):
        expected.insert({(0, 0, d): Fraction(1)})
    computed_dims = {}
    for pivot in computed.pivots():
        d = sum(pivot)
        computed_dims[d] = computed_dims.get(d, 0) + 1
    rows = []
    for d in range(cap + 1):
        exp = 1 if d <= m - 1 else 0
        got = computed_dims.get(d, 0)
        rows.append(PiDegreeRow(d, got, exp, got == exp))
    inside = all(not expected.reduce(img.terms) for img in images)
    return PiReport(m, cap, rows, inside, layer.verdict)


@dataclass
class H1DegreeRow:
    degree: int
    c_span_dim: int
    layer_dim: int


@dataclass
class H1Report:
    """Dimension comparison: products of the c generators vs the order-1
    layer.  Both are exact, and by the module's theorem (L_1 = C) the
    products lie in the layer and span it, degree by degree."""

    degree_cap: int
    rows: list
    contained: bool
    dims_equal: bool
    verdict: Verdict


def hypothesis1_report(cap):
    layer = s_layer_basis(1, cap)
    prods = c_product_span(cap)
    contained = all(layer.contains(p) for p in prods)
    span = Echelon(key=grlex_key)
    for p in prods:
        span.insert(p.terms)
    span_dims = {}
    for pivot in span.pivots():
        d = len(pivot)
        span_dims[d] = span_dims.get(d, 0) + 1
    layer_dims = layer.dims_by_degree()
    rows = [H1DegreeRow(d, span_dims.get(d, 0), layer_dims.get(d, 0))
            for d in range(cap + 1)]
    dims_equal = all(r.c_span_dim == r.layer_dim for r in rows)
    return H1Report(cap, rows, contained, dims_equal, layer.verdict)
