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
   Reutenauer, Free Lie Algebras, 1993).  An uncached integer fold over a
   word's letters computes them (lazard._lazard_word): appending x3
   raises b by one, and appending x2 uses
   x3^b * x2 = sum_i C(b,i) * u_i * x3^(b-i).
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
contains u_0 (lazard.layer_level), every layer is known exactly at
every degree, and dim L_1 up to degree D is the Fibonacci number
F_(D+1).  The central module extends the theorem past the finite
layers: the level of x1 + f in U_3 is read off the same coordinates
(lazard.lazard_weight), and the lazard module holds that fold alone,
so the classifier loads it without this module.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .freealg import (
    NcPoly,
    RankMismatchError,
    VariableLeakError,
    _mul_words,
    abelianize,
    add_scaled,
    add_term,
    c_generator,
    format_poly,
    grlex_key,
    join_signed_terms,
    ring_commutator,
)
# the Lazard fold and Verdict live in lazard, which a rank-3 classify
# loads alone; every name stays importable from here, the same object
from .lazard import (  # noqa: F401
    AMBIENT_RANK,
    FAILS,
    HOLDS,
    CapViolationError,
    Verdict,
    _lazard_word,
    _require_vars,
    lazard_weight,
    layer_level,
)


class NonHomogeneousGeneratorError(ValueError):
    """Subalgebra generators must be homogeneous of degree >= 1."""


class PitConfig:
    """An empty configuration.  The layers are exact, so nothing here is
    configurable; the classifier and the centre test accept one and
    ignore it."""


def invariance_defect(f, g, h):
    """f(x2 + g(x3), x3 + h) - f(x2, x3); zero iff this shift fixes f."""
    _require_vars(f, (2, 3), "f")
    _require_vars(g, (3,), "g")
    return shift_aut(g, h).apply(f) - f


def shift_aut(g, h):
    """The substitution above as a rank-3 automorphism fixing x1."""
    from .autgroup import UniAut
    return UniAut(3, [NcPoly.zero(3), g, NcPoly.constant(h, 3)])


def _derive(p, v, image):
    """The derivation sending x_v to image and every other variable to 0."""
    acc = {}
    for word, c in p.ints.items():
        for pos, letter in enumerate(word):
            if letter != v:
                continue
            head, tail = word[:pos], word[pos + 1:]
            for mw, mc in image.ints.items():
                add_term(acc, head + mw + tail, c * mc)
    return NcPoly._reduced(p.rank, p.den * image.den, acc)


# -- the layer tower ----------------------------------------------------------


def layer_contains(p, level):
    """Membership of p in the order-`level` layer, at any degree."""
    m = layer_level(p)
    return m is not None and m <= level


class GradedSubspace:
    """The order-`level` layer of Q<x2,x3> up to a degree cap: its
    canonical basis (reduced echelon form under graded-lex, homogeneous
    in bidegree).  Membership is read off Lazard coordinates, by the same
    rule as layer_contains.  The module's theorem gives every slice
    exactly, so the verdict is always holds."""

    ambient = "Q<x2,x3>"
    verdict = Verdict.holds()

    def __init__(self, level, degree_cap, basis):
        self.level = level
        self.degree_cap = degree_cap
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, p):
        return p.degree() <= self.degree_cap and layer_contains(p, self.level)

    def dims_by_degree(self):
        return dict(sorted(Counter(b.degree() for b in self.basis).items()))

    def to_json(self):
        return {
            "degree_cap": self.degree_cap,
            "ambient": self.ambient,
            "verdict": self.verdict.to_json(),
            "basis": [format_poly(b) for b in self.basis],
            "dims_by_degree": {str(d): n for d, n in self.dims_by_degree().items()},
        }


def s_layer_basis(m, cap):
    """The order-m layer inside polynomials of degree <= cap, as its
    canonical basis in ascending graded-lex pivot order.

    The rows are x3^b * c_(i_1)..c_(i_k) with every i >= 1, b < m and
    total degree <= cap.  They span the layer: x3*c_i = c_i*x3 - c_(i+1),
    so sum_(b<m) x3^b*C = sum_(b<m) C*x3^b = L_m.  The least graded-lex
    word of c_i is x2*x3^i with coefficient 1, so a row's least word, its
    pivot, is x3^b*x2*x3^(i_1)..x2*x3^(i_k) with coefficient 1; it gives
    back (b, I), so the rows are triangular and none has a word below its
    pivot.  Reducing each row by the rows of larger pivot, largest first,
    stays in ints and gives the unique RREF.  A row is homogeneous in
    bidegree, so rows of different bidegrees never meet.
    """
    if m < 1:
        raise ValueError("layer order must be >= 1")
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    gens = [c_generator(i, 2, 3).ints for i in range(1, cap)]
    degs = [i + 2 for i in range(len(gens))]
    rows = {}
    for b in range(min(m - 1, cap) + 1):
        for d in range(cap - b + 1):
            for word in _generator_words(d, degs):
                prod = {(3,) * b: 1}
                for i in word:
                    prod = _mul_words(prod, gens[i])
                rows[min(prod)] = prod
    pivots = sorted(rows, key=grlex_key)
    for pivot in reversed(pivots):
        row = rows[pivot]
        for w, c in [(w, c) for w, c in row.items() if w != pivot and w in rows]:
            add_scaled(row, rows[w], -c)
    return GradedSubspace(m, cap, [NcPoly._make(AMBIENT_RANK, 1, rows[p]) for p in pivots])


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
    vanish.  For (c), let D send x_i to P = x_(n-1)*x_n^(d-1), d letters.
    A word u*x_i*v of f leaves at most d-1 letters in u and v together, so
    P occurs in u*P*v only at offset |u|: an occurrence starting left of
    it would need x_n where P starts, one starting right of it would
    start inside P's x_n-run.  So D is injective on (word, occurrence)
    pairs and kills f only when x_i is absent.

    The witness is the map of the first failing condition at t = 1:
    x_i -> x_i + x_(n-1)*x_n^(d-1), x_n -> x_n + 1, or
    x_(n-1) -> x_(n-1) + x_n^j with the least such j.  It moves f: its
    one-parameter group is psi_t = exp(t*D), D that condition's
    derivation, with D f != 0, and psi_1^k = psi_k.  Were f fixed by
    psi_1, it would be fixed by every psi_k with k >= 1; then the
    polynomial psi_t(f) - f in t vanishes at every positive integer, so
    identically, and its linear coefficient D f is 0 (van den Essen,
    Polynomial Automorphisms, 2000, ch. 1).  So the decision forms no
    substitution.
    """
    from .autgroup import UniAut
    n = f.rank
    if n < 3:
        raise ValueError(f"rank must be >= 3, got {n}")
    if f.degree_in_var(1) > 0:
        raise VariableLeakError(1, "f must not involve x1")
    d = int(max(f.degree(), 0))
    xn = NcPoly.variable(n, n)
    for i in range(2, n - 1):
        if f.degree_in_var(i) > 0:
            return Verdict.fails(UniAut.elementary(i, NcPoly.variable(n - 1, n) * xn ** (d - 1)))
    one = NcPoly.one(n)
    if not _derive(f, n, one).is_zero():
        return Verdict.fails(UniAut.elementary(n, one))
    for j in range(d + 1):
        if not _derive(f, n - 1, xn ** j).is_zero():
            return Verdict.fails(UniAut.elementary(n - 1, xn ** j))
    return Verdict.holds()


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
    from .linalg import Echelon
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
    gens = [c_generator(k, 2, 3) for k in range(1, cap)]
    degs = [k + 2 for k in range(len(gens))]
    return [NcPoly.one(3)] + [_product(gens, word, 3) for d in range(2, cap + 1)
                              for word in _generator_words(d, degs)]


# -- free-module straightening ------------------------------------------------


def specht_straighten(f, cap):
    """Write f as sum of r_(a,b) * x2^a * x3^b with r_(a,b) in the
    subalgebra B that the commutators generate, keyed by (a, b) in
    increasing order, zeros omitted.  Q<x2, x3> is a free left B-module on
    the x2^a * x3^b (Lazard elimination), so the r_(a,b) are unique.

    Closed form.  Let D(p,q) = d2^p d3^q / (p! q!), where d2: x2 -> 1,
    x3 -> 0 and d3: x3 -> 1, x2 -> 0; on a word it deletes p letters x2
    and q letters x3, each choice of positions once.  Then
      r_(a,b) = sum_(i,j) (-1)^(i+j) C(a+i,i) C(b+j,j) D(a+i,b+j)(f) x3^j x2^i.
    Proof.  d2 and d3 send x2, x3 to scalars, so they commute with ad_x2
    and ad_x3 and kill B; on r * x2^a * x3^b they act as on commuting
    variables.  So pi3(g) = sum_j (-1)^j D(0,j)(g) x3^j keeps the b = 0
    part of g, as sum_j (-1)^j C(b,j) = 0 for b > 0, and pi2 likewise for
    a.  So r_(a,b), the (0, 0) coefficient of D(a,b)f, is pi2(pi3(D(a,b)f)),
    and D(i,0) D(0,j) D(a,b) = C(a+i,i) C(b+j,j) D(a+i,b+j).

    Each word is folded once into {(p, q): {subword: n}}, in ints over
    f's common denominator; then comes the sum over j, then that over i.
    """
    _require_vars(f, (2, 3), "f")
    if f.degree() > cap:
        raise CapViolationError(f"degree {f.degree()} exceeds cap {cap}")
    parts = {}   # (p, q) -> {subword: n}; a word's subword fixes its p, q
    for word, c in f.ints.items():
        subs = {(): c}
        for letter in word:
            nxt = dict(subs)   # the letter deleted
            for s, n in subs.items():
                add_term(nxt, s + (letter,), n)
            subs = nxt
        for s, n in subs.items():
            p = word.count(2) - s.count(2)
            add_term(parts.setdefault((p, len(word) - len(s) - p), {}), s, n)
    for axis in (1, 0):   # pi3: q and tails x3^j; then pi2: p and tails x2^i
        out = {}
        for pq, group in parts.items():
            e = pq[axis]
            moves = [(out.setdefault(pq[:axis] + (e - j,) + pq[axis + 1:], {}),
                      (2 + axis,) * j, (-1) ** j * math.comb(e, j)) for j in range(e + 1)]
            for s, n in group.items():
                for target, tail, scale in moves:
                    add_term(target, s + tail, scale * n)
        parts = out
    return {k: NcPoly._reduced(3, f.den, t) for k, t in sorted(parts.items()) if t}


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
    ck = c_generator(k, 2, 3)
    ck1 = c_generator(k + 1, 2, 3)
    lhs = ring_commutator(ck, x3 ** N)
    rhs = NcPoly.zero(3)
    for p in range(N):
        rhs = rhs + x3 ** p * ck1 * x3 ** (N - 1 - p)
    return lhs == rhs


def proposition_noninvariance_probe(m):
    """The shift x2 -> x2 + x3^n, n = max(2, m), that refutes membership
    of [c_k, x2] in the order-m layer, the same for every k >= 1.  Its
    defect [c_k, x3^n] has the coefficient n * c_(k+1) at x3^(n-1) in
    Lazard coordinates, so it lies outside layer m-1, and [c_k, x2]
    outside layer m.
    """
    return shift_aut(NcPoly.variable(3, 3) ** max(2, m), 0)


PiDegreeRow = namedtuple("PiDegreeRow", "degree computed_dim expected_dim match")


class PiReport(namedtuple("PiReport", "level degree_cap rows subspace_match")):
    """Comparison of the abelianized layer with its predicted image.

    Under abelianization the order-1 layer collapses to the constants and
    the order-(m+1) layer to the polynomials in x3 of degree <= m; the
    report states, per degree, the computed and predicted dimensions of
    the image, and whether the image matches the predicted span exactly.
    """

    __slots__ = ()

    @property
    def matches(self):
        return self.subspace_match and all(r.match for r in self.rows)


def remark_pi_check(m, cap):
    """Abelianize the order-m layer and compare with its predicted image."""
    # a bidegree-homogeneous basis vector abelianizes to a multiple of one monomial
    monomials = set()
    for b in s_layer_basis(m, cap).basis:
        monomials.update(abelianize(b))
    computed_dims = Counter(sum(e) for e in monomials)
    rows = []
    for d in range(cap + 1):
        exp = 1 if d <= m - 1 else 0
        got = computed_dims[d]
        rows.append(PiDegreeRow(d, got, exp, got == exp))
    inside = all(e[:2] == (0, 0) and e[2] <= m - 1 for e in monomials)
    return PiReport(m, cap, rows, inside)


H1DegreeRow = namedtuple("H1DegreeRow", "degree c_span_dim layer_dim")


class H1Report(namedtuple("H1Report", "degree_cap rows contained dims_equal")):
    """Dimension comparison: products of the c generators vs the order-1
    layer.  Graded lex is multiplicative and c_k has least word
    x2*x3^k, so a product c_(k_1)..c_(k_r) has least word
    x2*x3^(k_1)..x2*x3^(k_r), and the products are triangular: the span
    dimension in each degree is the count of distinct least words.
    dims_equal is False when two products share one.  By the module's
    theorem (L_1 = C) the products lie in the layer and span it."""

    __slots__ = ()


def hypothesis1_report(cap):
    layer = s_layer_basis(1, cap)
    prods = c_product_span(cap)
    contained = all(layer.contains(p) for p in prods)
    least = {min(p.ints, key=grlex_key) for p in prods}
    span_dims = Counter(len(w) for w in least)
    layer_dims = layer.dims_by_degree()
    rows = [H1DegreeRow(d, span_dims[d], layer_dims.get(d, 0)) for d in range(cap + 1)]
    dims_equal = (len(least) == len(prods)
                  and all(r.c_span_dim == r.layer_dim for r in rows))
    return H1Report(cap, rows, contained, dims_equal)
