"""The shift-invariant subalgebra of Q<x2, x3> and its layer tower.

Apart from the exact invariance decision (invariance_verdict), which
works in every rank n >= 3, everything here lives in the rank-3 algebra
and uses only x2 and x3.
The acting group is the rank-2 family of substitutions
x2 -> x2 + g(x3), x3 -> x3 + h with g a polynomial in x3 and h a scalar.
Layer 1 of the tower is the algebra of fixed elements; layer m+1 holds
the elements whose defect under every such substitution falls into
layer m.  Layer 0 is {0}.

Over Q the substitution family is generated by one-parameter subgroups,
and in characteristic zero a polynomial is fixed by the subgroup for
x2 -> x2 + t*x3^j exactly when the derivation D_j sending x2 to x3^j
kills it (the orbit map is a polynomial exponential of that derivation,
and the linear coefficient must vanish); likewise x3 -> x3 + t and the
derivation d3 sending x3 to 1.  Quantifying over every j is not finitely
checkable, so the computed layers are truncations: layer m is the joint
kernel of d3 and D_0..D_sd (sd = PitConfig.subst_degree) modulo layer
m-1, computed exactly one bidegree slice at a time.

Nothing is sampled.  Every reported basis vector is checked exactly: d3
and D_j for j <= sd must map it into layer m-1 (anything else is a bug),
and then D_j for sd < j <= cap is applied.  A vector that such a D_j
moves out of layer m-1 is a truncation artifact, reported as a certain
failure whose witness x2 -> x2 + t*x3^j replays.  A basis passing every
check is reported probably_holds, because the shifts of degree above the
cap stay unchecked.
"""

from __future__ import annotations

import itertools
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
from .linalg import Echelon, add_scaled, add_term, nullspace
from .verdict import Verdict

AMBIENT_RANK = 3


class CapViolationError(ValueError):
    """A degree cap was exceeded."""


class NonHomogeneousGeneratorError(ValueError):
    """Subalgebra generators must be homogeneous of degree >= 1."""


@dataclass(frozen=True)
class PitConfig:
    """Knobs for the layer tower.

    subst_degree is the shift degree the layer tower enforces (see
    _layer_slice).
    """

    subst_degree: int = 2

    def __post_init__(self):
        if self.subst_degree < 1:
            raise ValueError("subst_degree must be >= 1")


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


# -- derivations and the layer tower ------------------------------------------


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


def _x3_power(j, coeff=1):
    return NcPoly._raw(3, {(3,) * j: Fraction(coeff)})


def _d3(p):
    """The x3-shift derivation d3: x3 -> 1."""
    return _derive(p, {3: NcPoly.one(3)})


def _dx2(p, j):
    """The x2-shift derivation D_j: x2 -> x3^j."""
    return _derive(p, {2: _x3_power(j)})


# The slice caches are bounded so that a long-lived process cannot grow
# them without limit.  A sweep over every level <= 5 at every cap <= 7
# (subst degree 2, verdicts included) holds 240 layer slices over 58 word
# lists, so these sizes leave room for deeper sweeps before evicting.
@lru_cache(maxsize=256)
def _slice_words(k, l):
    """All words with k letters x2 and l letters x3, lexicographically."""
    words = []
    for positions in itertools.combinations(range(k + l), k):
        w = [3] * (k + l)
        for p in positions:
            w[p] = 2
        words.append(tuple(w))
    words.sort()
    return tuple(words)


def _bidegree(word):
    k = sum(1 for a in word if a == 2)
    return (k, len(word) - k)


@lru_cache(maxsize=1024)
def _layer_slice(level, k, l, subst_degree):
    """Bidegree (k, l) slice of layer `level` (>= 1) as an Echelon of its
    canonical basis, or None when the slice is zero.

    The slice is the joint kernel, on the words with k letters x2 and l
    letters x3, of d3 and D_0..D_subst_degree taken modulo layer
    level-1.  Since [d3, D_j] = j*D_(j-1), and the layers are nested and
    d3 maps each into itself, the kernel of d3 and D_subst_degree alone
    is already that joint kernel, so only those two are imposed.  Their
    images land in bidegrees (k, l-1) and (k-1, l+subst_degree), so the
    slice depends on no degree cap and is memoised on its own.  Callers
    must not mutate the returned Echelon.
    """
    words = _slice_words(k, l)
    rowmap = {}
    for col, w in enumerate(words):
        mono = NcPoly._raw(3, {w: Fraction(1)})
        for opid, image in enumerate((_d3(mono), _dx2(mono, subst_degree))):
            residue = _reduce_against_layer(image.terms, level - 1, subst_degree)
            for rw, rc in residue.items():
                rowmap.setdefault((opid, rw), {})[col] = rc
    kern = nullspace([rowmap[r] for r in sorted(rowmap)], len(words))
    if not kern:
        return None
    ech = Echelon(key=grlex_key)
    for vec in kern:
        ech.insert({words[c]: val for c, val in vec.items()})
    return ech


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


def _reduce_against_layer(terms, level, subst_degree):
    """Residue of a term dict modulo layer `level`, with no degree cap;
    layer 0 is {0}, so there the terms come back unchanged."""
    if level == 0 or not terms:
        return terms
    return _reduce_by_slices(terms, lambda kl: _layer_slice(level, *kl, subst_degree))


def layer_contains(p, level, subst_degree):
    """Membership of p in the computed order-`level` layer, at any degree."""
    return not _reduce_against_layer(p.terms, level, subst_degree)


def _layer_echelons(level, cap, subst_degree):
    """Layer `level` (>= 1) up to degree `cap`: a map bidegree -> Echelon
    over its nonzero slices."""
    out = {}
    for k in range(cap + 1):
        for l in range(cap + 1 - k):
            ech = _layer_slice(level, k, l, subst_degree)
            if ech is not None:
                out[(k, l)] = ech
    return out


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


def s_layer_basis(m, cap, cfg):
    """Truncated order-m layer inside polynomials of degree <= cap.

    The layer is held as its bidegree slices (see GradedSubspace), the
    stabilized kernels of the shifts of degree up to cfg.subst_degree;
    its basis is canonical (reduced echelon form under graded-lex) and
    homogeneous in bidegree.  The verdict comes from exact derivation
    checks of every basis vector (see _layer_verdict), never from
    sampling.
    """
    if m < 1:
        raise ValueError("layer order must be >= 1")
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    layer = GradedSubspace(cap, _layer_echelons(m, cap, cfg.subst_degree), None)
    layer.verdict = _layer_verdict(m, cap, layer.basis, cfg.subst_degree)
    return layer


def _layer_verdict(m, cap, basis, subst_degree):
    """Exact re-verification of a truncated order-m layer basis.

    Each of d3, D_0, .., D_max(cap, subst_degree) in turn is applied to
    every vector.  The slice kernels enforce d3 and D_j, j <= subst_degree,
    so a residue modulo layer m-1 there is a bug.  The first vector that
    an unenforced D_j moves out of layer m-1 is not in the true layer, and
    the verdict fails with a replayed shift witness.
    """
    for j in [None] + list(range(max(cap, subst_degree) + 1)):   # None is d3
        for b in basis:
            image = _d3(b) if j is None else _dx2(b, j)
            if not _reduce_against_layer(image.terms, m - 1, subst_degree):
                continue
            if j is None or j <= subst_degree:
                raise RuntimeError(
                    "a layer vector's derivation image escapes the layer below; "
                    "this is a bug")
            return Verdict.fails(
                _truncation_witness(b, j, m, subst_degree),
                provenance=f"truncation: D_{j} image outside layer {m - 1}")
    return Verdict.probably_holds(
        provenance=f"d3, D_0..D_{max(cap, subst_degree)} exact")


def _truncation_witness(b, j, m, subst_degree):
    """The shift x2 -> x2 + t*x3^j, least t >= 1, whose defect on b leaves
    layer m-1, given that D_j b does."""
    return _least_shift(
        b, 2, _x3_power(j),
        lambda defect: _reduce_against_layer(defect.terms, m - 1, subst_degree))


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


def proposition_noninvariance_probe(k, m, cfg, cap=None):
    """Try to refute membership of [c_k, x2] in the order-m layer.

    Reduction against the computed layer (at a cap exceeding the degree
    of [c_k, x2]) either leaves a nonzero residue, in which case a
    monomial shift x2 -> x2 + x3^n whose defect escapes the layer below
    is attached as the witness, or membership was not refuted at this
    shift degree.  Refutation is only expected while m stays within
    cfg.subst_degree; a truncated tower cannot see deeper shifts.
    """
    v = ring_commutator(c_generator(k, 2, 3, rank=3), NcPoly.variable(2, 3))
    if cap is None:
        cap = int(v.degree()) + 1
    layer = s_layer_basis(m, cap, cfg)
    if layer.contains(v):
        return Verdict.probably_holds(provenance=f"inside computed layer {m}, unsampled")
    x3 = NcPoly.variable(3, 3)
    for n in range(max(2, m), max(2, m) + cfg.subst_degree + 2):
        g = x3 ** n
        defect = invariance_defect(v, g, 0)
        if _reduce_against_layer(defect.terms, m - 1, cfg.subst_degree):
            return Verdict.fails(shift_aut(g, 0))
    raise RuntimeError("membership refuted but no shift witness found; this is a bug")


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


def remark_pi_check(m, cap, cfg):
    """Abelianize the order-m layer and compare with its predicted image."""
    layer = s_layer_basis(m, cap, cfg)
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
    """Dimension comparison: products of the c generators vs the computed
    order-1 layer.  The containment direction is exact; dimension equality
    is evidence only and never asserted."""

    degree_cap: int
    rows: list
    contained: bool
    dims_equal: bool
    verdict: Verdict


def hypothesis1_report(cap, cfg):
    layer = s_layer_basis(1, cap, cfg)
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
