import itertools
import random
from fractions import Fraction

import pytest

from unitri.autgroup import UniAut, VariableLeakError, parse_aut
from unitri.central import un_center_test
from unitri.freealg import (
    NcPoly,
    abelianize,
    c_generator,
    grlex_key,
    ring_commutator,
)
from unitri.invariants import (
    FAILS,
    HOLDS,
    CapViolationError,
    NonHomogeneousGeneratorError,
    _derive,
    c_product_span,
    hypothesis1_report,
    invariance_defect,
    invariance_verdict,
    layer_contains,
    layer_level,
    lazard_weight,
    proposition_identity_check,
    proposition_noninvariance_probe,
    remark_pi_check,
    s_layer_basis,
    shift_aut,
    specht_straighten,
    straighten_reconstruct,
    subalgebra_membership,
)
from unitri.linalg import Echelon, nullspace

from conftest import c_combination, rand_coeff, rand_poly, sample_shift
from layer_oracle import (
    echelon_slice,
    in_layer,
    oracle_basis,
    positive_compositions,
    sampled_reverify,
)
from straighten_oracle import closed_form_straighten, pi3, shuffled_solve_straighten

SD = 2   # the shift degree of the sampled oracles
SEED, TRIALS, HEIGHT = 9, 15, 6   # the sampled oracles' seed, trial count and scalar bound

X1 = NcPoly.variable(1, 3)
X2 = NcPoly.variable(2, 3)
X3 = NcPoly.variable(3, 3)
C1 = c_generator(1, 2, 3)
C2 = c_generator(2, 2, 3)
C3 = c_generator(3, 2, 3)


def test_defect_zero_on_commutator(rng):
    for _ in range(10):
        g, h = sample_shift(rng, 3, 8)
        assert invariance_defect(C1, g, h).is_zero()


def test_defect_constant_shift():
    assert invariance_defect(X2, NcPoly.one(3), 0) == NcPoly.one(3)


def test_defect_bracket_against_x2():
    # shifting x2 by x3^2 moves [c1, x2] by c2 x3 + x3 c2
    v = ring_commutator(C1, X2)
    assert invariance_defect(v, X3 ** 2, 0) == C2 * X3 + X3 * C2


def test_defect_rejects_leaks():
    with pytest.raises(VariableLeakError):
        invariance_defect(X1 * X2, NcPoly.zero(3), 0)
    with pytest.raises(VariableLeakError):
        invariance_defect(X2, X2, 0)


def test_defect_linearity(rng):
    for _ in range(20):
        f = rand_poly(rng, 3, 3, vars_from=2)
        f2 = rand_poly(rng, 3, 3, vars_from=2)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        g, h = sample_shift(rng, 2, 5)
        lhs = invariance_defect(f * a + f2 * b, g, h)
        rhs = invariance_defect(f, g, h) * a + invariance_defect(f2, g, h) * b
        assert lhs == rhs


def test_defect_cocycle_composition(rng):
    # defect under (first shift then second) = substituted defect + second defect
    for _ in range(15):
        f = rand_poly(rng, 3, 3, vars_from=2)
        g1, h1 = sample_shift(rng, 2, 5)
        g2, h2 = sample_shift(rng, 2, 5)
        first = shift_aut(g1, h1)
        second = shift_aut(g2, h2)
        composite = first * second
        lhs = composite.apply(f) - f
        rhs = second.apply(invariance_defect(f, g1, h1)) + invariance_defect(f, g2, h2)
        assert lhs == rhs


def test_is_invariant_pit_certifies_c3():
    assert invariance_verdict(C3).kind == HOLDS


def test_is_invariant_pit_fails_with_witness():
    verdict = invariance_verdict(X2 * X3)
    assert verdict.kind == FAILS
    g = verdict.witness.offsets[1]
    h = verdict.witness.offsets[2].constant_term()
    assert not invariance_defect(X2 * X3, g, h).is_zero()
    # the unit x3-translation already exposes it
    assert invariance_defect(X2 * X3, NcPoly.zero(3), 1) == X2


def test_is_invariant_pit_on_algebra_combinations():
    assert invariance_verdict(C1 * C2 + C3 * 7).kind == HOLDS
    assert invariance_verdict(C1 * C1 - C2 * Fraction(1, 2) + 4).kind == HOLDS


def test_invariants_closed_under_sum_and_product():
    for f in (C1 + C2, C1 * C2, (C1 + 1) * C2):
        assert invariance_verdict(f).kind == HOLDS


# -- the exact invariance decision against a brute-force derivation oracle ------


def _derivation(p, v, image):
    """Each occurrence of x_v in p in turn replaced by `image`, summed."""
    acc = {}
    for word, c in p.terms.items():
        for pos, letter in enumerate(word):
            if letter == v:
                for iw, ic in image.terms.items():
                    w = word[:pos] + iw + word[pos + 1:]
                    acc[w] = acc.get(w, 0) + c * ic
    return NcPoly(p.rank, acc)


def _invariance_oracle(f):
    """No x_i with i <= n-2 occurs, d_n f = 0, and D_j f = 0 for every
    j <= 3*deg f."""
    n = f.rank
    xn = NcPoly.variable(n, n)
    if any(f.degree_in_var(i) > 0 for i in range(2, n - 1)):
        return False
    if not _derivation(f, n, NcPoly.one(n)).is_zero():
        return False
    return all(_derivation(f, n - 1, xn ** j).is_zero()
               for j in range(3 * int(max(f.degree(), 0)) + 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_invariance_verdict_agrees_with_derivation_oracle(rng, n):
    kinds = set()
    for trial in range(30):
        f = c_combination(rng, n)
        if trial % 2:   # one perturbing word
            word = tuple(rng.choices(range(2, n + 1), k=rng.randint(0, 4)))
            f = f + NcPoly(n, {word: rand_coeff(rng, 5)})
        verdict = invariance_verdict(f)
        assert (verdict.kind == HOLDS) == _invariance_oracle(f)
        if verdict.kind == FAILS:
            assert verdict.witness.apply(f) != f
        kinds.add(verdict.kind)
    assert kinds == {HOLDS, FAILS}


def test_invariance_verdict_witness_order():
    # the first failing condition names the witness: an absent low
    # variable, then the x_n-translation, then the least moving D_j
    x = [None] + [NcPoly.variable(i, 4) for i in range(1, 5)]
    c1 = c_generator(1, 3, 4)
    cases = [(x[2] * x[4] + x[4], "x1; x2 + x3*x4; x3; x4"),
             (c1 + x[4], "x1; x2; x3; x4 + 1"),
             (x[3] * x[3] + c1, "x1; x2; x3 + 1; x4"),
             (ring_commutator(x[3], c1), "x1; x2; x3 + x4; x4")]
    for f, witness in cases:
        verdict = invariance_verdict(f)
        assert verdict.kind == FAILS
        assert verdict.witness == parse_aut(witness)
        assert verdict.witness.apply(f) != f
    assert invariance_verdict(NcPoly.zero(3)).kind == HOLDS
    assert invariance_verdict(NcPoly.constant(7, 5)).kind == HOLDS


def _first_moving_map(f):
    """The elementary map x_v -> x_v + image of the first derivation, in
    invariance_verdict's order, that moves f; None when none does."""
    n = f.rank
    xn = NcPoly.variable(n, n)
    d = int(max(f.degree(), 0))
    maps = [(i, NcPoly.variable(n - 1, n) * xn ** max(d - 1, 0)) for i in range(2, n - 1)]
    maps += [(n, NcPoly.one(n))] + [(n - 1, xn ** j) for j in range(d + 1)]
    for v, image in maps:
        if not _derivation(f, v, image).is_zero():
            offsets = [NcPoly.zero(n)] * n
            offsets[v - 1] = image
            return UniAut(n, offsets)
    return None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_center_decision_forms_no_substitution(rng, monkeypatch, n):
    offsets = []
    for trial in range(30):
        f = c_combination(rng, n)
        if trial % 2:   # one perturbing word
            word = tuple(rng.choices(range(2, n + 1), k=rng.randint(0, 4)))
            f = f + NcPoly(n, {word: rand_coeff(rng, 5)})
        offsets.append(f)

    def refuse(*args):
        raise AssertionError("the centre decision formed a substitution")

    monkeypatch.setattr(NcPoly, "substitute", refuse)
    verdicts = [un_center_test(UniAut(n, [f] + [NcPoly.zero(n)] * (n - 1)))
                for f in offsets]
    monkeypatch.undo()
    assert {v.kind for v in verdicts} == {HOLDS, FAILS}
    for f, verdict in zip(offsets, verdicts):
        witness = _first_moving_map(f)
        assert verdict.kind == (HOLDS if witness is None else FAILS)
        if witness is not None:
            assert verdict.witness == witness
            assert witness.apply(f) != f


def test_invariance_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        invariance_verdict(NcPoly.variable(2, 2))
    with pytest.raises(VariableLeakError):
        invariance_verdict(X1 * C1)


# -- layer bases against an independent sampled-kernel oracle -------------------


def _all_words(cap):
    return [w for d in range(cap + 1)
            for w in itertools.product((2, 3), repeat=d)]


def _oracle_layer1(cap, n_samples, seed):
    """Literal stabilized kernel of sampled defect maps on the full
    monomial basis of degree <= cap; independent of the tower code."""
    rng = random.Random(seed)
    words = _all_words(cap)
    samples = [sample_shift(rng, SD, HEIGHT) for _ in range(n_samples)]
    rows = {}
    for s, (g, h) in enumerate(samples):
        for col, w in enumerate(words):
            defect = invariance_defect(NcPoly(3, {w: Fraction(1)}), g, h)
            for rw, rc in defect.terms.items():
                rows.setdefault((s, rw), {})[col] = rc
    kern = nullspace([rows[k] for k in sorted(rows)], len(words))
    return [NcPoly(3, {words[c]: v for c, v in vec.items()}) for vec in kern]


def _same_span(polys_a, polys_b):
    ea = Echelon(key=grlex_key)
    for p in polys_a:
        ea.insert(p.terms)
    eb = Echelon(key=grlex_key)
    for p in polys_b:
        eb.insert(p.terms)
    return ea.dim == eb.dim and all(not ea.reduce(p.terms) for p in polys_b)


def test_layer1_cap2_is_unit_and_commutator():
    space = s_layer_basis(1, 2)
    assert space.basis == [NcPoly.one(3), C1]


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_layer1_matches_sampled_kernel_oracle(cap):
    space = s_layer_basis(1, cap)
    oracle = _oracle_layer1(cap, n_samples=8, seed=71)
    assert _same_span(space.basis, oracle)


def test_layer1_cap3_contains_c2():
    space = s_layer_basis(1, 3)
    assert space.contains(C2)
    assert space.dim == 3


def test_layer2_cap1_contains_x3():
    space = s_layer_basis(2, 1)
    assert space.contains(NcPoly.one(3))
    assert space.contains(X3)
    assert not space.contains(X2)


def test_layer2_matches_sampled_oracle():
    # literal two-step sampled tower at a small cap, independent of the
    # derivation-based computation
    cap, wcap = 2, 4
    rng = random.Random(17)
    inner = _oracle_layer1(wcap, n_samples=8, seed=72)
    inner_ech = Echelon(key=grlex_key)
    for p in inner:
        inner_ech.insert(p.terms)
    words = _all_words(cap)
    rows = {}
    for s in range(8):
        g, h = sample_shift(rng, SD, HEIGHT)
        for col, w in enumerate(words):
            defect = invariance_defect(NcPoly(3, {w: Fraction(1)}), g, h)
            residue = inner_ech.reduce(defect.terms)
            for rw, rc in residue.items():
                rows.setdefault((s, rw), {})[col] = rc
    kern = nullspace([rows[k] for k in sorted(rows)], len(words))
    oracle = [NcPoly(3, {words[c]: v for c, v in vec.items()}) for vec in kern]
    assert _same_span(s_layer_basis(2, cap).basis, oracle)


def test_layer_nesting():
    for m in (1, 2, 3):
        lower = s_layer_basis(m, 5)
        upper = s_layer_basis(m + 1, 5)
        for b in lower.basis:
            assert upper.contains(b)


def test_layer_verdict_and_json_deterministic():
    a = s_layer_basis(1, 3)
    b = s_layer_basis(1, 3)
    assert a.verdict.kind == HOLDS
    assert a.verdict.to_json() == {"kind": "holds"}
    assert a.to_json() == b.to_json()


# (level, cap) pairs put through seeded substitutions of shift degree <= 2
EXACT_PASSES = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


@pytest.mark.parametrize("m,cap", EXACT_PASSES)
def test_exact_pass_agrees_with_sampled_oracle(m, cap):
    space = s_layer_basis(m, cap)
    assert space.verdict.kind == HOLDS
    assert sampled_reverify(m, cap, space.basis, SD, SEED, TRIALS, HEIGHT)


def test_layer_slices_do_not_depend_on_cap():
    top = {m: s_layer_basis(m, 7).basis for m in (1, 2, 3)}
    for m in (1, 2, 3):
        for cap in range(7):
            got = s_layer_basis(m, cap).basis
            assert got == [b for b in top[m] if b.degree() <= cap]


@pytest.mark.parametrize("m,cap,true_dim", [(2, 6, 21), (3, 5, 16)])
def test_truncation_artifacts_fail_with_replaying_witness(m, cap, true_dim):
    # the shift degree 2 tower keeps vectors that x2 -> x2 + x3^3 moves
    # out of the layer below; the closed form has the true dimension and
    # none of them
    tower = oracle_basis(m, cap, 2)
    moved = [b for b in tower
             if not layer_contains(invariance_defect(b, X3 ** 3, 0), m - 1)]
    assert moved and len(tower) > true_dim
    space = s_layer_basis(m, cap)
    assert (space.dim, space.verdict.kind) == (true_dim, HOLDS)
    assert not any(space.contains(b) for b in moved)


# (level, cap, shift degree) where the kernel tower is known to be stable
@pytest.mark.parametrize("m,cap,sd", [(1, 8, 2), (2, 7, 3), (3, 5, 3), (4, 4, 5), (5, 3, 5)])
def test_closed_form_equals_kernel_tower(m, cap, sd):
    assert s_layer_basis(m, cap).basis == oracle_basis(m, cap, sd)


def test_layer1_cap12_has_fibonacci_dims():
    # dim L_1 up to degree D is F_(D+1); F_13 = 233
    assert sum(s_layer_basis(1, 12).dims_by_degree().values()) == 233


# every bidegree (k, l) with k + l <= 9
SLICES = [(k, l) for k in range(10) for l in range(10 - k)]


def _cap9_slices(m):
    """s_layer_basis(m, 9)'s vectors grouped by bidegree, in basis order."""
    slices = {}
    for v in s_layer_basis(m, 9).basis:
        word = next(iter(v.terms))
        slices.setdefault((word.count(2), word.count(3)), []).append(v)
    return slices


def test_layer_slices_equal_the_echelon_oracle():
    for m in range(1, 13):
        slices = _cap9_slices(m)
        for k, l in SLICES:
            got = tuple(slices.get((k, l), ()))
            assert got == echelon_slice(m, k, l), (m, k, l)
            assert all(type(c) is Fraction for v in got for c in v.terms.values())


def test_signed_products_are_triangular():
    # (-1)^(l-b) * x3^b * u_(i_1)..u_(i_k) has least word
    # x3^b*x2*x3^(i_1)..x2*x3^(i_k) with coefficient 1, distinct over (b, I)
    u = [X2]
    for _ in range(9):
        u.append(ring_commutator(X3, u[-1]))
    slices = {m: _cap9_slices(m) for m in range(1, 13)}
    for k, l in SLICES:
        pivots = []
        for b in range(l + 1):
            for indices in positive_compositions(l - b, k):
                prod = X3 ** b * (-1) ** (l - b)
                word = (3,) * b
                for i in indices:
                    prod = prod * u[i]
                    word += (2,) + (3,) * i
                assert min(prod.terms, key=grlex_key) == word
                assert prod.terms[word] == 1
                pivots.append((b, word))
        assert len({w for _, w in pivots}) == len(pivots)
        for m in range(1, 13):
            assert len(slices[m].get((k, l), ())) == sum(b < m for b, _ in pivots)


def test_layers_are_built_without_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Echelon.insert called")

    monkeypatch.setattr(Echelon, "insert", refuse)
    assert s_layer_basis(12, 12).dim == 608


def test_layer_level_reads_lazard_coordinates():
    cases = [(NcPoly.zero(3), 0), (NcPoly.constant(5, 3), 1), (C1 * C2 - C3, 1),
             (X3, 2), (X3 * C1, 2), (X3 ** 3 + C1 * X3, 4),
             (X2, None), (ring_commutator(X2, C1), None), (ring_commutator(C1, X2), None)]
    for f, level in cases:
        assert layer_level(f) == level
        for m in range(1, 5):
            assert layer_contains(f, m) == (level is not None and level <= m)
            # oracle: the kernel tower, which agrees with layer m on these f
            # from shift degree deg f + m - 2 on
            deg = int(max(f.degree(), 0))
            assert s_layer_basis(m, deg).contains(f) == in_layer(f, m, deg + m - 1)
    with pytest.raises(VariableLeakError):
        layer_level(X1)


def test_lazard_weight_reads_the_top_key():
    # x3*x2 = u_0*x3 + u_1 and x3^2*x2 = u_0*x3^2 + 2*u_1*x3 + u_2
    cases = [(NcPoly.zero(3), (0, -1)), (NcPoly.constant(5, 3), (0, 0)),
             (X3 ** 3 + C1 * X3, (0, 3)), (X2, (1, 0)), (X2 * X3 ** 5, (1, 5)),
             (X3 * X2, (1, 1)), (X2 * X2, (2, 0)), (ring_commutator(X2, C1), (1, 0)),
             (X3 ** 2 * X2 * X2 + X2 * X3 ** 4, (2, 2))]
    for f, weight in cases:
        assert lazard_weight(f) == weight
    with pytest.raises(VariableLeakError):
        lazard_weight(X1)


def _random_word_with_x2(rng, length):
    word = [rng.choice((2, 3)) for _ in range(length)]
    word[rng.randrange(length)] = 2
    return tuple(word)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_contains_agrees_with_reduction_against_the_basis(m):
    # oracle: p is in the space when it reduces to zero against an
    # Echelon of the space's basis
    rng = random.Random(4100 + m)
    for cap in range(7):
        space = s_layer_basis(m, cap)
        ech = Echelon(key=grlex_key)
        for b in space.basis:
            ech.insert(b.terms)
        top = [b for b in s_layer_basis(m, cap + 1).basis if b.degree() == cap + 1]
        for _ in range(4):
            combo = NcPoly.zero(3)
            for b in rng.sample(space.basis, rng.randint(1, space.dim)):
                combo = combo + b * rand_coeff(rng, 5)
            word = _random_word_with_x2(rng, rng.randint(1, max(cap, 1)))
            outside = combo + NcPoly(3, {word: rand_coeff(rng, 5)})
            cases = [(combo, True), (outside, False)]
            if top:
                member = NcPoly.zero(3)
                for b in rng.sample(top, rng.randint(1, len(top))):
                    member = member + b * rand_coeff(rng, 5)
                cases.append((member, False))
            for p, expected in cases:
                assert (not ech.reduce(p.terms)) == expected
                assert space.contains(p) == expected


def test_contains_rejects_x1():
    for p in (X1, X1 * C1 + C2):
        with pytest.raises(VariableLeakError):
            s_layer_basis(2, 3).contains(p)


# -- subalgebra membership -------------------------------------------------------


def test_membership_of_built_combination():
    f = C2 * C1 - 3
    expr = subalgebra_membership(f, [C1, C2])
    assert expr is not None
    assert expr.evaluate() == f


def test_membership_rejects_x2():
    assert subalgebra_membership(X2, [C1, C2, C3]) is None


def test_membership_product_representation():
    expr = subalgebra_membership(C1 * C1, [C1])
    assert expr is not None
    assert expr.terms == [(Fraction(1), (0, 0))]


def test_membership_requires_homogeneous_generators():
    with pytest.raises(NonHomogeneousGeneratorError):
        subalgebra_membership(C1, [C1 + 1])
    with pytest.raises(NonHomogeneousGeneratorError):
        subalgebra_membership(C1, [NcPoly.one(3)])


def test_membership_representation_is_deterministic():
    f = C1 * C2 + C2 * C1
    a = subalgebra_membership(f, [C1, C2])
    b = subalgebra_membership(f, [C1, C2])
    assert a.terms == b.terms


def test_membership_expression_text():
    expr = subalgebra_membership(3 + C2 * Fraction(3, 2) - C1 * C1, [C1, C2])
    assert str(expr) == "3 + 3/2*g2 - g1*g1"
    assert str(subalgebra_membership(NcPoly.zero(3), [C1, C2])) == "0"


# -- straightening ---------------------------------------------------------------


def test_straighten_basis_monomial():
    assert specht_straighten(X2 * X3, 5) == {(1, 1): NcPoly.one(3)}


def test_straighten_swapped_word():
    assert specht_straighten(X3 * X2, 5) == {(1, 1): NcPoly.one(3), (0, 0): -C1}


def test_straighten_commutator_element():
    assert specht_straighten(C2, 5) == {(0, 0): C2}


def test_straighten_reconstruction(rng):
    for _ in range(50):
        f = rand_poly(rng, 3, 5, vars_from=2)
        components = specht_straighten(f, 5)
        assert straighten_reconstruct(components) == f


def test_straighten_unique_under_reordered_solver(rng):
    for _ in range(10):
        f = rand_poly(rng, 3, 5, vars_from=2)
        expected = specht_straighten(f, 5)
        assert shuffled_solve_straighten(f, rng) == expected


def test_straighten_equals_unpruned_closed_form(rng):
    # the kernel fans out only the keep-sets that are empty or end in x2;
    # the oracle sends every subword through both projections
    for d in range(10):
        for word in itertools.product((2, 3), repeat=d):
            f = NcPoly(3, {word: 1})
            assert specht_straighten(f, 9) == closed_form_straighten(f), word
    for _ in range(100):
        f = rand_poly(rng, 3, 12, vars_from=2)
        assert specht_straighten(f, 12) == closed_form_straighten(f)


def test_pi3_kills_words_ending_in_x3():
    # the lemma that lets the kernel skip every keep-set ending in x3
    for d in range(9):
        for v in itertools.product((2, 3), repeat=d):
            for c in (1, 2):
                assert pi3(NcPoly(3, {v + (3,) * c: 1})).is_zero(), (v, c)


def test_pi3_keeps_words_ending_in_x2():
    # so the lemma above does not hold for a vacuous reason: pi3(v * x2)
    # keeps v * x2 itself, its j = 0 term
    for d in range(9):
        for v in itertools.product((2, 3), repeat=d):
            p = pi3(NcPoly(3, {v + (2,): 1}))
            assert (p.den, p.ints[v + (2,)]) == (1, 1), v


def test_straighten_deep_degree_12(rng):
    # d2 (x2 -> 1) and d3 (x3 -> 1) kill exactly the commutator
    # subalgebra in characteristic 0 (Specht), so each component must be
    # killed by both
    one = NcPoly.one(3)
    for d in range(6, 13):
        words = [(3,) * (d // 2) + (2,) * (d - d // 2)]
        words += [tuple(rng.choice((2, 3)) for _ in range(d)) for _ in range(3)]
        f = NcPoly(3, {w: rand_coeff(rng) for w in words})
        components = specht_straighten(f, 12)
        assert straighten_reconstruct(components) == f
        nonconstant = [r for r in components.values() if not r.is_constant()]
        assert nonconstant
        assert all(abelianize(r) == {} for r in nonconstant)
        for r in components.values():
            assert _derive(r, 2, one).is_zero() and _derive(r, 3, one).is_zero(), d


def test_straighten_cap_exceeded():
    with pytest.raises(CapViolationError):
        specht_straighten(X3 ** 6, 5)


# -- named identities -------------------------------------------------------------


def test_identity_base_case():
    assert proposition_identity_check(1, 1)
    assert ring_commutator(C1, X3) == C2


def test_identity_n2_expansion():
    assert ring_commutator(C1, X3 ** 2) == C2 * X3 + X3 * C2
    assert proposition_identity_check(1, 2)


def test_identity_deep_case():
    assert proposition_identity_check(3, 5)


def _probe_refutes(k, m):
    """The probe's witness is x2 -> x2 + x3^max(2, m), and its defect of
    [c_k, x2], replayed through the map itself, lies outside layer m - 1."""
    witness = proposition_noninvariance_probe(m)
    assert witness == shift_aut(X3 ** max(2, m), 0)
    v = ring_commutator(c_generator(k, 2, 3), X2)
    defect = witness.apply(v) - v
    assert defect == invariance_defect(v, witness.offsets[1], 0)
    return not layer_contains(defect, m - 1)


def test_probe_refutes_layer1():
    assert _probe_refutes(1, 1)
    assert not invariance_defect(ring_commutator(C1, X2), X3 ** 2, 0).is_zero()


def test_probe_refutes_layer2_at_cap5():
    assert _probe_refutes(1, 2)


def test_probe_refutes_k2():
    assert _probe_refutes(2, 1)


# -- abelianized reports -----------------------------------------------------------


@pytest.mark.parametrize("m,expected_degs", [(1, [0]), (2, [0, 1]), (3, [0, 1, 2])])
def test_remark_pi_tables(m, expected_degs):
    report = remark_pi_check(m, 4)
    assert report.matches
    got = [r.degree for r in report.rows if r.computed_dim]
    assert got == expected_degs
    assert all(r.computed_dim == r.expected_dim for r in report.rows)


def test_pi_image_of_layer1_is_constants():
    space = s_layer_basis(1, 4)
    for b in space.basis:
        assert all(sum(e) == 0 for e in abelianize(b))


def test_hypothesis1_containment_and_dims():
    report = hypothesis1_report(5)
    assert report.contained
    assert report.dims_equal
    assert [r.c_span_dim for r in report.rows] == [1, 0, 1, 1, 2, 3]


@pytest.mark.parametrize("cap", range(10))
def test_hypothesis1_dims_match_elimination(cap):
    # the oracle: the span of the c products by row reduction
    span = Echelon(key=grlex_key)
    for p in c_product_span(cap):
        span.insert(p.terms)
    dims = [0] * (cap + 1)
    for pivot in span.pivots():
        dims[len(pivot)] += 1
    report = hypothesis1_report(cap)
    assert [r.c_span_dim for r in report.rows] == dims
    assert report.dims_equal and report.contained


def test_c_product_span_counts():
    prods = c_product_span(5)
    degrees = sorted(int(p.degree()) for p in prods)
    assert degrees == [0, 2, 3, 4, 4, 5, 5, 5]
