import itertools
import random
from fractions import Fraction

import pytest

from unitri.autgroup import VariableLeakError, parse_aut
from unitri.freealg import (
    NcPoly,
    abelianize,
    c_generator,
    grlex_key,
    ring_commutator,
)
from unitri.invariants import (
    CapViolationError,
    NonHomogeneousGeneratorError,
    PitConfig,
    _layer_echelons,
    _layer_slice,
    c_product_span,
    hypothesis1_report,
    invariance_defect,
    invariance_verdict,
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
from unitri.verdict import FAILS, HOLDS, PROBABLY_HOLDS

from conftest import c_combination, rand_coeff, rand_poly, sample_shift
from layer_oracle import in_layer, sampled_reverify
from straighten_oracle import shuffled_solve_straighten

CFG = PitConfig(subst_degree=2)
SEED, TRIALS, HEIGHT = 9, 15, 6   # the sampled oracles' seed, trial count and scalar bound

X1 = NcPoly.variable(1, 3)
X2 = NcPoly.variable(2, 3)
X3 = NcPoly.variable(3, 3)
C1 = c_generator(1, 2, 3, rank=3)
C2 = c_generator(2, 2, 3, rank=3)
C3 = c_generator(3, 2, 3, rank=3)


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
        assert invariance_verdict(f).is_positive()


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
    c1 = c_generator(1, 3, 4, rank=4)
    cases = [(x[2] * x[4] + x[4], "x1; x2 + x4^2*x3*x4^2; x3; x4"),
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


def test_invariance_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        invariance_verdict(NcPoly.variable(2, 2))
    with pytest.raises(VariableLeakError):
        invariance_verdict(X1 * C1)


# -- layer bases against an independent sampled-kernel oracle -------------------


def _all_words(cap):
    return [w for d in range(cap + 1)
            for w in itertools.product((2, 3), repeat=d)]


def _oracle_layer1(cap, cfg, n_samples, seed):
    """Literal stabilized kernel of sampled defect maps on the full
    monomial basis of degree <= cap; independent of the tower code."""
    rng = random.Random(seed)
    words = _all_words(cap)
    samples = [sample_shift(rng, cfg.subst_degree, HEIGHT) for _ in range(n_samples)]
    rows = {}
    for s, (g, h) in enumerate(samples):
        for col, w in enumerate(words):
            defect = invariance_defect(NcPoly._raw(3, {w: Fraction(1)}), g, h)
            for rw, rc in defect.terms.items():
                rows.setdefault((s, rw), {})[col] = rc
    kern = nullspace([rows[k] for k in sorted(rows)], len(words))
    return [NcPoly._raw(3, {words[c]: v for c, v in vec.items()}) for vec in kern]


def _same_span(polys_a, polys_b):
    ea = Echelon(key=grlex_key)
    for p in polys_a:
        ea.insert(p.terms)
    eb = Echelon(key=grlex_key)
    for p in polys_b:
        eb.insert(p.terms)
    return ea.dim == eb.dim and all(not ea.reduce(p.terms) for p in polys_b)


def test_layer1_cap2_is_unit_and_commutator():
    space = s_layer_basis(1, 2, CFG)
    assert space.basis == [NcPoly.one(3), C1]


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_layer1_matches_sampled_kernel_oracle(cap):
    space = s_layer_basis(1, cap, CFG)
    oracle = _oracle_layer1(cap, CFG, n_samples=8, seed=71)
    assert _same_span(space.basis, oracle)


def test_layer1_cap3_contains_c2():
    space = s_layer_basis(1, 3, CFG)
    assert space.contains(C2)
    assert space.dim == 3


def test_layer2_cap1_contains_x3():
    space = s_layer_basis(2, 1, CFG)
    assert space.contains(NcPoly.one(3))
    assert space.contains(X3)
    assert not space.contains(X2)


def test_layer2_matches_sampled_oracle():
    # literal two-step sampled tower at a small cap, independent of the
    # derivation-based computation
    cap, wcap = 2, 4
    rng = random.Random(17)
    inner = _oracle_layer1(wcap, CFG, n_samples=8, seed=72)
    inner_ech = Echelon(key=grlex_key)
    for p in inner:
        inner_ech.insert(p.terms)
    words = _all_words(cap)
    rows = {}
    for s in range(8):
        g, h = sample_shift(rng, CFG.subst_degree, HEIGHT)
        for col, w in enumerate(words):
            defect = invariance_defect(NcPoly._raw(3, {w: Fraction(1)}), g, h)
            residue = inner_ech.reduce(defect.terms)
            for rw, rc in residue.items():
                rows.setdefault((s, rw), {})[col] = rc
    kern = nullspace([rows[k] for k in sorted(rows)], len(words))
    oracle = [NcPoly._raw(3, {words[c]: v for c, v in vec.items()}) for vec in kern]
    assert _same_span(s_layer_basis(2, cap, CFG).basis, oracle)


def test_layer_nesting():
    for m in (1, 2, 3):
        lower = s_layer_basis(m, 5, CFG)
        upper = s_layer_basis(m + 1, 5, CFG)
        for b in lower.basis:
            assert upper.contains(b)


def test_layer_verdict_and_json_deterministic():
    a = s_layer_basis(1, 3, CFG)
    b = s_layer_basis(1, 3, CFG)
    assert a.verdict.kind == PROBABLY_HOLDS
    assert "trials" not in a.verdict.to_json()
    assert a.verdict.provenance == "d3, D_0..D_3 exact"
    assert a.to_json() == b.to_json()


# every (level, cap) that the other tests build at subst degree 2 and the
# exact checks pass; (3, 4), (3, 5) and (4, 5) are truncation failures
EXACT_PASSES = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


@pytest.mark.parametrize("m,cap", EXACT_PASSES)
def test_exact_pass_agrees_with_sampled_oracle(m, cap):
    space = s_layer_basis(m, cap, CFG)
    assert space.verdict.kind == PROBABLY_HOLDS
    assert sampled_reverify(m, cap, space.basis, CFG.subst_degree, SEED, TRIALS, HEIGHT)


def test_layer_slices_do_not_depend_on_cap():
    # each cap is built from a cache emptied of the cap-7 slices
    _layer_slice.cache_clear()
    top = {m: {bd: e.vectors() for bd, e in _layer_echelons(m, 7, 2).items()}
           for m in (1, 2, 3)}
    _layer_slice.cache_clear()
    for m in (1, 2, 3):
        for cap in range(7):
            got = {bd: e.vectors() for bd, e in _layer_echelons(m, cap, 2).items()}
            assert got == {bd: v for bd, v in top[m].items() if sum(bd) <= cap}


@pytest.mark.parametrize("m,cap,true_dim", [(2, 6, 21), (3, 5, 16)])
def test_truncation_artifacts_fail_with_replaying_witness(m, cap, true_dim):
    space = s_layer_basis(m, cap, PitConfig(subst_degree=2))
    assert space.verdict.kind == FAILS
    g = space.verdict.witness.offsets[1]
    assert g == X3 ** 3
    moved = [b for b in space.basis
             if not in_layer(invariance_defect(b, g, 0), m - 1, 2)]
    assert moved
    # raising the enforced shift degree removes the artifacts
    deeper = s_layer_basis(m, cap, PitConfig(subst_degree=3))
    assert deeper.verdict.kind == PROBABLY_HOLDS
    assert deeper.dim == true_dim
    assert not any(deeper.contains(b) for b in moved)


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


def test_straighten_deep_degree_12(rng):
    words = [(3,) * 6 + (2,) * 6]
    words += [tuple(rng.choice((2, 3)) for _ in range(12)) for _ in range(3)]
    f = NcPoly._raw(3, {w: rand_coeff(rng) for w in words})
    components = specht_straighten(f, 12)
    assert straighten_reconstruct(components) == f
    nonconstant = [r for r in components.values() if not r.is_constant()]
    assert nonconstant
    assert all(abelianize(r).is_zero() for r in nonconstant)


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


def test_probe_refutes_layer1():
    verdict = proposition_noninvariance_probe(1, 1, CFG)
    assert verdict.kind == FAILS
    g = verdict.witness.offsets[1]
    v = ring_commutator(C1, X2)
    assert not invariance_defect(v, g, 0).is_zero()


def test_probe_refutes_layer2_at_cap5():
    assert proposition_noninvariance_probe(1, 2, CFG, cap=5).kind == FAILS


def test_probe_refutes_k2():
    assert proposition_noninvariance_probe(2, 1, CFG).kind == FAILS


# -- abelianized reports -----------------------------------------------------------


@pytest.mark.parametrize("m,expected_degs", [(1, [0]), (2, [0, 1]), (3, [0, 1, 2])])
def test_remark_pi_tables(m, expected_degs):
    cfg = PitConfig(subst_degree=2)
    report = remark_pi_check(m, 4, cfg)
    assert report.matches
    got = [r.degree for r in report.rows if r.computed_dim]
    assert got == expected_degs
    assert all(r.computed_dim == r.expected_dim for r in report.rows)


def test_pi_image_of_layer1_is_constants():
    space = s_layer_basis(1, 4, CFG)
    for b in space.basis:
        img = abelianize(b)
        assert img.is_zero() or img.degree() == 0


def test_hypothesis1_containment_and_dims():
    report = hypothesis1_report(5, CFG)
    assert report.contained
    # observed at low degree; reported as evidence, never asserted deeper
    assert report.dims_equal
    assert [r.c_span_dim for r in report.rows] == [1, 0, 1, 1, 2, 3]


def test_c_product_span_counts():
    prods = c_product_span(5)
    degrees = sorted(int(p.degree()) for p in prods)
    assert degrees == [0, 2, 3, 4, 4, 5, 5, 5]


def test_pit_config_validation():
    with pytest.raises(ValueError):
        PitConfig(subst_degree=0)
