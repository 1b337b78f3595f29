import random
from fractions import Fraction
from pathlib import Path

import pytest

from unitri import autgroup, freealg, suites
from unitri.autgroup import (
    MAX_RANK,
    NonConstantLastError,
    UniAut,
    VariableLeakError,
    _rand_ratio,
    aut_from_json,
    aut_to_json,
    compose,
    compose_chain,
    conjugate,
    derived_level_shape,
    difference_preimage,
    factor_semidirect,
    format_aut,
    group_commutator,
    invert,
    parse_aut,
    random_aut,
    random_aut_rng,
)
from unitri.freealg import (
    MAX_WORD_LENGTH,
    NcPoly,
    ParseError,
    RankMismatchError,
    RankOverflowError,
    SubstitutionTooLargeError,
    c_generator,
    format_poly,
    parse_poly,
    ring_commutator,
)

from conftest import rand_coeff, rand_poly
from draw_oracle import (
    fraction_rand_constant,
    fraction_rand_u2,
    fraction_rand_y_poly,
    fraction_random_aut_rng,
)
from group_oracle import (
    oracle_compose,
    oracle_conjugate,
    oracle_group_commutator,
    oracle_invert,
    oracle_taylor_shift,
)
from poly_oracle import fraction_difference_preimage

GOLDEN = Path(__file__).parent / "golden"


def y_poly(s):
    return parse_poly(s, 2)


def u2(f_text, b):
    return UniAut(2, [y_poly(f_text), NcPoly.constant(b, 2)])


def test_aut_new_valid():
    phi = u2("x2^2", 1)
    assert phi.offsets[0] == y_poly("x2^2")


def test_aut_new_variable_leak():
    with pytest.raises(VariableLeakError) as err:
        UniAut(2, [parse_poly("x1*x2", 2), NcPoly.zero(2)])
    assert err.value.index == 1


def test_aut_new_leak_names_the_smallest_variable():
    # the message names the smallest offending variable, here held by a
    # later word, and the first offending slot
    zero = NcPoly.zero(4)
    with pytest.raises(VariableLeakError, match=r"^offset 3 involves x2$") as err:
        UniAut(4, [zero, zero, parse_poly("x3*x4 + x4*x2", 4), zero])
    assert err.value.index == 3
    with pytest.raises(VariableLeakError, match=r"^offset 2 involves x1$"):
        UniAut(4, [zero, parse_poly("x2*x3 + x3*x1", 4),
                   parse_poly("x3*x4 + x2", 4), zero])


def test_aut_new_nonconstant_last():
    with pytest.raises(NonConstantLastError):
        UniAut(3, [NcPoly.zero(3), NcPoly.zero(3), NcPoly.variable(3, 3)])


def test_apply_reads_offset():
    phi = u2("x2^2", 1)
    assert phi.apply(NcPoly.variable(1, 2)) == parse_poly("x1 + x2^2", 2)


def test_apply_identity():
    p = parse_poly("x1*x2 - 3", 2)
    assert UniAut.identity(2).apply(p) == p


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_shift_of_bracket(n):
    # (x1, x2 + x3^n, x3) moves [c1, x2] by sum of x3^p c2 x3^q, p+q = n-1
    x2 = NcPoly.variable(2, 3)
    x3 = NcPoly.variable(3, 3)
    phi = UniAut(3, [NcPoly.zero(3), x3 ** n, NcPoly.zero(3)])
    v = ring_commutator(c_generator(1, 2, 3), x2)
    c2 = c_generator(2, 2, 3)
    expected = NcPoly.zero(3)
    for p in range(n):
        expected = expected + x3 ** p * c2 * x3 ** (n - 1 - p)
    assert phi.apply(v) - v == expected


def test_compose_with_identity():
    phi = u2("x2^3 - x2", 2)
    assert phi * UniAut.identity(2) == phi
    assert UniAut.identity(2) * phi == phi


def test_compose_one_step_by_hand():
    a = parse_aut("x1 + x2; x2")
    b = parse_aut("x1; x2 + 1")
    assert a * b == parse_aut("x1 + x2 + 1; x2 + 1")


def test_conjugation_closed_form_instance():
    # f = y^2, h = y^3, b = 1, c = 2: psi^-1 phi psi = (x + h(y) - h(y+1) + f(y+2), y+1)
    phi = u2("x2^2", 1)
    psi = u2("x2^3", 2)
    x1 = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)
    h = y ** 3
    f = y ** 2
    shift = lambda p, t: p.substitute([x1, y + t])
    expected = UniAut(2, [h - shift(h, 1) + shift(f, 2), NcPoly.one(2)])
    assert conjugate(phi, psi) == expected
    assert psi.invert() * phi * psi == expected


def test_invert_closed_form_instance():
    # (x + y^2, y + 1)^-1 = (x - (y-1)^2, y - 1)
    phi = u2("x2^2", 1)
    y = NcPoly.variable(2, 2)
    expected = UniAut(2, [-((y - 1) ** 2), NcPoly.constant(-1, 2)])
    assert phi.invert() == expected


def test_invert_identity():
    assert UniAut.identity(3).invert().is_identity()


def test_invert_rank3_round_trip():
    phi = parse_aut("x1 + x2*x3; x2 + x3^2; x3 + 1")
    assert (phi * phi.invert()).is_identity()
    assert (phi.invert() * phi).is_identity()


def test_conjugate_by_identity():
    phi = u2("x2^2 - 2*x2", 3)
    assert conjugate(phi, UniAut.identity(2)) == phi


def test_center_elements_conjugation_invariant(rng):
    center = u2("5", 0)
    for _ in range(20):
        psi = UniAut(2, [rand_poly(rng, 2, 3, vars_from=2),
                         NcPoly.constant(rng.randint(-3, 3), 2)])
        assert conjugate(center, psi) == center


def test_commutator_with_self_is_identity():
    phi = u2("x2^2", 1)
    assert group_commutator(phi, phi).is_identity()


def test_commutator_closed_form_instance():
    # [(x+y^2, y+1), (x+y^3, y+2)] = (x + y^3 - (y+1)^3 + (y+2)^2 - y^2, y)
    phi = u2("x2^2", 1)
    psi = u2("x2^3", 2)
    x1 = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)
    shift = lambda p, t: p.substitute([x1, y + t])
    expected_offset = y ** 3 - shift(y ** 3, 1) + shift(y ** 2, 2) - y ** 2
    assert group_commutator(phi, psi) == UniAut(2, [expected_offset, NcPoly.zero(2)])


def test_commutator_lands_in_center():
    phi = u2("x2", 0)
    psi = u2("0", 1)
    assert group_commutator(phi, psi) == u2("1", 0)


def test_factor_identity():
    assert all(g.is_identity() for g in factor_semidirect(UniAut.identity(3)))


def test_factor_rank3_recomposes():
    phi = parse_aut("x1 + x2*x3; x2 + x3^2; x3 + 1")
    factors = factor_semidirect(phi)
    assert len(factors) == 3
    assert compose_chain(list(reversed(factors))) == phi


def test_factor_rank2_order():
    phi = u2("x2^2 + x2", 3)
    g1, g2 = factor_semidirect(phi)
    assert g1 == u2("x2^2 + x2", 0)
    assert g2 == u2("0", 3)
    assert g2 * g1 == phi


def test_derived_level_shape_values():
    phi = UniAut(3, [parse_poly("x2*x3", 3), NcPoly.zero(3), NcPoly.zero(3)])
    assert derived_level_shape(phi) == 2
    assert derived_level_shape(UniAut.identity(3)) == 3
    assert derived_level_shape(parse_aut("x1; x2; x3 + 1")) == 0


def test_random_aut_deterministic():
    a = random_aut(3, 3, 10, seed=42)
    b = random_aut(3, 3, 10, seed=42)
    assert a == b
    assert a != random_aut(3, 3, 10, seed=43)


def test_random_aut_respects_bounds():
    for seed in range(30):
        phi = random_aut(4, 3, 10, seed=seed)
        for f in phi.offsets:
            assert f.degree() <= 3
        assert phi.offsets[-1].degree() <= 0


@pytest.mark.parametrize("rank, max_degree, coeff_height", [
    (1, 2, 3), (MAX_RANK + 1, 2, 3), (2, -1, 3), (2, MAX_WORD_LENGTH + 1, 3),
    (2, 10**9, 3), (3, 2, 0), (3, 2, -1),
], ids=["rank-1", "rank-too-large", "degree-negative", "degree-too-large",
        "degree-huge", "height-0", "height-negative"])
def test_random_aut_refuses_bounds_before_drawing(rank, max_degree, coeff_height):
    # a zero height once redrew a zero numerator forever, and a huge
    # degree ran until killed
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_aut_rng(rng, rank, max_degree, coeff_height)
    assert rng.getstate() == state
    with pytest.raises(ValueError):
        random_aut(rank, max_degree, coeff_height, seed=5)


def test_random_aut_accepts_the_extreme_bounds():
    for rank, max_degree in ((2, 0), (MAX_RANK, MAX_WORD_LENGTH)):
        phi = random_aut(rank, max_degree, 1, seed=5)
        assert phi.rank == rank
        assert all(f.degree() <= max_degree for f in phi.offsets)


# -- group laws on random samples ----------------------------------------------


def test_group_axioms(rng):
    for _ in range(60):
        rank = rng.randint(2, 4)
        a = random_aut_rng(rng, rank, 3, 8)
        b = random_aut_rng(rng, rank, 3, 8)
        c = random_aut_rng(rng, rank, 3, 8)
        assert (a * b) * c == a * (b * c)
        assert (a * a.invert()).is_identity()
        assert (a.invert() * a).is_identity()


def test_lemma1_closed_forms_random(rng):
    x1 = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)

    def shift(p, t):
        return p.substitute([x1, y + NcPoly.constant(t, 2)])

    for _ in range(30):
        f = rand_poly(rng, 2, 4, vars_from=2)
        h = rand_poly(rng, 2, 4, vars_from=2)
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        phi = UniAut(2, [f, NcPoly.constant(b, 2)])
        psi = UniAut(2, [h, NcPoly.constant(c, 2)])
        assert phi.invert() == UniAut(2, [-shift(f, -b), NcPoly.constant(-b, 2)])
        assert conjugate(phi, psi) == UniAut(
            2, [h - shift(h, b) + shift(f, c), NcPoly.constant(b, 2)])
        assert group_commutator(phi, psi) == UniAut(
            2, [h - shift(h, b) + shift(f, c) - f, NcPoly.zero(2)])


def test_u2_commutators_fix_y(rng):
    for _ in range(50):
        phi = UniAut(2, [rand_poly(rng, 2, 3, vars_from=2),
                         NcPoly.constant(rng.randint(-4, 4), 2)])
        psi = UniAut(2, [rand_poly(rng, 2, 3, vars_from=2),
                         NcPoly.constant(rng.randint(-4, 4), 2)])
        assert group_commutator(phi, psi).offsets[1].is_zero()


def test_difference_preimage_solves(rng):
    x1 = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)
    for _ in range(30):
        target = rand_poly(rng, 2, 4, vars_from=2)
        r = difference_preimage(target, 1)
        assert r.substitute([x1, y + 1]) - r == target


@pytest.mark.parametrize("shift", [1, 3, -2, Fraction(1, 10), Fraction(-7, 4), Fraction(5, 3)],
                         ids=["1", "3", "-2", "1/10", "-7/4", "5/3"])
def test_difference_preimage_matches_the_fraction_solve(shift):
    rng = random.Random(277)
    targets = [NcPoly.zero(2)]
    for deg in range(9):
        targets += [rand_poly(rng, 2, deg, height=9, max_terms=deg + 1, vars_from=2)
                    for _ in range(6)]
    assert any(t.degree() == 8 for t in targets)
    for target in targets:
        assert difference_preimage(target, shift).terms == \
            fraction_difference_preimage(target.terms, shift)


def test_difference_preimage_takes_exact_shifts_only():
    target = parse_poly("x2", 2)
    assert difference_preimage(target, Fraction(1, 10)) == parse_poly("5*x2^2 - 1/2*x2", 2)
    with pytest.raises(TypeError):
        difference_preimage(target, 0.1)   # not 1/10 in binary


def test_any_first_row_element_is_a_commutator():
    target = y_poly("x2^4 - 1/2*x2^2 + 3")
    r = difference_preimage(target, 1)
    phi = u2("0", 1)
    psi = UniAut(2, [-r, NcPoly.zero(2)])
    assert group_commutator(phi, psi) == UniAut(2, [target, NcPoly.zero(2)])


def test_commutators_have_shape_at_least_one(rng):
    for _ in range(40):
        rank = rng.randint(2, 4)
        phi = random_aut_rng(rng, rank, 2, 6)
        psi = random_aut_rng(rng, rank, 2, 6)
        assert derived_level_shape(group_commutator(phi, psi)) >= 1


def test_factor_recomposes_random(rng):
    for _ in range(60):
        rank = rng.randint(2, 4)
        phi = random_aut_rng(rng, rank, 3, 8)
        assert compose_chain(list(reversed(factor_semidirect(phi)))) == phi


def test_elementary_maps_recompose_the_factorization(rng):
    for _ in range(40):
        rank = rng.randint(2, 5)
        phi = random_aut_rng(rng, rank, 3, 8)
        factors = [UniAut.elementary(i, f) for i, f in enumerate(phi.offsets, start=1)]
        for i, g in enumerate(factors, start=1):   # x_i -> x_i + f_i, the rest fixed
            for v in range(1, rank + 1):
                xv = NcPoly.variable(v, rank)
                assert g.apply(xv) == (xv + phi.offsets[i - 1] if v == i else xv)
        assert factors == factor_semidirect(phi)
        assert compose_chain(factors[::-1]) == phi


@pytest.mark.parametrize("index", [0, 4, -1])
def test_elementary_rejects_an_index_outside_the_rank(index):
    # index 0 must not fill the last slot, as offsets[index - 1] would
    with pytest.raises(ValueError, match=f"variable index {index} outside rank 3"):
        UniAut.elementary(index, NcPoly.constant(1, 3))


def test_elementary_checks_its_offset():
    with pytest.raises(VariableLeakError):
        UniAut.elementary(2, parse_poly("x2*x3", 3))
    with pytest.raises(NonConstantLastError):
        UniAut.elementary(3, parse_poly("x3", 3))



# -- the group operations against their written definitions ----------------------


def _compose_ref(phi, psi):
    """Offset-wise: g_i + f_i(x_j + g_j), each sum a separate `+`."""
    n = phi.rank
    images = [NcPoly.variable(j, n) + g for j, g in enumerate(psi.offsets, start=1)]
    return UniAut(n, [g + f.substitute(images) for f, g in zip(phi.offsets, psi.offsets)])


def _invert_ref(phi):
    """Back-substitution from x_n upward, each next image a `+`."""
    n = phi.rank
    imgs = [NcPoly.variable(j, n) for j in range(1, n + 1)]
    inv = [None] * n
    for i in range(n - 1, -1, -1):
        inv[i] = -phi.offsets[i].substitute(imgs)
        imgs[i] = imgs[i] + inv[i]
    return UniAut(n, inv)


def _mixed_denominator_map(rng, rank):
    """Offsets of up to 3 terms over denominators up to 12, of degree at
    most 3 (2 from rank 4 on), the last a constant that may be 0."""
    degree = 3 if rank < 4 else 2
    offsets = [rand_poly(rng, rank, degree, height=12, max_terms=3, vars_from=i + 1)
               for i in range(1, rank)]
    return UniAut(rank, offsets + [NcPoly.constant(rand_coeff(rng, 12, allow_zero=True), rank)])


def _group_cases(rng):
    for rank in (2, 3, 4, 5):
        for _ in range(12):
            phi = _mixed_denominator_map(rng, rank)
            psi = _mixed_denominator_map(rng, rank)
            yield phi, psi
            yield phi, _invert_ref(phi)   # every offset of the product cancels to 0


def test_group_operations_match_their_definitions(rng):
    for phi, psi in _group_cases(rng):
        inv_phi, inv_psi = _invert_ref(phi), _invert_ref(psi)
        expected = {
            "compose": _compose_ref(phi, psi),
            "invert": inv_phi,
            "conjugate": _compose_ref(_compose_ref(inv_psi, phi), psi),
            "commutator": _compose_ref(_compose_ref(_compose_ref(inv_phi, inv_psi), phi), psi),
        }
        got = {
            "compose": phi * psi,
            "invert": phi.invert(),
            "conjugate": conjugate(phi, psi),
            "commutator": group_commutator(phi, psi),
        }
        for name, result in got.items():
            assert result == expected[name], name
            # the trusted results pass the full check of the constructor
            assert UniAut(result.rank, result.offsets) == result, name
        if psi == inv_phi:
            assert got["compose"].is_identity()


def test_fused_substitution_equals_the_sum(rng):
    x = [NcPoly.variable(j, 3) for j in (1, 2, 3)]
    f = parse_poly("x2*x3 - 2/3*x3^2 + x2 + 5", 3)
    images = [x[0], x[1] + parse_poly("1/2*x3", 3), x[2] + Fraction(1, 3)]
    cases = [
        -f.substitute(images),                        # the sum cancels to 0
        -f.substitute(images) + Fraction(4, 7),       # ... all but a constant
        parse_poly("3/7*x2*x3 + 1/7", 3),             # den 7, images over 2 and 3
        parse_poly("x3^3 - 1", 3),                    # den 1
        NcPoly.zero(3),
    ]
    for _ in range(40):
        cases.append(rand_poly(rng, 3, 3, height=12, vars_from=2))
    for g in cases:
        assert f.substitute(images, g) == g + f.substitute(images)
    assert f.substitute(images, cases[0]) == NcPoly.zero(3)
    assert f.substitute(images, cases[0]).den == 1
    for _ in range(40):
        p = rand_poly(rng, 3, 3, height=12)
        g = rand_poly(rng, 3, 3, height=12)
        assert p.substitute(images, g) == g + p.substitute(images)
        assert p.substitute(images, -p.substitute(images)).is_zero()


def test_substitute_refuses_an_addend_of_another_rank():
    images = [NcPoly.variable(j, 3) for j in (1, 2, 3)]
    with pytest.raises(RankMismatchError, match="addend has rank 2, images rank 3"):
        parse_poly("x2*x3", 3).substitute(images, parse_poly("x2", 2))


def test_compose_substitutes_slot_one_through_the_public_method(monkeypatch):
    # a counting wrapper in NcPoly.__dict__, as the benchmark tracer installs one
    calls = []
    plain = NcPoly.__dict__["substitute"]

    def counted(self, *args, **kwargs):
        calls.append(self)
        return plain(self, *args, **kwargs)

    monkeypatch.setattr(NcPoly, "substitute", counted)
    phi = parse_aut("x1 + x2*x3; x2 + x3^2; x3 + 1")
    psi = parse_aut("x1 + x3; x2 + x3; x3 - 2")
    got = phi * psi
    assert phi.offsets[0] in calls   # slot 1, x2*x3, is not a constant
    assert got == oracle_compose(phi, psi)


# -- the last two slots: Taylor shift against the substitution oracle --------------


SHIFTS = [0, 3, -2, Fraction(5, 7), Fraction(-7, 3), Fraction(1, 1000003)]


def _x_n_poly(rng, rank, degree, height=12):
    """A random element of Q[x_rank] of exactly the given degree, dense or
    sparse below the top."""
    density = rng.choice((0.2, 1.0))
    terms = {(rank,) * k: rand_coeff(rng, height, allow_zero=True)
             for k in range(degree) if rng.random() < density}
    terms[(rank,) * degree] = rand_coeff(rng, height)
    return NcPoly(rank, {w: c for w, c in terms.items() if c})


def _penultimate_cases(rng, rank, max_degree):
    """Slot n-1 offsets: zero, constants, and polynomials in x_n up to
    max_degree."""
    yield NcPoly.zero(rank)
    yield NcPoly.constant(Fraction(-9, 4), rank)
    yield NcPoly.constant(5, rank)
    for degree in sorted({1, 2, 3, rng.randint(4, max_degree), max_degree}):
        yield _x_n_poly(rng, rank, degree)


def _tail_map(rng, rank, penultimate, shift):
    """A seeded map whose slots 1..n-2 come from random_aut_rng and whose
    last two offsets are the given ones."""
    head = random_aut_rng(rng, rank, 2, 6).offsets[:-2]
    return UniAut(rank, [*head, penultimate, NcPoly.constant(shift, rank)])


def _outcome(op):
    try:
        return op()
    except SubstitutionTooLargeError as err:
        return type(err), str(err)


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_compose_and_invert_match_the_substitution_oracle(rank):
    rng = random.Random(2400 + rank)
    for penultimate in _penultimate_cases(rng, rank, 12):
        for shift in SHIFTS:
            phi = _tail_map(rng, rank, penultimate, shift)
            psi = _tail_map(rng, rank, _x_n_poly(rng, rank, rng.randint(0, 4)),
                            rng.choice(SHIFTS))
            for a, b in ((phi, psi), (psi, phi), (phi, phi)):
                assert a * b == oracle_compose(a, b)
            assert phi.invert() == oracle_invert(phi)


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_unmoved_shifts_match_the_substitution_oracle(monkeypatch, rank):
    # a shift by 0, or any shift of a zero or constant f, moves nothing:
    # addend + sign * f, with or without an addend (one that cancels f
    # included), for either sign, and no coefficient list is formed
    def no_list(f):
        raise AssertionError("an unmoved shift formed a coefficient list")

    rng = random.Random(2700 + rank)
    zero = NcPoly.zero(rank)
    constants = [zero, NcPoly.constant(Fraction(-9, 4), rank), NcPoly.constant(5, rank)]
    cases = [(f, zero) for f in _penultimate_cases(rng, rank, MAX_WORD_LENGTH)]
    cases += [(f, NcPoly.constant(s, rank)) for s in SHIFTS[1:] for f in constants]
    for f, shift in cases:
        addends = [None, zero, f, -f, NcPoly.constant(Fraction(7, 6), rank),
                   _x_n_poly(rng, rank, rng.randint(0, 6)), rand_poly(rng, rank, 3)]
        for addend in addends:
            for sign in (1, -1):
                want = oracle_taylor_shift(f, shift, addend, sign)
                with monkeypatch.context() as m:
                    m.setattr(autgroup, "_coefficient_list", no_list)
                    got = autgroup._taylor_shift(f, shift, addend, sign)
                assert (got.rank, got.den, got.ints) == (want.rank, want.den, want.ints)


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_moved_shifts_match_the_substitution_oracle(rank):
    # the general path adds only the nonzero coefficients of f(x + p/q):
    # sparse f, (x - s)^3 shifted by s to x^3, and addends that cancel
    rng = random.Random(2800 + rank)
    x_r = NcPoly.variable(rank, rank)
    for s in SHIFTS[1:]:
        shift = NcPoly.constant(s, rank)
        for f in [(x_r - s) ** 3] + [_x_n_poly(rng, rank, d) for d in (1, 2, 3, 7, 12)]:
            for addend in (None, f, -f, _x_n_poly(rng, rank, rng.randint(0, 12))):
                for sign in (1, -1):
                    assert autgroup._taylor_shift(f, shift, addend, sign) == \
                        oracle_taylor_shift(f, shift, addend, sign)


@pytest.mark.parametrize("rank", [2, 3])
def test_degree_64_shifts_match_the_substitution_oracle(rank):
    rng = random.Random(6400 + rank)
    for shift in SHIFTS:
        for _ in range(2):
            phi = _tail_map(rng, rank, _x_n_poly(rng, rank, MAX_WORD_LENGTH), shift)
            psi = _tail_map(rng, rank, _x_n_poly(rng, rank, rng.randint(0, 64)),
                            rng.choice(SHIFTS))
            assert phi * psi == oracle_compose(phi, psi)
            assert psi * phi == oracle_compose(psi, phi)
            assert phi.invert() == oracle_invert(phi)


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_conjugate_and_commutator_match_the_substitution_oracle(rank):
    rng = random.Random(2500 + rank)
    for penultimate in _penultimate_cases(rng, rank, 6):
        phi = _tail_map(rng, rank, penultimate, rng.choice(SHIFTS))
        psi = _tail_map(rng, rank, _x_n_poly(rng, rank, rng.randint(0, 6)),
                        rng.choice(SHIFTS))
        for a, b in ((phi, psi), (psi, phi)):
            assert _outcome(lambda: conjugate(a, b)) == \
                _outcome(lambda: oracle_conjugate(a, b))
            assert _outcome(lambda: group_commutator(a, b)) == \
                _outcome(lambda: oracle_group_commutator(a, b))


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_left_division_solves_and_inverts(rank):
    # psi * _solve(psi, z) == z, checked by the substitution oracle, and
    # dividing the identity is the oracle's inverse
    rng = random.Random(2900 + rank)
    for _ in range(12):
        psi = random_aut_rng(rng, rank, 3, 6)
        z = random_aut_rng(rng, rank, 3, 6)
        for target in (z, psi, psi * z, UniAut.identity(rank)):
            assert oracle_compose(psi, autgroup._solve(psi, target)) == target
        assert autgroup._solve(psi, None) == oracle_invert(psi)


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_conjugate_and_commutator_substitute_only_offsets_of_their_arguments(
        monkeypatch, rank):
    # the chain would substitute offsets of psi^-1 or phi^-1 psi^-1; the
    # product and the left divisions send only +-f for f an offset of phi or psi
    calls = []
    plain = NcPoly.__dict__["substitute"]

    def spied(self, *args, **kwargs):
        calls.append(self)
        return plain(self, *args, **kwargs)

    rng = random.Random(3000 + rank)
    pairs = [(random_aut_rng(rng, rank, 3, 6), random_aut_rng(rng, rank, 3, 6))
             for _ in range(10)]
    monkeypatch.setattr(NcPoly, "substitute", spied)
    for phi, psi in pairs:
        allowed = {g for f in phi.offsets + psi.offsets for g in (f, -f)}
        for op in (conjugate, group_commutator):
            calls.clear()
            op(phi, psi)
            assert calls and all(p in allowed for p in calls), op.__name__


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("shift", [0, Fraction(-3, 2)], ids=["zero-shift", "shift"])
@pytest.mark.parametrize("slack", [-1, 0], ids=["one-below", "at-the-charge"])
def test_the_shift_charges_the_bound_as_the_substitution_does(monkeypatch, rank, shift, slack):
    # slots 1..n-2 are constant or a lone letter, so only slot n-1 forms
    # products: K^2 + K - 2 for a nonzero shift, K - 1 for a zero one
    rng = random.Random(77)
    zero = NcPoly.zero(rank)
    head = [parse_poly("x3 - 1/2", rank)] if rank == 3 else []
    for K in (1, 2, 3, 7, MAX_WORD_LENGTH):
        charge = K * K + K - 2 if shift else K - 1
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", charge + slack)
        phi = UniAut(rank, [*head, _x_n_poly(rng, rank, K), NcPoly.constant(-shift, rank)])
        psi = UniAut(rank, [*head, zero, NcPoly.constant(shift, rank)])
        got = [_outcome(lambda: phi * psi), _outcome(phi.invert)]
        assert got == [_outcome(lambda: oracle_compose(phi, psi)),
                       _outcome(lambda: oracle_invert(phi))]
        raised = [isinstance(r, tuple) for r in got]
        assert raised == [slack < 0 and charge > 0] * 2


@pytest.mark.parametrize("text", [
    "x1 + 5; x2 + x3; x3 + 1",
    "x1; x2 + x3^2; x3 - 2",
    "x1 - 1/2; x2 + 3/4; x3 + x4^2; x4 + 1",
    "x1 + 2/3; x2; x3 - x4^3 + 1; x4 - 1/5",
    "x1; x2 - 7; x3 + 1/2; x4 + x5^2; x5 + 3",
])
@pytest.mark.parametrize("bound", [0, 3, 30, None])
def test_constant_head_slots_match_the_substitution_oracle(monkeypatch, text, bound):
    # every head offset is zero or constant, so NcPoly.substitute returns
    # it as its own image plus the addend; partners with word heads are
    # refused at low bounds, by the product and the oracle alike
    phi = parse_aut(text)
    rng = random.Random(len(text) + (bound or 0))
    partners = [random_aut_rng(rng, phi.rank, 3, 6) for _ in range(4)]
    partners += [phi, phi.invert()]
    if bound is not None:
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", bound)
    for psi in partners:
        for a, b in ((phi, psi), (psi, phi)):
            assert _outcome(lambda: a * b) == _outcome(lambda: oracle_compose(a, b))
    assert _outcome(phi.invert) == _outcome(lambda: oracle_invert(phi))


# -- rank 2: the closed-form conjugate and commutator against the chain ------------


def _u2_edge_pairs(rng):
    """Rank-2 pairs (phi, psi) = ((f, b), (h, c)) with b = 0, c = 0, f = 0,
    h = 0, deg f = deg h with leading terms that cancel in h - f or in
    f - h(y+b-c), and degree 64."""
    zero = NcPoly.zero(2)
    for _ in range(3):
        f = _x_n_poly(rng, 2, rng.randint(1, 8))
        h = _x_n_poly(rng, 2, rng.randint(1, 8))
        b, c = rng.choice(SHIFTS[1:]), rng.choice(SHIFTS[1:])
        lower = _x_n_poly(rng, 2, f.degree() - 1)
        for (f1, b1), (h1, c1) in (((f, 0), (h, c)), ((f, b), (h, 0)), ((f, 0), (h, 0)),
                                   ((zero, b), (h, c)), ((f, b), (zero, c)),
                                   ((f, b), (f + lower, c)), ((f, b), (lower - f, c)),
                                   ((_x_n_poly(rng, 2, MAX_WORD_LENGTH), b),
                                    (_x_n_poly(rng, 2, rng.randint(0, MAX_WORD_LENGTH)), c))):
            yield _tail_map(rng, 2, f1, b1), _tail_map(rng, 2, h1, c1)


@pytest.mark.parametrize("bound", [3, 10, 30, 60, None])
def test_rank2_closed_forms_admit_all_the_chain_admits(monkeypatch, bound):
    # the closed forms make two Taylor shifts, each charged no more than a
    # shift of the chain: where the chain succeeds they succeed and agree
    if bound is not None:
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", bound)
    rng = random.Random(2600 + (bound or 0))
    pairs = list(_u2_edge_pairs(rng))
    pairs += [(random_aut_rng(rng, 2, 8, 9), random_aut_rng(rng, 2, 8, 9))
              for _ in range(150)]
    admitted = []   # refused by the chain, computed by the closed form
    for phi, psi in pairs:
        for closed, chain in ((conjugate, oracle_conjugate),
                              (group_commutator, oracle_group_commutator)):
            expected = _outcome(lambda: chain(phi, psi))
            got = _outcome(lambda: closed(phi, psi))
            if not isinstance(expected, tuple):
                assert got == expected
            elif not isinstance(got, tuple):
                admitted.append((chain, phi, psi, got))
    monkeypatch.undo()
    for chain, phi, psi, got in admitted:
        assert got == chain(phi, psi)


def test_conjugate_and_commutator_refuse_mixed_ranks():
    phi, psi = u2("x2", 1), random_aut(3, 2, 4, 0)
    for op in (conjugate, group_commutator):
        for a, b in ((phi, psi), (psi, phi)):
            with pytest.raises(RankMismatchError):
                op(a, b)


# -- sampling: integer draws against the Fraction draws ---------------------------


def test_random_aut_draws_match_the_fraction_draws():
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for rank in (2, 3, 4, 5):
            assert random_aut_rng(rng, rank, 3, 10) == fraction_random_aut_rng(ref, rank, 3, 10)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("height", [1, 6, 10**30])
def test_rand_ratio_draws_what_randint_draws(height):
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for allow_zero in (True, False):
            for _ in range(50):
                assert Fraction(*_rand_ratio(rng, height, allow_zero)) == \
                    rand_coeff(ref, height, allow_zero)
        assert rng.getstate() == ref.getstate()


def test_suite_draws_match_the_fraction_draws():
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for deg in range(6):
            assert suites._rand_y_poly(rng, deg) == fraction_rand_y_poly(ref, deg)
            assert suites._rand_y_poly(rng, deg, nonzero=True) == \
                fraction_rand_y_poly(ref, deg, nonzero=True)
            assert suites._rand_u2(rng, deg) == fraction_rand_u2(ref, deg)
        assert suites._build_u2(suites._draw_u2(rng, 3)) == fraction_rand_u2(ref, 3)
        for allow_zero in (True, False):
            assert suites._rand_constant(rng, allow_zero) == fraction_rand_constant(ref, allow_zero)
        assert rng.getstate() == ref.getstate()


def test_random_aut_draws_are_unitriangular():
    # random_aut_rng returns its maps unvalidated; UniAut validates them
    for seed in range(3):
        rng = random.Random(seed)
        for rank in range(2, 7):
            for max_degree in range(5):
                for height in range(1, 11):
                    phi = random_aut_rng(rng, rank, max_degree, height)
                    assert phi == UniAut(rank, phi.offsets)


def test_suite_u2_draws_are_unitriangular():
    # suites._rand_u2 returns its maps unvalidated; UniAut validates them
    for seed in range(40):
        rng = random.Random(seed)
        for deg in range(6):
            phi = suites._rand_u2(rng, deg)
            assert phi == UniAut(2, phi.offsets)


# -- text and JSON forms --------------------------------------------------------


def test_parse_format_round_trip(rng):
    for _ in range(40):
        rank = rng.randint(2, 4)
        phi = random_aut_rng(rng, rank, 3, 6)
        assert parse_aut(format_aut(phi)) == phi


def test_format_splices_signs():
    phi = UniAut(2, [y_poly("-x2^2"), NcPoly.zero(2)])
    assert format_aut(phi) == "x1 - x2^2; x2"


def test_parse_aut_rejects_scaled_images():
    with pytest.raises(VariableLeakError):
        parse_aut("2*x1; x2 + 1")


@pytest.mark.parametrize("text, error, message", [
    ("x1 + *; x2", ParseError, "expected a coefficient or variable (at position 5)"),
    ("x1 + x2; x2 + *", ParseError, "expected a coefficient or variable (at position 14)"),
    ("x1; x2; x3 + x9", RankOverflowError, "variable x9 exceeds rank 3 (at position 13)"),
    ("x1; x2 + x3; x3 + 1/0", ParseError, "zero denominator (at position 20)"),
    ("x1;", ParseError, "empty polynomial (at position 3)"),
    ("x1; ;x3", ParseError, "empty polynomial (at position 4)"),
    (" ; x2", ParseError, "empty polynomial (at position 1)"),
    ("x1 + x; x2", ParseError, "expected a variable index (at position 6)"),
    ("x1 + 2*; x2", ParseError, "expected a variable (at position 7)"),
    ("x1 + x2\t;x2 +", ParseError, "expected a coefficient or variable (at position 13)"),
], ids=["first-image", "second-image", "third-image-rank", "third-image-denominator",
        "trailing-semicolon", "blank-middle-image", "blank-first-image",
        "bare-x-before-semicolon", "bare-star-before-semicolon", "tab-before-semicolon"])
def test_parse_aut_error_position_counts_from_the_whole_text(text, error, message):
    with pytest.raises(ParseError) as info:
        parse_aut(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_parse_aut_bounds_the_rank():
    assert parse_aut("; ".join(f"x{i}" for i in range(1, MAX_RANK + 1))).rank == MAX_RANK
    # the bound is checked before any image is parsed
    with pytest.raises(ValueError, match=f"at most {MAX_RANK} images, got {MAX_RANK + 1}"):
        parse_aut(";" * MAX_RANK)


def test_json_round_trip():
    phi = parse_aut("x1 + x2*x3; x2 + x3^2; x3 + 1")
    assert aut_from_json(aut_to_json(phi)) == phi


def _group_ops_transcript():
    """Rendered results of a seeded stream of group operations: for each
    rank 2..5, random pairs (phi, psi) and a random polynomial p."""
    rng = random.Random(6061)
    lines = []
    for rank in (2, 3, 4, 5):
        max_degree = 3 if rank <= 3 else 2
        for i in range(4):
            phi, psi = (random_aut_rng(rng, rank, max_degree, 7) for _ in range(2))
            p = rand_poly(rng, rank, 3, height=7)
            lines += [f"rank {rank} case {i}",
                      f"phi: {format_aut(phi)}",
                      f"psi: {format_aut(psi)}",
                      f"p: {format_poly(p)}",
                      f"compose: {format_aut(compose(phi, psi))}",
                      f"invert: {format_aut(invert(phi))}",
                      f"commutator: {format_aut(group_commutator(phi, psi))}",
                      f"conjugate: {format_aut(conjugate(phi, psi))}",
                      f"apply: {format_poly(phi.apply(p))}"]
    return "\n".join(lines) + "\n"


def test_group_ops_transcript_is_pinned():
    # the expected text was written by the Fraction-loop kernels that
    # tests/poly_oracle.py keeps
    assert _group_ops_transcript() == (GOLDEN / "group_ops.txt").read_text()
