import ast
import math
import random
from pathlib import Path

import pytest

import unitri
from unitri.autgroup import (
    UniAut,
    conjugate,
    difference_preimage,
    group_commutator,
    parse_aut,
    random_aut_rng,
)
from unitri.central import (
    CentralizerClass,
    OrdinalLevel,
    commutes,
    u2_center_test,
    u2_centralizer_classify,
    u2_hypercenter_level,
    u3_hypercenter_level_truncated,
    un_center_test,
)
from unitri.freealg import NcPoly, c_generator, parse_poly, ring_commutator
from unitri.invariants import (
    FAILS,
    HOLDS,
    CapViolationError,
    Verdict,
    layer_level,
    lazard_weight,
    s_layer_basis,
)

from conftest import c_combination, rand_poly
from descent_oracle import descent_violations, rank2_pairs, x1_mover_pairs


def test_ordinal_level_order_and_str():
    levels = [OrdinalLevel(0, 0), OrdinalLevel(0, 4), OrdinalLevel(1, 0),
              OrdinalLevel(1, 1), OrdinalLevel(2, 2), OrdinalLevel(3, 1)]
    assert levels == sorted(levels)
    assert [str(l) for l in levels] == ["0", "4", "w", "w+1", "2w+2", "3w+1"]


def test_ordinal_level_validation():
    with pytest.raises(ValueError):
        OrdinalLevel(-1, 0)


def test_verdict_fails_needs_witness():
    with pytest.raises(ValueError):
        Verdict(FAILS)
    v = Verdict.fails(UniAut.identity(2))
    assert v.kind == FAILS
    assert Verdict.holds().kind == HOLDS
    assert Verdict._fields == ("kind", "witness")
    with pytest.raises(ValueError):
        Verdict("probably_holds")


def test_u2_center_test_examples():
    assert u2_center_test(parse_aut("x1 + 3; x2"))
    assert not u2_center_test(parse_aut("x1 + x2; x2"))
    assert not u2_center_test(parse_aut("x1; x2 + 1"))


def test_u2_centralizer_classes():
    assert u2_centralizer_classify(parse_aut("x1 + x2^2; x2")) is CentralizerClass.FIRST_ROW
    assert u2_centralizer_classify(parse_aut("x1; x2 + 1")) is CentralizerClass.CONSTANT_PAIRS
    assert u2_centralizer_classify(UniAut.identity(2)) is CentralizerClass.WHOLE_GROUP
    # a zero shift makes the element central, not a constant-pairs case
    assert u2_centralizer_classify(parse_aut("x1 + 2; x2")) is CentralizerClass.WHOLE_GROUP
    # the mixed shape is conjugate to a translation
    assert u2_centralizer_classify(parse_aut("x1 + x2; x2 + 1")) is CentralizerClass.CONSTANT_PAIRS
    # a constant first offset leaves a translation: it commutes with every
    # constant pair, and not with a first-row move by a nonconstant h
    phi = parse_aut("x1 + 2; x2 + 1")
    assert u2_centralizer_classify(phi) is CentralizerClass.CONSTANT_PAIRS
    for psi in ("x1 - 1/3; x2 + 5", "x1; x2", "x1 + 7; x2 - 1/2"):
        assert commutes(phi, parse_aut(psi))
    assert not commutes(phi, parse_aut("x1 + x2; x2 + 1"))


def test_commutes_examples():
    assert commutes(parse_aut("x1 + x2^2; x2"), parse_aut("x1 + x2^3; x2"))
    assert not commutes(parse_aut("x1 + x2^2; x2"), parse_aut("x1; x2 + 1"))
    assert commutes(parse_aut("x1 + x2^2; x2 + 1"), UniAut.identity(2))


def test_u2_hypercenter_level_examples():
    assert u2_hypercenter_level(parse_aut("x1 + x2^3 + 2*x2; x2")) == OrdinalLevel(0, 4)
    assert u2_hypercenter_level(parse_aut("x1 + 5; x2")) == OrdinalLevel(0, 1)
    assert u2_hypercenter_level(parse_aut("x1; x2 + 1")) == OrdinalLevel(1, 1)
    assert u2_hypercenter_level(UniAut.identity(2)) == OrdinalLevel(0, 0)


def test_hypercenter_descent(rng):
    for _ in range(30):
        deg = rng.randint(1, 5)
        f = rand_poly(rng, 2, deg, vars_from=2)
        while f.degree() < 1:
            f = rand_poly(rng, 2, deg, vars_from=2)
        phi = UniAut(2, [f, NcPoly.zero(2)])
        level = u2_hypercenter_level(phi)
        for _ in range(20):
            psi = UniAut(2, [rand_poly(rng, 2, 3, vars_from=2),
                             NcPoly.constant(rng.randint(-4, 4), 2)])
            assert u2_hypercenter_level(group_commutator(phi, psi)) < level


def test_centralizer_classes_match_commutes(rng):
    first_row = parse_aut("x1 + x2^2; x2")
    translation = parse_aut("x1; x2 + 3")
    for _ in range(30):
        h = rand_poly(rng, 2, 3, vars_from=2)
        row = UniAut(2, [h, NcPoly.zero(2)])
        assert commutes(first_row, row)
        const_pair = UniAut(2, [NcPoly.constant(rng.randint(-4, 4), 2),
                                NcPoly.constant(rng.randint(-4, 4), 2)])
        assert commutes(translation, const_pair)


def test_un_center_test_holds_on_c_generators():
    for k in (1, 2, 3, 4):
        phi = UniAut(3, [c_generator(k, 2, 3), NcPoly.zero(3), NcPoly.zero(3)])
        assert un_center_test(phi).kind == HOLDS


def test_un_center_test_fails_with_replayable_witness():
    phi = UniAut(3, [NcPoly.variable(2, 3), NcPoly.zero(3), NcPoly.zero(3)])
    verdict = un_center_test(phi)
    assert verdict.kind == FAILS
    assert not commutes(phi, verdict.witness)
    assert verdict.witness.apply(phi.offsets[0]) != phi.offsets[0]


def test_un_center_test_fails_on_shape():
    phi = parse_aut("x1; x2; x3 + 1")
    verdict = un_center_test(phi)
    assert verdict.kind == FAILS
    assert not commutes(phi, verdict.witness)


def test_un_center_test_rank4():
    c1 = c_generator(1, 3, 4)
    offs = [NcPoly.zero(4)] * 4
    offs[0] = c1 * c1 + 3
    assert un_center_test(UniAut(4, offs)).kind == HOLDS
    offs = [NcPoly.zero(4)] * 4
    offs[0] = NcPoly.variable(3, 4)
    verdict = un_center_test(UniAut(4, offs))
    assert verdict.kind == FAILS
    assert not commutes(UniAut(4, offs), verdict.witness)


def test_un_center_test_requires_rank3():
    with pytest.raises(ValueError):
        un_center_test(UniAut.identity(2))


def test_u3_classifier_bands():
    lvl, v = u3_hypercenter_level_truncated(parse_aut("x1; x2; x3 + 1"), 6)
    assert (lvl, v.kind) == (OrdinalLevel(3, 1), HOLDS)
    lvl, v = u3_hypercenter_level_truncated(parse_aut("x1; x2 + x3^2; x3"), 6)
    assert (lvl, v.kind) == (OrdinalLevel(2, 2), HOLDS)
    # constant x2-shifts sit at the first level of the upper band
    lvl, v = u3_hypercenter_level_truncated(parse_aut("x1; x2 + 5; x3"), 6)
    assert (lvl, v.kind) == (OrdinalLevel(2, 1), HOLDS)
    lvl, v = u3_hypercenter_level_truncated(UniAut.identity(3), 6)
    assert (lvl, v.kind) == (OrdinalLevel(0, 0), HOLDS)


def test_u3_classifier_center():
    phi = UniAut(3, [c_generator(1, 2, 3), NcPoly.zero(3), NcPoly.zero(3)])
    lvl, v = u3_hypercenter_level_truncated(phi, 6)
    assert (lvl, v.kind) == (OrdinalLevel(0, 1), HOLDS)


def test_u3_classifier_finite_levels_are_least():
    x3 = NcPoly.variable(3, 3)
    cases = [
        (x3, 2),
        (x3 * c_generator(1, 2, 3), 2),
        (x3 ** 2, 3),
        (x3 ** 3, 4),
    ]
    for f1, expected in cases:
        phi = UniAut(3, [f1, NcPoly.zero(3), NcPoly.zero(3)])
        lvl, v = u3_hypercenter_level_truncated(phi, 6)
        assert (lvl, v.kind) == (OrdinalLevel(0, expected), HOLDS)
        # least level: the layer below must not contain the offset
        below = s_layer_basis(expected - 1, max(int(f1.degree()), 1))
        assert not below.contains(f1)


@pytest.mark.parametrize("aut, cap, level", [
    ("x1 + x3^3; x2; x3", 5, 4),
    ("x1 + x3^4; x2; x3", 4, 5),
    ("x1 + x3^2*x2*x3 - x3^3*x2; x2; x3", 5, 3),   # -u_1*x3^2 - 2*u_2*x3 - u_3
], ids=["x3^3", "x3^4", "u1-x3^2"])
def test_u3_classifier_finite_level_is_exact(aut, cap, level):
    lvl, v = u3_hypercenter_level_truncated(parse_aut(aut), cap)
    assert (lvl, v) == (OrdinalLevel(0, level), Verdict.holds())
    f1 = parse_aut(aut).offsets[0]
    assert s_layer_basis(level, cap).contains(f1)
    assert not s_layer_basis(level - 1, cap).contains(f1)


def test_u3_classifier_band_fallback():
    # x2 = u_0 has weight (1, 0): w+1
    phi = UniAut(3, [NcPoly.variable(2, 3), NcPoly.zero(3), NcPoly.zero(3)])
    lvl, v = u3_hypercenter_level_truncated(phi, 6)
    assert (lvl, v) == (OrdinalLevel(1, 1), Verdict.holds())
    assert v.to_json() == {"kind": "holds"}
    # [c_1, x2] = u_0*u_1 - u_1*u_0, in no finite layer
    v1 = ring_commutator(c_generator(1, 2, 3), NcPoly.variable(2, 3))
    phi = UniAut(3, [v1, NcPoly.zero(3), NcPoly.zero(3)])
    lvl, verdict = u3_hypercenter_level_truncated(phi, 6)
    assert lvl == OrdinalLevel(1, 1)
    assert verdict.kind == HOLDS
    # [x2, [x2, x3]] = u_1*u_0 - u_0*u_1
    phi = UniAut(3, [parse_poly("x2^2*x3 - 2*x2*x3*x2 + x3*x2^2", 3),
                     NcPoly.zero(3), NcPoly.zero(3)])
    lvl, verdict = u3_hypercenter_level_truncated(phi, 6)
    assert (lvl, verdict.kind) == (OrdinalLevel(1, 1), HOLDS)


def test_u2_mixed_shape_is_conjugate_to_its_translation():
    # psi = (x + difference_preimage(f, b), y) takes (x + f, y + b) to (x, y + b),
    # so psi (x + a, y + c) psi^-1 commutes with (x + f, y + b)
    rng = random.Random(3)
    replayed = 0
    for _ in range(900):
        phi = random_aut_rng(rng, 2, 4, 5)
        f, b = phi.offsets
        if f.is_zero() or b.is_zero():
            continue
        psi = UniAut(2, [difference_preimage(f, b.constant_term()), NcPoly.zero(2)])
        assert conjugate(phi, psi) == UniAut(2, [NcPoly.zero(2), b])
        pair = UniAut(2, [NcPoly.constant(replayed % 7 - 3, 2),
                          NcPoly.constant(replayed % 5 - 2, 2)])
        assert commutes(phi, conjugate(pair, psi.invert()))
        assert u2_centralizer_classify(phi) is CentralizerClass.CONSTANT_PAIRS
        replayed += 1
    assert replayed == 538


def test_descent_oracle_rank2():
    bad, checked = descent_violations(u2_hypercenter_level, rank2_pairs(2, 600))
    assert checked > 500 and bad == []


def test_descent_oracle_rank3_x1_movers():
    def level(phi):
        return u3_hypercenter_level_truncated(phi, 12)[0]
    bad, checked = descent_violations(level, x1_mover_pairs(12, 3000))
    assert checked >= 2000 and bad == []


def test_u3_classifier_x1_movers_follow_one_rule(rng):
    # w*k + B + 1 from the Lazard weight, finite exactly when layer_level is
    for _ in range(200):
        f = rand_poly(rng, 3, 6, height=5, vars_from=2)
        lvl, v = u3_hypercenter_level_truncated(UniAut(3, [f, NcPoly.zero(3), NcPoly.zero(3)]), 6)
        k, b = lazard_weight(f)
        assert (lvl, v) == (OrdinalLevel(k, b + 1), Verdict.holds())
        assert (lvl.omega_coeff == 0) == (layer_level(f) is not None)


def _level(phi):
    return str(u3_hypercenter_level_truncated(phi, 24)[0])


TAU = parse_aut("x1; x2; x3 + 1")


def test_tau_chain_descends_one_level_a_step():
    phi = parse_aut("x1 + x2*x3^5; x2; x3")
    levels = [_level(phi)]
    for _ in range(5):
        phi = group_commutator(phi, TAU)
        levels.append(_level(phi))
    assert levels == ["w+6", "w+5", "w+4", "w+3", "w+2", "w+1"]
    assert phi == parse_aut("x1 + 120*x2; x2; x3")


@pytest.mark.parametrize("j", range(1, 9))
def test_x2_reaches_every_finite_level(j):
    phi = group_commutator(parse_aut("x1 + x2; x2; x3"), parse_aut(f"x1; x2 + x3^{j}; x3"))
    assert phi == parse_aut(f"x1 + x3^{j}; x2; x3")
    assert layer_level(phi.offsets[0]) == j + 1
    assert _level(phi) == str(j + 1)


@pytest.mark.parametrize("j", range(1, 6))
def test_x2_squared_chain_reaches_x2(j):
    start = parse_aut("x1 + x2^2; x2; x3")
    assert _level(start) == "2w+1"
    phi = group_commutator(start, parse_aut(f"x1; x2 + x3^{j}; x3"))
    levels = [_level(phi)]
    for _ in range(j):
        phi = group_commutator(phi, TAU)
        levels.append(_level(phi))
    assert levels == [f"w+{j + 1 - i}" for i in range(j + 1)]
    # x1 + c*x2 + q(x3), c != 0
    f = phi.offsets[0]
    x2_part = NcPoly(3, {w: c for w, c in f.terms.items() if 2 in w})
    assert x2_part == NcPoly.variable(2, 3) * (2 * math.factorial(j))
    assert f.degree_in_var(2) == 1 and layer_level(f) is None


def test_x1_mover_levels_are_attained(rng):
    # lower bound of the rule: tau takes w*k + B + 1 to w*k + B when B >= 1;
    # when B = 0, [phi, sigma_j] sits at (k-1)*w + j - s + 1 for a fixed s,
    # so the sigma_j reach every level below w*k
    x2, c1 = NcPoly.variable(2, 3), c_generator(1, 2, 3)
    offsets = [ring_commutator(x2, c1), x2 * c1 * x2 - c1 * x2 * x2]
    offsets += [rand_poly(rng, 3, 4, height=5, vars_from=2) for _ in range(300)]
    for f in offsets:
        phi = UniAut(3, [f, NcPoly.zero(3), NcPoly.zero(3)])
        k, b = u3_hypercenter_level_truncated(phi, 24)[0]
        if b >= 2:
            assert u3_hypercenter_level_truncated(group_commutator(phi, TAU), 24)[0] == (k, b - 1)
        elif k >= 1:
            reached = [u3_hypercenter_level_truncated(
                group_commutator(phi, parse_aut(f"x1; x2 + x3^{j}; x3")), 24)[0]
                for j in (4, 5, 6)]
            top = reached[-1].finite_part
            assert reached == [OrdinalLevel(k - 1, top - 2), OrdinalLevel(k - 1, top - 1),
                               OrdinalLevel(k - 1, top)]


def test_u3_classifier_cap_exceeded():
    phi = UniAut(3, [NcPoly.variable(3, 3) ** 7, NcPoly.zero(3), NcPoly.zero(3)])
    with pytest.raises(CapViolationError):
        u3_hypercenter_level_truncated(phi, 5)


def test_center_test_agrees_with_commuting_oracle(rng):
    # the exact test holds only on elements that commute with every probe
    for _ in range(20):
        phi_offs = [rand_poly(rng, 3, 2, vars_from=2, max_terms=2),
                    NcPoly.zero(3), NcPoly.zero(3)]
        phi = UniAut(3, phi_offs)
        verdict = un_center_test(phi)
        assert verdict.kind in (HOLDS, FAILS)
        if verdict.kind == FAILS:
            assert not commutes(phi, verdict.witness)
        probes = [random_aut_rng(rng, 3, 2, 5) for _ in range(10)]
        if any(not commutes(phi, p) for p in probes):
            assert verdict.kind == FAILS


@pytest.mark.parametrize("n", [3, 4, 5])
def test_center_test_is_exact_and_every_witness_replays(rng, n):
    kinds = set()
    for trial in range(30):
        f1 = c_combination(rng, n) if trial % 3 else rand_poly(rng, n, 3, vars_from=2)
        phi = UniAut(n, [f1] + [NcPoly.zero(n)] * (n - 1))
        verdict = un_center_test(phi)
        kinds.add(verdict.kind)
        if verdict.kind == FAILS:
            assert verdict.witness.apply(f1) != f1
            assert not commutes(phi, verdict.witness)
        else:
            probes = [random_aut_rng(rng, n, 2, 5) for _ in range(5)]
            assert all(commutes(phi, p) for p in probes)
    assert kinds == {HOLDS, FAILS}


@pytest.mark.parametrize("offset, witness", [
    ("x2", "x1; x2 + x3; x3; x4"),         # x2 occurs: condition (c)
    ("x3", "x1; x2; x3 + 1; x4"),          # D_0 moves it: condition (b)
])
def test_un_center_test_rank4_witnesses_replay(offset, witness):
    phi = parse_aut(f"x1 + {offset}; x2; x3; x4")
    verdict = un_center_test(phi)
    assert verdict.kind == FAILS
    assert verdict.witness == parse_aut(witness)
    assert verdict.witness.apply(phi.offsets[0]) != phi.offsets[0]
    assert not commutes(phi, verdict.witness)


def test_only_sampling_modules_import_random():
    importers = set()
    for path in Path(unitri.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "random" in names:
                importers.add(path.name)
    assert importers == {"autgroup.py", "suites.py"}


def test_no_module_memoises_with_functools():
    # every kernel is a closed form or a fold, so no cache size is guessed
    users = set()
    for path in Path(unitri.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = {node.attr}
            else:
                continue
            if names & {"lru_cache", "cache"}:
                users.add(path.name)
    assert users == set()
