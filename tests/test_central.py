import ast
from pathlib import Path

import pytest

import unitri
from unitri.autgroup import UniAut, group_commutator, parse_aut, random_aut_rng
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
from unitri.invariants import CapViolationError, s_layer_basis
from unitri.verdict import FAILS, HOLDS, PROBABLY_HOLDS, Verdict

from conftest import c_combination, rand_poly


def test_ordinal_level_order_and_str():
    levels = [OrdinalLevel(0, 0), OrdinalLevel(0, 4), OrdinalLevel(1, 0),
              OrdinalLevel(1, 1), OrdinalLevel(2, 2), OrdinalLevel(3, 1)]
    assert levels == sorted(levels)
    assert [str(l) for l in levels] == ["0", "4", "w", "w+1", "2w+2", "3w+1"]
    for l in levels:
        assert OrdinalLevel.parse(str(l)) == l


def test_ordinal_level_validation():
    with pytest.raises(ValueError):
        OrdinalLevel(-1, 0)


def test_verdict_fails_needs_witness():
    with pytest.raises(ValueError):
        Verdict(FAILS)
    v = Verdict.fails(UniAut.identity(2))
    assert not v.is_positive()
    assert Verdict.holds().is_positive()


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
    assert u2_centralizer_classify(parse_aut("x1 + x2; x2 + 1")) is CentralizerClass.GENERIC


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
        phi = UniAut(3, [c_generator(k, 2, 3, rank=3), NcPoly.zero(3), NcPoly.zero(3)])
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
    c1 = c_generator(1, 3, 4, rank=4)
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
    phi = UniAut(3, [c_generator(1, 2, 3, rank=3), NcPoly.zero(3), NcPoly.zero(3)])
    lvl, v = u3_hypercenter_level_truncated(phi, 6)
    assert (lvl, v.kind) == (OrdinalLevel(0, 1), HOLDS)


def test_u3_classifier_finite_levels_are_least():
    x3 = NcPoly.variable(3, 3)
    cases = [
        (x3, 2),
        (x3 * c_generator(1, 2, 3, rank=3), 2),
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
    # x2 abelianizes with x2-degree 1: only the band w+2 is consistent
    phi = UniAut(3, [NcPoly.variable(2, 3), NcPoly.zero(3), NcPoly.zero(3)])
    lvl, v = u3_hypercenter_level_truncated(phi, 6)
    assert lvl == OrdinalLevel(1, 2)
    assert v.kind == PROBABLY_HOLDS
    assert "trials" not in v.to_json() and v.provenance == "abelianisation bound, unsampled"
    # a commutator image that never certifies a finite level within the bound
    v1 = ring_commutator(c_generator(1, 2, 3, rank=3), NcPoly.variable(2, 3))
    phi = UniAut(3, [v1, NcPoly.zero(3), NcPoly.zero(3)])
    lvl, verdict = u3_hypercenter_level_truncated(phi, 6)
    assert lvl == OrdinalLevel(1, 1)
    assert verdict.kind == PROBABLY_HOLDS
    # [x2, [x2, x3]] is in no finite layer, and abelianizes to 0
    phi = UniAut(3, [parse_poly("x2^2*x3 - 2*x2*x3*x2 + x3*x2^2", 3),
                     NcPoly.zero(3), NcPoly.zero(3)])
    lvl, verdict = u3_hypercenter_level_truncated(phi, 6)
    assert (lvl, verdict.kind) == (OrdinalLevel(1, 1), PROBABLY_HOLDS)


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
        probes = [random_aut_rng(rng, 3, 2, 5, first_zero=True) for _ in range(10)]
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
            probes = [random_aut_rng(rng, n, 2, 5, first_zero=True) for _ in range(5)]
            assert all(commutes(phi, p) for p in probes)
    assert kinds == {HOLDS, FAILS}


@pytest.mark.parametrize("offset, witness", [
    ("x2", "x1; x2 + x4*x3*x4; x3; x4"),   # x2 occurs: condition (c)
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
