"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to stream them) and
asserts exactness at the stated sample counts; the two budgeted criteria
also assert their wall-clock limits.
"""

import random
import time

from unitri.invariants import (
    hypothesis1_report,
    specht_straighten,
    straighten_reconstruct,
)
from unitri.suites import SUITES

from conftest import rand_poly
from straighten_oracle import shuffled_solve_straighten

_cache = {}


def suite(name):
    if name not in _cache:
        start = time.time()
        checks = SUITES[name]()
        _cache[name] = (checks, time.time() - start)
    return _cache[name]


def report(num, title, checks, extra=""):
    passed = all(c.passed for c in checks)
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: {title}{extra}")
    assert passed, [c.name for c in checks if not c.passed]


def pick(checks, *names):
    out = [c for c in checks if c.name in names]
    assert len(out) == len(names)
    return out


def test_criterion_01_group_axioms():
    checks, elapsed = suite("group-axioms")
    wanted = pick(checks, "inverse round trip", "associativity")
    report(1, "group axioms: 200 inverses, 100 associativity triples",
           wanted, f" [{elapsed:.1f}s < 60s]")
    assert elapsed < 60


def test_criterion_02_closed_forms():
    checks, _ = suite("lemma1")
    report(2, "rank-2 closed forms for inverse, conjugation, commutation "
              "(100 random instances)", checks)


def test_criterion_03_center_oracle_agreement():
    checks, _ = suite("lemma2")
    report(3, "rank-2 center test vs brute-force commuting oracle "
              "(100 x 100, zero disagreements)", checks)


def test_criterion_04_commutator_subgroup():
    checks, _ = suite("lemma3")
    report(4, "commutators fix y; 20 preimage constructions; centralizer "
              "classes vs 50 probes each", checks)


def test_criterion_05_hypercenter_descent():
    checks, _ = suite("lemma4")
    report(5, "hypercenter descent: level drops under 50 x 50 commutators",
           checks)


def test_criterion_06_invariant_generators_and_center():
    lemma5, _ = suite("lemma5")
    theorem1, _ = suite("theorem1")
    checks = pick(lemma5, "c generators are invariant") + theorem1
    report(6, "c generators invariant by the exact derivation test; rank-3 center "
              "test holds/fails with replayable witnesses", checks)


def test_criterion_07_proposition_identities():
    checks, elapsed = suite("proposition1")
    report(7, "commutator expansion identities (k <= 3, N <= 5) and layer "
              "exclusion of [c_k, x2]", checks, f" [{elapsed:.1f}s < 120s]")
    assert elapsed < 120


def test_criterion_08_truncated_classification():
    checks, _ = suite("theorem2-trunc")
    report(8, "rank-3 classification: 3w+1 band, 2w band (10 exact cases), "
              "finite levels for c-product offsets", checks)


def test_criterion_09_abelianized_tables():
    checks, _ = suite("remark-pi")
    report(9, "abelianized layers match predicted images (m <= 3, cap 4, "
              "exact dimensions)", checks)


def test_criterion_10_span_evidence_report():
    rep = hypothesis1_report(5)
    dims = ", ".join(f"deg {r.degree}: {r.c_span_dim}/{r.layer_dim}"
                     for r in rep.rows)
    passed = rep.contained and rep.dims_equal
    print(f"ACCEPTANCE 10 {'PASS' if passed else 'FAIL'}: c-product span equals "
          f"the invariants at cap 5; dims (span/layer) {dims}")
    assert passed


def test_criterion_11_straightening():
    rng = random.Random(202)
    start = time.time()
    for _ in range(200):
        f = rand_poly(rng, 3, 5, vars_from=2)
        assert straighten_reconstruct(specht_straighten(f, 5)) == f
    for _ in range(20):
        f = rand_poly(rng, 3, 5, vars_from=2)
        expected = specht_straighten(f, 5)
        assert shuffled_solve_straighten(f, rng) == expected
    print(f"ACCEPTANCE 11 PASS: straightening reconstructs 200 random inputs "
          f"exactly and is order-independent [{time.time() - start:.1f}s]")


def test_criterion_12_derived_series_shape():
    checks, _ = suite("group-axioms")
    wanted = pick(checks, "commutators freeze the last variable", "solvability shape")
    report(12, "derived-series shape: 100 commutators at shape >= 1; depth-n "
               "chains reach the identity", wanted)


def test_criterion_13_centre_in_ranks_4_and_5():
    checks, _ = suite("theorem3")
    report(13, "rank 4 and 5 centre: commutator offsets in the last two variables "
               "hold, non-central shapes fail with replayable witnesses", checks)
