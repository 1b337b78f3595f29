"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite runs a fixed, seeded batch of exact checks against the module
operations and reports one result per check.  No computation lives here;
the suites only drive the library.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .autgroup import (
    UniAut,
    _rand_ratio,
    compose_chain,
    conjugate,
    derived_level_shape,
    difference_preimage,
    factor_semidirect,
    group_commutator,
    random_aut,
    random_aut_rng,
)
from .central import (
    CentralizerClass,
    OrdinalLevel,
    commutes,
    u2_center_test,
    u2_centralizer_classify,
    u2_hypercenter_level,
    u3_hypercenter_level_truncated,
    un_center_test,
)
from .freealg import NcPoly, c_generator, parse_poly, ring_commutator
from .invariants import (
    hypothesis1_report,
    invariance_defect,
    invariance_verdict,
    proposition_identity_check,
    proposition_noninvariance_probe,
    remark_pi_check,
)
from .verdict import FAILS, HOLDS


HEIGHT = 6   # numerator and denominator bound of the suites' random scalars


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


def _rand_constant(rng, allow_zero=True):
    """Random scalar of height HEIGHT, as a rank-2 constant polynomial."""
    return NcPoly._from_ratios(2, [((), *_rand_ratio(rng, HEIGHT, allow_zero))])


def _rand_y_poly(rng, max_degree, nonzero=False):
    """Random element of Q<y> inside the rank-2 algebra (y = x2)."""
    while True:
        drawn = []
        for d in range(max_degree + 1):
            if rng.random() < 0.5:
                num, den = _rand_ratio(rng, HEIGHT, allow_zero=True)
                if num:
                    drawn.append(((2,) * d, num, den))
        if drawn or not nonzero:
            return NcPoly._from_ratios(2, drawn)


def _rand_u2(rng, max_degree):
    return UniAut(2, [_rand_y_poly(rng, max_degree), _rand_constant(rng)])


def suite_group_axioms():
    results = []
    ok = True
    for i in range(200):
        phi = random_aut(rank=2 + i % 3, max_degree=3, coeff_height=10, seed=1000 + i)
        inv = phi.invert()
        if not (phi * inv).is_identity() or not (inv * phi).is_identity():
            ok = False
            break
    results.append(CheckResult("inverse round trip", ok,
                               "200 seeded automorphisms, rank <= 4, degree <= 3"))
    ok = True
    rng = random.Random(2024)
    for _ in range(100):
        rank = rng.randint(2, 4)
        a = random_aut_rng(rng, rank, 3, 10)
        b = random_aut_rng(rng, rank, 3, 10)
        c = random_aut_rng(rng, rank, 3, 10)
        if (a * b) * c != a * (b * c):
            ok = False
            break
    results.append(CheckResult("associativity", ok, "100 random triples"))
    ok = True
    rng = random.Random(2025)
    for _ in range(100):
        rank = rng.randint(2, 4)
        phi = random_aut_rng(rng, rank, 2, 6)
        psi = random_aut_rng(rng, rank, 2, 6)
        if derived_level_shape(group_commutator(phi, psi)) < 1:
            ok = False
            break
    results.append(CheckResult("commutators freeze the last variable", ok,
                               "100 random pairs, rank <= 4"))
    ok = True
    details = []
    for rank in (2, 3, 4):
        elems = _solvability_generators(rank)
        for depth in range(1, rank + 1):
            elems = [group_commutator(elems[2 * j], elems[2 * j + 1])
                     for j in range(len(elems) // 2)]
            if any(derived_level_shape(e) < depth for e in elems):
                ok = False
            if depth < rank and all(e.is_identity() for e in elems):
                ok = False  # the chain must stay alive until it is forced flat
        if not all(e.is_identity() for e in elems):
            ok = False
        details.append(f"rank {rank}: depth-{rank} iterated commutator is the identity")
    results.append(CheckResult("solvability shape", ok, "; ".join(details)))
    ok = True
    rng = random.Random(2026)
    for _ in range(200):
        rank = rng.randint(2, 4)
        phi = random_aut_rng(rng, rank, 3, 10)
        if compose_chain(list(reversed(factor_semidirect(phi)))) != phi:
            ok = False
            break
    results.append(CheckResult("semidirect factors recompose", ok,
                               "200 random automorphisms"))
    return results


def _solvability_generators(rank):
    """2^rank small sparse generators: enough variety that each commutator
    level stays nontrivial until the chain must collapse."""
    rng = random.Random(903 + rank)
    out = []
    for _ in range(2 ** rank):
        offsets = []
        for i in range(1, rank + 1):
            if i == rank:
                offsets.append(NcPoly.constant(rng.randint(1, 3), rank))
                continue
            length = rng.randint(1, 2)
            word = tuple(rng.choices(range(i + 1, rank + 1), k=length))
            offsets.append(NcPoly._from_ratios(rank, [(word, rng.randint(1, 2), 1)]))
        out.append(UniAut(rank, offsets))
    return out


def suite_lemma1():
    rng = random.Random(11)
    x = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)

    # the expected forms shift through NcPoly.substitute, not the Taylor
    # shift, so they check independently invert's shift and the rank-2
    # closed forms that conjugate and group_commutator compute directly
    def shifted(p, t):
        return p.substitute([x, y + NcPoly.constant(t, 2)])

    ok_inv = ok_conj = ok_comm = True
    for _ in range(100):
        f = _rand_y_poly(rng, 4)
        h = _rand_y_poly(rng, 4)
        b = Fraction(*_rand_ratio(rng, HEIGHT, allow_zero=True))
        c = Fraction(*_rand_ratio(rng, HEIGHT, allow_zero=True))
        phi = UniAut(2, [f, NcPoly.constant(b, 2)])
        psi = UniAut(2, [h, NcPoly.constant(c, 2)])
        inv_expected = UniAut(2, [-shifted(f, -b), NcPoly.constant(-b, 2)])
        ok_inv = ok_inv and phi.invert() == inv_expected
        conj_expected = UniAut(
            2, [h - shifted(h, b) + shifted(f, c), NcPoly.constant(b, 2)])
        ok_conj = ok_conj and conjugate(phi, psi) == conj_expected
        comm_expected = UniAut(
            2, [h - shifted(h, b) + shifted(f, c) - f, NcPoly.zero(2)])
        ok_comm = ok_comm and group_commutator(phi, psi) == comm_expected
    return [
        CheckResult("inverse closed form (x - f(y-b), y-b)", ok_inv,
                    "100 random (f, b), degree <= 4"),
        CheckResult("conjugation closed form", ok_conj, "100 random (f, h, b, c)"),
        CheckResult("commutation closed form", ok_comm, "100 random (f, h, b, c)"),
    ]


def suite_lemma2():
    rng = random.Random(22)
    probes = [_rand_u2(rng, 3) for _ in range(50)]
    disagreements = 0
    for i in range(100):
        if i % 5 == 0:
            phi = UniAut.elementary(1, _rand_constant(rng))
        elif i % 5 == 1:
            phi = UniAut.elementary(1, _rand_y_poly(rng, 3))
        else:
            phi = _rand_u2(rng, 3)
        fresh = [_rand_u2(rng, 3) for _ in range(50)]
        oracle = all(commutes(phi, psi) for psi in probes) and \
            all(commutes(phi, psi) for psi in fresh)
        if oracle != u2_center_test(phi):
            disagreements += 1
    return [CheckResult("center test vs brute-force commuting oracle",
                        disagreements == 0,
                        f"100 elements x 100 probes, {disagreements} disagreements")]


def suite_lemma3():
    results = []
    rng = random.Random(33)
    ok = True
    for _ in range(100):
        phi, psi = _rand_u2(rng, 3), _rand_u2(rng, 3)
        comm = group_commutator(phi, psi)
        if not comm.offsets[1].is_zero():
            ok = False
            break
    results.append(CheckResult("commutators fix y", ok, "100 random pairs"))

    ok = True
    x = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)
    for _ in range(20):
        target = _rand_y_poly(rng, 4, nonzero=True)
        r = difference_preimage(target, 1)
        if r.substitute([x, y + 1]) - r != target:
            ok = False
            break
        phi = UniAut.elementary(2, NcPoly.one(2))
        psi = UniAut.elementary(1, -r)
        if group_commutator(phi, psi) != UniAut.elementary(1, target):
            ok = False
            break
    results.append(CheckResult("every first-row element is a commutator", ok,
                               "20 random targets, degree <= 4"))

    first_row = UniAut.elementary(1, parse_poly("x2^2", 2))
    ok = u2_centralizer_classify(first_row) is CentralizerClass.FIRST_ROW
    for _ in range(50):
        inside = UniAut.elementary(1, _rand_y_poly(rng, 3))
        outside = UniAut(2, [_rand_y_poly(rng, 3), _rand_constant(rng, allow_zero=False)])
        ok = ok and commutes(first_row, inside) and not commutes(first_row, outside)
    results.append(CheckResult("first-row centralizer", ok,
                               "50 commuting + 50 non-commuting probes"))

    translation = UniAut.elementary(2, NcPoly.one(2))
    ok = u2_centralizer_classify(translation) is CentralizerClass.CONSTANT_PAIRS
    for _ in range(50):
        inside = UniAut(2, [_rand_constant(rng), _rand_constant(rng)])
        h = _rand_y_poly(rng, 3, nonzero=True)
        while h.degree() < 1:
            h = _rand_y_poly(rng, 3, nonzero=True)
        outside = UniAut(2, [h, _rand_constant(rng)])
        ok = ok and commutes(translation, inside) and not commutes(translation, outside)
    results.append(CheckResult("translation centralizer", ok,
                               "50 commuting + 50 non-commuting probes"))
    return results


def suite_lemma4():
    rng = random.Random(44)
    violations = 0
    for _ in range(50):
        deg = rng.randint(1, 5)
        f = _rand_y_poly(rng, deg, nonzero=True)
        while f.degree() < 1:
            f = _rand_y_poly(rng, deg, nonzero=True)
        phi = UniAut.elementary(1, f)
        level = u2_hypercenter_level(phi)
        for _ in range(50):
            psi = _rand_u2(rng, 3)
            comm_level = u2_hypercenter_level(group_commutator(phi, psi))
            if not comm_level < level:
                violations += 1
    return [CheckResult("hypercenter descent under commutators",
                        violations == 0,
                        f"50 elements x 50 partners, {violations} violations")]


def suite_lemma5():
    ok = all(invariance_verdict(c_generator(k, 2, 3, rank=3)).kind == HOLDS
             for k in range(1, 5))
    results = [CheckResult("c generators are invariant", ok,
                           "k <= 4, exact derivation test")]
    report = hypothesis1_report(5)
    dims = ", ".join(f"deg {r.degree}: {r.c_span_dim}/{r.layer_dim}"
                     for r in report.rows)
    results.append(CheckResult("c products sit inside the computed invariants",
                               report.contained and report.dims_equal,
                               f"cap 5; span/layer dims {dims} (equality proved: L_1 = C)"))
    return results


def suite_theorem1():
    results = []
    ok = True
    for k in range(1, 5):
        phi = UniAut.elementary(1, c_generator(k, 2, 3, rank=3))
        ok = ok and un_center_test(phi).kind == HOLDS
    results.append(CheckResult("c-generator offsets are central", ok, "k <= 4"))

    phi = UniAut.elementary(1, NcPoly.variable(2, 3))
    verdict = un_center_test(phi)
    replayed = (verdict.kind == FAILS
                and not commutes(phi, verdict.witness)
                and verdict.witness.apply(phi.offsets[0]) != phi.offsets[0])
    results.append(CheckResult("movable offset fails with a replayable witness",
                               replayed, "offset x2"))

    phi = UniAut.elementary(3, NcPoly.one(3))
    verdict = un_center_test(phi)
    replayed = verdict.kind == FAILS and not commutes(phi, verdict.witness)
    results.append(CheckResult("wrong shape fails with a replayable witness",
                               replayed, "x3 translation"))
    return results


def suite_theorem2_trunc():
    results = []
    x3 = NcPoly.variable(3, 3)
    zero = NcPoly.zero(3)

    ok = True
    for f1, f2 in ((zero, zero), (NcPoly.variable(2, 3), x3 ** 2), (c_generator(1, 2, 3, 3), zero)):
        phi = UniAut(3, [f1, f2, NcPoly.one(3)])
        level, verdict = u3_hypercenter_level_truncated(phi, 6)
        ok = ok and level == OrdinalLevel(3, 1) and verdict.kind == HOLDS
    results.append(CheckResult("moving x3 classifies to 3w+1", ok, "3 cases, exact"))

    ok = True
    cases = [parse_poly(s, 3) for s in
             ("1", "x3", "x3^2", "x3^3", "x3^4", "2*x3 + 1", "x3^2 - x3",
              "5", "x3^3 + x3", "x3^4 - 2")]
    for i, f2 in enumerate(cases):
        f1 = NcPoly.variable(2, 3) if i % 2 else zero
        phi = UniAut(3, [f1, f2, zero])
        level, verdict = u3_hypercenter_level_truncated(phi, 6)
        expected = OrdinalLevel(2, max(int(f2.degree()), 1))
        ok = ok and level == expected and verdict.kind == HOLDS
    results.append(CheckResult("moving x2 classifies to 2w + max(deg, 1)", ok,
                               "10 cases, exact"))

    ok = True
    c1 = c_generator(1, 2, 3, 3)
    c2 = c_generator(2, 2, 3, 3)
    c3 = c_generator(3, 2, 3, 3)
    for f1 in (c1, c2, c3, c1 * c1, c1 + 2, c2 * 3 - c1, c1 * c1 - c2):
        phi = UniAut.elementary(1, f1)
        level, verdict = u3_hypercenter_level_truncated(phi, 6)
        ok = ok and level == OrdinalLevel(0, 1) and verdict.kind == HOLDS
    results.append(CheckResult("c-product offsets reach the center", ok,
                               "7 cases, certified"))

    phi = UniAut.elementary(2, x3 ** 2)
    level, _ = u3_hypercenter_level_truncated(phi, 6)
    results.append(CheckResult("worked example: (x1, x2 + x3^2, x3) -> 2w+2",
                               level == OrdinalLevel(2, 2), str(level)))
    return results


def suite_theorem3():
    results = []
    ok = True
    for rank in (4, 5):
        c1 = c_generator(1, rank - 1, rank, rank=rank)
        c2 = c_generator(2, rank - 1, rank, rank=rank)
        for f1 in (c1, c2, c1 * c1 + 2 * c2):
            ok = ok and un_center_test(UniAut.elementary(1, f1)).kind == HOLDS
    results.append(CheckResult("commutator offsets in the last two variables are central",
                               ok, "ranks 4 and 5"))

    ok = True
    for rank in (4, 5):
        for phi in (UniAut.elementary(1, NcPoly.variable(2, rank)),
                    UniAut.elementary(2, NcPoly.variable(rank, rank))):
            verdict = un_center_test(phi)
            ok = ok and verdict.kind == FAILS and not commutes(phi, verdict.witness)
    results.append(CheckResult("non-central shapes fail with replayable witnesses",
                               ok, "ranks 4 and 5"))
    return results


def suite_proposition1():
    results = []
    ok = all(proposition_identity_check(k, N)
             for k in range(1, 4) for N in range(1, 6))
    results.append(CheckResult("commutator expansion identity", ok,
                               "k <= 3, N <= 5, exact"))
    ok = True
    for k, m in ((1, 1), (2, 1), (1, 2)):
        verdict = proposition_noninvariance_probe(k, m)
        ok = ok and verdict.kind == FAILS
        if verdict.kind == FAILS:
            g = verdict.witness.offsets[1]
            h = verdict.witness.offsets[2].constant_term()
            v = ring_commutator(c_generator(k, 2, 3, 3), NcPoly.variable(2, 3))
            ok = ok and not invariance_defect(v, g, h).is_zero()
    results.append(CheckResult("[c_k, x2] stays outside the layers", ok,
                               "orders 1 and 2, witnesses replayed"))
    return results


def suite_remark_pi():
    results = []
    for m in (1, 2, 3):
        report = remark_pi_check(m, 4)
        dims = ", ".join(f"{r.degree}:{r.computed_dim}/{r.expected_dim}"
                         for r in report.rows)
        results.append(CheckResult(
            f"abelianized layer {m} matches its predicted image",
            report.matches, f"cap 4; dims computed/expected {dims}"))
    return results


SUITES = {
    "group-axioms": suite_group_axioms,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "lemma5": suite_lemma5,
    "theorem1": suite_theorem1,
    "theorem2-trunc": suite_theorem2_trunc,
    "theorem3": suite_theorem3,
    "proposition1": suite_proposition1,
    "remark-pi": suite_remark_pi,
}


def run_suite(name):
    return SUITES[name]()
