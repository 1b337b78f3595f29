"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite runs a fixed, seeded batch of exact checks against the module
operations and reports one result per check.  No computation lives here;
the suites only drive the library.

Each check is one predicate over its cases.  Where cases are drawn from
a generator shared with later checks, they are drawn lazily inside
`all()`, so the draws stop at the first failing case; where every case
is drawn whatever the outcome, the case list is drawn first.
"""

from __future__ import annotations

import random
from collections import namedtuple

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


CheckResult = namedtuple("CheckResult", "name passed detail")


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


def _rand_nonconstant_y_poly(rng, max_degree):
    """Random element of Q<y> of degree >= 1, redrawn until it is one."""
    f = _rand_y_poly(rng, max_degree, nonzero=True)
    while f.degree() < 1:
        f = _rand_y_poly(rng, max_degree, nonzero=True)
    return f


def _rand_u2(rng, max_degree):
    return UniAut(2, [_rand_y_poly(rng, max_degree), _rand_constant(rng)])


def _seeded_maps(seed, cases, count, max_degree, height):
    """`cases` lists of `count` random maps of one random rank in 2..4,
    drawn lazily from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(cases):
        rank = rng.randint(2, 4)
        yield [random_aut_rng(rng, rank, max_degree, height) for _ in range(count)]


def _refuting_witness(phi):
    """The witness of un_center_test(phi) when phi fails it with a witness
    that does not commute with phi, else None."""
    verdict = un_center_test(phi)
    if verdict.kind == FAILS and not commutes(phi, verdict.witness):
        return verdict.witness
    return None


def _centralizer_probe(center, expected, probes):
    """center classifies as expected and, for each (inside, outside) probe
    pair, commutes with inside and not with outside."""
    return (u2_centralizer_classify(center) is expected
            and all(commutes(center, inside) and not commutes(center, outside)
                    for inside, outside in probes))


def _round_trips(phi):
    inv = phi.invert()
    return (phi * inv).is_identity() and (inv * phi).is_identity()


def _collapses(rank, elems):
    """The depth-d iterated commutators of the 2^rank elems are of shape
    >= d, stay nontrivial below depth rank and vanish at it."""
    for depth in range(1, rank + 1):
        elems = [group_commutator(elems[2 * j], elems[2 * j + 1])
                 for j in range(len(elems) // 2)]
        if any(derived_level_shape(e) < depth for e in elems):
            return False
        if depth < rank and all(e.is_identity() for e in elems):
            return False
    return all(e.is_identity() for e in elems)


def suite_group_axioms():
    return [
        CheckResult("inverse round trip",
                    all(_round_trips(random_aut(rank=2 + i % 3, max_degree=3,
                                                coeff_height=10, seed=1000 + i))
                        for i in range(200)),
                    "200 seeded automorphisms, rank <= 4, degree <= 3"),
        CheckResult("associativity",
                    all((a * b) * c == a * (b * c)
                        for a, b, c in _seeded_maps(2024, 100, 3, 3, 10)),
                    "100 random triples"),
        CheckResult("commutators freeze the last variable",
                    all(derived_level_shape(group_commutator(phi, psi)) >= 1
                        for phi, psi in _seeded_maps(2025, 100, 2, 2, 6)),
                    "100 random pairs, rank <= 4"),
        CheckResult("solvability shape",
                    all(_collapses(rank, elems) for rank, elems in
                        [(rank, _solvability_generators(rank)) for rank in (2, 3, 4)]),
                    "; ".join(f"rank {rank}: depth-{rank} iterated commutator is the identity"
                              for rank in (2, 3, 4))),
        CheckResult("semidirect factors recompose",
                    all(compose_chain(factor_semidirect(phi)[::-1]) == phi
                        for (phi,) in _seeded_maps(2026, 200, 1, 3, 10)),
                    "200 random automorphisms"),
    ]


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
        return p.substitute([x, y + t])

    # each case: phi, psi and the expected phi^-1, psi^-1 phi psi, [phi, psi]
    cases = []
    for _ in range(100):
        f, h = _rand_y_poly(rng, 4), _rand_y_poly(rng, 4)
        b, c = _rand_constant(rng), _rand_constant(rng)
        g = h - shifted(h, b) + shifted(f, c)
        cases.append((UniAut(2, [f, b]), UniAut(2, [h, c]), UniAut(2, [-shifted(f, -b), -b]),
                      UniAut(2, [g, b]), UniAut(2, [g - f, NcPoly.zero(2)])))
    return [
        CheckResult("inverse closed form (x - f(y-b), y-b)",
                    all(phi.invert() == inv for phi, _, inv, _, _ in cases),
                    "100 random (f, b), degree <= 4"),
        CheckResult("conjugation closed form",
                    all(conjugate(phi, psi) == conj for phi, psi, _, conj, _ in cases),
                    "100 random (f, h, b, c)"),
        CheckResult("commutation closed form",
                    all(group_commutator(phi, psi) == comm for phi, psi, _, _, comm in cases),
                    "100 random (f, h, b, c)"),
    ]


def suite_lemma2():
    rng = random.Random(22)
    probes = [_rand_u2(rng, 3) for _ in range(50)]

    def element(i):
        if i % 5 == 0:
            return UniAut.elementary(1, _rand_constant(rng))
        if i % 5 == 1:
            return UniAut.elementary(1, _rand_y_poly(rng, 3))
        return _rand_u2(rng, 3)

    def disagrees(phi, fresh):
        return all(commutes(phi, psi) for psi in probes + fresh) != u2_center_test(phi)

    disagreements = sum(disagrees(element(i), [_rand_u2(rng, 3) for _ in range(50)])
                        for i in range(100))
    return [CheckResult("center test vs brute-force commuting oracle",
                        disagreements == 0,
                        f"100 elements x 100 probes, {disagreements} disagreements")]


def suite_lemma3():
    rng = random.Random(33)
    x = NcPoly.variable(1, 2)
    y = NcPoly.variable(2, 2)

    def is_commutator(target):
        r = difference_preimage(target, 1)
        return (r.substitute([x, y + 1]) - r == target
                and group_commutator(UniAut.elementary(2, NcPoly.one(2)),
                                     UniAut.elementary(1, -r)) == UniAut.elementary(1, target))

    return [
        CheckResult("commutators fix y",
                    all(group_commutator(_rand_u2(rng, 3), _rand_u2(rng, 3)).offsets[1].is_zero()
                        for _ in range(100)),
                    "100 random pairs"),
        CheckResult("every first-row element is a commutator",
                    all(is_commutator(_rand_y_poly(rng, 4, nonzero=True)) for _ in range(20)),
                    "20 random targets, degree <= 4"),
        CheckResult("first-row centralizer",
                    _centralizer_probe(
                        UniAut.elementary(1, parse_poly("x2^2", 2)), CentralizerClass.FIRST_ROW,
                        [(UniAut.elementary(1, _rand_y_poly(rng, 3)),
                          UniAut(2, [_rand_y_poly(rng, 3), _rand_constant(rng, allow_zero=False)]))
                         for _ in range(50)]),
                    "50 commuting + 50 non-commuting probes"),
        CheckResult("translation centralizer",
                    _centralizer_probe(
                        UniAut.elementary(2, NcPoly.one(2)), CentralizerClass.CONSTANT_PAIRS,
                        [(UniAut(2, [_rand_constant(rng), _rand_constant(rng)]),
                          UniAut(2, [_rand_nonconstant_y_poly(rng, 3), _rand_constant(rng)]))
                         for _ in range(50)]),
                    "50 commuting + 50 non-commuting probes"),
    ]


def suite_lemma4():
    rng = random.Random(44)
    violations = 0
    for _ in range(50):
        phi = UniAut.elementary(1, _rand_nonconstant_y_poly(rng, rng.randint(1, 5)))
        level = u2_hypercenter_level(phi)
        violations += sum(not u2_hypercenter_level(group_commutator(phi, _rand_u2(rng, 3))) < level
                          for _ in range(50))
    return [CheckResult("hypercenter descent under commutators",
                        violations == 0,
                        f"50 elements x 50 partners, {violations} violations")]


def suite_lemma5():
    report = hypothesis1_report(5)
    dims = ", ".join(f"deg {r.degree}: {r.c_span_dim}/{r.layer_dim}" for r in report.rows)
    return [
        CheckResult("c generators are invariant",
                    all(invariance_verdict(c_generator(k, 2, 3, rank=3)).kind == HOLDS
                        for k in range(1, 5)),
                    "k <= 4, exact derivation test"),
        CheckResult("c products sit inside the computed invariants",
                    report.contained and report.dims_equal,
                    f"cap 5; span/layer dims {dims} (equality proved: L_1 = C)"),
    ]


def suite_theorem1():
    mover = UniAut.elementary(1, NcPoly.variable(2, 3))
    witness = _refuting_witness(mover)
    return [
        CheckResult("c-generator offsets are central",
                    all(un_center_test(UniAut.elementary(1, c_generator(k, 2, 3, rank=3))).kind
                        == HOLDS for k in range(1, 5)),
                    "k <= 4"),
        CheckResult("movable offset fails with a replayable witness",
                    witness is not None
                    and witness.apply(mover.offsets[0]) != mover.offsets[0],
                    "offset x2"),
        CheckResult("wrong shape fails with a replayable witness",
                    _refuting_witness(UniAut.elementary(3, NcPoly.one(3))) is not None,
                    "x3 translation"),
    ]


def suite_theorem2_trunc():
    x2, x3 = NcPoly.variable(2, 3), NcPoly.variable(3, 3)
    zero = NcPoly.zero(3)
    c1, c2, c3 = (c_generator(k, 2, 3, 3) for k in (1, 2, 3))
    movers = [parse_poly(s, 3) for s in
              ("1", "x3", "x3^2", "x3^3", "x3^4", "2*x3 + 1", "x3^2 - x3",
               "5", "x3^3 + x3", "x3^4 - 2")]
    worked = u3_hypercenter_level_truncated(UniAut.elementary(2, x3 ** 2), 6)[0]
    return [
        CheckResult("moving x3 classifies to 3w+1",
                    all(u3_hypercenter_level_truncated(UniAut(3, [f1, f2, NcPoly.one(3)]), 6)[0]
                        == OrdinalLevel(3, 1)
                        for f1, f2 in ((zero, zero), (x2, x3 ** 2), (c1, zero))),
                    "3 cases, exact"),
        CheckResult("moving x2 classifies to 2w + max(deg, 1)",
                    all(u3_hypercenter_level_truncated(
                            UniAut(3, [x2 if i % 2 else zero, f2, zero]), 6)[0]
                        == OrdinalLevel(2, max(int(f2.degree()), 1))
                        for i, f2 in enumerate(movers)),
                    "10 cases, exact"),
        CheckResult("c-product offsets reach the center",
                    all(u3_hypercenter_level_truncated(UniAut.elementary(1, f1), 6)[0]
                        == OrdinalLevel(0, 1)
                        for f1 in (c1, c2, c3, c1 * c1, c1 + 2, c2 * 3 - c1, c1 * c1 - c2)),
                    "7 cases, certified"),
        CheckResult("worked example: (x1, x2 + x3^2, x3) -> 2w+2",
                    worked == OrdinalLevel(2, 2), str(worked)),
    ]


def suite_theorem3():
    central = []
    for rank in (4, 5):
        c1, c2 = (c_generator(k, rank - 1, rank, rank=rank) for k in (1, 2))
        central += [c1, c2, c1 * c1 + 2 * c2]
    return [
        CheckResult("commutator offsets in the last two variables are central",
                    all(un_center_test(UniAut.elementary(1, f1)).kind == HOLDS
                        for f1 in central),
                    "ranks 4 and 5"),
        CheckResult("non-central shapes fail with replayable witnesses",
                    all(_refuting_witness(phi) is not None for rank in (4, 5)
                        for phi in (UniAut.elementary(1, NcPoly.variable(2, rank)),
                                    UniAut.elementary(2, NcPoly.variable(rank, rank)))),
                    "ranks 4 and 5"),
    ]


def suite_proposition1():
    def replays(k, m):
        verdict = proposition_noninvariance_probe(k, m)
        return verdict.kind == FAILS and not invariance_defect(
            ring_commutator(c_generator(k, 2, 3, 3), NcPoly.variable(2, 3)),
            verdict.witness.offsets[1], verdict.witness.offsets[2].constant_term()).is_zero()

    return [
        CheckResult("commutator expansion identity",
                    all(proposition_identity_check(k, N) for k in range(1, 4) for N in range(1, 6)),
                    "k <= 3, N <= 5, exact"),
        CheckResult("[c_k, x2] stays outside the layers",
                    all(replays(k, m) for k, m in ((1, 1), (2, 1), (1, 2))),
                    "orders 1 and 2, witnesses replayed"),
    ]


def suite_remark_pi():
    return [CheckResult(f"abelianized layer {report.level} matches its predicted image",
                        report.matches,
                        "cap 4; dims computed/expected " + ", ".join(
                            f"{r.degree}:{r.computed_dim}/{r.expected_dim}" for r in report.rows))
            for report in (remark_pi_check(m, 4) for m in (1, 2, 3))]


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
