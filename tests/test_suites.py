"""The verification suites themselves: which seeded data each one checks,
and that each of its checks can fail.

The draws test runs every suite under a `random.Random` subclass that
logs each `_randbelow` and `random` call, and each seed, and passes every
call on to the base class unchanged; one sha256 of that log per suite is
pinned in tests/golden/suite_draws.sha256, which
`PYTHONPATH=src python tests/test_suites.py` prints.

The failure test breaks one library name per case so that it answers
wrongly, and asserts that `unitri verify` prints FAIL for exactly the
checks that rest on it and exits 1; under `--json` its answer reads
`"passed": false`, lists those checks as failed, and it exits 1 too.
Together the cases fail every check of every suite.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from unitri import autgroup, cli, suites
from unitri.autgroup import UniAut
from unitri.central import CentralizerClass, OrdinalLevel
from unitri.invariants import Verdict, hypothesis1_report, remark_pi_check

GOLDEN = Path(__file__).parent / "golden" / "suite_draws.sha256"
DRAWS = {name: digest for digest, name in
         (line.split("  ", 1) for line in GOLDEN.read_text().splitlines())}


def logging_random(log):
    """A random.Random subclass that appends every draw to log."""

    class LoggingRandom(random.Random):
        def __init__(self, x=None):
            log.append(("seed", x))
            super().__init__(x)

        def _randbelow(self, n):
            k = super()._randbelow(n)
            log.append(("below", n, k))
            return k

        def random(self):
            r = super().random()
            log.append(("random", r))
            return r

    return LoggingRandom


def suite_draws_digest(name, monkeypatch):
    log = []
    monkeypatch.setattr(random, "Random", logging_random(log))
    assert all(c.passed for c in suites.run_suite(name))
    return hashlib.sha256("\n".join(map(repr, log)).encode()).hexdigest()


def test_golden_names_every_suite():
    assert list(DRAWS) == list(suites.SUITES)


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_suite_draws_are_pinned(monkeypatch, name):
    assert suite_draws_digest(name, monkeypatch) == DRAWS[name]


def _witness_fails(phi):
    # a "failing" verdict whose witness commutes with everything
    return Verdict.fails(UniAut.identity(phi.rank))


def _skew_mul(a, b):
    # a^-1 b: neither associative nor inverted by a.invert()
    return a.invert().compose(b)


# each case: (suite, the object patched, the name, its wrong answer, the
# checks that must print FAIL)
BREAKS = [
    ("group-axioms", UniAut, "invert", lambda self: self,
     ["inverse round trip"]),
    ("group-axioms", UniAut, "__mul__", _skew_mul,
     ["inverse round trip", "associativity", "commutators freeze the last variable",
      "solvability shape", "semidirect factors recompose"]),
    ("group-axioms", suites, "group_commutator", lambda phi, psi: phi,
     ["commutators freeze the last variable", "solvability shape"]),
    ("group-axioms", suites, "compose_chain", lambda maps: maps[0],
     ["semidirect factors recompose"]),
    ("lemma1", UniAut, "invert", lambda self: self,
     ["inverse closed form (x - f(y-b), y-b)"]),
    ("lemma1", suites, "conjugate", lambda phi, psi: phi,
     ["conjugation closed form"]),
    ("lemma1", suites, "group_commutator", lambda phi, psi: phi,
     ["commutation closed form"]),
    ("lemma2", suites, "u2_center_test", lambda phi: True,
     ["center test vs brute-force commuting oracle"]),
    ("lemma3", suites, "group_commutator", lambda phi, psi: phi,
     ["commutators fix y", "every first-row element is a commutator"]),
    ("lemma3", suites, "difference_preimage", lambda target, h: target,
     ["every first-row element is a commutator"]),
    ("lemma3", suites, "u2_centralizer_classify", lambda phi: CentralizerClass.WHOLE_GROUP,
     ["first-row centralizer", "translation centralizer"]),
    ("lemma3", suites, "commutes", lambda phi, psi: True,
     ["first-row centralizer", "translation centralizer"]),
    ("lemma4", suites, "group_commutator", lambda phi, psi: phi,
     ["hypercenter descent under commutators"]),
    ("lemma5", suites, "invariance_verdict", _witness_fails,
     ["c generators are invariant"]),
    ("lemma5", suites, "hypothesis1_report",
     lambda cap: hypothesis1_report(cap)._replace(contained=False),
     ["c products sit inside the computed invariants"]),
    ("theorem1", suites, "un_center_test", lambda phi: Verdict.holds(),
     ["movable offset fails with a replayable witness",
      "wrong shape fails with a replayable witness"]),
    ("theorem1", suites, "un_center_test", _witness_fails,
     ["c-generator offsets are central",
      "movable offset fails with a replayable witness",
      "wrong shape fails with a replayable witness"]),
    ("theorem2-trunc", suites, "u3_hypercenter_level_truncated",
     lambda phi, cap: (OrdinalLevel(9, 9), Verdict.holds()),
     ["moving x3 classifies to 3w+1", "moving x2 classifies to 2w + max(deg, 1)",
      "c-product offsets reach the center",
      "worked example: (x1, x2 + x3^2, x3) -> 2w+2"]),
    ("theorem3", suites, "un_center_test", lambda phi: Verdict.holds(),
     ["non-central shapes fail with replayable witnesses"]),
    ("theorem3", suites, "un_center_test", _witness_fails,
     ["commutator offsets in the last two variables are central",
      "non-central shapes fail with replayable witnesses"]),
    ("proposition1", suites, "proposition_identity_check", lambda k, n: False,
     ["commutator expansion identity"]),
    ("proposition1", suites, "proposition_noninvariance_probe",
     lambda m: UniAut.identity(3),
     ["[c_k, x2] stays outside the layers"]),
    ("remark-pi", suites, "remark_pi_check",
     lambda m, cap: remark_pi_check(m, cap)._replace(subspace_match=False),
     ["abelianized layer 1 matches its predicted image",
      "abelianized layer 2 matches its predicted image",
      "abelianized layer 3 matches its predicted image"]),
    # last, so that each row above keeps the index in its test id
    ("group-axioms", autgroup, "_solve", lambda psi, z: psi,
     ["inverse round trip", "commutators freeze the last variable",
      "solvability shape"]),
]


@pytest.mark.parametrize("suite, target, attr, wrong, failing", BREAKS,
                         ids=[f"{b[0]}-{b[2]}-{i}" for i, b in enumerate(BREAKS)])
def test_a_broken_library_name_fails_its_checks(capsys, monkeypatch,
                                                suite, target, attr, wrong, failing):
    monkeypatch.setattr(target, attr, wrong)
    assert cli.main(["verify", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"suite {suite}: FAILED"
    failed = [line for line in lines if line.startswith("FAIL  ")]
    assert len(failed) == len(failing)
    assert all(line.startswith(f"FAIL  {name} (") for line, name in zip(failed, failing))


@pytest.mark.parametrize("suite, target, attr, wrong, failing", BREAKS,
                         ids=[f"{b[0]}-{b[2]}-{i}" for i, b in enumerate(BREAKS)])
def test_a_broken_library_name_fails_its_checks_in_json(capsys, monkeypatch,
                                                        suite, target, attr, wrong, failing):
    # the exit code comes from the answer, not from its text
    monkeypatch.setattr(target, attr, wrong)
    assert cli.main(["--json", "verify", suite]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == suite and data["passed"] is False
    assert [c["name"] for c in data["checks"] if not c["passed"]] == failing


def test_every_check_of_every_suite_is_broken_by_some_case():
    broken = {(b[0], name) for b in BREAKS for name in b[4]}
    assert broken == {(suite, c.name) for suite, run in suites.SUITES.items()
                      for c in run()}


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        for name in suites.SUITES:
            print(f"{suite_draws_digest(name, mp)}  {name}")
            mp.undo()
