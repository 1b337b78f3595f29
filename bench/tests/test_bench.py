"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_runs_every_workload(name, trace):
    detail, result = run.run(name, seed=3, seconds=0.1, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and detail["passes"] >= 1
    expected = run.per_layer_names() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(m["unit"] == expected[k] for k, m in result["metrics"].items())
    if trace:
        assert result["metrics"]["trace.mechanism_share"]["value"] > 0


def test_same_seed_gives_identical_inputs():
    for name in workloads.NAMES:
        first = json.dumps(workloads.generate(name, 11))
        assert first == json.dumps(workloads.generate(name, 11))
        if name != "layers":
            assert first != json.dumps(workloads.generate(name, 12))


def test_checker_flags_planted_wrong_answers(monkeypatch):
    # a known answer that the program cannot meet
    monkeypatch.setitem(workloads.LAYER_DIMS, (1, 4), 6)
    _, result = run.run("layers", seed=0, seconds=0.1, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] >= 1


def test_checker_statuses_for_cli_outputs():
    layer_op = workloads.layers(0)[3]          # invariants-m2-cap6, a seed defect
    out = json.dumps({"basis": ["1", "x3"], "verdict": {"kind": "probably_holds"}})
    assert run.check_cli(layer_op, 0, out) == "wrong"
    assert run.check_cli(layer_op, 1, out) == "error"
    basis = [f"x3^{i}" for i in range(22)]
    out = json.dumps({"basis": basis, "verdict": {"kind": "probably_holds"}})
    assert run.check_cli(layer_op, 0, out) == "known_defect"
    out = json.dumps({"basis": basis[:21], "verdict": {"kind": "probably_holds"}})
    assert run.check_cli(layer_op, 0, out) == "ok"
    out = json.dumps({"basis": basis[:21] + ["x3^3"], "verdict": {"kind": "probably_holds"}})
    assert run.check_cli(layer_op, 0, out) == "wrong"      # dependent vectors
    witness = {"rank": 3, "offsets": ["0", "x3^3", "0"]}
    out = json.dumps({"basis": [], "verdict": {"kind": "fails", "witness": witness}})
    assert run.check_cli(layer_op, 0, out) == "ok"         # truncation reported

    layer1 = workloads.layers(0)[0]
    out = json.dumps({"basis": ["1", "x2*x3 - x3*x2", "x3"] + ["1"] * 10,
                      "verdict": {"kind": "probably_holds"}})
    assert run.check_cli(layer1, 0, out) == "wrong"        # x3 is not invariant

    op = workloads.straighten(0)[0]
    f = check.parse(op["expect"]["input"])
    comps = check.straighten(f)
    good = {"components": [{"alpha": a, "beta": b, "coefficient": check.fmt(r)}
                           for (a, b), r in comps.items()]}
    assert run.check_cli(op, 0, json.dumps(good)) == "ok"
    bad = json.loads(json.dumps(good))
    bad["components"][0]["coefficient"] += " + x2*x3"
    assert run.check_cli(op, 0, json.dumps(bad)) == "wrong"


def test_checker_statuses_for_session_results():
    mats = run.Checker(0).mats
    compose = {"op": "compose", "args": ["x1 + x2; x2; x3", "x1; x2 + x3; x3"]}
    assert run.check_session_op(compose, "x1 + x2 + x3; x2 + x3; x3", mats)
    assert not run.check_session_op(compose, "x1 + x2; x2 + x3; x3", mats)
    inverse = {"op": "invert", "args": ["x1 + x2; x2; x3"]}
    assert run.check_session_op(inverse, "x1 - x2; x2; x3", mats)
    assert not run.check_session_op(inverse, "x1 + x2; x2; x3", mats)
    straighten = {"op": "straighten", "args": ["x3*x2", 7]}
    assert run.check_session_op(straighten, [[0, 0, "-x2*x3 + x3*x2"], [1, 1, "1"]], mats)
    assert not run.check_session_op(straighten, [[1, 1, "1"]], mats)


def test_no_wrapper_left_after_tracing():
    from unitri import cli, invariants, linalg
    from unitri.autgroup import UniAut

    original = linalg.nullspace
    t = tracer.Tracer()
    t.install()
    try:
        assert invariants.nullspace is not original
        assert UniAut.__mul__ is UniAut.compose      # the alias is wrapped too
        assert tracer.leftover_wrappers()
        assert cli.main(["--json", "classify", "x1 + x3^2; x2; x3"]) == 0
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    assert invariants.nullspace is original and linalg.nullspace is original
    assert t.stats["linalg.nullspace"]["calls"] > 0
    assert t.stats["central.u3_hypercenter_level_truncated"]["calls"] == 1
    assert all(span[2] >= span[1] for span in t.spans)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "layers",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
