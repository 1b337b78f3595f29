"""Every answer the benchmark checks must be right: one full-size pass of
each workload at seed 0, through the benchmark's own checker, which
knows the answers without importing unitri (bench/check.py)."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_answers_are_correct(name):
    detail, result = run.run(name, seed=0, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0, detail["statuses"]
