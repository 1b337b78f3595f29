"""unitri.lazard holds the Lazard fold and Verdict on its own: it loads
none of the modules that read it, and invariants re-exports each of its
names as the same object."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from unitri import invariants, lazard

SRC = Path(lazard.__file__).parents[1]
MOVED = ["AMBIENT_RANK", "HOLDS", "FAILS", "Verdict", "CapViolationError",
         "_require_vars", "_lazard_word", "lazard_weight", "layer_level"]


def test_lazard_stands_alone():
    # -S keeps site-packages hooks, which may import unitri modules, out
    probe = ("import sys, unitri.lazard; print(sorted(m for m in sys.modules "
             "if m in ('unitri.invariants', 'unitri.autgroup', 'unitri.central')))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MOVED)
def test_invariants_reexports_the_same_object(name):
    assert getattr(invariants, name) is getattr(lazard, name)
