"""The benchmark tracer (bench/tracer.py) wraps each of its TARGETS where
the package holds it, finding the original in its holder's own __dict__.
A method that moves to a base class, or a function that a module copies
instead of importing, silently drops out of every trace; these checks
catch that without running the benchmark."""

import ast
import importlib
from pathlib import Path

import unitri.invariants
import unitri.linalg

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    """TARGETS read from the tracer's source, which is neither run nor imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_tracer_target_is_held_by_its_own_holder():
    targets = _tracer_targets()
    assert len(targets) == 18
    for name, (module, path) in targets.items():
        holder = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            holder = getattr(holder, part)
        assert attr in vars(holder), f"{name}: {path} is not in its holder's own __dict__"
        assert callable(vars(holder)[attr])


def test_invariants_uses_the_traced_nullspace():
    assert unitri.invariants.nullspace is unitri.linalg.nullspace
