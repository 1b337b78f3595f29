"""Wrappers that time the package's public functions from the outside.

`Tracer.install()` replaces each traced function or method with a
wrapper wherever the package holds it: as a module global in every
`unitri` module (so names imported with `from .linalg import nullspace`
are covered) and as every class attribute bound to it (so aliases like
`UniAut.__mul__ = compose` are covered).  `uninstall()` puts the
originals back.

Each wrapped call adds to calls, total_s (outermost activations only)
and self_s (its time minus that of wrapped callees), plus the counters
named below.  Calls to functions outside HOT also leave a span
(name, start, end, parent); hot leaves are only counted, which keeps
the trace bounded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# layer name -> (module, attribute path) of each traced callable
TARGETS = {
    "freealg.NcPoly.substitute": ("unitri.freealg", "NcPoly.substitute"),
    "freealg.NcPoly.__mul__": ("unitri.freealg", "NcPoly.__mul__"),
    "freealg.parse_poly": ("unitri.freealg", "parse_poly"),
    "freealg.format_poly": ("unitri.freealg", "format_poly"),
    "linalg.nullspace": ("unitri.linalg", "nullspace"),
    "linalg.Echelon.insert": ("unitri.linalg", "Echelon.insert"),
    "linalg.Echelon.reduce": ("unitri.linalg", "Echelon.reduce"),
    "linalg.Echelon.express": ("unitri.linalg", "Echelon.express"),
    "invariants.s_layer_basis": ("unitri.invariants", "s_layer_basis"),
    "invariants.invariance_defect": ("unitri.invariants", "invariance_defect"),
    "invariants.specht_straighten": ("unitri.invariants", "specht_straighten"),
    "invariants.subalgebra_membership": ("unitri.invariants", "subalgebra_membership"),
    "central.u3_hypercenter_level_truncated":
        ("unitri.central", "u3_hypercenter_level_truncated"),
    "central.un_center_test": ("unitri.central", "un_center_test"),
    "autgroup.UniAut.compose": ("unitri.autgroup", "UniAut.compose"),
    "autgroup.UniAut.invert": ("unitri.autgroup", "UniAut.invert"),
    "autgroup.UniAut.apply": ("unitri.autgroup", "UniAut.apply"),
    "suites.run_suite": ("unitri.suites", "run_suite"),
}

HOT = {
    "freealg.NcPoly.substitute", "freealg.NcPoly.__mul__", "freealg.parse_poly",
    "freealg.format_poly", "linalg.Echelon.insert", "linalg.Echelon.reduce",
    "linalg.Echelon.express",
}

MAX_SPANS = 50_000


def _terms_out(args, result, stats):
    stats["terms_out"] += len(getattr(result, "terms", ()))


def _nullspace(args, result, stats):
    stats["rows"] += len(args[0])
    stats["cols"] += args[1]
    stats["kernel_dim"] += len(result)


def _counter(name, flag):
    def count(args, result, stats):
        stats[name] += bool(flag(result))
    return count


# layer name -> (counter names, function adding to them after each call)
COUNTERS = {
    "freealg.NcPoly.substitute": (("terms_out",), _terms_out),
    "freealg.NcPoly.__mul__": (("terms_out",), _terms_out),
    "linalg.nullspace": (("rows", "cols", "kernel_dim"), _nullspace),
    "linalg.Echelon.insert": (("enlarged",), _counter("enlarged", lambda r: r)),
    "invariants.invariance_defect":
        (("nonzero",), _counter("nonzero", lambda r: r.terms)),
    "invariants.subalgebra_membership":
        (("found",), _counter("found", lambda r: r is not None)),
}


def _resolve(module, path):
    holder = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        holder = getattr(holder, part)
    return holder.__dict__[attr]


def _package_holders():
    """Every unitri module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "unitri" or name.startswith("unitri.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("unitri"):
                yield value


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self._stack = []     # [name, start, child_s, span index or None]
        self._active = {}    # name -> recursion depth
        self._patched = []   # (holder, attribute, original)

    def _wrap(self, name, fn):
        counter_names, count = COUNTERS.get(name, ((), None))
        stats = self.stats.setdefault(
            name, dict({"calls": 0, "total_s": 0.0, "self_s": 0.0},
                       **{c: 0 for c in counter_names}))
        stack, active, spans = self._stack, self._active, self.spans
        hot = name in HOT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = None
            if not hot:
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    parent = stack[-1][3] if stack else None
                    spans.append([name, 0.0, 0.0, parent])
                else:
                    self.dropped += 1
            frame = [name, clock(), 0.0, span]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                stats["calls"] += 1
                stats["self_s"] += dur - frame[2]
                if not active[name]:
                    stats["total_s"] += dur
                if stack:
                    stack[-1][2] += dur
                if span is not None:
                    spans[span][1:3] = [frame[1], end]
            if count is not None:
                count(args, result, stats)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper._bench_wrapper = True
        return wrapper

    def install(self):
        for module in {m for m, _ in TARGETS.values()} | {"unitri.cli"}:
            importlib.import_module(module)
        originals = {name: _resolve(*where) for name, where in TARGETS.items()}
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for holder in _package_holders():
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "spans": self.spans,
                       "dropped": self.dropped, **extra}, fh)


def leftover_wrappers():
    """(holder, attribute) pairs in unitri that still hold a wrapper."""
    return [(getattr(h, "__name__", h), attr) for h in _package_holders()
            for attr, value in vars(h).items()
            if getattr(value, "_bench_wrapper", False)]
