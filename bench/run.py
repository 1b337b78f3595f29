"""The unitri benchmark: end-to-end workloads with known-answer checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # table of every workload
    python3 bench/run.py ... --smoke                            # tiny sizes, for tests

Run from anywhere; the package is imported from `src/` next to this
directory.  Workloads (see BENCHMARK.json for why each exists):

  layers, classify, straighten  one fresh `unitri` process per op, as a
                                user pays it, since the package's caches
                                die with the process
  session                       one library process: the eleven suites,
                                then a stream of ~1500 small calls

Each is a closed loop with one client.  A run repeats whole passes over
the op list until the next pass would end after --seconds (at least one
pass) and reports medians over passes.  End-to-end times are calibrated
against a reference loop timed around each op (calibrate.py).  With
--trace 1, one untraced pass is followed by traced passes, and the
per-layer metrics come from the traced ones.  The last line printed is
the result JSON; the line before it gives samples, per-op latencies,
raw pass times and answer statuses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 170       # every run must end within 180 s
SETUP_FIRST, SETUP_PER_PASS = 5, 2   # setup samples before the first pass, after each

END_TO_END = {   # name -> unit
    "wall_s": "s", "cpu_s": "s", "op_geomean_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# (traced function, counters reported for it besides calls and total_s)
LAYERS = [
    ("freealg.NcPoly.substitute", ("self_s", "terms_out")),
    ("freealg.NcPoly.__mul__", ("terms_out",)),
    ("freealg.parse_poly", ()),
    ("freealg.format_poly", ()),
    ("linalg.nullspace", ("rows", "cols", "kernel_dim")),
    ("linalg.Echelon.insert", ("enlarged_ratio",)),
    ("linalg.Echelon.reduce", ()),
    ("linalg.Echelon.express", ()),
    ("invariants.s_layer_basis", ("self_s",)),
    ("invariants.invariance_defect", ("nonzero_ratio",)),
    ("invariants.specht_straighten", ("self_s",)),
    ("invariants.subalgebra_membership", ("found_ratio",)),
    ("central.u3_hypercenter_level_truncated", ("self_s",)),
    ("central.un_center_test", ("self_s",)),
    ("autgroup.UniAut.compose", ("self_s",)),
    ("autgroup.UniAut.invert", ("self_s",)),
    ("autgroup.UniAut.apply", ("self_s",)),
    ("suites.run_suite", ()),
]
RATIOS = {"enlarged_ratio": "enlarged", "nonzero_ratio": "nonzero",
          "found_ratio": "found"}

# the traced functions under which each workload is built to spend most
# of its time inside the package
MECHANISM = {
    "layers": ["invariants.invariance_defect"],
    "classify": ["linalg.nullspace"],
    "straighten": ["linalg.Echelon.insert"],
    "session": ["autgroup.UniAut.compose", "autgroup.UniAut.invert",
                "autgroup.UniAut.apply"],
}


def per_layer_names():
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    out = {}
    for name, extra in LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        for field in extra:
            out[f"{name}.{field}"] = ("s" if field.endswith("_s") else
                                      "ratio" if field.endswith("_ratio") else "count")
    for workload in ("layers", "classify", "straighten"):
        for op in workloads.generate(workload, 0):
            out[f"cli.op.{op['id']}.s"] = "s"
    out["trace.mechanism_share"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


# -- running op processes -------------------------------------------------


class Runner:
    def __init__(self):
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def spawn(self, args, stdin=None):
        """(returncode, stdout, wall_s, cpu_s) of one launcher process."""
        left = HARD_LIMIT_S - (time.perf_counter() - self.start)
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, str(BENCH / "launch.py")] + args,
                               input=stdin, capture_output=True, text=True,
                               env=self.env, cwd=ROOT, timeout=max(left, 1))
            rc, out = p.returncode, p.stdout
        except subprocess.TimeoutExpired:
            rc, out = -1, ""
        wall = time.perf_counter() - t
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        return rc, out, wall, cpu

    def setup(self, reps, samples):
        """Time trivial CLI calls (spawn, import, first op) into samples.
        These stay raw: process start did not slow down with the machine's
        Python speed, so calibrating it moved it by a third."""
        for _ in range(reps):
            rc, out, wall, _ = self.spawn(["cli", "--json", "parse", "x2"])
            if rc != 0 or json.loads(out)["poly"] != "x2":
                raise SystemExit("error: the trivial setup call failed")
            samples.append(wall)


def _trace_args(trace_file):
    return ["--trace", str(trace_file)] if trace_file else []


def cli_pass(runner, ops, trace_dir=None):
    """One op process after another, each calibrated by reference batches
    taken right before and right after it."""
    latency, raw, outputs, traces, cpu = [], [], [], [], 0.0
    before = calibrate.batch()
    for i, op in enumerate(ops):
        trace_file = trace_dir / f"op{i}.json" if trace_dir else None
        rc, out, wall, op_cpu = runner.spawn(_trace_args(trace_file) + ["cli"] + op["argv"])
        after = calibrate.batch()
        f = calibrate.factor(before, after)
        before = after
        latency.append(wall * f)
        raw.append(wall)
        cpu += op_cpu * f
        outputs.append((rc, out))
        if trace_file:
            traces.append(_load_trace(trace_file))
    wall = sum(latency)
    return {"wall_s": wall, "busy_s": wall, "cpu_s": cpu, "raw_wall_s": sum(raw),
            "latency": latency, "outputs": outputs, "traces": traces,
            "package_s": sum(t["wall_s"] for t in traces)}


def session_pass(runner, stream, trace_dir=None):
    trace_file = trace_dir / "session.json" if trace_dir else None
    rc, out, wall, cpu = runner.spawn(_trace_args(trace_file) + ["session"],
                                      stdin=json.dumps(stream))
    if rc != 0:
        n = len(stream["ops"])
        return {"wall_s": wall, "busy_s": wall, "cpu_s": cpu, "raw_wall_s": wall,
                "latency": [wall] * n, "outputs": None, "traces": [], "package_s": wall}
    data = json.loads(out)
    return {"wall_s": data["wall_s"], "busy_s": data["stream_s"], "cpu_s": data["cpu_s"],
            "raw_wall_s": data["raw_wall_s"], "latency": data["latency"], "outputs": data,
            "package_s": data["raw_wall_s"],
            "traces": [_load_trace(trace_file)] if trace_file else []}


def _load_trace(path):
    """The op's trace file, or an empty trace if the op died before
    writing one."""
    if not path.exists():
        return {"stats": {}, "spans": [], "dropped": 0, "wall_s": 0.0}
    with open(path) as fh:
        data = json.load(fh)
    path.unlink()
    return data


# -- known-answer checks ------------------------------------------------------


def _answered_by_witness(verdict):
    """A truncation reported as `fails`; its witness map must parse."""
    if verdict.get("kind") != "fails":
        return False
    for offset in verdict["witness"]["offsets"]:
        check.parse(offset)
    return True


def check_cli(op, rc, out):
    """ok, known_defect (the seed's recorded wrong answer), wrong, or error."""
    if rc != 0:
        return "error"
    try:
        data = json.loads(out)
        exp = op["expect"]
        if exp["kind"] == "straighten":
            f = check.parse(exp["input"])
            comps = {(c["alpha"], c["beta"]): check.parse(c["coefficient"])
                     for c in data["components"]}
            good = comps == check.straighten(f) and check.reconstruct(comps) == f
            return "ok" if good else "wrong"
        if _answered_by_witness(data["verdict"]):
            return "ok"
        if exp["kind"] == "layer":
            basis = [check.parse(b) for b in data["basis"]]
            if check.rank(basis) != len(basis):
                return "wrong"
            if exp["level"] == 1 and not all(check.layer1_invariant(b, exp["cap"])
                                             for b in basis):
                return "wrong"
            answer, expected = len(basis), exp["dim"]
        else:
            answer, expected = data["level"], exp["level"]
    except (ValueError, KeyError, TypeError, IndexError):
        return "error"
    if answer == expected:
        return "ok"
    return "known_defect" if workloads.SEED_DEFECTS.get(op["id"]) == answer else "wrong"


def check_session_op(op, result, mats):
    kind, args = op["op"], op["args"]
    if kind in ("classify2", "classify3"):
        return result == op["expect"]
    if kind == "center":
        return result["kind"] == op["expect"] and (result["kind"] != "fails"
                                                   or result["witness"])
    if kind in ("parse", "format"):
        return check.parse(result) == check.parse(args[0])
    if kind == "straighten":
        f = check.parse(args[0])
        comps = {(a, b): check.parse(r) for a, b, r in result}
        return comps == check.straighten(f) and check.reconstruct(comps) == f
    phi = check.parse_aut(args[0])
    x = mats[len(phi)]
    if kind == "apply":
        return (check.evaluate(check.parse(result), x)
                == check.evaluate(check.parse(args[1]), check.eval_chain([phi], x)))
    res = check.parse_aut(result)
    if kind == "invert":
        return (check.eval_chain([phi, res], x) == x
                and check.eval_chain([res, phi], x) == x)
    psi = check.parse_aut(args[1])
    lhs = {"compose": [res], "commutator": [psi, phi, res], "conjugate": [psi, res]}[kind]
    return check.eval_chain(lhs, x) == check.eval_chain([phi, psi], x)


class Checker:
    """Statuses of every op run, each distinct output checked once."""

    def __init__(self, seed):
        rng = random.Random(f"matrices/{seed}")
        self.mats = {n: check.random_matrices(rng, n) for n in range(2, 6)}
        self.memo = {}
        self.counts = {"ok": 0, "known_defect": 0, "wrong": 0, "error": 0}

    def _status(self, key, fn):
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = fn()
        self.counts[got] += 1

    def cli(self, ops, p):
        for op, (rc, out) in zip(ops, p["outputs"]):
            self._status((op["id"], rc, out), lambda: check_cli(op, rc, out))

    def session(self, stream, p):
        data = p["outputs"]
        if data is None:
            self.counts["error"] += len(stream["ops"]) + len(stream["suites"])
            return
        for s in data["suites"]:
            self.counts["ok" if s["passed"] else "wrong"] += 1
        for i, (op, result) in enumerate(zip(stream["ops"], data["results"])):
            key = (i, json.dumps(result))
            self._status(key, lambda: self._session_status(op, result))

    def _session_status(self, op, result):
        try:
            return "ok" if check_session_op(op, result, self.mats) else "wrong"
        except (ValueError, KeyError, TypeError, IndexError):
            return "error"


# -- one run ------------------------------------------------------------------


def _p99(values):
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def _op_medians(passes):
    return [statistics.median(samples) for samples in zip(*(p["latency"] for p in passes))]


def end_to_end(passes, setup, checker):
    lat = _op_medians(passes)
    attempted = sum(checker.counts.values())
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_geomean_s": statistics.geometric_mean(lat),
        "ops_per_s": len(lat) / statistics.median(p["busy_s"] for p in passes),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": _p99(lat) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ratio": checker.counts["ok"] / attempted,
    }


def per_layer(name, ops, base, traced):
    totals = {}
    for p in traced:
        for trace in p["traces"]:
            for layer, stats in trace["stats"].items():
                acc = totals.setdefault(layer, {})
                for k, v in stats.items():
                    acc[k] = acc.get(k, 0) + v
    n = len(traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    op_latency = {f"cli.op.{op['id']}.s": lat for op, lat in zip(ops, base["latency"])
                  if name != "session"}
    metrics = {}
    for metric in per_layer_names():
        if metric.startswith("cli.op."):
            metrics[metric] = op_latency.get(metric, 0.0)
            continue
        if metric.startswith("trace."):
            continue
        layer, field = metric.rsplit(".", 1)
        stats = totals.get(layer, {})
        if field in RATIOS:
            value = stats.get(RATIOS[field], 0) / stats["calls"] if stats.get("calls") else 0.0
        else:
            value = stats.get(field, 0) / n
        metrics[metric] = value
    # share of the time spent inside the package (cli.main or the session
    # calls), which is all the wrappers can assign; interpreter start-up
    # and import are setup_s
    in_package = sum(p["package_s"] for p in traced)
    under = sum(totals.get(layer, {}).get("total_s", 0.0) for layer in MECHANISM[name])
    metrics["trace.mechanism_share"] = under / in_package
    metrics["trace.overhead_ratio"] = traced_wall / base["wall_s"]
    return metrics


def run(name, seed, seconds, trace, smoke=False):
    """Returns (detail, result) for one run of one workload."""
    runner = Runner()
    setup = []
    runner.setup(SETUP_FIRST, setup)
    inputs = workloads.generate(name, seed, smoke)
    checker = Checker(seed)
    ops = inputs["ops"] if name == "session" else inputs

    def one_pass(trace_dir=None):
        start = time.perf_counter()
        if name == "session":
            p = session_pass(runner, inputs, trace_dir)
            checker.session(inputs, p)
        else:
            p = cli_pass(runner, inputs, trace_dir)
            checker.cli(inputs, p)
        runner.setup(SETUP_PER_PASS, setup)
        p["elapsed_s"] = time.perf_counter() - start
        return p

    t0 = time.perf_counter()
    base = one_pass()
    passes, trace_dir = [base], None
    if trace:
        trace_dir = OUT / f"{name}-seed{seed}-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        passes = []
    while True:
        if passes:
            now, last = time.perf_counter(), passes[-1]["elapsed_s"]
            if (now - t0 + last > seconds
                    or now - runner.start + 2 * last > HARD_LIMIT_S):
                break
        passes.append(one_pass(trace_dir))
    lat = _op_medians(passes)
    attempted = sum(checker.counts.values())
    failed = attempted - checker.counts["ok"]
    correct = not (checker.counts["wrong"] or checker.counts["error"])
    if trace:
        metrics = per_layer(name, ops, base, passes)
        _write_spans(trace_dir, name, seed, passes)
        units = per_layer_names()
    else:
        metrics = end_to_end(passes, setup, checker)
        units = END_TO_END
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
        "ops_per_pass": len(ops), "latency_samples": len(ops) * len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "statuses": checker.counts, "fail_ratio": failed / attempted,
        "setup_samples": len(setup),
        "op_latency_s": None if name == "session" else
        {op["id"]: t for op, t in zip(ops, lat)},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return detail, result


def _write_spans(trace_dir, name, seed, passes):
    spans = [{"pass": i, "op": j, "spans": t["spans"], "dropped": t["dropped"]}
             for i, p in enumerate(passes) for j, t in enumerate(p["traces"])]
    with open(trace_dir / "spans.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "ops": spans}, fh)


def report(seed, seconds, smoke):
    """Every end-to-end metric of every workload, with fail_ratio."""
    print(f"{'metric':<14} {'unit':<6} " + " ".join(f"{n:>12}" for n in workloads.NAMES))
    rows = {}
    for name in workloads.NAMES:
        detail, result = run(name, seed, seconds, False, smoke)
        for k, m in result["metrics"].items():
            rows.setdefault((k, m["unit"]), []).append(m["value"])
        rows.setdefault(("fail_ratio", "ratio"), []).append(detail["fail_ratio"])
        rows.setdefault(("samples", "count"), []).append(detail["latency_samples"])
        rows.setdefault(("correct", "bool"), []).append(result["correct"])
    for (k, unit), values in rows.items():
        print(f"{k:<14} {unit:<6} " + " ".join(f"{v:>12.6g}" if not isinstance(v, bool)
                                               else f"{str(v):>12}" for v in values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unitri" / "cli.py").is_file():
        print(f"error: no unitri sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        report(args.seed, args.seconds, args.smoke)
        return 0
    detail, result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
