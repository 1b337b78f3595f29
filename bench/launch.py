"""Run one benchmark op process: a CLI call or a library session.

    launch.py [--trace FILE] cli ARG...   # as `unitri ARG...`
    launch.py [--trace FILE] session      # op stream as JSON on stdin

With --trace the package's public functions are wrapped (see tracer.py)
for the life of the process and the counters and spans go to FILE.
Without it the launcher imports nothing of the benchmark's, so an
untraced CLI op costs what the `unitri` console script costs.
"""

from __future__ import annotations

import json
import sys
import time

CHUNK = 100   # stream calls per calibrated segment of a session


def _session(stream):
    from unitri import (PitConfig, compose, conjugate, format_aut, format_poly,
                        group_commutator, invert, parse_aut, parse_poly,
                        specht_straighten, u2_hypercenter_level,
                        u3_hypercenter_level_truncated, un_center_test)
    from unitri.suites import run_suite

    import calibrate

    cfg = PitConfig()

    def apply(a, p):
        phi = parse_aut(a)
        return phi.apply(parse_poly(p, phi.rank))

    calls = {
        "compose": lambda a, b: compose(parse_aut(a), parse_aut(b)),
        "invert": lambda a: invert(parse_aut(a)),
        "commutator": lambda a, b: group_commutator(parse_aut(a), parse_aut(b)),
        "conjugate": lambda a, b: conjugate(parse_aut(a), parse_aut(b)),
        "apply": apply,
        "classify2": lambda a: u2_hypercenter_level(parse_aut(a)),
        "classify3": lambda a: u3_hypercenter_level_truncated(parse_aut(a), 5, cfg)[0],
        "center": lambda a: un_center_test(parse_aut(a), cfg),
        "straighten": lambda p, cap: specht_straighten(parse_poly(p, 3), cap),
        "parse": parse_poly,
        "format": lambda p, rank: format_poly(parse_poly(p, rank)),
    }
    # Segments are the suites, then chunks of CHUNK stream calls; a batch
    # of reference-loop samples before each segment and after the last
    # calibrates its times (see calibrate.py).
    clock = time.perf_counter
    ops = stream["ops"]
    segments = ([("suite", name) for name in stream["suites"]]
                + [("ops", i) for i in range(0, len(ops), CHUNK)])
    batches = [calibrate.batch()]
    suites, latency, results, seg_wall, seg_cpu = [], [], [], [], []
    for kind, item in segments:
        t, c = clock(), time.process_time()
        if kind == "suite":
            suites.append({"name": item, "passed": all(x.passed for x in run_suite(item))})
        else:
            for op in ops[item:item + CHUNK]:
                call = calls[op["op"]]
                t_op = clock()
                results.append(call(*op["args"]))
                latency.append(clock() - t_op)
        seg_wall.append(clock() - t)
        seg_cpu.append(time.process_time() - c)
        batches.append(calibrate.batch())
    f = [calibrate.factor(batches[i], batches[i + 1]) for i in range(len(segments))]
    first_chunk = len(stream["suites"])

    def render(kind, r):
        if kind in ("compose", "invert", "commutator", "conjugate"):
            return format_aut(r)
        if kind in ("apply", "parse"):
            return format_poly(r)
        if kind == "center":
            return {"kind": r.kind, "witness": r.witness is not None}
        if kind == "straighten":
            return [[a, b, format_poly(c)] for (a, b), c in sorted(r.items())]
        return str(r)

    return {"wall_s": sum(w * k for w, k in zip(seg_wall, f)),
            "cpu_s": sum(c * k for c, k in zip(seg_cpu, f)),
            "stream_s": sum(w * k for w, k in zip(seg_wall[first_chunk:], f[first_chunk:])),
            "raw_wall_s": sum(seg_wall),
            "latency": [t * f[first_chunk + i // CHUNK] for i, t in enumerate(latency)],
            "suites": suites,
            "results": [render(op["op"], r) for op, r in zip(stream["ops"], results)]}


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    stream = json.load(sys.stdin) if mode == "session" else None
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        if mode == "cli":
            from unitri.cli import main as cli_main
            rc = cli_main(args)
        else:
            print(json.dumps(_session(stream)))
            rc = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_path, wall_s=time.perf_counter() - start)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
