"""Command-line front end.

Thin dispatch over the library: parsing, group operations, central-series
classification, invariant layer bases, straightening, and the named
verification suites.  Exit codes: 0 success, 1 a verification check
failed or stdout was closed early, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .autgroup import (
    NonConstantLastError,
    VariableLeakError,
    aut_to_json,
    compose_chain,
    conjugate,
    factor_semidirect,
    group_commutator,
    format_aut,
    parse_aut,
)
from .central import (
    u2_center_test,
    u2_hypercenter_level,
    u3_hypercenter_level_truncated,
    un_center_test,
)
from .freealg import (
    ArityMismatchError,
    ParseError,
    RankMismatchError,
    format_poly,
    parse_poly,
)
from .invariants import CapViolationError, s_layer_basis, specht_straighten
from .suites import SUITES, run_suite

USAGE_ERRORS = (
    ParseError,
    RankMismatchError,
    ArityMismatchError,
    VariableLeakError,
    NonConstantLastError,
    CapViolationError,
    ValueError,
    KeyError,
)

MAX_CAP = 12   # largest --cap and --level: costs grow exponentially
BOUNDS = {"cap": MAX_CAP, "level": MAX_CAP}


def _add_global_flags(parser, suppress=False):
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--cap", type=int, default=d(5),
                        help="degree cap for layer computations (default 5)")
    if suppress:
        parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                            help="emit JSON")
    else:
        parser.add_argument("--json", action="store_true", help="emit JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unitri",
        description="Exact computation in unitriangular automorphism groups "
                    "of free associative algebras over Q.")
    _add_global_flags(parser)
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_flags(shared, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[shared], **kw))

    sp = sub.add_parser("parse", help="canonicalize a polynomial")
    sp.add_argument("poly")
    sp.add_argument("--rank", type=int, default=3)

    sp = sub.add_parser("compose", help="compose automorphisms left to right")
    sp.add_argument("auts", nargs="+")

    sp = sub.add_parser("invert", help="invert an automorphism")
    sp.add_argument("aut")

    sp = sub.add_parser("commutator", help="phi^-1 psi^-1 phi psi")
    sp.add_argument("phi")
    sp.add_argument("psi")

    sp = sub.add_parser("conjugate", help="psi^-1 phi psi")
    sp.add_argument("phi")
    sp.add_argument("psi")

    sp = sub.add_parser("apply", help="apply an automorphism to a polynomial")
    sp.add_argument("aut")
    sp.add_argument("poly")

    sp = sub.add_parser("factor", help="semidirect factorization into elementary maps")
    sp.add_argument("aut")

    sp = sub.add_parser("classify", help="least central-series level (rank 2 or 3)")
    sp.add_argument("aut")

    sp = sub.add_parser("center-test", help="centrality test")
    sp.add_argument("aut")

    sp = sub.add_parser("invariants", help="invariant layer basis")
    sp.add_argument("--level", type=int, default=1)

    sp = sub.add_parser("straighten",
                        help="free-module decomposition over the commutator subalgebra")
    sp.add_argument("poly")

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))

    return parser


def _emit(args, data, text):
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_parse(args):
    p = parse_poly(args.poly, args.rank)
    _emit(args, {"rank": p.rank, "poly": format_poly(p)}, format_poly(p))
    return 0


def _cmd_compose(args):
    if len(args.auts) < 2:
        raise ValueError("compose needs at least two automorphisms")
    result = compose_chain([parse_aut(s) for s in args.auts])
    _emit(args, aut_to_json(result), format_aut(result))
    return 0


def _cmd_invert(args):
    result = parse_aut(args.aut).invert()
    _emit(args, aut_to_json(result), format_aut(result))
    return 0


def _cmd_commutator(args):
    result = group_commutator(parse_aut(args.phi), parse_aut(args.psi))
    _emit(args, aut_to_json(result), format_aut(result))
    return 0


def _cmd_conjugate(args):
    result = conjugate(parse_aut(args.phi), parse_aut(args.psi))
    _emit(args, aut_to_json(result), format_aut(result))
    return 0


def _cmd_apply(args):
    phi = parse_aut(args.aut)
    p = parse_poly(args.poly, phi.rank)
    result = phi.apply(p)
    _emit(args, {"rank": result.rank, "poly": format_poly(result)},
          format_poly(result))
    return 0


def _cmd_factor(args):
    factors = factor_semidirect(parse_aut(args.aut))
    data = {"rank": factors[0].rank,
            "order": "recompose last variable first",
            "factors": [aut_to_json(f) for f in factors]}
    text = "\n".join(f"g{i + 1}: {format_aut(f)}" for i, f in enumerate(factors))
    _emit(args, data, text)
    return 0


def _cmd_classify(args):
    phi = parse_aut(args.aut)
    if phi.rank == 2:
        level = u2_hypercenter_level(phi)
        _emit(args, {"level": str(level)}, str(level))
        return 0
    if phi.rank == 3:
        level, verdict = u3_hypercenter_level_truncated(phi, args.cap)
        _emit(args, {"level": str(level), "verdict": verdict.to_json()},
              f"{level} ({verdict.kind})")
        return 0
    raise ValueError("classification supports ranks 2 and 3 only")


def _cmd_center_test(args):
    phi = parse_aut(args.aut)
    if phi.rank == 2:
        central = u2_center_test(phi)
        _emit(args, {"central": central}, "central" if central else "not central")
        return 0
    verdict = un_center_test(phi)
    _emit(args, {"verdict": verdict.to_json()}, verdict.kind)
    return 0


def _cmd_invariants(args):
    space = s_layer_basis(args.level, args.cap)
    data = {"level": args.level, **space.to_json()}
    lines = [f"level {args.level}, degree cap {space.degree_cap}, "
             f"dim {space.dim} ({space.verdict.kind})"]
    lines += [f"  {format_poly(b)}" for b in space.basis]
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_straighten(args):
    p = parse_poly(args.poly, 3)
    components = specht_straighten(p, args.cap)
    items = sorted(components.items())
    data = {"input": format_poly(p),
            "components": [{"alpha": a, "beta": b, "coefficient": format_poly(r)}
                           for (a, b), r in items]}
    text = "\n".join(f"x2^{a}*x3^{b} : {format_poly(r)}" for (a, b), r in items) or "0"
    _emit(args, data, text)
    return 0


def _cmd_verify(args):
    checks = run_suite(args.suite)
    passed = all(c.passed for c in checks)
    data = {"suite": args.suite, "passed": passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in checks]}
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
             + (f" ({c.detail})" if c.detail else "")
             for c in checks]
    lines.append(f"suite {args.suite}: {'all checks passed' if passed else 'FAILED'}")
    _emit(args, data, "\n".join(lines))
    return 0 if passed else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "compose": _cmd_compose,
    "invert": _cmd_invert,
    "commutator": _cmd_commutator,
    "conjugate": _cmd_conjugate,
    "apply": _cmd_apply,
    "factor": _cmd_factor,
    "classify": _cmd_classify,
    "center-test": _cmd_center_test,
    "invariants": _cmd_invariants,
    "straighten": _cmd_straighten,
    "verify": _cmd_verify,
}


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for flag, bound in BOUNDS.items():
            if getattr(args, flag, 0) > bound:
                raise ValueError(f"--{flag} must be <= {bound}")
        return _COMMANDS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    """Run the command line; returns the exit code."""
    try:
        code = _run(argv)
        sys.stdout.flush()   # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes it again at exit, so
        # point it at devnull first, as the signal module's docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
