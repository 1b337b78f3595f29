"""Command-line front end.

Thin dispatch over the library: parsing, group operations, central-series
classification, invariant layer bases, straightening, and the named
verification suites.  Exit codes: 0 success, 1 a verification check
failed or stdout was closed early, 2 usage or parse errors.

A command is one SUBCOMMANDS entry: its help, its positionals, its int
options and its handler.  A handler returns its answer as (JSON data,
text) and prints nothing; _run alone prints it and picks the exit code.

A call whose argv has the plain shape -- `[--json] [--cap N] command`,
the command's positionals in one run, and `--json`, `--cap N` and its
own options before or after them, each flag spelled in full -- is read
by _plain_args, without importing argparse.  Any other argv (help, an
abbreviated flag, `--cap=4`, a usage error) falls back to the argparse
parser of build_parser, which alone prints help and usage errors; the
two give the same namespace wherever both accept an argv.
"""

from __future__ import annotations

import os
import re
import sys
import types

# each command imports what else it uses, so a call compiles only the
# modules that its command runs
from .freealg import format_poly, parse_poly

# the keys of suites.SUITES, sorted; listed here so that only `verify`
# imports the suites
SUITE_NAMES = ("group-axioms", "lemma1", "lemma2", "lemma3", "lemma4", "lemma5",
               "proposition1", "remark-pi", "theorem1", "theorem2-trunc", "theorem3")

MAX_CAP = 12   # largest --cap and --level: costs grow exponentially
BOUNDS = {"cap": (0, MAX_CAP), "level": (1, MAX_CAP)}   # flag -> (least, largest)
DEFAULT_CAP = 5

# After the command, an argument that starts with "-" is a positional iff
# this matches it, so that "-x2" and "-1/2*x3" are polynomials.
POSITIONAL_DASH = re.compile(r"-x?[0-9]")

def build_parser():
    import argparse   # only for what _plain_args does not read

    def add_global_flags(parser, cap, as_json):
        parser.add_argument("--cap", type=int, default=cap,
                            help=f"degree cap for layer computations (default {DEFAULT_CAP})")
        parser.add_argument("--json", action="store_true", default=as_json, help="emit JSON")

    parser = argparse.ArgumentParser(
        prog="unitri",
        description="Exact computation in unitriangular automorphism groups "
                    "of free associative algebras over Q.")
    add_global_flags(parser, DEFAULT_CAP, False)
    shared = argparse.ArgumentParser(add_help=False)
    add_global_flags(shared, argparse.SUPPRESS, argparse.SUPPRESS)

    def subparser(**kw):
        p = argparse.ArgumentParser(parents=[shared], **kw)
        # An argparse internal (Python 3.11): an argument that matches it and
        # names no option is positional.  Widened from negative numbers to
        # POSITIONAL_DASH; -h and unknown flags are unchanged.
        # tests/test_cli.py fails if an upgrade drops it.
        p._negative_number_matcher = POSITIONAL_DASH
        return p

    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)
    for command, (help_text, positionals, options, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, keywords in positionals.items():
            sp.add_argument(name, **keywords)
        for name, default in options.items():
            sp.add_argument(f"--{name}", type=int, default=default)
    return parser


def _is_flag(arg):
    return arg[:1] == "-" and not POSITIONAL_DASH.match(arg)


def _plain_args(argv):
    """The namespace of build_parser().parse_args(argv), read without
    argparse when argv has the plain shape: --json and --cap N, then the
    command, then its positionals in one run, with --json, --cap N and
    its own options before or after that run.  Every flag is spelled in
    full, with its value as the next argument, not starting with "-".
    A later flag overrides an earlier one.  Any other argv gives None,
    and argparse reads it, to print the help or the usage error."""
    argv = list(argv)
    values = {"cap": DEFAULT_CAP, "json": False}

    def read_flag(i, int_flags):
        # the index after the flag at argv[i], its value stored; or None
        flag = argv[i]
        if flag == "--json":
            values["json"] = True
            return i + 1
        name = flag[2:]
        if flag[:2] != "--" or name not in int_flags or i + 1 == len(argv) \
                or argv[i + 1][:1] == "-":
            return None
        try:
            values[name] = int(argv[i + 1])   # as argparse's type=int
        except ValueError:
            return None
        return i + 2

    i = 0
    while i < len(argv) and argv[i] in ("--json", "--cap"):
        i = read_flag(i, ("cap",))
        if i is None:
            return None
    if i == len(argv) or argv[i] not in SUBCOMMANDS:
        return None
    _, positionals, options, _ = SUBCOMMANDS[argv[i]]
    values.update(options, command=argv[i])
    int_flags = ("cap", *options)
    run = None
    i += 1
    while i < len(argv):
        if _is_flag(argv[i]):
            i = read_flag(i, int_flags)
            if i is None:
                return None
        elif run is not None:   # a flag between two positionals
            return None
        else:
            start = i
            while i < len(argv) and not _is_flag(argv[i]):
                i += 1
            run = argv[start:i]
    rest = run or []
    for name, keywords in positionals.items():
        if not rest:
            return None
        if keywords.get("nargs") == "+":
            values[name], rest = rest, []
        else:
            values[name], rest = rest[0], rest[1:]
        if "choices" in keywords and values[name] not in keywords["choices"]:
            return None
    if rest:
        return None
    return types.SimpleNamespace(**values)


def _poly_answer(p):
    text = format_poly(p)
    return {"rank": p.rank, "poly": text}, text


def _cmd_parse(args):
    return _poly_answer(parse_poly(args.poly, args.rank))


def _aut_answer(phi):
    from .autgroup import aut_to_json, format_aut
    return aut_to_json(phi), format_aut(phi)


def _cmd_compose(args):
    from .autgroup import compose_chain, parse_aut
    if len(args.auts) < 2:
        raise ValueError("compose needs at least two automorphisms")
    return _aut_answer(compose_chain([parse_aut(s) for s in args.auts]))


def _cmd_invert(args):
    from .autgroup import parse_aut
    return _aut_answer(parse_aut(args.aut).invert())


def _cmd_commutator(args):
    from .autgroup import group_commutator, parse_aut
    return _aut_answer(group_commutator(parse_aut(args.phi), parse_aut(args.psi)))


def _cmd_conjugate(args):
    from .autgroup import conjugate, parse_aut
    return _aut_answer(conjugate(parse_aut(args.phi), parse_aut(args.psi)))


def _cmd_apply(args):
    from .autgroup import parse_aut
    phi = parse_aut(args.aut)
    return _poly_answer(phi.apply(parse_poly(args.poly, phi.rank)))


def _cmd_factor(args):
    from .autgroup import aut_to_json, factor_semidirect, format_aut, parse_aut
    factors = factor_semidirect(parse_aut(args.aut))
    data = {"rank": factors[0].rank,
            "order": "recompose last variable first",
            "factors": [aut_to_json(f) for f in factors]}
    return data, "\n".join(f"g{i + 1}: {format_aut(f)}" for i, f in enumerate(factors))


def _cmd_classify(args):
    from .autgroup import parse_aut
    from .central import u2_hypercenter_level, u3_hypercenter_level_truncated
    phi = parse_aut(args.aut)
    if phi.rank == 2:
        level = u2_hypercenter_level(phi)
        return {"level": str(level)}, str(level)
    if phi.rank == 3:
        if not (phi.offsets[1].is_zero() and phi.offsets[2].is_zero()):
            raise ValueError("the level of a map that moves x2 or x3 is not proved "
                             "(ROADMAP item 1b)")
        level, verdict = u3_hypercenter_level_truncated(phi, args.cap)
        return {"level": str(level), "verdict": verdict.to_json()}, f"{level} ({verdict.kind})"
    raise ValueError("classification supports ranks 2 and 3 only")


def _cmd_center_test(args):
    from .autgroup import parse_aut
    from .central import u2_center_test, un_center_test
    phi = parse_aut(args.aut)
    if phi.rank == 2:
        central = u2_center_test(phi)
        return {"central": central}, "central" if central else "not central"
    verdict = un_center_test(phi)
    return {"verdict": verdict.to_json()}, verdict.kind


def _cmd_invariants(args):
    from .invariants import s_layer_basis
    space = s_layer_basis(args.level, args.cap)
    data = {"level": args.level, **space.to_json()}
    lines = [f"level {args.level}, degree cap {space.degree_cap}, "
             f"dim {space.dim} ({space.verdict.kind})"]
    lines += [f"  {b}" for b in data["basis"]]
    return data, "\n".join(lines)


def _cmd_straighten(args):
    from .invariants import specht_straighten
    p = parse_poly(args.poly, 3)
    components = specht_straighten(p, args.cap)
    data = {"input": format_poly(p),
            "components": [{"alpha": a, "beta": b, "coefficient": format_poly(r)}
                           for (a, b), r in sorted(components.items())]}
    return data, "\n".join(f"x2^{c['alpha']}*x3^{c['beta']} : {c['coefficient']}"
                           for c in data["components"]) or "0"


def _cmd_verify(args):
    from .suites import run_suite
    checks = run_suite(args.suite)
    passed = all(c.passed for c in checks)
    data = {"suite": args.suite, "passed": passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in checks]}
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name} ({c.detail})" for c in checks]
    lines.append(f"suite {args.suite}: {'all checks passed' if passed else 'FAILED'}")
    return data, "\n".join(lines)


# Each command, in the order that `unitri -h` lists them: its help, its
# positionals as name -> argparse keywords (a nargs="+" positional is its
# command's last), its own int options as name -> default, and its
# handler, which returns its answer as (JSON data, text) and prints nothing.
SUBCOMMANDS = {
    "parse": ("canonicalize a polynomial", {"poly": {}}, {"rank": 3}, _cmd_parse),
    "compose": ("compose automorphisms left to right", {"auts": {"nargs": "+"}}, {},
                _cmd_compose),
    "invert": ("invert an automorphism", {"aut": {}}, {}, _cmd_invert),
    "commutator": ("phi^-1 psi^-1 phi psi", {"phi": {}, "psi": {}}, {}, _cmd_commutator),
    "conjugate": ("psi^-1 phi psi", {"phi": {}, "psi": {}}, {}, _cmd_conjugate),
    "apply": ("apply an automorphism to a polynomial", {"aut": {}, "poly": {}}, {}, _cmd_apply),
    "factor": ("semidirect factorization into elementary maps", {"aut": {}}, {}, _cmd_factor),
    "classify": ("least central-series level (rank 2 or 3)", {"aut": {}}, {}, _cmd_classify),
    "center-test": ("centrality test", {"aut": {}}, {}, _cmd_center_test),
    "invariants": ("invariant layer basis", {}, {"level": 1}, _cmd_invariants),
    "straighten": ("free-module decomposition over the commutator subalgebra",
                   {"poly": {}}, {}, _cmd_straighten),
    "verify": ("run a named verification suite", {"suite": {"choices": SUITE_NAMES}}, {},
               _cmd_verify),
}


def _run(argv):
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        for flag, (least, largest) in BOUNDS.items():
            value = getattr(args, flag, least)
            if value < least:
                raise ValueError(f"--{flag} must be >= {least}")
            if value > largest:
                raise ValueError(f"--{flag} must be <= {largest}")
        data, text = SUBCOMMANDS[args.command][3](args)
        if args.json:
            import json
            text = json.dumps(data, indent=2, sort_keys=True)
        print(text)
    # every usage error the package raises (ParseError, CapViolationError, ...)
    # subclasses ValueError; any other exception is a bug and propagates
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if data.get("passed", True) else 1   # only verify answers "passed"


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
