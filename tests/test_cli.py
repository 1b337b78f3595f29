import hashlib
import importlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from unitri import cli, freealg, invariants, suites
from unitri.autgroup import (
    MAX_RANK,
    NonConstantLastError,
    VariableLeakError,
    aut_from_json,
    format_aut,
)
from unitri.cli import main
from unitri.freealg import (
    MAX_SUBSTITUTION_TERMS,
    ArityMismatchError,
    ParseError,
    RankMismatchError,
    SubstitutionTooLargeError,
    parse_poly,
)
from unitri.invariants import CapViolationError

from test_readme import EXAMPLES as README_EXAMPLES

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_parse_canonicalizes(capsys):
    code, out, _ = run(capsys, "parse", "x3*x2 + x2*x3 - x3*x2", "--rank", "3")
    assert code == 0
    assert out.strip() == "x2*x3"


def test_parse_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "x2 + * 3")
    assert code == 2
    assert "error" in err


def test_parse_rank_overflow_exit_code(capsys):
    code, _, err = run(capsys, "parse", "x5", "--rank", "3")
    assert code == 2


@pytest.mark.parametrize("rank", ["0", "-3"])
def test_parse_nonpositive_rank_is_a_usage_error(capsys, rank):
    for argv in (["parse", "--rank", rank, "1"], ["--json", "parse", "--rank", rank, "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"rank must be >= 1, got {rank}" in err


def test_compose_with_inverse_gives_identity(capsys):
    phi = "x1 + x2^2; x2 + 1"
    code, out, _ = run(capsys, "invert", phi)
    assert code == 0
    inv = out.strip()
    code, out, _ = run(capsys, "compose", phi, inv)
    assert code == 0
    assert out.strip() == "x1; x2"


def test_conjugation_matches_three_composes(capsys):
    phi = "x1 + x2^2; x2 + 1"
    psi = "x1 + x2^3; x2 + 2"
    code, psi_inv, _ = run(capsys, "invert", psi)
    code, via_compose, _ = run(capsys, "compose", psi_inv.strip(), phi, psi)
    code, via_conjugate, _ = run(capsys, "conjugate", phi, psi)
    assert via_compose == via_conjugate


def test_compose_rank_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "compose", "x1 + x2; x2", "x1; x2; x3")
    assert code == 2
    assert "rank" in err


def test_compose_needs_two(capsys):
    code, _, err = run(capsys, "compose", "x1 + x2; x2")
    assert code == 2


def test_commutator_command(capsys):
    code, out, _ = run(capsys, "commutator", "x1 + x2; x2", "x1; x2 + 1")
    assert code == 0
    assert out.strip() == "x1 + 1; x2"


def test_apply_command(capsys):
    code, out, _ = run(capsys, "apply", "x1 + x2^2; x2 + 1", "x1")
    assert code == 0
    assert out.strip() == "x1 + x2^2"


def test_factor_recomposes(capsys):
    data = run_json(capsys, "factor", "x1 + x2*x3; x2 + x3^2; x3 + 1")
    assert data["rank"] == 3
    assert len(data["factors"]) == 3
    assert data["factors"][0]["offsets"][0] == "x2*x3"


def test_classify_rank2(capsys):
    code, out, _ = run(capsys, "classify", "x1 + x2^3 + 2*x2; x2")
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run(capsys, "classify", "x1; x2 + 1")
    assert out.strip() == "w+1"


def test_classify_rank3(capsys):
    data = run_json(capsys, "classify", "x1; x2 + x3^2; x3")
    assert data["level"] == "2w+2"
    assert data["verdict"]["kind"] == "holds"


def test_classify_verdict_provenance(capsys):
    data = run_json(capsys, "classify", "x1 + x2; x2; x3")
    assert data == {"level": "w+1", "verdict": {"kind": "holds"}}
    data = run_json(capsys, "classify", "x1 + x3^3; x2; x3")
    assert data == {"level": "4", "verdict": {"kind": "holds"}}


@pytest.mark.parametrize("argv, out", [
    (["classify", "x1 + x2^2*x3 - 2*x2*x3*x2 + x3*x2^2; x2; x3"], "w+1 (holds)"),
    (["classify", "--cap", "4", "x1 + x3^4; x2; x3"], "5 (holds)"),
    (["invariants", "--level", "4", "--cap", "1"], "level 4, degree cap 1, dim 2 (holds)\n  1\n  x3"),
], ids=["double-commutator", "x3^4-cap4", "layer4-cap1"])
def test_exact_layer_answers(capsys, argv, out):
    code, got, _ = run(capsys, *argv)
    assert (code, got) == (0, out + "\n")


# each row pins one path of the group arithmetic through the console
# entry point; README's annotated examples, run by test_readme, pin others
GROUP_ANSWERS = [
    (["commutator", "x1 + x2^3; x2 + 1/2", "x1 + x2^2; x2 - 2"],
     "x1 - 33/4 + 11*x2 - 6*x2^2; x2"),
    (["conjugate", "x1 + x2^3; x2 + 1/2", "x1 + x2^2; x2 - 2"],
     "x1 - 33/4 + 11*x2 - 6*x2^2 + x2^3; x2 + 1/2"),
    (["commutator", "x1 + 3; x2 + 1/2", "x1 + x2^2; x2 - 2"], "x1 - 1/4 - x2; x2"),
    (["compose", "x1 + x2*x3; x2 + x3^2; x3 + 1", "x1 + x3; x2 + x3; x3 - 2"],
     "x1 - 2*x2 - x3 + x2*x3 + x3^2; x2 + 4 - 3*x3 + x3^2; x3 - 1"),
    (["compose", "x1 + 5; x2 + x3; x3 + 1", "x1 + x2; x2 + x3^2; x3 - 2"],
     "x1 + 5 + x2; x2 - 2 + x3 + x3^2; x3 - 1"),
    (["invert", "x1 + 2; x2 + x3^2; x3 + 1"], "x1 - 2; x2 - 1 + 2*x3 - x3^2; x3 - 1"),
    (["commutator", "x1 + x2*x3; x2 + x3^2; x3 + 1", "x1 + x3; x2 + x3; x3 - 2"],
     "x1 - 1 - 2*x2 - 5*x3 + 5*x3^2; x2 + 3 - 4*x3; x3"),
]


@pytest.mark.parametrize("argv, out", GROUP_ANSWERS, ids=[
    "rank2-commutator-conjugate-less-f", "rank2-conjugate-closed-form",
    "rank2-commutator-constant-f", "rank3-compose", "rank3-compose-constant-head",
    "rank3-invert-constant-head", "rank3-commutator-chain"])
def test_group_answers(capsys, argv, out):
    assert run(capsys, *argv) == (0, out + "\n", "")


def test_group_answers_are_not_readme_examples():
    readme = {tuple(shlex.split(args)) for args, _ in README_EXAMPLES}
    assert readme.isdisjoint(tuple(argv) for argv, _ in GROUP_ANSWERS)


def test_classify_unsupported_rank(capsys):
    code, _, err = run(capsys, "classify", "x1; x2; x3; x4")
    assert code == 2


def test_center_test_rank2(capsys):
    data = run_json(capsys, "center-test", "x1 + 3; x2")
    assert data == {"central": True}


def test_center_test_rank3(capsys):
    data = run_json(capsys, "center-test", "x1 + x2*x3 - x3*x2; x2; x3")
    assert data["verdict"]["kind"] == "holds"
    data = run_json(capsys, "center-test", "x1; x2; x3 + 1")
    assert data["verdict"]["kind"] == "fails"
    assert "witness" in data["verdict"]


def test_invariants_level1_cap2(capsys):
    data = run_json(capsys, "invariants", "--level", "1", "--cap", "2")
    assert data["basis"] == ["1", "x2*x3 - x3*x2"]
    assert data["verdict"] == {"kind": "holds"}


def test_invariants_level2_cap1(capsys):
    data = run_json(capsys, "invariants", "--level", "2", "--cap", "1")
    assert "x3" in data["basis"]


@pytest.mark.parametrize("name, argv", [
    ("invariants_level1_cap7", ["invariants", "--level", "1", "--cap", "7"]),
    ("invariants_level2_cap6", ["invariants", "--level", "2", "--cap", "6"]),
])
def test_invariants_basis_text_is_pinned(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


# `sha256sum`-style lines: the digest of stdout, two spaces, the argv
CAP12_HASHES = [line.split("  ") for line in
                (GOLDEN / "invariants_cap12.sha256").read_text().splitlines()]


@pytest.mark.parametrize("as_json", [False, True])
def test_invariants_formats_each_basis_vector_once(capsys, monkeypatch, as_json):
    calls = []
    original = freealg.format_poly

    def counted(p):
        calls.append(p)
        return original(p)

    for module in (freealg, cli, invariants):
        monkeypatch.setattr(module, "format_poly", counted)
    code, _, _ = run(capsys, *(["--json"] if as_json else []),
                     "invariants", "--level", "1", "--cap", "6")
    # the dim, F_7 = 13: the text and the JSON share one rendering
    assert code == 0 and len(calls) == 13


@pytest.mark.parametrize("digest, argv", CAP12_HASHES)
def test_invariants_cap12_json_is_pinned(capsys, digest, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_straighten_output_is_pinned(capsys):
    # the same format, the argv shell-quoted: the benchmark's straighten
    # inputs for seeds 0-3, its session straightens, and seeded inputs of
    # degree 1-12 at cap 12
    lines = (GOLDEN / "straighten_cap12.sha256").read_text().splitlines()
    changed = []
    for digest, argv in (line.split("  ", 1) for line in lines):
        code, out, _ = run(capsys, *shlex.split(argv))
        if code or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(argv)
    assert len(lines) == 525 and not changed


# the same format, the argv shell-quoted: all 11 suites, and `factor` and
# `center-test` on maps of rank 3 to 5 that hold, fail condition (c), (a)
# or (b) of invariants.invariance_verdict, or have the wrong shape; each
# in text and --json
VERIFY_FACTOR_CENTER = [line.split("  ", 1) for line in
                        (GOLDEN / "verify_factor_center.sha256").read_text().splitlines()]


@pytest.mark.parametrize("digest, argv", VERIFY_FACTOR_CENTER,
                         ids=[re.sub(r"\W+", "-", argv).strip("-")
                              for _, argv in VERIFY_FACTOR_CENTER])
def test_verify_factor_and_center_output_is_pinned(capsys, digest, argv):
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite", ["lemma5", "remark-pi"])
@pytest.mark.parametrize("as_json", [False, True])
def test_layer_suites_output_is_pinned(capsys, suite, as_json):
    code, out, _ = run(capsys, *(["--json"] if as_json else []), "verify", suite)
    assert code == 0
    name = f"verify_{suite.replace('-', '_')}.{'json' if as_json else 'txt'}"
    assert out == (GOLDEN / name).read_text()


# each case is (argv, the expected error message)
@pytest.mark.parametrize("argv", [
    (["invariants", "--level", "13", "--cap", "1"], "--level must be <= 12"),
    (["classify", "--cap", "13", "x1 + x3^2; x2; x3"], "--cap must be <= 12"),
    (["straighten", "--cap", "13", "x3*x2"], "--cap must be <= 12"),
    (["--cap", "13", "invariants", "--level", "1"], "--cap must be <= 12"),
    (["center-test", "--cap", "13", "x1 + x2*x3; x2; x3"], "--cap must be <= 12"),
    (["straighten", "--cap", "-1", "0"], "--cap must be >= 0"),
    (["classify", "--cap", "-2", "x1; x2; x3"], "--cap must be >= 0"),
    (["--cap", "-4", "center-test", "x1; x2; x3"], "--cap must be >= 0"),
    (["invariants", "--cap", "-1"], "--cap must be >= 0"),
    (["invariants", "--level", "0"], "--level must be >= 1"),
])
def test_cap_and_level_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv[0])
    assert code == 2
    assert out == "" and argv[1] in err


def test_subst_degree_is_an_unknown_flag(capsys):
    for argv in (["--subst-degree", "3", "invariants", "--level", "1", "--cap", "1"],
                 ["center-test", "--subst-degree", "13", "x1 + x2*x3; x2; x3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""


def test_removed_sampling_flags_are_usage_errors(capsys):
    for argv in (["--seed", "1", "center-test", "x1; x2; x3"],
                 ["center-test", "--trials", "5", "x1; x2; x3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""


def test_huge_exponent_is_a_usage_error(capsys):
    code, _, err = run(capsys, "parse", "x2^" + "9" * 30)
    assert code == 2
    assert "exponent exceeds 64" in err


def test_huge_coefficient_is_a_parse_error(capsys):
    code, out, err = run(capsys, "parse", "x2 + 1" + "0" * 5000 + "*x3")
    assert code == 2
    assert out == ""
    assert "has more than 4300 digits (at position 5)" in err


@pytest.mark.parametrize("argv", [
    ["parse", "x2"],
    ["invariants", "--level", "1", "--cap", "8"],
    ["--json", "invariants", "--level", "1", "--cap", "8"],
])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the program starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "unitri.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and proc.stderr == b""


def test_json_output_is_deterministic(capsys):
    one = run(capsys, "--json", "invariants", "--level", "1", "--cap", "3")
    two = run(capsys, "--json", "invariants", "--level", "1", "--cap", "3")
    assert one == two


@pytest.mark.parametrize("aut", ["x1 + x2*x3 - x3*x2; x2; x3", "x1 + x3*x2; x2; x3",
                                 "x1 + x2*x4; x2; x3; x4"])
def test_center_test_json_is_deterministic(capsys, aut):
    one = run(capsys, "--json", "center-test", aut)
    two = run(capsys, "--json", "center-test", aut)
    assert one[0] == 0 and one == two


def test_straighten_command(capsys):
    data = run_json(capsys, "straighten", "x3*x2")
    assert data["components"] == [
        {"alpha": 0, "beta": 0, "coefficient": "-x2*x3 + x3*x2"},
        {"alpha": 1, "beta": 1, "coefficient": "1"},
    ]


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "proposition1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_shape(capsys):
    data = run_json(capsys, "verify", "lemma2")
    assert data["suite"] == "lemma2"
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_unknown_suite(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "verify", "lemma99")
    assert code == 2
    assert out == "" and err == (GOLDEN / "verify_unknown_suite.txt").read_text()


def test_verify_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert out == (GOLDEN / "verify_help.txt").read_text()


def _sum_of_words(n_terms):
    """The first n_terms words in x2, x3, shortest first, as a sum."""
    words = itertools.chain.from_iterable(
        itertools.product((2, 3), repeat=n) for n in itertools.count(1))
    return " + ".join("*".join(f"x{v}" for v in w) for w in itertools.islice(words, n_terms))


@pytest.mark.parametrize("argv", [
    ["apply", "x1 + x2; x2", "x1^30"],
    ["invert", "x1 + x2^20*x3^20; x2 + x3^3; x3 + 1"],
    ["compose", "x1 + x2^30; x2; x3", "x1; x2 + x3; x3"],
    # x1^2 needs 446^2 products, just under the bound; x1^3 would need
    # 446 times as many more in one step
    ["apply", f"x1 + {_sum_of_words(446)}; x2; x3", "x1^3"],
    ["commutator", "x1 + x2^20; x2 + x3^3; x3 + 1", "x1; x2 + x3^5; x3 + 2"],
], ids=["apply-binomial", "invert", "compose", "apply-cube", "commutator"])
def test_oversized_substitution_is_a_usage_error(argv):
    # a fresh process, so that a hang fails on the timeout, not the run
    proc = subprocess.run([sys.executable, "-m", "unitri.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: substitution needs more than {MAX_SUBSTITUTION_TERMS} terms\n"


def test_rank_above_the_bound_is_a_usage_error():
    # a fresh process, so that a hang fails on the timeout, not the run
    identity = "; ".join(f"x{i}" for i in range(1, MAX_RANK + 2))
    proc = subprocess.run([sys.executable, "-m", "unitri.cli", "factor", identity],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: an automorphism has at most {MAX_RANK} images, "
                           f"got {MAX_RANK + 1}\n")


def test_center_test_of_a_large_offset_forms_no_substitution():
    # x2^30 occurs in rank 4, so condition (c) decides; replaying the
    # witness on x2^30 would need 2^30 words
    argv = [sys.executable, "-m", "unitri.cli", "center-test", "x1 + x2^30; x2; x3; x4"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "fails\n", "")
    proc = subprocess.run(argv[:3] + ["--json"] + argv[3:], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0
    witness = json.loads(proc.stdout)["verdict"]["witness"]
    assert witness["offsets"] == ["0", "x3*x4^29", "0", "0"]


def test_center_test_witness_of_a_long_offset_replays():
    # condition (c) witnesses x2 -> x2 + x3*x4^39, 40 letters, within the
    # parser's 64, so the printed witness can be fed back to the CLI
    cmd = [sys.executable, "-m", "unitri.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd + ["--json", "center-test", "x1 + x2^40; x2; x3; x4"],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    witness = aut_from_json(json.loads(proc.stdout)["verdict"]["witness"])
    proc = subprocess.run(cmd + ["apply", format_aut(witness), "x2"],
                          capture_output=True, text=True, timeout=30, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x2 + x3*x4^39\n", "")
    # the map is exp of the derivation x2 -> x3*x4^39, so it moves x2^40
    # exactly when that derivation does not kill x2^40 (its full image
    # has 2^40 words, past the substitution bound)
    f = parse_poly("x2^40", 4)
    assert [o.is_zero() for o in witness.offsets] == [True, False, True, True]
    assert len(invariants._derive(f, 2, witness.offsets[1]).terms) == 40


def test_console_script_is_cli_main():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts["unitri"] == "unitri.cli:main"
    module, _, attr = scripts["unitri"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_suite_names_are_the_suites():
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


@pytest.mark.parametrize("argv, out", [
    (["parse", "-x2"], "-x2"),
    (["parse", "--rank", "2", "-3*x2^2"], "-3*x2^2"),
    (["parse", "-x2", "--rank", "4"], "-x2"),
    (["straighten", "--cap", "7", "-1/2*x3"], "x2^0*x3^1 : -1/2"),
    (["apply", "x1; x2", "-x2"], "-x2"),
], ids=["parse", "parse-rank-first", "parse-rank-last", "straighten", "apply"])
def test_a_polynomial_may_start_with_a_minus(capsys, argv, out):
    # the subcommand parsers read "-x2" as an argument through an argparse
    # internal (cli.build_parser); a Python upgrade that drops it fails here
    assert run(capsys, *argv) == (0, out + "\n", "")


@pytest.mark.parametrize("argv, err", [
    (["parse", "--foo", "x2"], "unrecognized arguments: --foo"),
    (["parse", "x2", "--rank"], "argument --rank: expected one argument"),
    (["parse", "-v", "x2"], "unrecognized arguments: -v"),
    (["parse", "-x"], "the following arguments are required: poly"),
    (["parse", "-x2^99"], "error: an exponent exceeds 64 (at position 4)"),
    (["parse", "-1/0*x2"], "error: zero denominator (at position 3)"),
    (["invert", "x1 + x2; x2 + *"], "error: expected a coefficient or variable (at position 14)"),
], ids=["unknown-long-flag", "missing-value", "unknown-short-flag", "bare-x",
        "exponent-position", "denominator-position", "map-argument-position"])
def test_flags_and_positions_next_to_a_leading_minus(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    assert (code, out) == (2, "") and err in got


def test_help_next_to_a_leading_minus(capsys):
    for argv in (["parse", "-h"], ["parse", "--help", "-x2"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: unitri parse")


def test_an_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(args):
        raise KeyError("a bug, not a usage error")

    monkeypatch.setitem(cli._COMMANDS, "parse", broken)
    with pytest.raises(KeyError):
        main(["parse", "x2"])


def test_usage_errors_are_value_errors():
    # cli.USAGE_ERRORS catches them as ValueError
    for exc in (ParseError, RankMismatchError, ArityMismatchError, VariableLeakError,
                NonConstantLastError, CapViolationError, SubstitutionTooLargeError):
        assert issubclass(exc, ValueError), exc


# Runs the CLI on argv[2:] and prints which of the comma-separated modules
# in argv[1] it imported.  -S keeps site-packages hooks, which may import
# them themselves, out.
_IMPORT_PROBE = """
import sys
from unitri.cli import main
code = main(sys.argv[2:])
print(sorted(m for m in sys.argv[1].split(",") if m in sys.modules))
sys.exit(code)
"""


def _imported(modules, argv, code=0):
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, ",".join(modules), *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "--cap", "4", "x1 + x3^4; x2; x3"], []),
    (["verify", "lemma2"], ["unitri.suites"]),
])
def test_only_verify_imports_the_suites(argv, loaded):
    assert _imported(("dataclasses", "inspect", "unitri.suites"), argv) == repr(loaded)


GROUP = ["unitri.autgroup"]
LAYERS = ["unitri.invariants"]
CENTRAL = ["unitri.autgroup", "unitri.central", "unitri.invariants"]
USAGE_ERROR = ["straighten", "x1"]   # x1 lies outside Q<x2, x3>: exit 2


COMMAND_IMPORTS = [
    (["parse", "x2"], []),
    (["compose", "x1 + x2; x2", "x1; x2 + 1"], GROUP),
    (["invert", "x1 + x2^2; x2 + 1"], GROUP),
    (["commutator", "x1 + x2; x2", "x1; x2 + 1"], GROUP),
    (["conjugate", "x1 + x2; x2", "x1; x2 + 1"], GROUP),
    (["apply", "x1 + x2; x2", "x1^2"], GROUP),
    (["factor", "x1 + x2*x3; x2 + x3; x3"], GROUP),
    (["invariants", "--level", "1", "--cap", "3"], LAYERS),
    (["straighten", "x3*x2"], LAYERS),
    (["classify", "x1 + x2^2; x2"], CENTRAL),
    (["center-test", "x1 + x3; x2; x3"], CENTRAL),
    (["verify", "lemma2"], CENTRAL + ["unitri.suites"]),
    (USAGE_ERROR, LAYERS),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_IMPORTS,
                         ids=[argv[0] + ("-usage-error" if argv is USAGE_ERROR else "")
                              for argv, _ in COMMAND_IMPORTS])
def test_each_command_imports_only_what_it_runs(argv, loaded):
    modules = ("unitri.autgroup", "unitri.central", "unitri.invariants", "unitri.linalg",
               "unitri.suites")
    code = 2 if argv is USAGE_ERROR else 0
    assert _imported(modules, ["--json", *argv], code) == repr(loaded)
