import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unitri import cli, suites
from unitri.autgroup import NonConstantLastError, VariableLeakError
from unitri.cli import main
from unitri.freealg import (
    MAX_SUBSTITUTION_TERMS,
    ArityMismatchError,
    ParseError,
    RankMismatchError,
    SubstitutionTooLargeError,
)
from unitri.invariants import CapViolationError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


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
    assert data == {"level": "w+2", "verdict": {
        "kind": "probably_holds", "provenance": "abelianisation bound, unsampled"}}
    data = run_json(capsys, "classify", "x1 + x3^3; x2; x3")
    assert data == {"level": "4", "verdict": {"kind": "holds"}}


@pytest.mark.parametrize("argv, out", [
    (["classify", "x1 + x2^2*x3 - 2*x2*x3*x2 + x3*x2^2; x2; x3"], "w+1 (probably_holds)"),
    (["classify", "--cap", "4", "x1 + x3^4; x2; x3"], "5 (holds)"),
    (["invariants", "--level", "4", "--cap", "1"], "level 4, degree cap 1, dim 2 (holds)\n  1\n  x3"),
], ids=["double-commutator", "x3^4-cap4", "layer4-cap1"])
def test_exact_layer_answers(capsys, argv, out):
    code, got, _ = run(capsys, *argv)
    assert (code, got) == (0, out + "\n")


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
    ["center-test", "x1 + x2^30; x2; x3; x4"],
    # x1^2 needs 446^2 products, just under the bound; x1^3 would need
    # 446 times as many more in one step
    ["apply", f"x1 + {_sum_of_words(446)}; x2; x3", "x1^3"],
], ids=["apply-binomial", "invert", "center-test", "apply-cube"])
def test_oversized_substitution_is_a_usage_error(argv):
    # a fresh process, so that a hang fails on the timeout, not the run
    proc = subprocess.run([sys.executable, "-m", "unitri.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: substitution needs more than {MAX_SUBSTITUTION_TERMS} terms\n"


def test_suite_names_are_the_suites():
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


def test_usage_errors_are_value_errors():
    # cli.USAGE_ERRORS catches them as ValueError
    for exc in (ParseError, RankMismatchError, ArityMismatchError, VariableLeakError,
                NonConstantLastError, CapViolationError, SubstitutionTooLargeError):
        assert issubclass(exc, ValueError), exc


# Runs the CLI and prints which of the listed modules it imported.  -S
# keeps site-packages hooks, which may import them themselves, out.
_IMPORT_PROBE = """
import sys
from unitri.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in ("dataclasses", "inspect", "unitri.suites") if m in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "--cap", "4", "x1 + x3^4; x2; x3"], []),
    (["verify", "lemma2"], ["unitri.suites"]),
])
def test_only_verify_imports_the_suites(argv, loaded):
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)
