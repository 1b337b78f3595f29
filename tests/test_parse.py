"""The polynomial text grammar: pinned error text, parse_poly against the
character-stepping parser kept in tests/parse_oracle.py, and parse_aut
against the split-and-subtract map parser kept there."""

import random
import re
import sys
from pathlib import Path

import pytest

from parse_oracle import oracle_parse_aut, oracle_parse_poly

from unitri.autgroup import MAX_RANK, parse_aut
from unitri.cli import main
from unitri.freealg import parse_poly

GOLDEN = Path(__file__).parent / "golden"
LIMIT = sys.get_int_max_str_digits()   # 4300 unless the interpreter was told otherwise

# `unitri parse TEXT` inputs (default rank 3) whose exit code and output
# tests/golden/parse_errors.txt pins; all but the last are malformed
ERROR_INPUTS = [
    "", "  ", "\t\xa0", "+", "-", "x2 +", "x2 - ", "+ - x2",
    "x2 + * x3", "x2 + * 3", "y2 + 1", "X2", "é", "x", "x ", "x2^", "x2^-1",
    "x0", "x00", "x4", "x3 + x12", "x²", "x٢", "٣", "x2^²", "x2 ^ ٣",
    "2*3", "x2/3", "1/2/3", "1/x2", "1/", "1/0", "1/ 0", "2/00*x2",
    "x2^3^4", "x2 x3", "1 23", "(x2)", "x2,x3", "x2 + 1 *",
    "x2^65", "x2^0065", "x2^40*x3^25", "x2^40*x3^24 * x3 + 1",
    "x2^64*x3", "x2*x2^64",
    "1" * (LIMIT + 1), "1/" + "1" * (LIMIT + 1), "x" + "9" * (LIMIT + 1),
    "x2^" + "9" * (LIMIT + 1), "2*x2 + x" + "0" * (LIMIT + 1) + "4",
    "x" + "0" * (LIMIT + 100) + "2",
]


def _label(text):
    if len(text) <= 60:
        return repr(text)
    return f"{text[:12]!r} ... {text[-12:]!r} ({len(text)} characters)"


def parse_transcript(capsys):
    """One block per ERROR_INPUTS entry: the input, exit code, then stdout
    and stderr as printed."""
    blocks = []
    for text in ERROR_INPUTS:
        code = main(["parse", text])
        captured = capsys.readouterr()
        blocks.append(f"$ unitri parse {_label(text)}\nexit {code}\n"
                      f"{captured.out}{captured.err}")
    return "\n".join(blocks)


def test_parse_errors_are_pinned(capsys):
    assert parse_transcript(capsys) == (GOLDEN / "parse_errors.txt").read_text()


# -- parse_poly against the character-stepping oracle --------------------------

# what the fuzzed texts are made of: the grammar's tokens, letters that
# are not variables, whitespace that str.isspace() skips (tab, NBSP), and
# digits outside ASCII ("٣", "²") that must not read as numbers
PIECES = list("0123456789+-*/^xxxxyXé") + [" ", " ", "\t", "\xa0", "٣", "²"]
SPACES = ["", "", "", " ", "  ", "\t", "\xa0"]


def _digit_run(rng, small):
    if rng.random() < 0.003:   # near the interpreter's digit limit
        zeros = "0" * rng.choice([0, 0, 3, 200])
        return zeros + "1" * rng.randint(LIMIT - 2, LIMIT + 2)
    if rng.random() < 0.8:
        return str(rng.randint(0, small))
    return rng.choice(["", "0"]) + str(rng.choice([0, 1, 24, 40, 64, 65, 99]))


def _term(rng, rank):
    pieces = []
    if rng.random() < 0.4:
        pieces.append(_digit_run(rng, 9))
        if rng.random() < 0.3:
            pieces += ["/", _digit_run(rng, 9)]
    for _ in range(rng.randint(0 if pieces else 1, 3)):
        index = str(rng.randint(1, rank)) if rng.random() < 0.9 else _digit_run(rng, rank + 1)
        pieces += ["*", "x", index]
        if rng.random() < 0.4:
            pieces += ["^", _digit_run(rng, 9)]
    return pieces[1:] if pieces[0] == "*" else pieces


def fuzz_text(rng, rank):
    """A near-grammatical polynomial with a few random edits, or noise."""
    if rng.random() < 0.15:
        tokens = [rng.choice(PIECES) for _ in range(rng.randint(0, 10))]
    else:
        tokens = [rng.choice(["", "", "+", "-"])]
        for i in range(rng.randint(1, 4)):
            if i:
                tokens.append(rng.choice("+-"))
            tokens += _term(rng, rank)
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            i = rng.randrange(len(tokens) + 1)
            edit = rng.random()
            if edit < 0.4 or i == len(tokens):
                tokens.insert(i, rng.choice(PIECES))
            elif edit < 0.7:
                del tokens[i]
            else:
                tokens[i] = rng.choice(PIECES)
    return "".join(rng.choice(SPACES) + t for t in tokens) + rng.choice(SPACES)


def _outcome(parse, text, rank):
    try:
        return list(parse(text, rank).terms.items())
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_poly_matches_the_character_stepping_oracle():
    rng = random.Random(20141110)
    kinds = set()
    parsed = 0
    for _ in range(20_000):
        rank = rng.randint(1, 4)
        text = fuzz_text(rng, rank)
        got = _outcome(parse_poly, text, rank)
        assert got == _outcome(oracle_parse_poly, text, rank), (text, rank)
        if isinstance(got, list):
            parsed += 1
        else:
            kinds.add(re.sub(r"'.*?'|[0-9]+", "_", got[1]))
    # the texts reach every outcome: a parse, and each of the 16 error
    # messages the grammar can give (numbers and quoted text aside)
    assert parsed > 2_000
    assert len(kinds) == 16, sorted(kinds)


@pytest.mark.parametrize("text", [
    "1" * 18, "9" * 18 + "*x2", "0" * 17 + "7", "1" * 19, "1" * 19 + "*x3",
    "123456789012345678/999999999999999999", "1/" + "9" * 19, "1/" + "0" * 18,
    "1/" + "0" * 19, "-" + "0" * 18 + "/3",
    "x2^064", "x2^065", "x2^0064*x3", "x2^" + "0" * 16 + "64", "x2^" + "0" * 17 + "64",
    "x2^" + "0" * 16 + "65", "x2^" + "0" * 17 + "65", "x2^" + "9" * 18, "x2^" + "9" * 19,
    "x" + "0" * 17 + "2", "x" + "0" * 18 + "3", "x" + "9" * 18, "x" + "0" * 18,
])
def test_short_and_long_digit_tokens_match_the_character_stepping_oracle(text):
    # tokens below 19 characters are read by int() and compared with the
    # limit as numbers; longer ones by their digit strings: the same
    # value, or the same error text and position, either way
    assert _outcome(parse_poly, text, 3) == _outcome(oracle_parse_poly, text, 3)


# -- parse_aut against the split-and-subtract oracle ---------------------------

# edits that a map text can also take: a ';' with or without spaces, and
# a term left unfinished just before a ';'
MAP_PIECES = PIECES + [";", ";", " ;", "; ", " ; ", "x;", "2*;"]


def _offset_term(rng, low, rank):
    """A term in x_low..x_rank, a constant when that range is empty."""
    pieces = [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"] if rng.random() < 0.3 else []
    if low <= rank:
        for _ in range(rng.randint(0 if pieces else 1, 3)):
            pieces += ["*", f"x{rng.randint(low, rank)}"]
            if rng.random() < 0.3:
                pieces += ["^", str(rng.randint(1, 3))]
    elif not pieces:
        pieces = [str(rng.randint(0, 9))]
    return pieces[1:] if pieces[0] == "*" else pieces


def _image_text(rng, i, rank):
    """Image i of a rank-`rank` map: mostly x_i plus an offset in the later
    variables, else blank, unfinished, or a fuzzed polynomial."""
    kind = rng.random()
    if kind < 0.05:
        return rng.choice(SPACES)
    if kind < 0.1:
        return f"x{i} + " + rng.choice(["x", "2*", "x ", "2 *"])
    if kind < 0.2:
        return fuzz_text(rng, rank + 1)
    tokens = [f"x{i}"]
    for _ in range(rng.randint(0, 2)):
        tokens += [rng.choice("+-"), *_offset_term(rng, i + 1, rank)]
    if rng.random() < 0.08:   # a term that leaks x_j, j <= i, or ends the map non-constant
        tokens += ["+", f"x{rng.randint(1, rank)}"]
    return "".join(rng.choice(SPACES) + t for t in tokens) + rng.choice(SPACES)


def fuzz_map_text(rng):
    """A map text of 1 to 6 images, sometimes with a trailing ';' or a few
    edits drawn from MAP_PIECES."""
    rank = rng.randint(1, 6)
    tokens = [_image_text(rng, i, rank) for i in range(1, rank + 1)]
    text = ";".join(t + rng.choice(SPACES) for t in tokens)
    if rng.random() < 0.05:
        text += rng.choice([";", "; ", ";x1"])
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(MAP_PIECES) + text[i + rng.choice([0, 0, 1]):]
    return text


def _map_outcome(parse, text):
    try:
        phi = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return phi.rank, [list(f.terms.items()) for f in phi.offsets]


def test_parse_aut_matches_the_split_and_subtract_oracle():
    rng = random.Random(14056288)
    texts = [fuzz_map_text(rng) for _ in range(20_000)]
    texts.append(";".join(f" x{i} " for i in range(1, MAX_RANK + 2)))   # one image too many
    kinds = set()
    parsed = 0
    for text in texts:
        got = _map_outcome(parse_aut, text)
        assert got == _map_outcome(oracle_parse_aut, text), text
        if isinstance(got[0], int):
            kinds.add("parsed")
            parsed += 1
        elif got[0] is ValueError:
            kinds.add(re.sub(r"[0-9]+", "_", got[1]))
        else:
            kinds.add(got[0].__name__)
    # the texts reach a parse, each error the map layer adds, and the
    # polynomial grammar's errors
    assert parsed > 2_000
    assert {"parsed", "VariableLeakError", "NonConstantLastError", "RankOverflowError",
            "ParseError", "an automorphism needs at least two images",
            "an automorphism has at most _ images, got _"} <= kinds, sorted(kinds)
