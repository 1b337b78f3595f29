"""The character-stepping parser freealg.parse_poly once used, kept as the
reference that tests/test_parse.py compares the token scan against, and
the split-and-subtract autgroup.parse_aut, kept as the reference for the
one-pass map parser.

`_Parser` is the class as it stood, unchanged: it walks the text one
character at a time, skipping whitespace before each token.
"""

import sys
from fractions import Fraction

from unitri.autgroup import MAX_RANK, UniAut
from unitri.freealg import (
    MAX_WORD_LENGTH,
    NcPoly,
    ParseError,
    RankOverflowError,
    add_term,
    parse_poly,
)

DIGITS = frozenset("0123456789")   # str.isdigit() also takes "²" and "٣"


class _Parser:
    def __init__(self, text, rank):
        self.text = text
        self.rank = rank
        self.pos = 0

    def error(self, message, pos=None):
        raise ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse_uint(self, what, limit=None):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        digits = self.text[start:self.pos].lstrip("0") or "0"
        # compare lengths first, so that no huge digit string is converted
        if limit is not None and (len(digits), digits) > (len(str(limit)), str(limit)):
            self.error(f"{what} exceeds {limit}", start)
        max_digits = sys.get_int_max_str_digits()   # int() refuses longer strings
        if max_digits and len(digits) > max_digits:
            self.error(f"{what} has more than {max_digits} digits", start)
        return int(digits)

    def parse_coeff(self):
        num = self.parse_uint("an integer")
        if self.peek() == "/":
            self.take()
            start = self.pos
            den = self.parse_uint("a denominator")
            if den == 0:
                self.error("zero denominator", start)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self):
        ch = self.peek()
        start = self.pos
        if ch != "x":
            if ch.isalpha():
                self.error(f"unknown variable {ch!r}")
            self.error("expected a variable")
        self.take()
        index = self.parse_uint("a variable index")
        if index < 1:
            self.error("variable indices start at 1", start)
        if index > self.rank:
            raise RankOverflowError(
                f"variable x{index} exceeds rank {self.rank}", start)
        power = 1
        if self.peek() == "^":
            self.take()
            power = self.parse_uint("an exponent", MAX_WORD_LENGTH)
        return (index,) * power

    def parse_term(self):
        ch = self.peek()
        if ch in DIGITS:
            coeff = self.parse_coeff()
            word = ()
        elif ch == "x" or ch.isalpha():
            coeff = Fraction(1)
            word = self.parse_factor()
        else:
            self.error("expected a coefficient or variable")
        while self.peek() == "*":
            self.take()
            factor = self.parse_factor()
            if len(word) + len(factor) > MAX_WORD_LENGTH:
                self.error(f"word longer than {MAX_WORD_LENGTH} letters")
            word = word + factor
        return word, coeff

    def parse(self):
        acc = {}
        sign = 1
        ch = self.peek()
        if ch and ch in "+-":
            self.take()
            sign = -1 if ch == "-" else 1
        elif not ch:
            self.error("empty polynomial")
        while True:
            word, coeff = self.parse_term()
            add_term(acc, word, sign * coeff)
            ch = self.peek()
            if not ch:
                break
            if ch not in "+-":
                self.error(f"expected '+' or '-', found {ch!r}")
            self.take()
            sign = -1 if ch == "-" else 1
        return NcPoly(self.rank, acc)



def oracle_parse_poly(text, rank):
    """parse_poly as the character-stepping parser computed it."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return _Parser(text, rank).parse()


def oracle_parse_aut(text):
    """parse_aut as it first stood: split the text on ';', parse each part
    on its own, shift a ParseError's position by the part's start, and
    subtract x_i from image i."""
    rank = text.count(";") + 1
    if rank > MAX_RANK:
        raise ValueError(f"an automorphism has at most {MAX_RANK} images, got {rank}")
    parts = text.split(";")
    if rank < 2:
        raise ValueError("an automorphism needs at least two images")
    offsets = []
    start = 0
    for i, part in enumerate(parts, start=1):
        try:
            img = parse_poly(part, rank)
        except ParseError as e:
            raise type(e)(e.message, start + e.position) from None
        offsets.append(img - NcPoly.variable(i, rank))
        start += len(part) + 1
    return UniAut(rank, offsets)
