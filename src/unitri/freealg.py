"""Exact arithmetic in the free associative algebra Q<x1,...,xn>.

Monomials are words over the variables, stored as tuples of 1-based
indices; the empty word is the unit.  A polynomial keeps a finite map
word -> nonzero Fraction, so equality of canonical forms is plain
equality of the term maps.  The term order used everywhere (formatting
and row reduction) is graded lexicographic: shorter words first, ties
broken left to right by variable index.

No float ever enters the arithmetic.  Stored coefficients are always
Fractions, but products and substitutions do not compute with them term
by term: each operand is put over one common denominator d as an int
word map (linalg.clear_denominators), the word products are multiplied
and summed over the integers, and the result is turned back into one
normalised Fraction per term (linalg.over_denominator).

The degree of the zero polynomial is NEG_INF, a sentinel below every
integer, which keeps predicates of the shape "deg f <= s" uniform.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import lcm

from .linalg import add_scaled, add_term, clear_denominators, over_denominator

NEG_INF = float("-inf")

MAX_WORD_LENGTH = 64   # longest word, and so exponent, the parser accepts
DIGITS = frozenset("0123456789")   # str.isdigit() also takes "²" and "٣"


class RankMismatchError(ValueError):
    """Operands live in free algebras of different rank."""


class ArityMismatchError(ValueError):
    """A substitution got the wrong number of variable images."""


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the text offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RankOverflowError(ParseError):
    """A parsed variable index exceeds the declared rank."""


def grlex_key(word):
    """Sort key realizing the graded-lex term order on words."""
    return (len(word), word)


def _require_positive_rank(rank):
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")


class _TermPoly:
    """Sparse polynomial over Q in the zero-free term-map format of
    `linalg`: `terms` maps a term key to its nonzero Fraction coefficient.

    Instances are immutable by convention: no method mutates `terms`, and
    every operation returns a fresh polynomial in canonical form (no zero
    coefficients, every key valid for `rank`).  A subclass says what a key
    is: _check_key validates one, _unit_key is the key of the constant
    term, and _mul_terms multiplies two term maps.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        _require_positive_rank(rank)
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            self._check_key(key, rank)
            add_term(clean, key, Fraction(coeff))
        self.rank = rank
        self.terms = clean

    @classmethod
    def _raw(cls, rank, terms):
        # trusted constructor: terms already canonical (Fraction values, no zeros)
        p = cls.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def zero(cls, rank):
        return cls._raw(rank, {})

    @classmethod
    def constant(cls, value, rank):
        c = Fraction(value)
        return cls._raw(rank, {cls._unit_key(rank): c} if c else {})

    def is_zero(self):
        return not self.terms

    # -- ring operations ---------------------------------------------------

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.constant(other, self.rank)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.terms)
        add_scaled(out, other.terms)
        return self._raw(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.rank, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, type(self))):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.zero(self.rank)
            return self._raw(self.rank, {k: v * c for k, v in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_rank(other)
        return self._raw(self.rank, self._mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.rank}, {str(self)!r})"


class NcPoly(_TermPoly):
    """Sparse polynomial with noncommuting variables and Fraction
    coefficients; a term key is a word."""

    __slots__ = ()

    @staticmethod
    def _check_key(word, rank):
        for letter in word:
            if not 1 <= letter <= rank:
                raise ValueError(f"variable index {letter} outside rank {rank}")

    @staticmethod
    def _unit_key(rank):
        return ()

    @staticmethod
    def _mul_terms(a, b):
        da, ia = clear_denominators(a)
        db, ib = clear_denominators(b)
        return over_denominator(da * db, _mul_words(ia, ib))

    # held in NcPoly's own namespace, where bench/tracer.py looks it up
    __mul__ = _TermPoly.__mul__

    @classmethod
    def one(cls, rank):
        return cls._raw(rank, {(): Fraction(1)})

    @classmethod
    def variable(cls, index, rank):
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} outside rank {rank}")
        return cls._raw(rank, {(index,): Fraction(1)})

    @classmethod
    def monomial(cls, word, coeff, rank):
        return cls(rank, {tuple(word): coeff})

    # -- predicates and degrees -------------------------------------------

    def is_constant(self):
        return all(not w for w in self.terms)

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(len(w) for w in self.terms)

    def degree_in_var(self, index):
        """Largest occurrence count of x_index in any word; NEG_INF for 0."""
        if not self.terms:
            return NEG_INF
        return max(w.count(index) for w in self.terms)

    def is_homogeneous(self):
        return len({len(w) for w in self.terms}) <= 1

    def homogeneous_components(self):
        """Split into total-degree components, as a map degree -> NcPoly."""
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {d: NcPoly._raw(self.rank, t) for d, t in sorted(parts.items())}

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        out = NcPoly.one(self.rank)
        for _ in range(n):
            out = out * self
        return out

    # -- substitution -------------------------------------------------------

    def substitute(self, images):
        """Apply the ring endomorphism x_i -> images[i-1].

        Requires one image per variable of this polynomial; the images fix
        the rank of the result and must all share it.  Words map to the
        ordered product of their letters' images; constants are fixed.

        Word images are built and summed over the integers: each is a pair
        (d, ints) as from linalg.clear_denominators, memoised by prefix,
        with a letter's image converted on first use.  Only the result is
        brought back to Fractions, one per term.
        """
        images = list(images)
        if len(images) != self.rank:
            raise ArityMismatchError(
                f"need {self.rank} images, got {len(images)}")
        ranks = {im.rank for im in images}
        if len(ranks) > 1:
            raise RankMismatchError(f"images carry mixed ranks {sorted(ranks)}")
        rank = images[0].rank if images else self.rank
        cache = {(): (1, {(): 1})}

        def image_of(word):
            got = cache.get(word)
            if got is None:
                if len(word) == 1:
                    got = clear_denominators(images[word[0] - 1].terms)
                else:
                    d1, t1 = image_of(word[:-1])
                    d2, t2 = image_of(word[-1:])
                    got = (d1 * d2, _mul_words(t1, t2))
                cache[word] = got
            return got

        dp, coeffs = clear_denominators(self.terms)
        parts = [(n, image_of(word)) for word, n in coeffs.items()]
        d = lcm(*[dw for _, (dw, _) in parts])
        acc = {}
        for n, (dw, ints) in parts:
            add_scaled(acc, ints, n * (d // dw))
        return NcPoly._raw(rank, over_denominator(dp * d, acc))

    def __str__(self):
        return format_poly(self)


def _mul_words(a, b):
    """Product of two zero-free word maps with int values, zero-free."""
    out = {}
    get = out.get
    for w1, c1 in a.items():
        for w2, c2 in b.items():   # add_term inlined: hot loop
            w = w1 + w2
            v = get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                del out[w]
    return out


def ring_commutator(a, b):
    """[a, b] = ab - ba."""
    return a * b - b * a


def c_generator(k, i, j, rank=None):
    """The iterated commutator c_k built from x_i and x_j.

    c_1 = [x_i, x_j] and c_{k+1} = [c_k, x_j]; the result is homogeneous
    of total degree k + 1 and of degree 1 in x_i.
    """
    if i == j:
        raise ValueError("c generators need two distinct variables")
    if k < 1:
        raise ValueError("k must be >= 1")
    rank = rank if rank is not None else max(i, j)
    xi = NcPoly.variable(i, rank)
    xj = NcPoly.variable(j, rank)
    c = ring_commutator(xi, xj)
    for _ in range(k - 1):
        c = ring_commutator(c, xj)
    return c


class CommPoly(_TermPoly):
    """Sparse commutative polynomial: a term key is an exponent vector.

    The image ring of abelianization; just enough arithmetic to state
    homomorphism properties and compare graded subspaces exactly.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(exps, rank):
        if len(exps) != rank or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for rank {rank}")

    @staticmethod
    def _unit_key(rank):
        return (0,) * rank

    @staticmethod
    def _mul_terms(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                add_term(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return out

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in_var(self, index):
        if not self.terms:
            return NEG_INF
        return max(e[index - 1] for e in self.terms)

    def __str__(self):
        return join_signed_terms(
            (self.terms[exps],
             "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                      for i, e in enumerate(exps) if e))
            for exps in sorted(self.terms, key=lambda e: (sum(e), e)))


def abelianize(p):
    """Project to the commutative polynomial ring; commutators die here."""
    acc = {}
    for word, coeff in p.terms.items():
        add_term(acc, tuple(word.count(i) for i in range(1, p.rank + 1)), coeff)
    return CommPoly._raw(p.rank, acc)


# -- text format -------------------------------------------------------------
#
# poly   := ['+'|'-'] term (('+'|'-') term)*
# term   := coeff ('*' factor)* | factor ('*' factor)*
# coeff  := uint ['/' uint]
# factor := 'x' uint ['^' uint]
#
# Whitespace is insignificant.  Powers expand into repeated letters, so the
# stored representation stays purely word-based.


def _word_str(word):
    parts = []
    for letter, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(f"x{letter}" if n == 1 else f"x{letter}^{n}")
    return "*".join(parts)


def join_signed_terms(terms):
    """Render (nonzero coefficient, monomial text) pairs as a signed sum,
    e.g. "1 + x2*x3 - 3/2*x3*x2".  An empty monomial text marks the
    constant term; a unit coefficient is left implicit; no terms give "0".
    """
    pieces = []
    for c, body in terms:
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) or "0"


def format_poly(p):
    """Canonical rendering: graded-lex term order, explicit '*'."""
    return join_signed_terms((p.terms[w], _word_str(w))
                             for w in sorted(p.terms, key=grlex_key))


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
        return NcPoly._raw(self.rank, acc)


def parse_poly(text, rank):
    """Parse the text grammar above into a canonical polynomial; a word
    longer than MAX_WORD_LENGTH letters is a ParseError, never built."""
    _require_positive_rank(rank)
    return _Parser(text, rank).parse()
