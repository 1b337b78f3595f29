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
import re
import sys
from fractions import Fraction
from math import lcm

from .linalg import add_scaled, add_term, clear_denominators, over_denominator

NEG_INF = float("-inf")

MAX_WORD_LENGTH = 64   # longest word, and so exponent, the parser accepts
# most term products one substitute call may form: about 10x the 20 640
# that the tests, suites and benchmark session need at most, while
# (x1 + x2)^30 stops after about 2^17 of its 2^31
MAX_SUBSTITUTION_TERMS = 200_000


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


class SubstitutionTooLargeError(ValueError):
    """A substitution would form more than MAX_SUBSTITUTION_TERMS term
    products."""


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
        brought back to Fractions, one per term.  The term products the
        word images need are counted before each is formed, and more than
        MAX_SUBSTITUTION_TERMS of them raise SubstitutionTooLargeError.
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
        formed = 0

        def image_of(word):
            nonlocal formed
            got = cache.get(word)
            if got is None:
                if len(word) == 1:
                    got = clear_denominators(images[word[0] - 1].terms)
                else:
                    d1, t1 = image_of(word[:-1])
                    d2, t2 = image_of(word[-1:])
                    formed += len(t1) * len(t2)
                    if formed > MAX_SUBSTITUTION_TERMS:
                        raise SubstitutionTooLargeError(
                            f"substitution needs more than {MAX_SUBSTITUTION_TERMS} terms")
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


def signed_terms(p):
    """The (coefficient, monomial text) pairs of p in graded-lex order, as
    join_signed_terms takes them."""
    return [(p.terms[w], _word_str(w)) for w in sorted(p.terms, key=grlex_key)]


def format_poly(p):
    """Canonical rendering: graded-lex term order, explicit '*'."""
    return join_signed_terms(signed_terms(p))


# A token is a run of ASCII digits or one other non-space character (\d
# would also take "٣"); \s is exactly str.isspace().
_TOKEN = re.compile(r"\s*([0-9]+|\S)")


def _fail(text, index, message, shift=0, cls=ParseError):
    """Raise at the start of token `index` (past the last token: the end of
    the text), plus `shift`; positions are found only when raising."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    raise cls(message, (starts + [len(text)])[index] + shift)


def _uint(text, toks, i, what, limit=None):
    """The value of the digit token i, `what` naming it in errors."""
    tok = toks[i]
    if not "0" <= tok[:1] <= "9":
        _fail(text, i, f"expected {what}")
    digits = tok.lstrip("0") or "0"
    # compare lengths first, so that no huge digit string is converted
    if limit is not None and (len(digits), digits) > (len(str(limit)), str(limit)):
        _fail(text, i, f"{what} exceeds {limit}")
    max_digits = sys.get_int_max_str_digits()   # int() refuses longer strings
    if max_digits and len(digits) > max_digits:
        _fail(text, i, f"{what} has more than {max_digits} digits")
    return int(digits)


def _factor(text, toks, i, rank):
    """The word of the factor at token i, and the index of the next token."""
    if toks[i] != "x":
        _fail(text, i, f"unknown variable {toks[i]!r}" if toks[i].isalpha()
              else "expected a variable")
    index = _uint(text, toks, i + 1, "a variable index")
    if index < 1:
        _fail(text, i, "variable indices start at 1")
    if index > rank:
        _fail(text, i, f"variable x{index} exceeds rank {rank}", cls=RankOverflowError)
    if toks[i + 2] != "^":
        return (index,), i + 2
    return (index,) * _uint(text, toks, i + 3, "an exponent", MAX_WORD_LENGTH), i + 4


def parse_poly(text, rank):
    """Parse the text grammar above into a canonical polynomial; a word
    longer than MAX_WORD_LENGTH letters is a ParseError, never built."""
    _require_positive_rank(rank)
    toks = _TOKEN.findall(text) + [""]   # "" marks the end of the text
    if not toks[0]:
        _fail(text, 0, "empty polynomial")
    i = 1 if toks[0] in ("+", "-") else 0
    sign = -1 if toks[0] == "-" else 1
    acc = {}
    while True:
        num, den, word = 1, 1, ()
        if "0" <= toks[i][:1] <= "9":
            num = _uint(text, toks, i, "an integer")
            i += 1
            if toks[i] == "/":
                den = _uint(text, toks, i + 1, "a denominator")
                if not den:
                    _fail(text, i, "zero denominator", 1)   # just after the '/'
                i += 2
        elif toks[i].isalpha():
            word, i = _factor(text, toks, i, rank)
        else:
            _fail(text, i, "expected a coefficient or variable")
        while toks[i] == "*":
            factor, i = _factor(text, toks, i + 1, rank)
            if len(word) + len(factor) > MAX_WORD_LENGTH:
                message = f"word longer than {MAX_WORD_LENGTH} letters"
                if toks[i - 2] == "^":   # reported at the end of the exponent
                    _fail(text, i - 1, message, len(toks[i - 1]))
                _fail(text, i, message)   # else at the next token
            word += factor
        add_term(acc, word, Fraction(sign * num, den))
        if not toks[i]:
            return NcPoly._raw(rank, acc)
        if toks[i] not in ("+", "-"):
            _fail(text, i, f"expected '+' or '-', found {toks[i][0]!r}")
        sign = -1 if toks[i] == "-" else 1
        i += 1
