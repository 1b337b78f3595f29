"""Exact arithmetic in the free associative algebra Q<x1,...,xn>.

Monomials are words over the variables, stored as tuples of 1-based
indices; the empty word is the unit.  The term order used everywhere
(formatting and row reduction) is graded lexicographic: shorter words
first, ties broken left to right by variable index.

No float ever enters the arithmetic.  A polynomial is stored over one
common denominator: a positive int `den` and a zero-free map `ints`,
word -> int, with gcd(den, *ints.values()) == 1, so the coefficient of
a word is ints[word] / den.  That form is unique, so equality of
polynomials is plain equality of (rank, den, ints).  Sums, products and
substitutions compute in ints and divide out one gcd per result; a
Fraction is built only at the boundary: for a coefficient given from
outside that is not an int, a scalar `/`, and a read of the `terms`
view or of `constant_term`.  Output renders each ratio from the ints and
builds no Fraction.  `fractions` is imported on first use, so a program
that does none of those never loads it (nor `decimal` and `numbers`,
which it imports).

This module owns the term-map format that every sparse object in the
package shares -- a polynomial, its abelianisation, a row of an Echelon,
a straightening map: a dict mapping hashable term keys to nonzero
coefficients, int or Fraction.  add_term, add_scaled and _mul_words
are the only code that sums into a term map, and so the only code that
keeps a stored coefficient nonzero, by deleting any entry that cancels;
add_scaled and _mul_words inline add_term for speed.

The degree of the zero polynomial is NEG_INF, a sentinel below every
integer, which keeps predicates of the shape "deg f <= s" uniform.
"""

from __future__ import annotations

import re
import sys
from math import comb, gcd, lcm

NEG_INF = float("-inf")

MAX_WORD_LENGTH = 64   # longest word, and so exponent, the parser accepts
# most term products one substitute call may form: about 10x the 20 640
# that the tests, suites and benchmark session need at most, while
# (x1 + x2)^30 stops after about 2^17 of its 2^31
MAX_SUBSTITUTION_TERMS = 200_000


class RankMismatchError(ValueError):
    """Operands live in free algebras of different rank."""


class VariableLeakError(ValueError):
    """A polynomial involves a variable that it must not: an offset, one
    of index <= its own slot; an invariants argument, one outside its
    algebra."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class ArityMismatchError(ValueError):
    """A substitution got the wrong number of variable images."""


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the text offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
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


def _coefficient(value):
    """A coefficient given from outside: an int as it is, any other value
    as a Fraction; a float is refused, since its binary expansion is not
    the number it was written as."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"coefficients must be ints or Fractions, not float {value!r}")
    from fractions import Fraction
    return Fraction(value)


def _is_scalar(value):
    """Whether the ring operations take value as a scalar: an int (bool
    included) or a Fraction.  Only a value of another type imports
    fractions to decide."""
    if isinstance(value, int):
        return True
    from fractions import Fraction
    return isinstance(value, Fraction)


def add_term(acc, key, c):
    """acc[key] += c in place, dropping the entry if it cancels.  A new
    key takes c itself: 0 + c would cost a Fraction add and a gcd."""
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
        return
    v = old + c
    if v:
        acc[key] = v
    else:
        del acc[key]


def add_scaled(acc, vec, c=1):
    """acc += c * vec in place, dropping every entry that cancels.

    The default c, the int 1, adds the values of vec as they are, with no
    multiply; any other c, even Fraction(1), multiplies each value."""
    if not c:
        return
    get = acc.get
    unscaled = type(c) is int and c == 1
    for t, v in vec.items():
        if not unscaled:
            v = c * v
        old = get(t)
        if old is None:
            acc[t] = v
            continue
        v += old
        if v:
            acc[t] = v
        else:
            del acc[t]


class NcPoly:
    """Sparse polynomial with noncommuting variables and rational
    coefficients, stored over one common denominator (see the module
    docstring): `den` is a positive int and `ints` a zero-free map
    word -> int with gcd(den, *ints.values()) == 1.  `terms` is the
    {word: Fraction} term map of the same polynomial, built on each read.

    Instances are immutable by convention: no method mutates `ints`, and
    every operation returns a fresh polynomial in canonical form (the form
    above, every letter a variable index within `rank`).
    """

    __slots__ = ("rank", "den", "ints")

    def __init__(self, rank, terms=None):
        _require_positive_rank(rank)
        ratios = []
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            for letter in word:
                if not 1 <= letter <= rank:
                    raise ValueError(f"variable index {letter} outside rank {rank}")
            c = _coefficient(coeff)
            ratios.append((word, c.numerator, c.denominator))
        p = self._from_ratios(rank, ratios)
        self.rank, self.den, self.ints = rank, p.den, p.ints

    @classmethod
    def _make(cls, rank, den, ints):
        # trusted constructor: (den, ints) already canonical
        p = cls.__new__(cls)
        p.rank = rank
        p.den = den
        p.ints = ints
        return p

    @classmethod
    def _reduced(cls, rank, den, ints):
        # trusted constructor: ints zero-free and den > 0; divides out
        # gcd(den, *ints), which is den itself when ints is empty
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {w: n // g for w, n in ints.items()}
        p = cls.__new__(cls)
        p.rank = rank
        p.den = den
        p.ints = ints
        return p

    @classmethod
    def _from_ratios(cls, rank, ratios):
        # trusted constructor: the sum of num/den * word over (word, num,
        # den) int triples, den > 0; words may repeat and nums may be 0.
        # One triple is num/g over den/g, g = gcd(num, den), with no lcm
        if len(ratios) == 1:
            (word, num, den), = ratios
            if not num:
                return cls._make(rank, 1, {})
            g = gcd(num, den)
            return cls._make(rank, den // g, {word: num // g})
        d = lcm(*[den for _, _, den in ratios])
        acc = {}
        for word, num, den in ratios:
            add_term(acc, word, num * (d // den))
        return cls._reduced(rank, d, acc)

    @property
    def terms(self):
        """The {word: Fraction} view, one normalised Fraction per term."""
        from fractions import Fraction
        den = self.den
        return {w: Fraction(n, den) for w, n in self.ints.items()}

    @classmethod
    def zero(cls, rank):
        return cls._make(rank, 1, {})

    @classmethod
    def constant(cls, value, rank):
        c = _coefficient(value)
        return cls._make(rank, c.denominator, {(): c.numerator} if c else {})

    def is_zero(self):
        return not self.ints

    # -- ring operations ---------------------------------------------------

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    def _sum(self, other, sign):
        """self + sign * other for other an NcPoly, int or Fraction, in one
        int accumulation: the sign goes to add_scaled, so self - other
        forms no negated copy of other."""
        if not isinstance(other, NcPoly):
            if not _is_scalar(other):
                return NotImplemented
            other = self.constant(other, self.rank)
        self._check_rank(other)
        acc, d, scale = _addend_over(self, other.den)
        add_scaled(acc, other.ints, sign * scale)
        return self._reduced(self.rank, d, acc)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.rank, self.den, {w: -n for w, n in self.ints.items()})

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check_rank(other)
            return self._reduced(self.rank, self.den * other.den,
                                 _mul_words(self.ints, other.ints))
        if not _is_scalar(other):
            return NotImplemented
        if not other:
            return self.zero(self.rank)
        num = other.numerator
        return self._reduced(self.rank, self.den * other.denominator,
                             {w: n * num for w, n in self.ints.items()})

    def __rmul__(self, other):
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        from fractions import Fraction
        return self * (Fraction(1) / Fraction(other))

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.rank == other.rank and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.rank, self.den, frozenset(self.ints.items())))

    def __repr__(self):
        return f"NcPoly({self.rank}, {str(self)!r})"

    @classmethod
    def one(cls, rank):
        return cls._make(rank, 1, {(): 1})

    @classmethod
    def variable(cls, index, rank):
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} outside rank {rank}")
        return cls._make(rank, 1, {(index,): 1})

    # -- predicates and degrees -------------------------------------------

    def is_constant(self):
        return all(not w for w in self.ints)

    def constant_term(self):
        from fractions import Fraction
        return Fraction(self.ints.get((), 0), self.den)

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.ints:
            return NEG_INF
        return max(len(w) for w in self.ints)

    def degree_in_var(self, index):
        """Largest occurrence count of x_index in any word; NEG_INF for 0."""
        if not self.ints:
            return NEG_INF
        return max(w.count(index) for w in self.ints)

    def is_homogeneous(self):
        return len({len(w) for w in self.ints}) <= 1

    def homogeneous_components(self):
        """Split into total-degree components, as a map degree -> NcPoly."""
        parts = {}
        for w, n in self.ints.items():
            parts.setdefault(len(w), {})[w] = n
        return {d: NcPoly._reduced(self.rank, self.den, t) for d, t in sorted(parts.items())}

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        out = NcPoly.one(self.rank)
        for _ in range(n):
            out = out * self
        return out

    # -- substitution -------------------------------------------------------

    def substitute(self, images, addend=None):
        """Apply the ring endomorphism x_i -> images[i-1], and add `addend`.

        Requires one image per variable of this polynomial; the images fix
        the rank of the result and must all share it.  Words map to the
        ordered product of their letters' images.  The addend, None (zero)
        or a polynomial of the images' rank, is summed with the word images
        in the same int accumulator, so addend + self(images) costs one gcd
        reduction and no second `+`; UniAut.compose passes g_i as the
        addend of f_i.

        A constant c, zero included, is its own image, in the images'
        rank.  No branch says so: the empty word's image is memoised as
        1 from the start, so the loop below sends c to addend + c,
        forms no product and charges nothing to the term bound.
        UniAut.compose and autgroup._solve, which inverts and divides
        on the left, send every head slot here, constant or not.

        Word images are built and summed over the integers: each is a pair
        (d, ints), memoised by prefix, a letter's image being its
        (den, ints).  A loop starts each word from its longest memoised
        prefix and multiplies in the images of its remaining letters one
        at a time, so a prefix of two or more letters is formed once, by
        one product of its own prefix and last letter, and a lone letter
        by none.  The term products are counted before each is formed,
        and more than MAX_SUBSTITUTION_TERMS of them in one call raise
        SubstitutionTooLargeError.
        """
        images = list(images)
        if len(images) != self.rank:
            raise ArityMismatchError(
                f"need {self.rank} images, got {len(images)}")
        rank = images[0].rank
        cache = {(): (1, {(): 1})}
        for letter, im in enumerate(images, start=1):
            if im.rank != rank:
                raise RankMismatchError(
                    f"images carry mixed ranks {sorted({im.rank for im in images})}")
            cache[(letter,)] = (im.den, im.ints)
        if addend is not None and addend.rank != rank:
            raise RankMismatchError(f"addend has rank {addend.rank}, images rank {rank}")
        formed = 0
        parts = []
        for word, n in self.ints.items():
            k = len(word)
            while word[:k] not in cache:
                k -= 1
            d, ints = cache[word[:k]]
            for j in range(k, len(word)):
                im = images[word[j] - 1]
                formed += len(ints) * len(im.ints)
                if formed > MAX_SUBSTITUTION_TERMS:
                    raise SubstitutionTooLargeError(
                        f"substitution needs more than {MAX_SUBSTITUTION_TERMS} terms")
                d, ints = d * im.den, _mul_words(ints, im.ints)
                cache[word[:j + 1]] = (d, ints)
            parts.append((n, d, ints))
        d = lcm(*[dw for _, dw, _ in parts])
        acc, den, scale = _addend_over(addend, self.den * d)
        for n, dw, ints in parts:
            add_scaled(acc, ints, n * (d // dw) * scale)
        return NcPoly._reduced(rank, den, acc)

    def __str__(self):
        return format_poly(self)


def _addend_over(addend, den):
    """The start of a sum over den that `addend` (None: zero) joins: an
    int accumulator holding addend over D = lcm(den, addend.den), D, and
    the factor D // den that scales the sum's int values onto D."""
    if addend is None:
        return {}, den, 1
    total = den if den == addend.den else lcm(den, addend.den)
    up = total // addend.den
    acc = dict(addend.ints) if up == 1 else {w: c * up for w, c in addend.ints.items()}
    return acc, total, total // den


def _mul_words(a, b):
    """Product of two zero-free word maps with int values, zero-free."""
    out = {}
    get = out.get
    for w1, c1 in a.items():
        for w2, c2 in b.items():
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


def c_generator(k, i, j):
    """The iterated commutator c_k built from x_i and x_j: c_1 = [x_i, x_j]
    and c_(k+1) = [c_k, x_j], homogeneous of total degree k + 1 and of
    degree 1 in x_i.  In closed form

        c_k = sum_s (-1)^s * C(k,s) * x_j^s * x_i * x_j^(k-s).

    Proof: [y, x_j] = (R_j - L_j)(y) for right and left multiplication by
    x_j, which commute, so the binomial theorem expands (R_j - L_j)^k(x_i).
    For i < j the least graded-lex word, x_i * x_j^k, has coefficient 1.
    Its rank is max(i, j).
    """
    if i == j:
        raise ValueError("c generators need two distinct variables")
    if k < 1:
        raise ValueError("k must be >= 1")
    return NcPoly(max(i, j), {(j,) * s + (i,) + (j,) * (k - s): (-1) ** s * comb(k, s)
                              for s in range(k + 1)})


def abelianize(p):
    """Project to the commutative polynomial ring, where commutators die:
    the zero-free term map {exponent vector: Fraction}, the i-th entry of
    a vector counting x_(i+1)."""
    acc = {}
    for word, coeff in p.terms.items():
        add_term(acc, tuple(word.count(i) for i in range(1, p.rank + 1)), coeff)
    return acc


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
    parts, start = [], 0
    for end in range(1, len(word) + 1):
        if end == len(word) or word[end] != word[start]:   # a run ends here
            n = end - start
            parts.append(f"x{word[start]}" if n == 1 else f"x{word[start]}^{n}")
            start = end
    return "*".join(parts)


def join_signed_terms(terms):
    """Render (nonzero coefficient, monomial text) pairs as a signed sum,
    e.g. "1 + x2*x3 - 3/2*x3*x2".  A coefficient is an int, a Fraction,
    or the int pair (n, d) for n/d in lowest terms with d > 1.  An empty
    monomial text marks the constant term; a unit coefficient is left
    implicit; no terms give "0".
    """
    pieces = []
    for c, body in terms:
        if type(c) is tuple:
            n, d = c
            negative, mag = n < 0, f"{abs(n)}/{d}"
        else:
            negative, mag = c < 0, abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(pieces) or "0"


def signed_terms(p):
    """The (coefficient, monomial text) pairs of p in graded-lex order, as
    join_signed_terms takes them: an int coefficient when it is whole,
    else the pair (n // g, den // g), g = gcd(n, den), for n / den."""
    ints, den = p.ints, p.den
    words = sorted(ints, key=grlex_key)
    if den == 1:
        return [(ints[w], _word_str(w)) for w in words]
    out = []
    for w in words:
        n = ints[w]
        g = gcd(n, den)
        out.append((n // g if g == den else (n // g, den // g), _word_str(w)))
    return out


def format_poly(p):
    """Canonical rendering: graded-lex term order, explicit '*'."""
    return join_signed_terms(signed_terms(p))


# A token is a run of ASCII digits or one other non-space character (\d
# would also take "٣"); \s is exactly str.isspace().
_TOKEN = re.compile(r"\s*([0-9]+|\S)")


def _tokens(text):
    """The tokens of text, then "", which marks the end of the text."""
    return _TOKEN.findall(text) + [""]


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
    if len(tok) < 19:   # at most 18 digits: int() is cheap, the limit a number
        value = int(tok)
        if limit is not None and value > limit:
            _fail(text, i, f"{what} exceeds {limit}")
        return value
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


def _read_sum(text, toks, i, rank, ends):
    """The (word, signed numerator, denominator) triples of the sum whose
    first token is toks[i], and the index of the token in `ends` that
    closes it: "" (the end of the text) must be among `ends`."""
    if toks[i] in ends:
        _fail(text, i, "empty polynomial")
    sign = 1
    if toks[i] in ("+", "-"):
        sign = -1 if toks[i] == "-" else 1
        i += 1
    parsed = []
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
        parsed.append((word, sign * num, den))
        if toks[i] in ends:
            return parsed, i
        if toks[i] not in ("+", "-"):
            _fail(text, i, f"expected '+' or '-', found {toks[i][0]!r}")
        sign = -1 if toks[i] == "-" else 1
        i += 1


def parse_poly(text, rank):
    """Parse the text grammar above into a canonical polynomial; a word
    longer than MAX_WORD_LENGTH letters is a ParseError, never built.
    One walk over the tokens collects the terms as triples (_read_sum,
    which parse_aut shares) and NcPoly._from_ratios sums them; the sum
    runs to the end of the text, so a ';' is a syntax error here."""
    _require_positive_rank(rank)
    return NcPoly._from_ratios(rank, _read_sum(text, _tokens(text), 0, rank, ("",))[0])
