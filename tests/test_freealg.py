import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unitri import freealg
from unitri.freealg import (
    NEG_INF,
    ArityMismatchError,
    NcPoly,
    ParseError,
    RankMismatchError,
    RankOverflowError,
    SubstitutionTooLargeError,
    abelianize,
    c_generator,
    format_poly,
    parse_poly,
    ring_commutator,
)

from unitri.autgroup import _constant_sum, format_aut, random_aut_rng
from unitri.invariants import subalgebra_membership

from conftest import c_combination, rand_coeff, rand_poly
from poly_oracle import (
    fraction_add_terms,
    fraction_format_terms,
    fraction_join,
    fraction_mul_terms,
    fraction_substitute,
    fraction_word_text,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def x(i, rank=3):
    return NcPoly.variable(i, rank)


def test_add_cancellation():
    assert x(1) + x(2) + (-x(2)) == x(1)


def test_sub_is_add_of_the_negation():
    # one pass with the sign, against the negated copy added
    rng = random.Random(32)
    for _ in range(200):
        a, b = rand_poly(rng, 3, 3), rand_poly(rng, 3, 3)
        for other in (b, rng.randint(-5, 5), rand_coeff(rng, 5)):
            assert a - other == a + (-other)
            assert other - a == other + (-a)


def test_add_identity():
    p = parse_poly("x1*x2 - 3", 2)
    assert p + NcPoly.zero(2) == p


def test_add_like_terms():
    p = x(1, 3) * x(2, 3)
    assert p * 2 + p * 3 == p * 5


def test_add_rank_mismatch():
    with pytest.raises(RankMismatchError):
        NcPoly.one(2) + NcPoly.one(3)


def test_mul_is_word_concatenation():
    assert x(2) * x(3) == NcPoly(3, {(2, 3): 1})
    assert x(2) * x(3) != x(3) * x(2)


def test_mul_unit():
    p = parse_poly("x2*x3 + 1/2*x1", 3)
    assert NcPoly.one(3) * p == p
    assert p * NcPoly.one(3) == p


def test_mul_expand_by_hand():
    # (x2 + x3)(x2 - x3), expanded term by term without reordering
    lhs = (x(2) + x(3)) * (x(2) - x(3))
    expected = NcPoly(3, {(2, 2): 1, (2, 3): -1, (3, 2): 1, (3, 3): -1})
    assert lhs == expected


def test_commutator_definition():
    assert ring_commutator(x(2), x(3)) == x(2) * x(3) - x(3) * x(2)


def test_commutator_alternating():
    p = parse_poly("x2*x3 - 2*x1", 3)
    assert ring_commutator(p, p).is_zero()


def test_commutator_nested_brute_force():
    # [[x2, x3], x3] expanded longhand: every word written out
    c1 = x(2) * x(3) - x(3) * x(2)
    expected = NcPoly(3, {(2, 3, 3): 1, (3, 2, 3): -2, (3, 3, 2): 1})
    assert ring_commutator(c1, x(3)) == expected


def test_substitute_expand():
    p = x(2) * x(3)
    images = [x(1), x(2) + 1, x(3)]
    assert p.substitute(images) == x(2) * x(3) + x(3)


def test_substitute_identity_endomorphism():
    p = parse_poly("x1*x3^2 - 1/3*x2 + 4", 3)
    assert p.substitute([x(1), x(2), x(3)]) == p


def test_substitute_fixes_commutator():
    # [x2, x3] is untouched by x2 -> x2 + g(x3), x3 -> x3 + h
    c1 = ring_commutator(x(2), x(3))
    g = x(3) * x(3)
    images = [x(1), x(2) + g, x(3) + 1]
    assert c1.substitute(images) == c1


def test_substitute_arity_checks():
    with pytest.raises(ArityMismatchError):
        x(2).substitute([x(1, 3), x(2, 3)])
    with pytest.raises(RankMismatchError):
        x(2).substitute([x(1, 3), x(2, 3), NcPoly.variable(2, 2)])


def test_degree():
    assert parse_poly("x2*x3^2 + 1", 3).degree() == 3
    assert parse_poly("x2*x3^2", 3).degree_in_var(3) == 2
    assert NcPoly.zero(3).degree() == NEG_INF
    assert NEG_INF < -10 ** 9
    assert NcPoly.one(3).degree() == 0


def test_abelianize_kills_commutators():
    assert abelianize(ring_commutator(x(2), x(3))) == {}
    assert abelianize(c_generator(2, 2, 3)) == {}


def test_abelianize_merges_words():
    p = x(2) * x(3) + x(3) * x(2)
    assert abelianize(p) == {(0, 1, 1): Fraction(2)}


def test_c_generator_base():
    assert c_generator(1, 2, 3) == ring_commutator(x(2), x(3))


def test_c_generator_second():
    expected = NcPoly(3, {(2, 3, 3): 1, (3, 2, 3): -2, (3, 3, 2): 1})
    assert c_generator(2, 2, 3) == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_c_generator_degrees(k):
    ck = c_generator(k, 2, 3)
    assert ck.degree() == k + 1
    assert ck.is_homogeneous()
    assert ck.degree_in_var(2) == 1


@pytest.mark.parametrize("k", range(2, 7))
def test_c_generator_recursion(k):
    assert c_generator(k, 2, 3) == ring_commutator(c_generator(k - 1, 2, 3), x(3))


@pytest.mark.parametrize("i, j, rank", [(2, 3, 3), (3, 2, 3), (3, 4, 4)])
def test_c_generator_is_the_commutator_tower(i, j, rank):
    # the closed binomial form against c_1 = [x_i, x_j], c_(k+1) = [c_k, x_j]
    xj = x(j, rank)
    tower = ring_commutator(x(i, rank), xj)
    for k in range(1, 11):
        ck = c_generator(k, i, j)
        assert ck == tower, k
        if i < j:   # the least word x_i*x_j^k has coefficient 1
            assert ck.terms[min(ck.terms)] == 1 and min(ck.terms) == (i,) + (j,) * k
        tower = ring_commutator(tower, xj)


def test_c_generator_rejects_equal_vars():
    with pytest.raises(ValueError):
        c_generator(1, 3, 3)


# -- parsing and formatting ---------------------------------------------------


def test_parse_commutator_string():
    assert parse_poly("x2*x3 - x3*x2", 3) == ring_commutator(x(2), x(3))


def test_parse_coefficients_and_powers():
    p = parse_poly("1/2*x1^2 + 3", 2)
    assert p == NcPoly(2, {(1, 1): Fraction(1, 2), (): 3})


def test_parse_whitespace_and_leading_sign():
    assert parse_poly(" - x2 +  x3 ", 3) == -x(2) + x(3)


def test_parse_zero_power():
    assert parse_poly("x2^0", 3) == NcPoly.one(3)


def test_format_round_trip(rng):
    for _ in range(100):
        p = rand_poly(rng, 3, 4)
        assert parse_poly(format_poly(p), 3) == p


def test_rendering_matches_the_fraction_formatter():
    # output renders n/den from the ints; the oracle renders Fractions
    rng = random.Random(3801)
    fractional = 0
    for _ in range(300):
        p = rand_poly(rng, rng.randint(1, 4), 4, height=12, max_terms=6)
        fractional += p.den != 1
        assert format_poly(p) == fraction_format_terms(p.terms)
    for _ in range(100):
        phi = random_aut_rng(rng, rng.randint(2, 5), 3, 12)
        fractional += any(f.den != 1 for f in phi.offsets)
        assert format_aut(phi) == "; ".join(
            fraction_join([(1, f"x{i}")] + [(c, fraction_word_text(w)) for w, c in sorted(
                f.terms.items(), key=lambda t: (len(t[0]), t[0]))])
            for i, f in enumerate(phi.offsets, start=1))
    assert fractional > 300
    # SubalgebraExpr.__str__ passes join_signed_terms Fractions
    gens = [c_generator(k, 2, 3) for k in (1, 2, 3)]
    for _ in range(30):
        expr = subalgebra_membership(c_combination(rng, 3), gens)
        assert str(expr) == fraction_join(
            [(c, "*".join(f"g{i + 1}" for i in word)) for c, word in expr.terms])


def test_format_canonical_order():
    p = parse_poly("- x3*x2 + x2*x3 + 1", 3)
    assert format_poly(p) == "1 + x2*x3 - x3*x2"
    assert format_poly(NcPoly.zero(3)) == "0"
    assert format_poly(-x(2)) == "-x2"


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x2 + * x3", 3)
    assert err.value.position == 5


def test_parse_empty_input_is_positioned_inside_the_text():
    for text, message, position in (("", "empty polynomial", 0),
                                    ("  ", "empty polynomial", 2),
                                    ("+", "expected a coefficient or variable", 1)):
        with pytest.raises(ParseError, match=message) as err:
            parse_poly(text, 3)
        assert err.value.position == position


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("y2 + 1", 3)
    with pytest.raises(ParseError):
        parse_poly("x0", 3)


def test_parse_rank_overflow():
    with pytest.raises(RankOverflowError):
        parse_poly("x4", 3)


@pytest.mark.parametrize("rank", [0, -3])
def test_parse_rejects_nonpositive_rank(rank):
    # the same error as the constructor's, not a ParseError
    for text in ("1", "0"):
        with pytest.raises(ValueError, match=f"rank must be >= 1, got {rank}") as err:
            parse_poly(text, rank)
        assert not isinstance(err.value, ParseError)
    with pytest.raises(ValueError, match=f"rank must be >= 1, got {rank}"):
        NcPoly(rank)


def test_parse_word_length_bound():
    assert parse_poly("x2^64", 3).degree() == 64
    assert parse_poly("x2^040*x3^24", 3).degree() == 64
    with pytest.raises(ParseError) as err:
        parse_poly("x2^65", 3)
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_poly("x2^40*x3^25", 3)
    with pytest.raises(ParseError):
        parse_poly("*".join(["x2"] * 65), 3)
    # rejected before the word is built: it would not fit in memory
    with pytest.raises(ParseError):
        parse_poly("x2^" + "9" * 30, 3)
    with pytest.raises(ParseError):
        parse_poly("1 + x3*x2^" + "9" * 5000, 3)


def test_parse_accepts_only_ascii_digits():
    # str.isdigit() holds for these too; int() would read "٣" as 3 and
    # "٢" as 2, and raise its own unpositioned ValueError on "²"
    for text, position in (("x2 + ٣", 5), ("x²", 1), ("x٢", 1), ("x2^²", 3)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, 3)
        assert err.value.position == position


# -- algebraic properties on random samples -----------------------------------


def test_ring_axioms(rng):
    for _ in range(200):
        rank = rng.randint(1, 4)
        a = rand_poly(rng, rank, 4)
        b = rand_poly(rng, rank, 4)
        c = rand_poly(rng, rank, 4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_substitute_functoriality(rng):
    for _ in range(50):
        p = rand_poly(rng, 3, 3, max_terms=3)
        imgs_a = [rand_poly(rng, 3, 2, max_terms=2) for _ in range(3)]
        imgs_b = [rand_poly(rng, 3, 2, max_terms=2) for _ in range(3)]
        composed = [a.substitute(imgs_b) for a in imgs_a]
        assert p.substitute(imgs_a).substitute(imgs_b) == p.substitute(composed)


# -- integer kernels against the Fraction oracle ------------------------------


def _oracle_coeff(rng):
    num = rng.choice((rng.randint(1, 9), rng.randint(1, 10**6)))
    den = rng.choice((1, rng.randint(1, 6), rng.choice((7, 11, 13, 999983)),
                      rng.randint(1, 10**6)))
    return Fraction(rng.choice((1, -1)) * num, den)


def _oracle_poly(rng, rank, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.choices(range(1, rank + 1), k=rng.randint(0, max_degree)))
        terms[word] = _oracle_coeff(rng)
    return NcPoly(rank, terms)


def _assert_oracle_terms(p, want):
    assert p.terms == want
    assert all(type(c) is Fraction for c in p.terms.values())


def test_kernels_match_fraction_oracle():
    # small, coprime and large denominators (up to 10^6), ranks 2-5,
    # empty and constant operands among the draws
    rng = random.Random(61)
    for _ in range(150):
        rank = rng.randint(2, 5)
        p, q = (_oracle_poly(rng, rank, 3, 4) for _ in range(2))
        _assert_oracle_terms(p * q, fraction_mul_terms(p.terms, q.terms))
        images = [_oracle_poly(rng, rank, 2, 3) for _ in range(rank)]
        _assert_oracle_terms(p.substitute(images),
                             fraction_substitute(p.terms, [im.terms for im in images]))


def test_kernels_match_fraction_oracle_on_edge_cases():
    zero, one = NcPoly.zero(3), NcPoly.one(3)
    c = NcPoly.constant(Fraction(-7, 999983), 3)
    a = parse_poly("1/999983*x2 + 1/999979*x3 - 5/6", 3)   # coprime denominators
    products = [(zero, a), (a, zero), (zero, zero), (c, a), (one, a), (a, a),
                (parse_poly("1/2 + x2", 3), parse_poly("1/2 - x2", 3))]   # x2 cancels
    for p, q in products:
        _assert_oracle_terms(p * q, fraction_mul_terms(p.terms, q.terms))
    same = parse_poly("1/3*x3 - 2", 3)
    cancel = [(ring_commutator(x(2), x(3)), [x(1), same, same]),   # to 0
              (parse_poly("x1 - x2", 3), [same, same, x(3)]),       # to 0
              (a, [zero, zero, zero]), (c, [a, a, a]), (zero, [a, a, a]),
              (parse_poly("x2*x3*x2", 3), [x(1), a, -a])]
    for p, images in cancel[:2]:
        assert p.substitute(images).is_zero()
    for p, images in cancel:
        _assert_oracle_terms(p.substitute(images),
                             fraction_substitute(p.terms, [im.terms for im in images]))


# -- the stored form: ints over one common denominator ------------------------


def _assert_stored_form(p, want):
    """p is canonical, its Fraction view is the oracle's term map `want`,
    and building from `want` gives the same stored form and hash."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(n) is int and n for n in p.ints.values())
    assert math.gcd(p.den, *p.ints.values()) == 1
    assert p.terms == want
    same = NcPoly(p.rank, want)
    assert (same.den, same.ints) == (p.den, p.ints) and hash(same) == hash(p)


def _negated(terms):
    return {w: -c for w, c in terms.items()}


def test_stored_form_matches_fraction_oracle():
    # mixed denominators, sums that cancel in part or to 0, constants and
    # zero, and substitution into images of another rank
    rng = random.Random(67)
    for _ in range(200):
        rank = rng.randint(2, 4)
        p, r = (_oracle_poly(rng, rank, 3, 4) for _ in range(2))
        c = _oracle_coeff(rng)
        others = (r, NcPoly(rank, fraction_add_terms(r.terms, _negated(p.terms))),
                  NcPoly(rank, _negated(p.terms)), NcPoly.constant(c, rank), NcPoly.zero(rank))
        for q in others:
            _assert_stored_form(p + q, fraction_add_terms(p.terms, q.terms))
            _assert_stored_form(p - q, fraction_add_terms(p.terms, _negated(q.terms)))
            _assert_stored_form(p * q, fraction_mul_terms(p.terms, q.terms))
            assert (p + q) - q == p and hash((p + q) - q) == hash(p)
        _assert_stored_form(-p, _negated(p.terms))
        _assert_stored_form(p * c, {w: v * c for w, v in p.terms.items()})
        _assert_stored_form(p / c, {w: v / c for w, v in p.terms.items()})
        image_rank = rng.randint(1, 5)
        images = [_oracle_poly(rng, image_rank, 2, 3) for _ in range(rank)]
        got = p.substitute(images)
        assert got.rank == image_rank
        _assert_stored_form(got, fraction_substitute(p.terms, [im.terms for im in images]))
    with pytest.raises(AttributeError):
        p.terms = {}


def test_constant_sum_matches_add():
    # heights up to 10^30, zero operands and sums that cancel to 0; the
    # result is canonical, so it equals `+` in stored form and hash
    rng = random.Random(71)
    for _ in range(300):
        rank = rng.randint(2, 5)
        height = 10 ** rng.choice((1, 3, 12, 30))
        a = NcPoly.constant(Fraction(rng.randint(-height, height), rng.randint(1, height)), rank)
        b = NcPoly.constant(Fraction(rng.randint(-height, height), rng.randint(1, height)), rank)
        for p, q in ((a, b), (b, a), (a, -a), (a, NcPoly.zero(rank)), (NcPoly.zero(rank), b)):
            got = _constant_sum(p, q)
            want = p + q
            assert (got.rank, got.den, got.ints) == (want.rank, want.den, want.ints)
            assert hash(got) == hash(want)
            _assert_stored_form(got, fraction_add_terms(p.terms, q.terms))


@pytest.mark.parametrize("word, num, den", [
    ((2, 1), 0, 5), ((2, 1), 4, 6), ((), 4, 6), ((), -7, 1), ((1,), -12, 4), ((), 0, 1),
], ids=["zero", "reducible", "empty-word", "unit-den", "integral", "zero-unit-den"])
def test_one_triple_builds_as_the_term_map_does(word, num, den):
    # one triple is reduced by its own gcd, with no lcm: a zero numerator
    # gives den 1 and no term, as the general path (the same triple
    # beside a zero one) does
    got = NcPoly._from_ratios(2, [(word, num, den)])
    _assert_stored_form(got, {word: Fraction(num, den)} if num else {})
    assert got == NcPoly(2, {word: Fraction(num, den)})
    general = NcPoly._from_ratios(2, [(word, num, den), ((), 0, 1)])
    assert (got.den, got.ints) == (general.den, general.ints)


@pytest.mark.parametrize("build", [
    lambda: NcPoly.constant(0.1, 2),
    lambda: NcPoly(2, {(2,): 0.1}),
    lambda: x(2) * 0.5,
    lambda: x(2) + 0.5,
], ids=["constant", "init", "mul", "add"])
def test_float_coefficients_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_substitute_into_zero_and_constants(monkeypatch):
    images = [NcPoly.variable(4, 4), parse_poly("x1 - 1/2", 4)]
    for p in (NcPoly.zero(2), NcPoly.constant(Fraction(-3, 4), 2)):
        with pytest.raises(ArityMismatchError):
            p.substitute(images[:1])
        with pytest.raises(RankMismatchError):
            p.substitute([images[0], NcPoly.variable(1, 3)])
        got = p.substitute(images)
        assert got.rank == 4 and got == NcPoly.constant(p.constant_term(), 4)
    # the bound counts the term products of word images; a constant term
    # forms none: x1*x2 -> (x4)(x1 - 1/2) takes 2, x1*x2*x1 then 2 more
    p = parse_poly("5 + x1*x2 + x1*x2*x1", 2)
    for bound, fits in ((0, False), (3, False), (4, True)):
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", bound)
        assert NcPoly.constant(7, 2).substitute(images) == NcPoly.constant(7, 4)
        if fits:
            assert p.substitute(images) == parse_poly("5 + x4*x1 - 1/2*x4 + x4*x1*x4 - 1/2*x4^2", 4)
        else:
            with pytest.raises(SubstitutionTooLargeError):
                p.substitute(images)
    # words that share prefixes and end in a lone letter: each prefix of two
    # or more letters is formed once, by its own prefix times its last
    # letter, and a lone letter by none: x1*x2 takes 1*2, x2*x1 2*1 and
    # x2*x1*x2 2*2, 8 in all, in either order of the words
    for text in ("x2 + x1*x2 + x2*x1*x2", "x2*x1*x2 + x1*x2 + x2"):
        p = parse_poly(text, 2)
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", 7)
        with pytest.raises(SubstitutionTooLargeError):
            p.substitute(images)
        monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", 8)
        assert p.substitute(images) == parse_poly(
            "-1/2 + x1 - 1/4*x4 - 1/2*x1*x4 + 1/2*x4*x1 + x1*x4*x1", 4)
    # a constant c, zero included, comes back as addend + c in the images'
    # rank, with or without an addend: no bound is charged and no word
    # product is formed
    def no_product(a, b):
        raise AssertionError("a constant formed a word product")

    monkeypatch.setattr(freealg, "MAX_SUBSTITUTION_TERMS", 0)
    monkeypatch.setattr(freealg, "_mul_words", no_product)
    for rank in (2, 3, 4):
        out = rank + 1
        images = [parse_poly(f"x{out}*x1 - 1/3", out)] + [x(j, out) for j in range(2, rank + 1)]
        for c in (0, 6, Fraction(-5, 9)):
            p = NcPoly.constant(c, rank)
            for addend in (None, NcPoly.zero(out), NcPoly.constant(Fraction(2, 9), out),
                           parse_poly("x1*x2 - 1/6*x1 + 4", out)):
                got = p.substitute(images, addend)
                expected = NcPoly.constant(c, out) if addend is None else addend + c
                assert got.rank == out and (got.den, got.ints) == (expected.den, expected.ints)
            with pytest.raises(RankMismatchError, match="addend has rank"):
                p.substitute(images, NcPoly.constant(c, rank))


def _exponent_map_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _exponent_map_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_abelianize_is_ring_homomorphism(rng):
    for _ in range(50):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        assert abelianize(a * b) == _exponent_map_product(abelianize(a), abelianize(b))
        assert abelianize(a + b) == _exponent_map_sum(abelianize(a), abelianize(b))


def test_jacobi_identity(rng):
    for _ in range(50):
        a = rand_poly(rng, 3, 2, max_terms=2)
        b = rand_poly(rng, 3, 2, max_terms=2)
        c = rand_poly(rng, 3, 2, max_terms=2)
        total = (ring_commutator(ring_commutator(a, b), c)
                 + ring_commutator(ring_commutator(b, c), a)
                 + ring_commutator(ring_commutator(c, a), b))
        assert total.is_zero()


def test_degree_additive_no_zero_divisors(rng):
    for _ in range(100):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()


def test_poly_hash_consistency():
    a = parse_poly("x2*x3 - x3*x2", 3)
    b = ring_commutator(NcPoly.variable(2, 3), NcPoly.variable(3, 3))
    assert a == b and hash(a) == hash(b)


# Prints whether fractions was loaded before and after evaluating
# argv[1], then its answer, with p, NcPoly and F (a Fraction, imported on
# the first call) in scope.
_FRESH_PROBE = """
import sys
from unitri.freealg import NcPoly, parse_poly
before = "fractions" in sys.modules
F = lambda n, d=1: __import__("fractions").Fraction(n, d)
p = parse_poly("1/2*x1*x2 - 3 + x2", 2)
try:
    r = eval(sys.argv[1])
    out = f"{r!r} {sorted(r.ints.items())} / {r.den}" if isinstance(r, NcPoly) else repr(r)
except Exception as exc:
    out = f"{type(exc).__name__}: {exc}"
print(before, "fractions" in sys.modules)
print(out)
"""

P_TERMS = "[((), {}), ((1, 2), {}), ((2,), {})]"

# (expression, its answer as it was when freealg imported fractions
# eagerly, whether it involves ints alone and so must not load fractions)
FRESH_ANSWERS = [
    ("p + 2", f"NcPoly(2, '-1 + x2 + 1/2*x1*x2') {P_TERMS.format(-2, 1, 2)} / 2", True),
    ("2 + p", f"NcPoly(2, '-1 + x2 + 1/2*x1*x2') {P_TERMS.format(-2, 1, 2)} / 2", True),
    ("p - 2", f"NcPoly(2, '-5 + x2 + 1/2*x1*x2') {P_TERMS.format(-10, 1, 2)} / 2", True),
    ("2 - p", f"NcPoly(2, '5 - x2 - 1/2*x1*x2') {P_TERMS.format(10, -1, -2)} / 2", True),
    ("p + True", f"NcPoly(2, '-2 + x2 + 1/2*x1*x2') {P_TERMS.format(-4, 1, 2)} / 2", False),
    ("p - False", f"NcPoly(2, '-3 + x2 + 1/2*x1*x2') {P_TERMS.format(-6, 1, 2)} / 2", False),
    ("p * 3", f"NcPoly(2, '-9 + 3*x2 + 3/2*x1*x2') {P_TERMS.format(-18, 3, 6)} / 2", True),
    ("-2 * p", f"NcPoly(2, '6 - 2*x2 - x1*x2') {P_TERMS.format(6, -1, -2)} / 1", True),
    ("p * 0", "NcPoly(2, '0') [] / 1", True),
    ("p * F(2, 3)", f"NcPoly(2, '-2 + 2/3*x2 + 1/3*x1*x2') {P_TERMS.format(-6, 1, 2)} / 3",
     False),
    ("F(2, 3) * p", f"NcPoly(2, '-2 + 2/3*x2 + 1/3*x1*x2') {P_TERMS.format(-6, 1, 2)} / 3",
     False),
    ("p / F(2, 3)", f"NcPoly(2, '-9/2 + 3/2*x2 + 3/4*x1*x2') {P_TERMS.format(-18, 3, 6)} / 4",
     False),
    ("p / 4", f"NcPoly(2, '-3/4 + 1/4*x2 + 1/8*x1*x2') {P_TERMS.format(-6, 1, 2)} / 8", False),
    ("p / 0", "ZeroDivisionError: Fraction(1, 0)", False),
    ("NcPoly.constant(3, 2)", "NcPoly(2, '3') [((), 3)] / 1", True),
    ("NcPoly.constant(F(-3, 4), 2)", "NcPoly(2, '-3/4') [((), -3)] / 4", False),
    ("NcPoly.constant(True, 2)", "NcPoly(2, '1') [((), 1)] / 1", False),
    ("NcPoly(2, {(1, 2): 2, (): -4})", "NcPoly(2, '-4 + 2*x1*x2') [((), -4), ((1, 2), 2)] / 1",
     True),
    ("p.constant_term()", "Fraction(-3, 1)", False),
    ("p.terms", "{(1, 2): Fraction(1, 2), (): Fraction(-3, 1), (2,): Fraction(1, 1)}", False),
    ("p + 1.5", "TypeError: unsupported operand type(s) for +: 'NcPoly' and 'float'", False),
    ("p - 0.5", "TypeError: unsupported operand type(s) for -: 'NcPoly' and 'float'", False),
    ("p + 'x'", "TypeError: unsupported operand type(s) for +: 'NcPoly' and 'str'", False),
    ("p * 'x'", "TypeError: can't multiply sequence by non-int of type 'NcPoly'", False),
    ("'x' * p", "TypeError: can't multiply sequence by non-int of type 'NcPoly'", False),
    ("p / 'x'", "TypeError: unsupported operand type(s) for /: 'NcPoly' and 'str'", False),
    ("NcPoly.constant(0.5, 2)", "TypeError: coefficients must be ints or Fractions, not float 0.5",
     False),
    ("NcPoly(2, {(1,): 0.5})", "TypeError: coefficients must be ints or Fractions, not float 0.5",
     False),
]


@pytest.mark.parametrize("expr, answer, ints_only", FRESH_ANSWERS,
                         ids=[expr for expr, _, _ in FRESH_ANSWERS])
def test_scalars_in_a_process_without_fractions(expr, answer, ints_only):
    # each case in its own process, so that it is the one to load
    # fractions, if anything does
    proc = subprocess.run([sys.executable, "-S", "-c", _FRESH_PROBE, expr],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    loaded, got = proc.stdout.splitlines()
    assert got == answer
    assert loaded.split()[0] == "False"
    if ints_only:
        assert loaded == "False False"
