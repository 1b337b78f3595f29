import random
from fractions import Fraction

import pytest

from unitri.freealg import NcPoly, c_generator


def rand_coeff(rng, height=10, allow_zero=False):
    num = rng.randint(-height, height)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def sample_shift(rng, degree, height):
    """Random shift x2 -> x2 + g(x3), x3 -> x3 + h as (g, h), with
    deg g <= degree and not both trivial."""
    while True:
        terms = {}
        for j in range(degree + 1):
            if rng.random() < 0.7:
                c = rand_coeff(rng, height, allow_zero=True)
                if c:
                    terms[(3,) * j] = c
        g = NcPoly(3, terms)
        h = rand_coeff(rng, height, allow_zero=True)
        if terms or h:
            return g, h


def rand_poly(rng, rank, max_degree, height=10, max_terms=4, vars_from=1):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choices(range(vars_from, rank + 1), k=length))
        c = terms.get(word, 0) + rand_coeff(rng, height)
        if c:
            terms[word] = c
        else:
            terms.pop(word, None)
    return NcPoly(rank, terms)


def c_combination(rng, n):
    """A random combination of products of c_1, c_2, c_3 in x_(n-1), x_n."""
    gens = [c_generator(k, n - 1, n) for k in (1, 2, 3)]
    f = NcPoly.constant(rand_coeff(rng, 5), n)
    for _ in range(rng.randint(1, 3)):
        prod = NcPoly.one(n)
        for _ in range(rng.randint(1, 2)):
            prod = prod * rng.choice(gens)
        f = f + prod * rand_coeff(rng, 5)
    return f


@pytest.fixture
def rng():
    return random.Random(20120729)
