"""The Fraction-based random draws the suites once made, kept as an oracle
for their integer draws.

Each coefficient is one Fraction from conftest.rand_coeff, which makes
the same rng calls in the same order as autgroup._rand_ratio; the
polynomials are built from the Fraction term maps by `NcPoly`.
"""

from unitri.autgroup import UniAut
from unitri.freealg import NcPoly, add_term

from conftest import rand_coeff

HEIGHT = 6   # suites.HEIGHT


def fraction_rand_constant(rng, allow_zero=True):
    return NcPoly.constant(rand_coeff(rng, HEIGHT, allow_zero=allow_zero), 2)


def fraction_rand_y_poly(rng, max_degree, nonzero=False):
    while True:
        terms = {}
        for d in range(max_degree + 1):
            if rng.random() < 0.5:
                c = rand_coeff(rng, HEIGHT, allow_zero=True)
                if c:
                    terms[(2,) * d] = c
        p = NcPoly(2, terms)
        if terms or not nonzero:
            return p


def fraction_rand_u2(rng, max_degree):
    return UniAut(2, [fraction_rand_y_poly(rng, max_degree), fraction_rand_constant(rng)])


def fraction_random_aut_rng(rng, rank, max_degree, coeff_height):
    offsets = []
    for i in range(1, rank + 1):
        if i == rank:
            offsets.append(NcPoly.constant(rand_coeff(rng, coeff_height, allow_zero=True), rank))
            continue
        terms = {}
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(0, max_degree)
            word = tuple(rng.choices(range(i + 1, rank + 1), k=length))
            add_term(terms, word, rand_coeff(rng, coeff_height))
        offsets.append(NcPoly(rank, terms))
    return UniAut(rank, offsets)
