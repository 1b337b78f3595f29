"""Sampled re-verification of a truncated layer basis, kept as an oracle.

Each basis vector is put through `trials` random substitutions
x2 -> x2 + g(x3), x3 -> x3 + h with deg g <= subst_degree: an
order-1 vector must have a zero defect, a deeper one a defect inside the
next layer down, computed at the defect's degree.  The substitutions
come from the enforced family only, so this check cannot see a
truncation; it cross-checks the bases that the exact derivation checks
pass.
"""

import random

from unitri.invariants import _bidegree, _layer_echelons, invariance_defect

from conftest import sample_shift


def in_layer(p, level, subst_degree):
    """Membership of p in the computed order-`level` layer (level 0 is
    {0}), reducing each bidegree component against that layer built at
    the degree of p."""
    if p.is_zero():
        return True
    if level == 0:
        return False
    layer = _layer_echelons(level, int(p.degree()), subst_degree)
    comps = {}
    for w, c in p.terms.items():
        comps.setdefault(_bidegree(w), {})[w] = c
    return all(bd in layer and not layer[bd].reduce(vec) for bd, vec in comps.items())


def sampled_reverify(m, cap, basis, subst_degree, seed, trials, height):
    """True when every vector of an order-m layer basis at degree cap
    passes `trials` seeded random substitutions, with coefficient
    numerators and denominators bounded by `height`."""
    rng = random.Random(seed * 1_000_003 + m * 10_007 + cap * 101 + subst_degree)
    for _ in range(trials):
        g, h = sample_shift(rng, subst_degree, height)
        for b in basis:
            if not in_layer(invariance_defect(b, g, h), m - 1, subst_degree):
                return False
    return True
