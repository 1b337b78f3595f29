"""Descent oracle for central-series classifiers.

If phi lies at level a+1 of the upper central series, [phi, psi] lies at
level a for every psi, so a commutator sits strictly below the map it
starts from: lambda([phi, psi]) < lambda(phi) whenever phi != id.  The
identity is skipped, since level 0 has nothing below it.
"""

import random

from unitri.autgroup import UniAut, group_commutator, random_aut_rng
from unitri.freealg import NcPoly

from conftest import rand_poly


def descent_violations(level, pairs):
    """The pairs (phi, psi), phi != id, whose commutator does not sit
    strictly below phi under `level`, a map from automorphisms to
    ordinal levels; and how many pairs were checked."""
    bad, checked = [], 0
    for phi, psi in pairs:
        if phi.is_identity():
            continue
        checked += 1
        if not level(group_commutator(phi, psi)) < level(phi):
            bad.append((phi, psi))
    return bad, checked


def rank2_pairs(seed, count):
    rng = random.Random(seed)
    return [(random_aut_rng(rng, 2, 5, 5), random_aut_rng(rng, 2, 5, 5))
            for _ in range(count)]


def x1_mover_pairs(seed, count):
    """Rank-3 pairs: phi = (x1 + f, x2, x3) with f of degree <= 4 in x2
    and x3, psi any map whose x2-offset has degree <= 3, so every
    commutator offset has degree <= 12."""
    rng = random.Random(seed)
    zero = NcPoly.zero(3)
    return [(UniAut(3, [rand_poly(rng, 3, 4, height=5, max_terms=3, vars_from=2), zero, zero]),
             random_aut_rng(rng, 3, 3, 5))
            for _ in range(count)]
