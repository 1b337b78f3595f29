"""Seeded inputs and known answers for the benchmark workloads.

Every input is generated here, from the workload seed, with the
benchmark's own random generator and polynomial code, so the same seed
gives byte-identical inputs whatever version of the package is being
measured.  The program only ever sees the generated argv or op stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

import check

# Truncated layer dimensions, as (level, cap) -> dim.  Each was obtained
# by raising --subst-degree until the dimension stopped changing:
#   level 1, caps 2..8: 2 3 5 8 13 21 34, the same at subst degrees 2, 3, 4
#     (the per-vector check in check.layer1_invariant is exact besides);
#   level 2, cap 3: 5 at subst degrees 2..5;
#   level 2, cap 6: 22 at subst degree 2, then 21 at 3, 4 and 5;
#   level 3, cap 5: 21 at subst degree 2, then 16 at 3, 4 and 5.
LAYER_DIMS = {(1, 2): 2, (1, 3): 3, (1, 4): 5, (1, 5): 8, (1, 6): 13, (1, 7): 21,
              (1, 8): 34, (2, 3): 5, (2, 6): 21, (3, 5): 16}

# Wrong answers the package gives at the commit that introduced this
# benchmark, all reported as probably_holds.  They count as failed ops
# but not as an unexpected wrong answer; any other wrong answer does.
SEED_DEFECTS = {
    "invariants-m2-cap6": 22,
    "invariants-m3-cap5": 21,
    "classify-k4-cap4": "w+1",
}

# The eleven verification suites, in the order the session runs them.
SUITES = ["group-axioms", "lemma1", "lemma2", "lemma3", "lemma4", "lemma5",
          "theorem1", "theorem2-trunc", "theorem3", "proposition1", "remark-pi"]

NAMES = ("layers", "classify", "straighten", "session")


def _coeff(rng, height=9):
    num = 0
    while not num:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, 4))


def _cli(op_id, argv, **expect):
    return {"id": op_id, "argv": ["--json"] + argv, "expect": expect}


def layers(seed, smoke=False):
    """invariants at default flags over a cap sweep.  The inputs are
    fixed: the seed does not enter, because the program's own --seed
    would change the sampled shifts and so the work done."""
    sweep = [(1, 4), (2, 3)] if smoke else [(1, 5), (1, 6), (1, 7), (2, 6), (3, 5)]
    return [_cli(f"invariants-m{m}-cap{cap}",
                 ["invariants", "--level", str(m), "--cap", str(cap)],
                 kind="layer", level=m, cap=cap, dim=LAYER_DIMS[(m, cap)])
            for m, cap in sweep]


_C_PRODUCTS = {2: [(1,)], 3: [(2,)], 4: [(1, 1), (3,)]}   # c indices by degree


def _central_part(rng, max_degree):
    """A random combination of products of c generators, degree <= max."""
    prods = [p for d in range(2, max_degree + 1) for p in _C_PRODUCTS[d]]
    out = {}
    for prod in rng.sample(prods, min(len(prods), rng.randint(1, 2))):
        term = {(): _coeff(rng)}
        for k in prod:
            term = check.mul(term, check.c_gen(k))
        out = check.add(out, term)
    return out


def classify(seed, smoke=False):
    """Rank-3 maps moving only x1, by a*x3^k plus a central part: the
    least central-series level is k + 1."""
    rng = random.Random(f"classify/{seed}")
    ops = []
    for k in ([2, 3] if smoke else [2, 3, 4]):
        f1 = check.add({(3,) * k: _coeff(rng)}, _central_part(rng, k))
        image = check.fmt(check.add(check.var(1), f1))
        ops.append(_cli(f"classify-k{k}", ["classify", f"{image}; x2; x3"],
                        kind="classify", level=str(k + 1)))
    if not smoke:
        ops.append(_cli("classify-k4-cap4", ["classify", "--cap", "4", "x1 + x3^4; x2; x3"],
                        kind="classify", level="5"))
    return ops


def _random_poly(rng, degrees, vars_=(2, 3)):
    poly = {}
    for d in degrees:
        check.add_term(poly, tuple(rng.choice(vars_) for _ in range(d)), _coeff(rng))
    return poly


def straighten(seed, smoke=False):
    """Free-module decomposition of random x2, x3 polynomials, six terms
    of one degree each, plus one input with one term of each degree 4..8."""
    rng = random.Random(f"straighten/{seed}")
    sizes = [4, 5] if smoke else [7, 8, 9]
    ops = []
    for d in sizes:
        text = check.fmt(_random_poly(rng, [d] * 6))
        ops.append(_cli(f"straighten-deg{d}", ["straighten", "--cap", str(d), text],
                        kind="straighten", input=text))
    mixed = range(2, 6) if smoke else range(4, 9)
    text = check.fmt(_random_poly(rng, mixed))
    ops.append(_cli("straighten-mixed", ["straighten", "--cap", str(max(mixed)), text],
                    kind="straighten", input=text))
    return ops


# -- session stream ---------------------------------------------------------


def random_map(rng, rank, max_degree):
    """Unitriangular map text: offset i uses only x_(i+1)..x_n, up to two
    terms of degree <= max_degree; the last offset is a constant."""
    images = []
    for i in range(1, rank + 1):
        offset = {}
        if i == rank:
            offset = {(): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        else:
            for _ in range(rng.randint(0, 2)):
                word = tuple(rng.choice(range(i + 1, rank + 1))
                             for _ in range(rng.randint(0, max_degree)))
                check.add_term(offset, word, _coeff(rng, 6))
        images.append(check.fmt(check.add(check.var(i), offset)))
    return "; ".join(images)


def _group_op(rng, op, i):
    rank = 2 + i % 4
    deg = 2 if rank >= 4 else 3
    if op == "invert":
        return {"op": op, "args": [random_map(rng, rank, deg)]}
    if op == "apply":
        p = _random_poly(rng, [rng.randint(1, 3) for _ in range(3)], range(1, rank + 1))
        return {"op": op, "args": [random_map(rng, rank, deg), check.fmt(p)]}
    return {"op": op, "args": [random_map(rng, rank, deg), random_map(rng, rank, deg)]}


def _classify2(rng):
    f = {(2,) * d: _coeff(rng) for d in range(rng.randint(1, 5)) if rng.random() < .7}
    b = rng.choice([0, 0, _coeff(rng)])
    text = (f"{check.fmt(check.add(check.var(1), f))}; "
            f"{check.fmt(check.add(check.var(2), {(): b} if b else {}))}")
    if b:
        level = "w+1"
    elif not f:
        level = "0"
    else:
        level = str(max(len(w) for w in f) + 1)
    return {"op": "classify2", "args": [text], "expect": level}


def _classify3(rng, i):
    case = i % 5
    if case == 0:
        text = f"{random_map(rng, 3, 2).rsplit(';', 1)[0]}; x3 + {rng.randint(1, 5)}"
        return {"op": "classify3", "args": [text], "expect": "3w+1"}
    if case == 1:
        d = rng.randint(0, 3)
        g = {(3,) * d: _coeff(rng)}
        if d:
            g[()] = _coeff(rng)
        text = f"x1; {check.fmt(check.add(check.var(2), g))}; x3"
        return {"op": "classify3", "args": [text], "expect": f"2w+{max(d, 1)}"}
    k = case - 2
    f1 = check.add({(3,) * k: _coeff(rng)} if k else {}, _central_part(rng, 2))
    text = f"{check.fmt(check.add(check.var(1), f1))}; x2; x3"
    return {"op": "classify3", "args": [text], "expect": str(k + 1)}


def _center(rng):
    rank = rng.randint(3, 4)
    path = rng.choice(["exact", "certificate"])
    if path == "exact":
        # moves a variable other than x1: fails with a witness, no sampling
        text = random_map(rng, rank, 2)
        parts = text.split("; ")
        parts[1] = check.fmt(check.add(check.var(2), {(rank,): _coeff(rng)}))
        return {"op": "center", "args": ["; ".join(parts)], "expect": "fails"}
    central = {}
    for k in range(1, rng.randint(1, 3) + 1):
        central = check.add(central, check.mul({(): _coeff(rng)},
                                               check.c_gen(k, rank - 1, rank)))
    parts = [f"x{i}" for i in range(1, rank + 1)]
    parts[0] = check.fmt(check.add(check.var(1), central))
    return {"op": "center", "args": ["; ".join(parts)], "expect": "holds"}


# op kind -> count per session pass.  Ranks of group ops and the shapes
# of rank-3 classifications cycle rather than being drawn, so that every
# seed has the same mix of op costs (the slowest 1% are mostly rank-3
# classifications at level 3).
STREAM_MIX = {"compose": 210, "invert": 200, "commutator": 150, "conjugate": 150,
              "apply": 200, "classify2": 100, "classify3": 100, "center": 80,
              "straighten": 110, "parse": 100, "format": 100}


def session(seed, smoke=False):
    """The suites, then a shuffled stream of small library calls."""
    rng = random.Random(f"session/{seed}")
    scale = 0.03 if smoke else 1
    ops = []
    for kind, count in STREAM_MIX.items():
        for i in range(max(1, round(count * scale))):
            if kind in ("compose", "invert", "commutator", "conjugate", "apply"):
                ops.append(_group_op(rng, kind, i))
            elif kind == "classify2":
                ops.append(_classify2(rng))
            elif kind == "classify3":
                ops.append(_classify3(rng, i))
            elif kind == "center":
                ops.append(_center(rng))
            elif kind == "straighten":
                d = rng.randint(1, 7)
                text = check.fmt(_random_poly(rng, [rng.randint(0, d) for _ in range(3)] + [d]))
                ops.append({"op": kind, "args": [text, 7]})
            else:
                rank = rng.randint(2, 5)
                text = check.fmt(_random_poly(rng, [rng.randint(0, 4) for _ in range(4)],
                                              range(1, rank + 1)))
                ops.append({"op": kind, "args": [text, rank]})
    rng.shuffle(ops)
    suites = ["theorem1", "theorem3"] if smoke else SUITES
    return {"suites": suites, "ops": ops}


def generate(name, seed, smoke=False):
    return {"layers": layers, "classify": classify, "straighten": straighten,
            "session": session}[name](seed, smoke)
