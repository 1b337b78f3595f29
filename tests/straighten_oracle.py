"""Independent references for the free-module straightening.

The package straightens in closed form by Leibniz rules, expanding only
the keep-sets whose last kept letter is an x2.  Two oracles check it.
closed_form_straighten is the same closed form with no pruning: every
subword of every word goes through both projections.
shuffled_solve_straighten instead builds an explicit basis of each degree
slice from the free Lie algebra: products r * x2^a * x3^b, with r running
over ordered products of standard-bracketed Lyndon words of length >= 2,
and solves for the coordinates by exact row reduction.  Shuffling the
candidates before the solve checks that the answer does not depend on the
order of the basis.
"""

import math
from functools import lru_cache

from unitri.freealg import NcPoly, add_term, grlex_key, ring_commutator
from unitri.linalg import Echelon


def closed_form_straighten(f):
    """The straightening map of f by the two projections in full.

    With D(p,q) = d2^p d3^q / (p! q!), which deletes p letters x2 and q
    letters x3 from a word in every way,
      r_(a,b) = sum_(i,j) (-1)^(i+j) C(a+i,i) C(b+j,j) D(a+i,b+j)(f) x3^j x2^i.
    Every coefficient is an int over f's common denominator.
    """
    parts = deletion_parts(f)
    for axis in (1, 0):   # pi3: q and tails x3^j; then pi2: p and tails x2^i
        parts = project(parts, axis)
    return {k: NcPoly._reduced(3, f.den, t) for k, t in sorted(parts.items()) if t}


def deletion_parts(f):
    """{(p, q): D(p,q)(f)} in ints over f's common denominator: each word
    is folded once into its subwords, and a word's subword fixes its p, q."""
    parts = {}
    for word, c in f.ints.items():
        subs = {(): c}
        for letter in word:
            nxt = dict(subs)   # the letter deleted
            for s, n in subs.items():
                add_term(nxt, s + (letter,), n)
            subs = nxt
        for s, n in subs.items():
            p = word.count(2) - s.count(2)
            add_term(parts.setdefault((p, len(word) - len(s) - p), {}), s, n)
    return parts


def project(parts, axis):
    """The sum over j of (-1)^j C(e, j) times the part of index e on
    `axis`, moved to index e - j with the tail x3^j (axis 1) or x2^j
    (axis 0).  Axis 1 turns {(p, q): D(p,q)(f)} into
    {(p, b): pi3(D(p,b)(f))}, pi3(g) = sum_j (-1)^j D(0,j)(g) x3^j."""
    out = {}
    for pq, group in parts.items():
        e = pq[axis]
        moves = [(out.setdefault(pq[:axis] + (e - j,) + pq[axis + 1:], {}),
                  (2 + axis,) * j, (-1) ** j * math.comb(e, j)) for j in range(e + 1)]
        for s, n in group.items():
            for target, tail, scale in moves:
                add_term(target, s + tail, scale * n)
    return out


def pi3(f):
    """pi3(f) as a polynomial: the (0, 0) part of the x3 projection."""
    return NcPoly._reduced(3, f.den, project(deletion_parts(f), 1).get((0, 0), {}))


@lru_cache(maxsize=None)
def lyndon_words(maxlen):
    """Lyndon words over the alphabet (2, 3), lengths 1..maxlen, in
    lexicographic order (Duval's generation)."""
    alphabet = (2, 3)
    out = []
    w = [0]
    while w:
        out.append(tuple(alphabet[c] for c in w))
        m = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - m])
        while w and w[-1] == len(alphabet) - 1:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(sorted(out, key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def standard_bracketing(word):
    """Right-normed bracketing along the standard factorization: the
    splitting point starts the lexicographically smallest proper suffix."""
    if len(word) == 1:
        return NcPoly.variable(word[0], 3)
    split = min(range(1, len(word)), key=lambda i: word[i:])
    return ring_commutator(standard_bracketing(word[:split]),
                           standard_bracketing(word[split:]))


@lru_cache(maxsize=None)
def commutator_algebra_basis(degree):
    """Basis of the degree-`degree` slice of the subalgebra generated by
    all higher commutators of x2 and x3.

    The bracketed words of length >= 2 span the commutator part of the
    free Lie algebra; ordered products of those span the subalgebra they
    generate, one basis monomial per nondecreasing index sequence.
    """
    if degree == 0:
        return (NcPoly.one(3),)
    if degree == 1:
        return ()
    lie = [(standard_bracketing(w), len(w))
           for w in lyndon_words(degree) if len(w) >= 2]
    out = []

    def rec(total, start):
        if total == 0:
            yield ()
            return
        for i in range(start, len(lie)):
            if lie[i][1] > total:
                continue
            for rest in rec(total - lie[i][1], i):
                yield (i,) + rest

    for word in rec(degree, 0):
        prod = NcPoly.one(3)
        for i in word:
            prod = prod * lie[i][0]
        out.append(prod)
    return tuple(out)


@lru_cache(maxsize=None)
def straighten_candidates(degree):
    """All products r * x2^a * x3^b of total degree `degree`, with r a
    commutator-subalgebra basis element; by freeness of the module these
    are a basis of the whole degree slice."""
    x2 = NcPoly.variable(2, 3)
    x3 = NcPoly.variable(3, 3)
    cands = []
    for alpha in range(degree + 1):
        for beta in range(degree - alpha + 1):
            rest = degree - alpha - beta
            for ridx, r in enumerate(commutator_algebra_basis(rest)):
                cands.append(((alpha, beta, ridx),
                              r * x2 ** alpha * x3 ** beta, r))
    return tuple(cands)


def shuffled_solve_straighten(f, rng):
    """Straightening map of f by an exact solve over the candidate basis
    of each degree, with the candidates inserted in an order shuffled by
    rng.  Asserts that the candidates are independent and span f."""
    out = {}
    for d, comp in f.homogeneous_components().items():
        if d == 0:
            out[(0, 0)] = out.get((0, 0), NcPoly.zero(3)) + comp
            continue
        cands = list(straighten_candidates(d))
        rng.shuffle(cands)
        ech = Echelon(key=grlex_key, track=True)
        coeffs = {}
        for tag, poly, r in cands:
            assert ech.insert(poly.terms, tag)
            coeffs[tag] = r
        combo = ech.express(comp.terms)
        assert combo is not None
        for (a, b, ridx), c in combo.items():
            out[(a, b)] = out.get((a, b), NcPoly.zero(3)) + coeffs[(a, b, ridx)] * c
    return {k: v for k, v in out.items() if not v.is_zero()}
