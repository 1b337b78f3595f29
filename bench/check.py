"""Known-answer checks for the benchmark, independent of the package.

Polynomials here are plain dicts mapping words (tuples of variable
indices) to Fractions.  Nothing in this module imports `unitri`: every
answer the program prints is parsed, recomputed and compared with code
of the benchmark's own, so a defect in the package cannot also hide in
its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- polynomial text and arithmetic ---------------------------------------


def parse(text):
    """Parse the program's polynomial grammar, e.g. '-3/2*x2*x3^2 + x3 - 1'."""
    out = {}
    sign = 1
    for tok in text.replace("+", " + ").replace("-", " - ").split():
        if tok in "+-":
            sign = -1 if tok == "-" else 1
            continue
        coeff = Fraction(1)
        word = ()
        for factor in tok.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                var, _, power = factor[1:].partition("^")
                word += (int(var),) * (int(power) if power else 1)
        add_term(out, word, sign * coeff)
        sign = 1
    return out


def fmt(poly):
    """Render a dict polynomial in the program's input grammar."""
    if not poly:
        return "0"
    pieces = []
    for word, c in sorted(poly.items(), key=lambda wc: (len(wc[0]), wc[0])):
        body = "*".join(f"x{v}" for v in word)
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+") + " " + text)
    head = pieces[0]
    return " ".join([head[2:] if head[0] == "+" else "-" + head[2:]] + pieces[1:])


def add_term(poly, word, c):
    v = poly.get(word, 0) + c
    if v:
        poly[word] = v
    else:
        poly.pop(word, None)


def add(a, b, scale=1):
    out = dict(a)
    for w, c in b.items():
        add_term(out, w, scale * c)
    return out


def mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            add_term(out, w1 + w2, c1 * c2)
    return out


def commutator(a, b):
    return add(mul(a, b), mul(b, a), -1)


def rank(polys):
    """Dimension of the span of the given polynomials."""
    rows = {}   # pivot word -> row with coefficient 1 there
    for p in polys:
        r = dict(p)
        while r:
            pivot = min(r)
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = {w: c / r[pivot] for w, c in r.items()}
                break
            r = add(r, row, -r[pivot])
    return len(rows)


def var(v):
    return {(v,): Fraction(1)}


def c_gen(k, i=2, j=3):
    """c_1 = [x_i, x_j], c_{k+1} = [c_k, x_j]."""
    c = commutator(var(i), var(j))
    for _ in range(k - 1):
        c = commutator(c, var(j))
    return c


# -- layer invariance -----------------------------------------------------


def _shift_defect(poly, letter, image):
    """poly(x_letter -> x_letter + image) - poly, split by how many letters
    were replaced: returns {r: polynomial} for r >= 1.  With image = t*u
    the defect is sum_r t^r * part[r], so it vanishes for every t exactly
    when every part does."""
    parts = {}
    for word, c in poly.items():
        partial = {((), 0): c}
        for a in word:
            nxt = {}
            for (w, r), v in partial.items():
                key = (w + (a,), r)
                nxt[key] = nxt.get(key, 0) + v
                if a == letter:
                    for iw, ic in image.items():
                        key = (w + iw, r + 1)
                        nxt[key] = nxt.get(key, 0) + v * ic
            partial = nxt
        for (w, r), v in partial.items():
            if r:
                add_term(parts.setdefault(r, {}), w, v)
    return {r: p for r, p in parts.items() if p}


def layer1_invariant(poly, cap):
    """Exact check that poly is fixed by x3 -> x3 + 1 and by
    x2 -> x2 + t*x3^j for every t and every j <= cap."""
    if _shift_defect(poly, 3, {(): Fraction(1)}):
        return False
    return all(not _shift_defect(poly, 2, {(3,) * j: Fraction(1)})
               for j in range(cap + 1))


# -- straightening ----------------------------------------------------------


_AD = {}


def _leibniz_coeff(k, j):
    """ad_x2^j(ad_x3^k(x2)), memoized."""
    got = _AD.get((k, j))
    if got is None:
        if j:
            got = commutator(var(2), _leibniz_coeff(k, j - 1))
        elif k:
            got = commutator(var(3), _leibniz_coeff(k - 1, 0))
        else:
            got = var(2)
        _AD[(k, j)] = got
    return got


def straighten(poly):
    """f = sum r_(a,b) * x2^a * x3^b with r in the commutator subalgebra,
    by the Leibniz rules
      x3^b * x2 = sum_k C(b,k) ad_x3^k(x2) * x3^(b-k)
      x2^a * u  = sum_j C(a,j) ad_x2^j(u) * x2^(a-j),
    folded letter by letter over each word.  ad_x3^k(x2) and ad_x2^j(u)
    lie in the commutator subalgebra for k, j >= 1, so the result is the
    unique free-module decomposition."""
    out = {}
    for word, coeff in poly.items():
        state = {(0, 0): {(): coeff}}
        for letter in word:
            nxt = {}
            for (a, b), r in state.items():
                if letter == 3:
                    _acc(nxt, (a, b + 1), r)
                    continue
                _acc(nxt, (a + 1, b), r)
                for k in range(1, b + 1):
                    for j in range(a + 1):
                        _acc(nxt, (a - j, b - k), mul(r, _leibniz_coeff(k, j)),
                             math.comb(b, k) * math.comb(a, j))
            state = nxt
        for key, r in state.items():
            _acc(out, key, r)
    return {k: r for k, r in out.items() if r}


def _acc(target, key, poly, scale=1):
    target[key] = add(target.get(key, {}), poly, scale)


def reconstruct(components):
    total = {}
    for (a, b), r in components.items():
        total = add(total, mul(r, {(2,) * a + (3,) * b: Fraction(1)}))
    return total


# -- automorphisms, checked by evaluation at random matrices ----------------

PRIME = (1 << 61) - 1


def parse_aut(text):
    """Images of x_1..x_n from 'x1 + f1; x2 + f2; ...'."""
    return [parse(part) for part in text.split(";")]


def random_matrices(rng, count, size=3):
    return [[[rng.randrange(PRIME) for _ in range(size)] for _ in range(size)]
            for _ in range(count)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % PRIME for j in range(n)]
            for i in range(n)]


def evaluate(poly, mats):
    """poly at the matrices mats[v-1] for x_v, over Z/PRIME."""
    n = len(mats[0])
    total = [[0] * n for _ in range(n)]
    cache = {(): [[int(i == j) for j in range(n)] for i in range(n)]}

    def value(word):
        got = cache.get(word)
        if got is None:
            got = _matmul(value(word[:-1]), mats[word[-1] - 1])
            cache[word] = got
        return got

    for word, c in poly.items():
        cm = c.numerator * pow(c.denominator, -1, PRIME) % PRIME
        m = value(word)
        for i in range(n):
            for j in range(n):
                total[i][j] = (total[i][j] + cm * m[i][j]) % PRIME
    return total


def eval_chain(chain, mats):
    """Images of every variable under the left-to-right product of the
    automorphisms in `chain` (each a list of image dicts), at mats."""
    for aut in reversed(chain):
        mats = [evaluate(img, mats) for img in aut]
    return mats
