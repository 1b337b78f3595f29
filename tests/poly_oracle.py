"""The Fraction loops NcPoly once added, multiplied and substituted with,
the Fraction solve autgroup.difference_preimage once made, and the
Fraction rendering freealg's formatter once used, kept as an oracle for
their integer kernels.

All work on term maps (word -> nonzero Fraction) and add one product of
coefficients at a time, each sum a normalised Fraction; nothing here
calls the package, so a fault in freealg's helpers cannot hide in both.
"""

import itertools
import math
from fractions import Fraction


def _add(acc, key, c):
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def fraction_add_terms(a, b):
    """Term map of the sum of the term maps a and b."""
    out = dict(a)
    for w, c in b.items():
        _add(out, w, c)
    return out


def fraction_mul_terms(a, b):
    """Term map of the product of the term maps a and b."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _add(out, w1 + w2, c1 * c2)
    return out


def fraction_substitute(terms, images):
    """Term map of the image of `terms` under x_i -> images[i-1], images
    given as term maps; word images are memoised by prefix."""
    cache = {(): {(): Fraction(1)}}

    def image_of(word):
        got = cache.get(word)
        if got is None:
            got = fraction_mul_terms(image_of(word[:-1]), images[word[-1] - 1])
            cache[word] = got
        return got

    acc = {}
    for word, coeff in terms.items():
        for w, c in image_of(word).items():
            _add(acc, w, coeff * c)
    return acc


def fraction_difference_preimage(terms, shift):
    """Term map of the r in Q<y>, y = x2, without constant term, with
    r(y + shift) - r(y) equal to the term map `terms` of Q<y>: the y^j
    coefficient of the difference is sum_{k>j} C(k, j) shift^(k-j) r_k,
    solved top-down in Fractions."""
    shift = Fraction(shift)
    coeffs = {len(w): c for w, c in terms.items()}
    r = {}
    for j in range(max(coeffs, default=0), -1, -1):
        acc = sum((math.comb(k, j) * shift ** (k - j) * v
                   for k, v in r.items() if k > j), Fraction(0))
        need = coeffs.get(j, Fraction(0)) - acc
        if need:
            r[j + 1] = need / ((j + 1) * shift)
    return {(2,) * k: v for k, v in r.items()}


def fraction_join(pairs):
    """The signed sum of (nonzero int or Fraction, monomial text) pairs,
    an empty text marking the constant: "1 + x2*x3 - 3/2*x3*x2"."""
    pieces = []
    for c, body in pairs:
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {text}")
        else:
            pieces.append(f"-{text}" if c < 0 else text)
    return " ".join(pieces) or "0"


def fraction_word_text(word):
    """x2*x3^2*x2 for the word (2, 3, 3, 2)."""
    runs = [(v, len(list(run))) for v, run in itertools.groupby(word)]
    return "*".join(f"x{v}" if n == 1 else f"x{v}^{n}" for v, n in runs)


def fraction_format_terms(terms):
    """The term map word -> Fraction as text, words shortest first and
    then lexicographic."""
    return fraction_join([(terms[w], fraction_word_text(w))
                          for w in sorted(terms, key=lambda w: (len(w), w))])
