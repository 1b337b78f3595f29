"""Exact sparse linear algebra over Q, and the owner of the term-map format.

Every sparse object in the package -- a polynomial, its abelianisation, a
row or combination of an Echelon, a straightening map -- is a dict
mapping hashable term keys to nonzero coefficients: a stored coefficient
is never 0.  add_term and add_scaled are the two updates that keep that
so, by deleting any entry that cancels; the few hot loops that inline
them say so; they work on int and Fraction values alike.  A polynomial
stores its coefficients as ints over one common denominator, (d, ints);
clear_denominators writes a Fraction-valued map in that form, and
over_denominator turns such a pair back into Fractions, one per term.
The other maps here, an Echelon's rows and combinations among them,
hold Fractions.

An Echelon, the one elimination routine here, keeps a reduced row-echelon
basis under a caller-supplied term order; the pivot of a row is its
smallest term and carries coefficient 1, so the stored rows are the
unique canonical basis of their span.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import lcm


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
    for t, v in vec.items():   # add_term inlined: hot loop
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


def clear_denominators(terms):
    """Common-denominator form (d, ints) of a term map: d is the lcm of the
    denominators of its values and ints[key] = d * terms[key], an int, so
    that terms == over_denominator(d, ints).  Zero-free in, zero-free out."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}


def over_denominator(d, ints):
    """The Fraction term map ints / d: one normalised Fraction per term.
    ints must be zero-free, as every map built with add_term/add_scaled is."""
    if d == 1:
        return {k: Fraction(n) for k, n in ints.items()}
    return {k: Fraction(n, d) for k, n in ints.items()}


class Echelon:
    """Incrementally built reduced echelon basis, optionally tracking how
    each stored row combines the originally inserted vectors."""

    def __init__(self, key=None, track=False):
        self.key = key if key is not None else (lambda t: t)
        self.rows = []          # mutually reduced, pivot coefficient 1
        self.combos = [] if track else None
        self._pivot_of = {}     # pivot term -> row index
        self._order = []        # pivot terms sorted by self.key

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return list(self._order)

    def _reduce(self, vec):
        r = dict(vec)
        used = {}
        # rows only contain terms >= their pivot, so one ascending pass
        for pivot in self._order:
            c = r.get(pivot)
            if not c:
                continue
            idx = self._pivot_of[pivot]
            add_scaled(r, self.rows[idx], -c)
            used[idx] = used.get(idx, 0) + c
        return r, used

    def reduce(self, vec):
        """Residue of vec modulo the span; empty dict means membership."""
        return self._reduce(vec)[0]

    def express(self, vec):
        """Combination of the original inserted vectors equal to vec,
        as a map tag -> Fraction, or None if vec is outside the span."""
        if self.combos is None:
            raise ValueError("echelon was built without tracking")
        residue, used = self._reduce(vec)
        if residue:
            return None
        out = {}
        for idx, c in used.items():
            add_scaled(out, self.combos[idx], c)
        return out

    def insert(self, vec, tag=None):
        """Add a vector; returns True when it enlarged the span."""
        residue, used = self._reduce(vec)
        if not residue:
            return False
        pivot = min(residue, key=self.key)
        lead = residue[pivot]
        row = {t: v / lead for t, v in residue.items()}
        if self.combos is not None:
            combo = {tag: Fraction(1)}
            for idx, c in used.items():
                add_scaled(combo, self.combos[idx], -c)
            combo = {t: v / lead for t, v in combo.items()}
        # keep the basis fully reduced
        for i, other in enumerate(self.rows):
            c = other.get(pivot)
            if not c:
                continue
            add_scaled(other, row, -c)
            if self.combos is not None:
                add_scaled(self.combos[i], combo, -c)
        self._pivot_of[pivot] = len(self.rows)
        self.rows.append(row)
        if self.combos is not None:
            self.combos.append(combo)
        insort(self._order, pivot, key=self.key)
        return True

    def vectors(self):
        """Stored rows in pivot order: the canonical basis of the span."""
        return [dict(self.rows[self._pivot_of[p]]) for p in self._order]


def nullspace(rows, ncols):
    """Kernel of the integer-indexed constraint matrix given by `rows`.

    Each row is a dict column -> Fraction over columns 0..ncols-1.  The
    result is the canonical kernel basis, read off the Echelon of the
    rows: one vector per free column, a 1 in that column, and minus its
    entry in each pivot row at that row's pivot.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    basis = {col: {col: Fraction(1)} for col in range(ncols)}
    for pivot, row in zip(ech.pivots(), ech.vectors()):
        del basis[pivot]
        for col, v in row.items():
            if col != pivot:   # a reduced row is zero on the other pivots
                basis[col][pivot] = -v
    return list(basis.values())
