"""Exact sparse elimination over Q, on the term maps of `freealg`.

An Echelon, the one elimination routine here, keeps a reduced row-echelon
basis under a caller-supplied term order; the pivot of a row is its
smallest term and carries coefficient 1, so the stored rows are the
unique canonical basis of their span.  Its rows, and the combinations
among them that it can track, hold Fractions.  nullspace reads a kernel
basis off an Echelon.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from .freealg import add_scaled


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
            used[idx] = c
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
