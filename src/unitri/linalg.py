"""Exact sparse linear algebra over Q.

Vectors are dicts mapping hashable term keys to nonzero Fractions.  An
Echelon, the one elimination routine here, keeps a reduced row-echelon
basis under a caller-supplied term order; the pivot of a row is its
smallest term and carries coefficient 1, so the stored rows are the
unique canonical basis of their span.
"""

from __future__ import annotations

from fractions import Fraction


class Echelon:
    """Incrementally built reduced echelon basis, optionally tracking how
    each stored row combines the originally inserted vectors."""

    def __init__(self, key=None, track=False):
        self.key = key if key is not None else (lambda t: t)
        self.rows = []          # mutually reduced, pivot coefficient 1
        self.combos = [] if track else None
        self._pivot_of = {}     # pivot term -> row index
        self._order = []        # pivot terms sorted by self.key

    def __len__(self):
        return len(self.rows)

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
            for t, v in self.rows[idx].items():
                nv = r.get(t, 0) - c * v
                if nv:
                    r[t] = nv
                else:
                    r.pop(t, None)
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
            for tag, v in self.combos[idx].items():
                nv = out.get(tag, 0) + c * v
                if nv:
                    out[tag] = nv
                else:
                    out.pop(tag, None)
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
                for t, v in self.combos[idx].items():
                    nv = combo.get(t, 0) - c * v
                    if nv:
                        combo[t] = nv
                    else:
                        combo.pop(t, None)
            combo = {t: v / lead for t, v in combo.items()}
        # keep the basis fully reduced
        for i, other in enumerate(self.rows):
            c = other.get(pivot)
            if not c:
                continue
            for t, v in row.items():
                nv = other.get(t, 0) - c * v
                if nv:
                    other[t] = nv
                else:
                    other.pop(t, None)
            if self.combos is not None:
                oc = self.combos[i]
                for t, v in combo.items():
                    nv = oc.get(t, 0) - c * v
                    if nv:
                        oc[t] = nv
                    else:
                        oc.pop(t, None)
        self._pivot_of[pivot] = len(self.rows)
        self.rows.append(row)
        if self.combos is not None:
            self.combos.append(combo)
        lo, hi = 0, len(self._order)
        pk = self.key(pivot)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key(self._order[mid]) < pk:
                lo = mid + 1
            else:
                hi = mid
        self._order.insert(lo, pivot)
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
