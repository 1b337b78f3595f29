"""Three-valued outcomes for invariance checks.

A failure always comes with a concrete witness and is certain.  "holds"
is reserved for outcomes backed by an exact decision or certificate; a
pass from a bound that checks nothing more is only probable.  An
optional provenance string says what such a verdict rests on.
"""

from __future__ import annotations

from collections import namedtuple

HOLDS = "holds"
FAILS = "fails"
PROBABLY_HOLDS = "probably_holds"


class Verdict(namedtuple("Verdict", "kind witness provenance")):
    __slots__ = ()

    def __new__(cls, kind, witness=None, provenance=None):
        # witness: a UniAut for FAILS; provenance: str or None
        if kind not in (HOLDS, FAILS, PROBABLY_HOLDS):
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == FAILS and witness is None:
            raise ValueError("a failing verdict needs a witness")
        return super().__new__(cls, kind, witness, provenance)

    @classmethod
    def holds(cls):
        return cls(HOLDS)

    @classmethod
    def fails(cls, witness):
        return cls(FAILS, witness=witness)

    @classmethod
    def probably_holds(cls, provenance=None):
        return cls(PROBABLY_HOLDS, provenance=provenance)

    def to_json(self):
        out = {"kind": self.kind}
        if self.witness is not None:
            from .autgroup import aut_to_json
            out["witness"] = aut_to_json(self.witness)
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out
