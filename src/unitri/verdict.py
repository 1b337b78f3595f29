"""Three-valued outcomes for invariance checks.

A failure always comes with a concrete witness and is certain.  "holds"
is reserved for outcomes backed by an exact decision or certificate; a
pass after exact checks of a truncated family, or from a bound that
checks nothing more, is only probable.  An optional provenance string
says what such a verdict rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "holds"
FAILS = "fails"
PROBABLY_HOLDS = "probably_holds"


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: object = None   # UniAut for FAILS
    provenance: str | None = None

    def __post_init__(self):
        if self.kind not in (HOLDS, FAILS, PROBABLY_HOLDS):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == FAILS and self.witness is None:
            raise ValueError("a failing verdict needs a witness")

    @classmethod
    def holds(cls):
        return cls(HOLDS)

    @classmethod
    def fails(cls, witness, provenance=None):
        return cls(FAILS, witness=witness, provenance=provenance)

    @classmethod
    def probably_holds(cls, provenance=None):
        return cls(PROBABLY_HOLDS, provenance=provenance)

    def is_positive(self):
        """True for holds and probably_holds."""
        return self.kind != FAILS

    def to_json(self):
        from .autgroup import aut_to_json
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = aut_to_json(self.witness)
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out
