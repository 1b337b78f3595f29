"""Three-valued outcomes for invariance checks.

Checking has one-sided error: a failure always comes with a concrete
witness and is certain, while a pass after n independent trials, or
after exact checks of a truncated family, is only probable.  "holds" is
reserved for outcomes backed by an exact certificate.  An optional
provenance string says what a verdict rests on when trials do not.
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
    trials: int | None = None
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
    def probably_holds(cls, trials=None, provenance=None):
        return cls(PROBABLY_HOLDS, trials=trials, provenance=provenance)

    def is_positive(self):
        """True for holds and probably_holds."""
        return self.kind != FAILS

    def to_json(self):
        from .autgroup import aut_to_json
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = aut_to_json(self.witness)
        if self.trials is not None:
            out["trials"] = self.trials
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out
