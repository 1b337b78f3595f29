"""Outcomes for invariance checks and classifications.

"holds" is reserved for outcomes backed by an exact decision or
certificate.  A failure always comes with a concrete witness and is
certain.
"""

from __future__ import annotations

from collections import namedtuple

HOLDS = "holds"
FAILS = "fails"


class Verdict(namedtuple("Verdict", "kind witness")):
    __slots__ = ()

    def __new__(cls, kind, witness=None):
        # witness: a UniAut for FAILS
        if kind not in (HOLDS, FAILS):
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == FAILS and witness is None:
            raise ValueError("a failing verdict needs a witness")
        return super().__new__(cls, kind, witness)

    @classmethod
    def holds(cls):
        return cls(HOLDS)

    @classmethod
    def fails(cls, witness):
        return cls(FAILS, witness=witness)

    def to_json(self):
        out = {"kind": self.kind}
        if self.witness is not None:
            from .autgroup import aut_to_json
            out["witness"] = aut_to_json(self.witness)
        return out
