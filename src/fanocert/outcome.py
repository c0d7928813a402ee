"""Structured results of individual verification steps.

Every pipeline step ends in a :class:`CheckOutcome`.  The ``kind`` field keeps
the three evidence levels apart:

* ``verified``: integer arithmetic this engine performed and re-checked;
* ``cited-rule``: a statement imported as an axiom (classification rows,
  existence theorems, smoothness arguments) that the engine cannot decide;
* ``derived-extension``: verified arithmetic that rests on extension
  constants rather than on constants fixed by a published table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

VERIFIED = "verified"
CITED = "cited-rule"
DERIVED = "derived-extension"

_KINDS = (VERIFIED, CITED, DERIVED)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    rule: str
    kind: str
    passed: bool
    inputs: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    witnesses: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")

    def to_dict(self) -> dict:
        """Serialize with the fixed report field order; the writer only reads the containers."""
        return {
            "name": self.name,
            "paper_ref": self.rule,
            "inputs": self.inputs,
            "result": {"status": "pass" if self.passed else "fail", **self.result},
            "witnesses": self.witnesses,
            "kind": self.kind,
        }


def verified(name: str, rule: str, passed: bool, inputs: dict | None = None,
             result: dict | None = None, witnesses: tuple = ()) -> CheckOutcome:
    return CheckOutcome(name=name, rule=rule, kind=VERIFIED, passed=passed,
                        inputs=inputs or {}, result=result or {}, witnesses=witnesses)


def cited(name: str, rule: str, statement: str, inputs: dict | None = None) -> CheckOutcome:
    """A step taken as an axiom.  Always passes, but is marked as imported."""
    return CheckOutcome(name=name, rule=rule, kind=CITED, passed=True,
                        inputs=inputs or {}, result={"statement": statement})


def class_witness(cls) -> list:
    """JSON-ready form of a divisor class."""
    a, b = cls
    return [int(a), int(b)]
