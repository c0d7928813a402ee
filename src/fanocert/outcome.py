"""Structured results of individual verification steps.

Every pipeline step ends in a :class:`CheckOutcome`.  The ``kind`` field keeps
the three evidence levels apart:

* ``verified``: integer arithmetic this engine performed and re-checked;
* ``cited-rule``: a statement imported as an axiom (classification rows,
  existence theorems, smoothness arguments) that the engine cannot decide;
* ``derived-extension``: verified arithmetic that rests on extension
  constants rather than on constants fixed by a published table.

:class:`CheckOutcome` is a :class:`~fanocert.values.SlotValue`, not a
tuple: a caller may tell a check from a tuple of classes by type, and the
report writer must not read it as a list.  Every proof step builds one, so
``__init__`` fills its slots through setters bound once below the class.

Only the builders :func:`verified` and :func:`cited` call ``CheckOutcome``,
and they pass its fields by position.  Calling a class with keyword
arguments goes through ``type.__call__`` with a keyword dict: timed with
``timeit`` on CPython 3.11 (Linux, Intel Xeon), one keyword call cost
1.3-1.8 us and the same call by position 0.86-0.92 us, and a census pass
builds 3,106 checks.  A caller names its fields at the builder, which is a
plain function call.
"""
from __future__ import annotations

from .values import SlotValue, slot_setters

VERIFIED = "verified"
CITED = "cited-rule"
DERIVED = "derived-extension"

_KINDS = (VERIFIED, CITED, DERIVED)


class CheckOutcome(SlotValue):
    """One step of a proof; ``inputs`` and ``result`` default to fresh dicts."""

    __slots__ = ("name", "rule", "kind", "passed", "inputs", "result", "witnesses")

    def __init__(self, name: str, rule: str, kind: str, passed: bool,
                 inputs: dict | None = None, result: dict | None = None,
                 witnesses: tuple = ()):
        if kind not in _KINDS:
            raise ValueError(f"unknown outcome kind {kind!r}")
        _set_name(self, name)
        _set_rule(self, rule)
        _set_kind(self, kind)
        _set_passed(self, passed)
        _set_inputs(self, {} if inputs is None else inputs)
        _set_result(self, {} if result is None else result)
        _set_witnesses(self, witnesses)

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


(_set_name, _set_rule, _set_kind, _set_passed, _set_inputs, _set_result,
 _set_witnesses) = slot_setters(CheckOutcome)


def verified(name: str, rule: str, passed: bool, inputs: dict | None = None,
             result: dict | None = None, witnesses: tuple = (),
             kind: str = VERIFIED) -> CheckOutcome:
    """A step this engine computed; ``kind`` is set where the caller computes it.

    Checks on extension constants are ``DERIVED``, and a special donor whose
    elimination rests on a cited rule is ``CITED``.
    """
    return CheckOutcome(name, rule, kind, passed, inputs, result, witnesses)


def cited(name: str, rule: str, statement: str, inputs: dict | None = None) -> CheckOutcome:
    """A step taken as an axiom.  Always passes, but is marked as imported."""
    return CheckOutcome(name, rule, CITED, True, inputs, {"statement": statement})

