"""Structured results of individual verification steps.

Every pipeline step ends in a :class:`CheckOutcome`.  The ``kind`` field keeps
the three evidence levels apart:

* ``verified``: integer arithmetic this engine performed and re-checked;
* ``cited-rule``: a statement imported as an axiom (classification rows,
  existence theorems, smoothness arguments) that the engine cannot decide;
* ``derived-extension``: verified arithmetic that rests on extension
  constants rather than on constants fixed by a published table.

:class:`CheckOutcome` is a plain ``__slots__`` class with read-only fields
and value equality, not a frozen dataclass, whose generated methods would
cost every cold start about half a millisecond, nor a tuple: a caller may
tell a check from a tuple of classes by type, and the report writer must
not read it as a list.  ``__init__`` fills the slots through the slot
descriptors' own setters, bound once at module level, since the read-only
``__setattr__`` refuses and ``object.__setattr__`` looks each field up by
name; every proof step builds one of these.
"""
from __future__ import annotations

VERIFIED = "verified"
CITED = "cited-rule"
DERIVED = "derived-extension"

_KINDS = (VERIFIED, CITED, DERIVED)


def _read_only(self, name, *value):
    raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__}")


class CheckOutcome:
    """One step of a proof; ``inputs`` and ``result`` default to fresh dicts."""

    __slots__ = ("name", "rule", "kind", "passed", "inputs", "result", "witnesses")
    __setattr__ = __delattr__ = _read_only

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

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in CheckOutcome.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in CheckOutcome.__slots__)
        return f"CheckOutcome({fields})"

    def __eq__(self, other):
        if type(other) is not CheckOutcome:
            return NotImplemented
        return self._fields() == other._fields()

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


_set_name = CheckOutcome.name.__set__
_set_rule = CheckOutcome.rule.__set__
_set_kind = CheckOutcome.kind.__set__
_set_passed = CheckOutcome.passed.__set__
_set_inputs = CheckOutcome.inputs.__set__
_set_result = CheckOutcome.result.__set__
_set_witnesses = CheckOutcome.witnesses.__set__


def verified(name: str, rule: str, passed: bool, inputs: dict | None = None,
             result: dict | None = None, witnesses: tuple = ()) -> CheckOutcome:
    return CheckOutcome(name=name, rule=rule, kind=VERIFIED, passed=passed,
                        inputs=inputs, result=result, witnesses=witnesses)


def cited(name: str, rule: str, statement: str, inputs: dict | None = None) -> CheckOutcome:
    """A step taken as an axiom.  Always passes, but is marked as imported."""
    return CheckOutcome(name=name, rule=rule, kind=CITED, passed=True,
                        inputs=inputs, result={"statement": statement})


def class_witness(cls) -> list:
    """JSON-ready form of a divisor class."""
    a, b = cls
    return [int(a), int(b)]
