"""Embedded case table and the runner of the proofs its rows' tags select.

Data plus runner only: the proofs live in ``pipelines``, which never imports
this module, and a verdict is the conclusion of the proof that ran.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .lattice import FAMILIES, SPORADIC_AMBIENTS, make_family_lattice
from .pipelines import NOT_REALIZABLE, OPEN, PIPELINES, REALIZABLE
from .values import HashableValue, SlotValue, slot_setters

UNVERIFIED = "Unverified"

VERDICTS = (REALIZABLE, NOT_REALIZABLE, OPEN)
FAMILY_NAMES = tuple(dict.fromkeys(family for family, _, _ in PIPELINES))


class CaseTableError(ValueError):
    """The case table file does not match the expected schema."""


# The one dataclass of the package, and its decorator writes no method: it
# only registers the annotated fields, which the benchmark digests with
# ``dataclasses.asdict``.  The annotations repeat ``__slots__`` in order.
@dataclass(init=False, repr=False, eq=False)
class CaseRecord(HashableValue):
    """One row of the case table: the curve, its verdict and its proof's tags.

    ``__init__`` refuses, as a ``CaseTableError``, a row whose tags select no
    proof or one that could not run on it.
    """

    __slots__ = ("case_id", "family", "d", "g", "expected", "route", "smallness", "ambient",
                 "construction", "seed_d", "seed_g")
    case_id: int
    family: str
    d: int
    g: int
    expected: str
    route: str
    smallness: str
    ambient: str | None
    construction: str
    seed_d: int | None
    seed_g: int | None

    def __init__(self, case_id: int, family: str, d: int, g: int, expected: str,
                 route: str = "construction", smallness: str = "table-absent",
                 ambient: str | None = None, construction: str = "main",
                 seed_d: int | None = None, seed_g: int | None = None):
        _set_case_id(self, case_id)
        _set_family(self, family)
        _set_d(self, d)
        _set_g(self, g)
        _set_expected(self, expected)
        _set_route(self, route)
        _set_smallness(self, smallness)
        _set_ambient(self, ambient)
        _set_construction(self, construction)
        _set_seed_d(self, seed_d)
        _set_seed_g(self, seed_g)
        if self.family not in FAMILY_NAMES:
            raise CaseTableError(f"unknown family {self.family!r}")
        if self.expected not in VERDICTS:
            raise CaseTableError(f"unknown verdict {self.expected!r}")
        if self.proof not in PIPELINES:
            raise CaseTableError(
                f"family {self.family!r} has no proof with route {self.route!r} "
                f"and construction {self.construction!r}")
        if self.smallness not in ("table-absent", "ambiguous"):
            raise CaseTableError(f"unknown smallness tag {self.smallness!r}")
        # Only a construction ends on the smallness step that concludes Open.
        if self.smallness == "ambiguous" and self.route != "construction":
            raise CaseTableError(f"a {self.route} cannot conclude Open: smallness 'ambiguous'")
        if self.family == "sporadic" and not self.ambient:
            raise CaseTableError("sporadic cases need an ambient")
        if self.family == "sporadic" and self.ambient not in SPORADIC_AMBIENTS:
            raise CaseTableError(f"unknown sporadic ambient {self.ambient!r}")
        # The sporadic construction argues about twisted cubics, (d, g) = (3, 0),
        # and never reads d or g, so any other pair would pass unexamined.
        if self.family == "sporadic" and (self.d, self.g) != (3, 0):
            raise CaseTableError(
                f"sporadic cases need (d,g)=(3,0), got ({self.d},{self.g})")
        if self.construction == "residual" and (self.seed_d is None or self.seed_g is None):
            raise CaseTableError("residual constructions need seed invariants")
        # Only the sporadic proof reads an ambient and only the residual one
        # reads seeds; elsewhere the tag would be reported but never checked.
        if self.family != "sporadic" and self.ambient is not None:
            raise CaseTableError(f"only sporadic cases have an ambient, got {self.ambient!r}")
        if self.construction != "residual" and (self.seed_d, self.seed_g) != (None, None):
            raise CaseTableError("only residual constructions have seed invariants")
        # Every other proof builds the row's Picard lattice, and a residual
        # one its seed's too; each needs d >= 1, g >= 0 and det < 0, and a
        # row without them cannot be proved.
        if self.family != "sporadic":
            family = FAMILIES[self.family]
            try:
                make_family_lattice(family, self.d, self.g)
            except ValueError as exc:
                raise CaseTableError(f"{self.label()}: {exc}") from None
            # A construction's nef certificate reads the secant table, which
            # needs d below the family's cutting bound.
            if self.route == "construction" and self.d >= family.cutting_bound:
                raise CaseTableError(f"{self.label()}: a construction needs d below the "
                                     f"cutting bound {family.cutting_bound} of {family.name}")
            if self.construction == "residual":
                try:
                    make_family_lattice(family, self.seed_d, self.seed_g)
                except ValueError as exc:
                    raise CaseTableError(f"{self.label()}: seed {exc}") from None

    @property
    def proof(self) -> tuple[str, str, str]:
        """The tags that select this row's proof: a key of ``PIPELINES``."""
        return (self.family, self.route, self.construction)

    def label(self) -> str:
        tag = self.family if not self.ambient else f"{self.family}/{self.ambient}"
        return f"case {self.case_id} {tag} (d,g)=({self.d},{self.g})"


(_set_case_id, _set_family, _set_d, _set_g, _set_expected, _set_route, _set_smallness,
 _set_ambient, _set_construction, _set_seed_d, _set_seed_g) = slot_setters(CaseRecord)


class Certificate(SlotValue):
    """A row's verdict and the checks it rests on."""

    __slots__ = ("case", "computed", "checks", "discrepancies")

    def __init__(self, case: CaseRecord, computed: str, checks: tuple,
                 discrepancies: tuple = ()):
        _set_case(self, case)
        _set_computed(self, computed)
        _set_checks(self, checks)
        _set_discrepancies(self, discrepancies)

    @property
    def matches(self) -> bool:
        return self.computed == self.case.expected

    def to_dict(self) -> dict:
        data = {
            "case_id": self.case.case_id,
            "family": self.case.family,
            "d": self.case.d,
            "g": self.case.g,
            "expected": self.case.expected,
            "computed": self.computed,
            "checks": [c.to_dict() for c in self.checks],
            "discrepancies": self.discrepancies,
        }
        if self.case.ambient:
            data["ambient"] = self.case.ambient
        return data


_set_case, _set_computed, _set_checks, _set_discrepancies = slot_setters(Certificate)


class Report(SlotValue):
    """The certificates of a run and their tally; ``summary`` defaults to a fresh dict."""

    __slots__ = ("certificates", "summary")

    def __init__(self, certificates: tuple[Certificate, ...], summary: dict | None = None):
        _set_certificates(self, certificates)
        _set_summary(self, {} if summary is None else summary)

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.certificates)


_set_certificates, _set_summary = slot_setters(Report)


def _integer_field(entry: dict, key: str) -> int:
    """``entry[key]`` as an int; any value that is not an integer is a table error.

    JSON numbers with an integral value are integers; booleans and strings
    are not, although ``int`` would convert them.
    """
    value = entry[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise CaseTableError(f"case field {key!r} must be an integer, got {value!r}")
    return int(value)


# The keys of a case entry: the fields every row has, then the tags, which
# take CaseRecord's defaults where an entry leaves them out.  Any other key
# is refused: a misspelled tag would fall back to its default unseen.
_ENTRY_FIELDS = ("id", "family", "d", "g", "expected")
_ENTRY_TAGS = ("route", "smallness", "ambient", "construction", "seed_d", "seed_g")


def _record_from_entry(entry: dict) -> CaseRecord:
    if not isinstance(entry, dict):
        raise CaseTableError(f"malformed case entry {entry!r}")
    for key in entry:
        if key not in _ENTRY_FIELDS and key not in _ENTRY_TAGS:
            raise CaseTableError(f"unknown case entry key {key!r}")
    tags = {key: entry[key] for key in _ENTRY_TAGS if key in entry}
    for key in ("seed_d", "seed_g"):
        if tags.get(key) is not None:
            tags[key] = _integer_field(entry, key)
    try:
        return CaseRecord(
            case_id=_integer_field(entry, "id"),
            family=str(entry["family"]),
            d=_integer_field(entry, "d"),
            g=_integer_field(entry, "g"),
            expected=str(entry["expected"]),
            **tags,
        )
    except (KeyError, TypeError) as exc:
        raise CaseTableError(f"malformed case entry {entry!r}") from exc


def load_cases(path: str | None = None) -> tuple[CaseRecord, ...]:
    """Embedded table, or an override file with the same JSON schema.

    Each (case id, family) pair may appear once.
    """
    # ValueError covers undecodable bytes, bad JSON and an integer past the
    # interpreter's int-string limit; RecursionError, nesting too deep.
    try:
        if path is None:
            path = os.path.join(os.path.dirname(__file__), "data", "cases.json")
        with open(path, encoding="utf-8") as handle:
            payload = handle.read()
        table = json.loads(payload)
        entries = table["cases"]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        raise CaseTableError(f"unreadable case table: {exc}") from exc
    if not isinstance(entries, list):
        raise CaseTableError(f"unreadable case table: 'cases' must be a list, got {entries!r}")
    records = sorted((_record_from_entry(entry) for entry in entries),
                     key=lambda r: (r.case_id, r.family))
    for before, after in zip(records, records[1:]):
        if (before.case_id, before.family) == (after.case_id, after.family):
            raise CaseTableError(
                f"duplicate case row: id {after.case_id}, family {after.family!r}")
    return tuple(records)


def verify_case(case: CaseRecord) -> Certificate:
    """Run the row's proof; its conclusion is the verdict if every check passed."""
    checks, discrepancies, conclusion = PIPELINES[case.proof](case)
    computed = conclusion if all(c.passed for c in checks) else UNVERIFIED
    return Certificate(case, computed, tuple(checks), tuple(discrepancies))


def run_all(case_id: int | None = None, family: str | None = None,
            table: str | None = None) -> Report:
    """Verify the selected cases in deterministic (case id, family) order."""
    cases = load_cases(table)
    if case_id is not None:
        cases = tuple(c for c in cases if c.case_id == case_id)
    if family is not None:
        cases = tuple(c for c in cases if c.family == family)
    certificates = tuple(verify_case(c) for c in cases)
    summary = {
        "cases": len(certificates),
        "pass": sum(1 for c in certificates if c.matches),
        "mismatch": sum(1 for c in certificates if not c.matches),
        "open": sum(1 for c in certificates if c.case.expected == OPEN),
        "flagged": sum(1 for c in certificates if c.discrepancies),
    }
    return Report(certificates=certificates, summary=summary)
