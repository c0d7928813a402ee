"""The four benchmark workloads and the golden-digest check of their outputs.

Every workload is a list of items; one op runs one item through a public
entry point of ``fanocert``.  Each op ends in one of three observed outcomes,
written as ``"<kind>:<detail>"``:

* ``result:<digest>`` -- the call returned; the digest covers its output;
* ``refusal:<class>`` -- the call raised one of fanocert's own typed errors;
* ``error:<class>``   -- the call raised any other exception.

``golden.json`` holds the outcome of every op at the seed commit.  An op
matches when its outcome equals the golden one.  An op whose outcome is of a
better kind than the golden one (error -> refusal -> result) has been
*recovered*: a later fix of a seed refusal or error shows up as a higher
``ok_share`` instead of as a mismatch.  Any other difference is a mismatch and
counts the op as failed.

The modules are looked up at call time (``nefness.nef_certificate`` and not a
bound name), so the wrappers installed by ``tracing.Tracer`` see every call.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from fanocert import catalog, diophantine, gonality, lattice, nefness, report

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

RESULT, REFUSAL, ERROR = "result", "refusal", "error"
_RANK = {ERROR: 0, REFUSAL: 1, RESULT: 2}

MATCH, RECOVERED, MISMATCH = "match", "recovered", "mismatch"


def _short_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _decompositions(found) -> list:
    return [[[cls.a, cls.b] for cls in parts] for parts in found]


def census_pairs() -> list[tuple[str, int, int]]:
    """Every (family, d, g) with 1 <= d < cutting bound and det < 0, sorted."""
    pairs = []
    for name in sorted(lattice.FAMILIES):
        family = lattice.FAMILIES[name]
        for d in range(1, family.cutting_bound):
            g = 0
            while family.h_square * (2 * g - 2) - d * d < 0:
                pairs.append((name, d, g))
                g += 1
    return pairs


def outcome_of(workload, output, exc: Exception | None) -> str:
    """Observed outcome label of one op."""
    if exc is None:
        return f"{RESULT}:{workload.digest(output)}"
    kind = REFUSAL if type(exc).__module__.startswith("fanocert") else ERROR
    return f"{kind}:{type(exc).__name__}"


def kind_of(outcome: str) -> str:
    return outcome.split(":", 1)[0]


def judge(golden: str, observed: str) -> str:
    """MATCH, RECOVERED or MISMATCH of an observed outcome against golden."""
    if observed == golden:
        return MATCH
    if _RANK[kind_of(observed)] > _RANK[kind_of(golden)]:
        return RECOVERED
    return MISMATCH


class Tally:
    """Op outcomes of a run, judged against the workload's golden outcomes."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.attempted = self.results = self.refused = self.errors = 0
        self.recovered = self.failed = 0
        self.mismatches: list[str] = []

    def add_call(self, item, output, exc: Exception | None):
        self.add(item, outcome_of(self.workload, output, exc))

    def add(self, item, observed: str):
        key = self.workload.key(item)
        golden = self.golden.get(key)
        verdict = MISMATCH if golden is None else judge(golden, observed)
        kind = kind_of(observed)
        self.attempted += 1
        self.results += kind == RESULT
        self.refused += kind == REFUSAL
        self.errors += kind == ERROR
        self.recovered += verdict == RECOVERED
        if verdict == MISMATCH:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{key}: golden {golden} observed {observed}")

    def lines(self) -> list[str]:
        raised = self.refused + self.errors
        lines = [f"ops attempted={self.attempted} results={self.results} "
                 f"refused={self.refused} errors={self.errors} "
                 f"recovered={self.recovered} mismatched={self.failed} "
                 f"raised_share={raised / self.attempted:.6f}"]
        return lines + [f"MISMATCH {m}" for m in self.mismatches]


class Table:
    """``run_all()`` plus ``report_to_json()`` over the embedded 42 rows, by row.

    An op is either ``load_cases()`` or one row: ``verify_case`` of the case
    and ``report_to_json`` of a report holding its certificate.  A pass thus
    does the per-row work of ``report_to_json(run_all())`` in ops of under a
    millisecond, small enough that each op's fastest time can come from a
    brief quiet moment of a noisy host.  The whole report, byte for byte, is
    checked against its golden SHA-256 by ``whole_report`` between passes.
    """

    name = "table"
    WHOLE = "report"

    def items(self) -> list:
        return ["load"] + list(catalog.load_cases())

    def cases(self) -> int:
        return len(catalog.load_cases())

    @staticmethod
    def key(item) -> str:
        return item if isinstance(item, str) else f"row/{item.case_id}/{item.family}"

    @staticmethod
    def op(item):
        if item == "load":
            return catalog.load_cases()
        return report.report_to_json(catalog.Report(certificates=(catalog.verify_case(item),)))

    @staticmethod
    def whole_report() -> str:
        return report.report_to_json(catalog.run_all())

    @staticmethod
    def digest(output) -> str:
        if isinstance(output, str):
            return hashlib.sha256(output.encode()).hexdigest()
        return _short_digest([dataclasses.asdict(case) for case in output])


class Census:
    """Nef and free certificates of every census pair, tetragonality on x14."""

    name = "census"

    def cases(self) -> int:
        return len(census_pairs())

    def items(self) -> list:
        items = []
        for name, d, g in census_pairs():
            items.append((name, d, g, "nef"))
            items.append((name, d, g, "free"))
            if name == "x14":
                items.append((name, d, g, "tetragonal"))
        return items

    @staticmethod
    def key(item) -> str:
        return "/".join(map(str, item))

    @staticmethod
    def op(item):
        name, d, g, check = item
        if check == "tetragonal":
            return gonality.tetragonal_certificate(d, g)
        family = lattice.FAMILIES[name]
        if check == "nef":
            return nefness.nef_certificate(family, d, g)
        return nefness.free_certificate(family, d, g)

    @staticmethod
    def digest(output) -> str:
        if hasattr(output, "outcomes"):
            return _short_digest({
                "checks": [c.to_dict() for c in output.outcomes()],
                "discrepancies": list(output.discrepancies),
            })
        return _short_digest(output.to_dict())


class Decompose:
    """Hyperplane-splitting band of every census lattice, and its decompositions.

    Mirrors the band step of the v5 construction pipeline.  An op is either
    the band enumeration of one lattice or one effective decomposition search
    of a distinct class among the band points, their complements T - point
    and T - C; one band enumeration per lattice lists those classes when the
    items are made.  Ops this small let each op's fastest time come from a
    brief quiet moment of a noisy host.
    """

    name = "decompose"

    def items(self) -> list:
        items = []
        for name, d, g in census_pairs():
            band = self.op(("band", name, d, g))
            classes = {(1, -1)}
            for a, b in band.witnesses:
                classes.update({(a, b), (1 - a, -b)})
            items.append(("band", name, d, g))
            items += [("split", name, d, g, a, b) for a, b in sorted(classes)]
        return items

    def cases(self) -> int:
        return len(census_pairs())

    @staticmethod
    def key(item) -> str:
        return "/".join(map(str, item))

    @staticmethod
    def op(item):
        kind, name, d, g, *cls = item
        family = lattice.FAMILIES[name]
        if kind == "band":
            h2 = family.h_square
            return diophantine.band_empty(
                (h2, d), diophantine.Interval.open(0, h2),
                (d, 2 * g - 2), diophantine.Interval.closed(0, d))
        lat = lattice.make_family_lattice(family, d, g)
        return diophantine.effective_decompositions(lat, lattice.DivisorClass(*cls))

    @staticmethod
    def digest(output) -> str:
        if isinstance(output, tuple):
            return _short_digest(_decompositions(output))
        return _short_digest(output.to_dict())


class Cli:
    """Cold ``python -m fanocert.cli verify --all --strict --json`` processes.

    Its ops run in child processes (see ``measure.py``); the golden outcome
    is the digest of the table workload's whole report.
    """

    name = "cli"
    cases = Table.cases
    key = staticmethod(Table.key)
    digest = staticmethod(Table.digest)


WORKLOADS = {w.name: w for w in (Table(), Census(), Decompose(), Cli())}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["cli"] = {Table.WHOLE: golden["table"][Table.WHOLE]}
    return golden
