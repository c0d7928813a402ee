import hashlib
import json
import re
import sys
from collections import Counter
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanocert import lattice, pipelines
from fanocert.catalog import (UNVERIFIED, VERDICTS, CaseRecord, CaseTableError, Report,
                              load_cases, run_all, verify_case)
from fanocert.cli import main
from fanocert.lattice import FAMILIES, FamilySpec, anticanonical_cube
from fanocert.outcome import CITED
from fanocert.report import report_to_json
from fanocert.secant import trisecant_count

from test_diophantine import census_lattices, unreachable_after

EXPECTED_VERDICTS = {
    "quadric": {
        "Realizable": {44, 45, 46, 48, 70, 71, 86, 88, 97, 105},
        "Open": {47, 72, 102},
        "NotRealizable": set(),
    },
    "v4": {
        "Realizable": {30, 34, 37, 41, 64, 84},
        "Open": {39, 67},
        "NotRealizable": set(),
    },
    "v5": {
        "Realizable": {31, 35, 38, 40, 42, 65, 68, 69, 81, 83, 94, 96, 101},
        "Open": set(),
        "NotRealizable": {43},
    },
    "x14": {
        "Realizable": {5, 12, 55},
        "Open": set(),
        "NotRealizable": {17},
    },
    "sporadic": {
        "Realizable": {3, 94, 100},
        "Open": set(),
        "NotRealizable": set(),
    },
}


def test_embedded_table_matches_verdict_sets():
    cases = load_cases()
    for family, verdicts in EXPECTED_VERDICTS.items():
        for verdict, ids in verdicts.items():
            actual = {c.case_id for c in cases
                      if c.family == family and c.expected == verdict}
            assert actual == ids, (family, verdict)
    assert len(cases) == 42


def test_case_94_runs_both_pipelines():
    report = run_all(case_id=94)
    families = sorted(c.case.family for c in report.certificates)
    assert families == ["sporadic", "v5"]
    assert all(c.computed == "Realizable" for c in report.certificates)


def test_run_all_matches_everywhere():
    report = run_all()
    assert report.summary == {"cases": 42, "pass": 42, "mismatch": 0,
                              "open": 5, "flagged": 3}
    assert report.all_match
    ordering = [(c.case.case_id, c.case.family) for c in report.certificates]
    assert ordering == sorted(ordering)


def test_run_all_leaves_no_cyclic_garbage():
    assert unreachable_after(run_all) == 0


def test_family_filter():
    report = run_all(family="x14")
    verdicts = {c.case.case_id: c.computed for c in report.certificates}
    assert verdicts == {5: "Realizable", 12: "Realizable",
                        17: "NotRealizable", 55: "Realizable"}


def test_unknown_case_is_empty():
    report = run_all(case_id=999)
    assert report.certificates == ()


def test_trisecant_count():
    assert trisecant_count(13, 14) == 39
    assert trisecant_count(9, 2) == 25
    assert trisecant_count(4, 0) == 0
    with pytest.raises(ValueError):
        trisecant_count(2, 0)


def test_trisecants_positive_on_quadric_catalog():
    for case in load_cases():
        if case.family == "quadric":
            assert trisecant_count(case.d, case.g) > 0


def test_anticanonical_cube():
    assert anticanonical_cube(FAMILIES["quadric"], 9, 2) == 2
    assert anticanonical_cube(FAMILIES["quadric"], 8, 0) == 4
    assert anticanonical_cube(FAMILIES["v4"], 11, 8) == 2
    for case in load_cases():
        if case.family == "sporadic":
            continue
        assert anticanonical_cube(FAMILIES[case.family], case.d, case.g) > 0


def test_case43_certificate_contents():
    report = run_all(case_id=43)
    cert = report.certificates[0]
    assert cert.computed == "NotRealizable"
    by_name = {c.name: c for c in cert.checks}
    residual = by_name["residual-member-invariants"]
    assert residual.result["degree"] == 6 and residual.result["genus"] == 2
    assert by_name["residual-span-dimension"].result["span_dimension"] == 4
    final = by_name["degree-exceeds-linear-section"]
    assert final.result == {"residual_degree": 6, "section_curve_degree": 5}


def _row(family, route, d, g):
    (case,) = [c for c in load_cases()
               if (c.family, c.route, c.construction, c.d, c.g) == (family, route, "main", d, g)]
    return case


def _checks_of(case):
    return {c.name: c for c in verify_case(case).checks}


# Fictional ambient rows, patched in once the table is loaded (the loader
# builds every row's lattice): the proofs' ambient numbers must follow them.
def _with_h_square(family, h_square):
    """FAMILIES[family] with H^2 = h_square and its other fields kept."""
    spec = FAMILIES[family]
    return FamilySpec(family, h_square, spec.index_multiplier, spec.cutting_bound,
                      spec.derived_constants)


def test_v4_forms_live_on_the_slice_span(monkeypatch):
    # H^2 = 10 puts the slice in P^6, its section genus.
    case = _row("v4", "construction", 7, 0)
    monkeypatch.setitem(FAMILIES, "v4", _with_h_square("v4", 10))
    check = _checks_of(case)["forms-through-curve-but-not-surface"]
    assert check.inputs == {"ambient_dim": 6, "forms_degree": 2, "d": 7, "g": 0}


def test_special_restriction_fails_the_forms_check_with_its_reason(monkeypatch):
    # With H^2 = 2 the v4 row (9,20) restricts quadrics to 2*9 + 1 - 20 = -1
    # sections, where the curve's lower bound is refused.
    monkeypatch.setitem(FAMILIES, "v4", _with_h_square("v4", 2))
    case = CaseRecord(case_id=1, family="v4", d=9, g=20, expected="Realizable")
    check = _checks_of(case)["forms-through-curve-but-not-surface"]
    assert not check.passed
    assert check.result == {
        "reason": "restricted count -1 < 0; the bound formula needs a nonspecial restriction",
        "surface_sections": 0}


def test_v5_without_a_degree_two_split_has_an_empty_branch(monkeypatch):
    # With H^2 = 2 the surface class has no split in the Grassmannian, so
    # the split check fails and the degree-2 branch has nothing to exclude.
    case = _row("v5", "construction", 7, 0)
    monkeypatch.setitem(FAMILIES, "v5", _with_h_square("v5", 2))
    checks = _checks_of(case)
    assert not checks["surface-class-splits-in-grassmannian"].passed
    branch = checks["degree-two-span-three-branch-contradiction"]
    assert branch.passed and branch.inputs == {"split": None}


@pytest.mark.parametrize("family, h_square, d, g, pencil", [
    ("v5", 12, 9, 0, "pencil-degree-four-expected-dimension"),
    ("x14", 16, 5, 0, "pencil-degree-five-expected-dimension")])
def test_bundle_checks_read_the_section_genus_and_square(monkeypatch, family, h_square, d, g,
                                                         pencil):
    case = _row(family, "construction", d, g)
    monkeypatch.setitem(FAMILIES, family, _with_h_square(family, h_square))
    checks = _checks_of(case)
    genus = h_square // 2 + 1
    assert checks[pencil].inputs["g"] == genus
    assert checks["surface-class-splits-in-grassmannian"].inputs["t_square"] == h_square
    if family == "x14":
        assert checks["residual-series-free"].inputs["genus"] == genus
        # The donor window [4, g - 1] is read on the same g.
        donors = checks["donor-family-squares-negative"].inputs
        assert donors["section_genus"] == genus
        assert donors["degree_window"] == [4, genus - 1]


def test_x14_citations_name_the_section_genus(monkeypatch):
    # Mukai's linear-section theorem is cited at the section curve's genus,
    # which the proofs compute from FAMILIES["x14"]; a cited statement that
    # names another genus has parted from the row.  With H^2 = 16 every
    # citation follows the family to genus 9.
    def named():
        return sorted((cert.case.route, int(genus))
                      for cert in run_all(family="x14").certificates for check in cert.checks
                      for genus in re.findall(r"\bgenus[ -](\d+)",
                                              check.result.get("statement", "")))

    assert named() == [("construction", 8)] * 3 + [("contradiction", 8)]
    assert FAMILIES["x14"].section_genus == 8
    monkeypatch.setitem(FAMILIES, "x14", _with_h_square("x14", 16))
    assert named() == [("construction", 9)] * 3 + [("contradiction", 9)]


def test_v5_contradiction_reads_the_threefold_degree(monkeypatch):
    # A degree-7 threefold spans P^8.
    case = _row("v5", "contradiction", 14, 10)
    monkeypatch.setitem(lattice.AMBIENTS, "v5", (2, 7))
    checks = _checks_of(case)
    assert checks["two-hyperplanes-contain-residual"].inputs["ambient_projective_dim"] == 8
    assert checks["degree-exceeds-linear-section"].inputs == {"threefold_degree": 7}
    assert checks["degree-exceeds-linear-section"].result["section_curve_degree"] == 7


def test_case17_certificate_contents():
    report = run_all(case_id=17)
    cert = report.certificates[0]
    assert cert.computed == "NotRealizable"
    by_name = {c.name: c for c in cert.checks}
    assert by_name["curve-section-count"].result["h0"] == 3
    assert by_name["curve-cuts-plane-series-on-section"].result["series"] == "g^2_7"


def test_case72_carries_table_note():
    report = run_all(case_id=72)
    cert = report.certificates[0]
    assert cert.case.family == "quadric"
    assert any("secant table note" in note for note in cert.discrepancies)


def test_residual_construction_cases():
    for case_id, seed in ((69, (8, 3)), (42, (7, 2))):
        cert = run_all(case_id=case_id).certificates[0]
        assert cert.case.family == "v5"
        by_name = {c.name: c for c in cert.checks}
        residual = by_name["residual-member-invariants"]
        assert residual.kind == "derived-extension"
        assert residual.inputs["seed_d"] == seed[0]
        assert residual.inputs["seed_g"] == seed[1]
        assert residual.result["degree"] == cert.case.d


def test_sporadic_pipelines_split_on_genus():
    by_ambient = {c.case.ambient: c for c in run_all(family="sporadic").certificates}
    x10 = {c.name for c in by_ambient["X10"].checks}
    assert "hirzebruch-sweep-empty" in x10
    assert "plane-has-no-class-of-square" in x10
    assert "canonical-square-exceeds-noether-bound" in x10
    for ambient in ("X16", "X18"):
        names = {c.name for c in by_ambient[ambient].checks}
        assert "bisecant-exclusion-genus-gate" in names
        assert "hirzebruch-sweep-empty" not in names


def test_report_is_bit_reproducible():
    first = report_to_json(run_all())
    second = report_to_json(run_all())
    assert first == second


GOLDEN_REPORT_SHA256 = "b6843a0c3169fe6259d16e468f507b910f0030ac51f0fcb09d3666ce9e5d1a54"


def test_report_matches_golden_hash():
    payload = report_to_json(run_all())
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_REPORT_SHA256


def test_report_schema_and_field_order():
    payload = report_to_json(run_all(case_id=48))
    data = json.loads(payload)
    assert list(data) == ["version", "summary", "certificates"]
    assert data["version"] == 1
    cert = data["certificates"][0]
    assert list(cert) == ["case_id", "family", "d", "g", "expected",
                          "computed", "checks", "discrepancies"]
    for check in cert["checks"]:
        assert list(check) == ["name", "paper_ref", "inputs", "result",
                               "witnesses", "kind"]
        assert check["kind"] in ("verified", "cited-rule", "derived-extension")
        assert check["result"]["status"] in ("pass", "fail")


def test_report_has_no_floats():
    def walk(node):
        assert not isinstance(node, float) or isinstance(node, bool)
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(json.loads(report_to_json(run_all())))


def test_table_override(tmp_path):
    table = {
        "version": 1,
        "cases": [
            {"id": 48, "family": "quadric", "d": 13, "g": 14, "expected": "Realizable"},
            {"id": 148, "family": "quadric", "d": 13, "g": 14, "expected": "Open"},
        ],
    }
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    report = run_all(table=str(path))
    assert report.summary["cases"] == 2
    # the flipped expectation is detected as a mismatch, not silently accepted
    assert report.summary["mismatch"] == 1


def test_malformed_table_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for payload in (b'{"cases": [{"id": 1}]}', b"not json", b'{"cases": 5}',
                    b'{"cases": null}', b'{"cases": "abc"}', b"[1]",
                    b'{"cases": []}\xff'):
        path.write_bytes(payload)
        with pytest.raises(CaseTableError):
            load_cases(str(path))
        assert main(["verify", "--table", str(path)]) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("fanocert: ") and err.count("\n") == 1, payload


def _embedded_entries():
    return json.loads(resources.files("fanocert").joinpath("data/cases.json").read_text())


@pytest.mark.parametrize("key, value", [
    ("id", "abc"), ("d", "nine"), ("g", 2.5), ("d", float("nan")), ("g", float("inf")),
    ("seed_d", "x"), ("seed_g", 1.5), ("id", True), ("d", "7"),
])
def test_non_integer_field_is_a_table_error(tmp_path, capsys, key, value):
    table = _embedded_entries()
    table["cases"][0][key] = value
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CaseTableError, match=f"case field '{key}' must be an integer"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_duplicate_case_row_is_a_table_error(tmp_path, capsys):
    table = _embedded_entries()
    row = table["cases"][0]
    table["cases"].append(dict(row))
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    message = f"duplicate case row: id {row['id']}, family {row['family']!r}"
    with pytest.raises(CaseTableError, match=f"^{message}$"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path), "--case", str(row["id"])]) == 2
    assert capsys.readouterr().err == f"fanocert: {message}\n"


def test_schema_errors_keep_their_message(tmp_path):
    table = _embedded_entries()
    table["cases"][0]["family"] = "cubic"
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CaseTableError, match="^unknown family 'cubic'$"):
        load_cases(str(path))


# A rank-1 ambient with a row in the ambient table is still no sporadic one.
@pytest.mark.parametrize("ambient", ["X12", "x14", "v5", "quadric"])
def test_unknown_sporadic_ambient_is_a_table_error(tmp_path, capsys, ambient):
    table = _embedded_entries()
    case3 = next(c for c in table["cases"] if c["id"] == 3)
    assert case3["family"] == "sporadic"
    case3["ambient"] = ambient
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CaseTableError, match=f"unknown sporadic ambient '{ambient}'"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path)]) == 2
    assert ambient in capsys.readouterr().err


@pytest.mark.parametrize("d, g", [(5, 1), (3, 1), (4, 0)])
def test_sporadic_row_off_the_twisted_cubic_is_a_table_error(tmp_path, capsys, d, g):
    # The sporadic pipeline never reads d or g, so an unrefused row off
    # (3, 0) would be certified Realizable without a single check on it.
    table = _embedded_entries()
    table["cases"] = [c for c in table["cases"] if c["id"] != 3]
    table["cases"].append({"id": 3, "family": "sporadic", "d": d, "g": g,
                           "ambient": "X10", "expected": "Realizable"})
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    message = rf"^sporadic cases need \(d,g\)=\(3,0\), got \({d},{g}\)$"
    with pytest.raises(CaseTableError, match=message):
        load_cases(str(path))
    assert main(["verify", "--table", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and f"({d},{g})" in captured.err


# Rows whose tags name a proof their family lacks, or carry a tag no proof
# of the row reads.  Accepted, each printed "ok": the first five with a
# verdict copied from their tags, the last three with a tag nothing checked
# (the ambient was even copied into the report).
UNPROVABLE_ROWS = {
    "quadric-contradiction": {"id": 44, "family": "quadric", "d": 9, "g": 2,
                              "expected": "NotRealizable", "route": "contradiction"},
    "v4-contradiction": {"id": 30, "family": "v4", "d": 7, "g": 0,
                         "expected": "NotRealizable", "route": "contradiction"},
    "sporadic-contradiction": {"id": 3, "family": "sporadic", "ambient": "X10",
                               "d": 3, "g": 0, "expected": "NotRealizable",
                               "route": "contradiction"},
    "quadric-residual": {"id": 44, "family": "quadric", "d": 9, "g": 2,
                         "expected": "Realizable", "construction": "residual",
                         "seed_d": 8, "seed_g": 3},
    "ambiguous-contradiction": {"id": 43, "family": "v5", "d": 14, "g": 10,
                                "expected": "NotRealizable", "route": "contradiction",
                                "smallness": "ambiguous"},
    "quadric-ambient-and-seeds": {"id": 1, "family": "quadric", "d": 8, "g": 0,
                                  "expected": "Realizable", "ambient": "X10",
                                  "seed_d": 7, "seed_g": 1},
    "quadric-seed": {"id": 71, "family": "quadric", "d": 8, "g": 0,
                     "expected": "Realizable", "seed_g": 1},
    "v5-main-seeds": {"id": 81, "family": "v5", "d": 9, "g": 2, "expected": "Realizable",
                      "seed_d": 8, "seed_g": 3},
}


@pytest.mark.parametrize("row", UNPROVABLE_ROWS.values(), ids=UNPROVABLE_ROWS)
def test_row_without_a_matching_proof_is_a_table_error(tmp_path, capsys, row):
    table = _embedded_entries()
    table["cases"] = [c for c in table["cases"]
                      if (c["id"], c["family"]) != (row["id"], row["family"])]
    table["cases"].append(row)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CaseTableError):
        load_cases(str(path))
    assert main(["verify", "--table", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fanocert: ")


def test_unknown_entry_key_is_a_table_error(tmp_path, capsys):
    # Case 47 is one of the five open cases.  Spelled "smalness", its tag fell
    # back to the default "table-absent", and the row was certified Realizable.
    row = {"id": 47, "family": "quadric", "d": 12, "g": 11, "expected": "Realizable",
           "smalness": "ambiguous"}
    table = _embedded_entries()
    embedded = next(c for c in table["cases"] if (c["id"], c["family"]) == (47, "quadric"))
    assert embedded == {**{k: v for k, v in row.items() if k != "smalness"},
                        "expected": "Open", "smallness": "ambiguous"}
    table["cases"] = [c for c in table["cases"] if c is not embedded] + [row]
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    message = "unknown case entry key 'smalness'"
    with pytest.raises(CaseTableError, match=f"^{message}$"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanocert: {message}\n"


def test_contradiction_verdict_follows_its_checks(monkeypatch):
    # A residual span one too large leaves the degree comparison unproved,
    # so case 43 is no longer NotRealizable although its tags are unchanged.
    monkeypatch.setattr(pipelines, "span_dimension_bound", lambda degree, genus: 5)
    cert = run_all(case_id=43).certificates[0]
    assert cert.computed == "Unverified" and not cert.matches
    failed = [c.name for c in cert.checks if not c.passed]
    assert failed == ["residual-span-dimension", "two-hyperplanes-contain-residual"]


def test_verify_case_detects_regressions():
    case = load_cases()[0]
    cert = verify_case(case)
    assert cert.matches


# SHA-256 of every census pair's verify_case outcome, in census order: each
# pair as a construction row, and v5 and x14 pairs also as contradiction
# rows.  Each outcome is the JSON of the verdict, checks and discrepancies,
# followed by a newline.  Every certificate also passes through the report
# writer without a refusal.
CENSUS_OUTCOMES_SHA256 = "796558671fd372acc6a11b8d21998f6eee41432f68ca8ce27f91c0c7654fc6fd"


# The computed check names (all but passing cited-rule checks, every
# special-donor-(a,b) counted as one name) that never fail on the 1,165
# census certificates nor on the 42 table rows: 17 of the 37 that occur.
NEVER_FAILING_CHECKS = {
    "ambient-genus", "bisecant-exclusion-genus-gate", "bundle-section-count",
    "canonical-square-exceeds-noether-bound", "degree-two-span-three-branch-contradiction",
    "hirzebruch-sweep-empty", "pencil-degree-five-expected-dimension",
    "pencil-degree-four-expected-dimension", "picard-lattice-signature",
    "plane-has-no-class-of-square", "residual-of-degree-five-pencil",
    "residual-of-degree-four-pencil", "residual-seed-not-rational", "residual-series-free",
    "surface-class-splits-in-grassmannian", "surface-lies-on-a-quadric",
    "surface-quadric-net-dimension",
}


def _check_name(check):
    return "special-donor-(a,b)" if check.name.startswith("special-donor-") else check.name


def _tally_computed_checks(cert, occurs, fails):
    # A special donor left unresolved fails as a cited-rule check, so only a
    # passing cited-rule check is left out.
    for check in cert.checks:
        if check.kind == CITED and check.passed:
            continue
        name = _check_name(check)
        occurs.add(name)
        if not check.passed:
            fails.add(name)


def test_census_outcomes_are_pinned():
    digest = hashlib.sha256()
    tally = {}
    occurs, fails = set(), set()
    for name, d, g, _ in census_lattices():
        routes = ("construction", "contradiction") if name in ("v5", "x14") else ("construction",)
        for route in routes:
            case = CaseRecord(case_id=1, family=name, d=d, g=g, expected="Realizable",
                              route=route)
            cert = verify_case(case)
            line = json.dumps([cert.computed, [c.to_dict() for c in cert.checks],
                               list(cert.discrepancies)], sort_keys=True)
            # the pin digests with json.dumps; the writer must take it too
            report_to_json(Report(certificates=(cert,)))
            _tally_computed_checks(cert, occurs, fails)
            tally[route] = tally.get(route, 0) + 1
            digest.update((line + "\n").encode())
    assert tally == {"construction": 721, "contradiction": 444}
    assert digest.hexdigest() == CENSUS_OUTCOMES_SHA256
    # Which computed checks fail on some input here.  One that never does
    # has not shown that it can fail (ROADMAP item 16).
    for cert in run_all().certificates:
        _tally_computed_checks(cert, occurs, fails)
    assert len(occurs) == 37
    assert occurs - fails == NEVER_FAILING_CHECKS
    assert occurs == NEVER_FAILING_CHECKS | FAILING_CHECK_ROWS.keys()
    assert not NEVER_FAILING_CHECKS & FAILING_CHECK_ROWS.keys()


# For each of the other 20 computed check names, one census row on which
# verify_case fails it: (family, d, g, route), a construction row unless
# the route says otherwise.
FAILING_CHECK_ROWS = {
    "adjoint-class-free": ("quadric", 9, 0, "construction"),
    "adjoint-class-nef": ("quadric", 9, 0, "construction"),
    "anticanonical-degree-positive": ("quadric", 9, 0, "construction"),
    "curve-cuts-plane-series-on-section": ("x14", 1, 0, "contradiction"),
    "curve-section-count": ("x14", 1, 0, "contradiction"),
    "degree-exceeds-linear-section": ("v5", 15, 0, "contradiction"),
    "donor-family-squares-negative": ("x14", 14, 0, "construction"),
    "fixed-moving-square-contradiction": ("x14", 1, 0, "construction"),
    "fixed-part-cannot-contain-curve": ("x14", 1, 0, "construction"),
    "forms-through-curve-but-not-surface": ("quadric", 10, 0, "construction"),
    "hyperplane-splitting-band": ("v5", 1, 1, "construction"),
    "no-conic-classes": ("x14", 1, 1, "construction"),
    "no-line-classes": ("v5", 1, 0, "construction"),
    "residual-member-invariants": ("v5", 1, 0, "contradiction"),
    "residual-span-dimension": ("v5", 1, 0, "contradiction"),
    "section-minus-curve-not-effective": ("v5", 1, 0, "construction"),
    "singular-ambient-excluded": ("quadric", 1, 1, "construction"),
    # special-donor-(0,2), of square -8, is unresolved there.
    "special-donor-(a,b)": ("x14", 3, 0, "construction"),
    "trisecant-line-exists": ("quadric", 1, 0, "construction"),
    "two-hyperplanes-contain-residual": ("v5", 7, 0, "contradiction"),
}


@pytest.mark.parametrize("name", sorted(FAILING_CHECK_ROWS))
def test_each_failing_check_fails_on_its_census_row(name):
    family, d, g, route = FAILING_CHECK_ROWS[name]
    case = CaseRecord(case_id=1, family=family, d=d, g=g, expected="Realizable", route=route)
    assert name in [_check_name(check) for check in verify_case(case).checks
                    if not check.passed]


# Embedded construction rows, as --table rows.
QUADRIC_ROW = {"id": 105, "family": "quadric", "d": 7, "g": 1, "expected": "Realizable"}
V4_ROW = {"id": 84, "family": "v4", "d": 7, "g": 2, "expected": "Realizable"}
V5_ROW = {"id": 101, "family": "v5", "d": 7, "g": 0, "expected": "Realizable"}
X14_ROW = {"id": 5, "family": "x14", "d": 5, "g": 0, "expected": "Realizable"}
X10_ROW = {"id": 3, "family": "sporadic", "ambient": "X10", "d": 3, "g": 0,
           "expected": "Realizable"}


# For each name in NEVER_FAILING_CHECKS that some input can fail, one input
# outside the census on which verify_case fails it: a --table row, and an
# ambient table entry patched in once the row is loaded (as in the tests of
# fictional ambients above), or None.  A ("FAMILIES", name, h) patch gives
# that family H^2 = h, an ("AMBIENTS", name, (r, n)) patch that ambient
# index r and degree n.
FAILING_OFF_CENSUS = {
    "ambient-genus": (X10_ROW, ("AMBIENTS", "X10", (1, 9))),
    "bundle-section-count": (V5_ROW, ("FAMILIES", "v5", 12)),
    "canonical-square-exceeds-noether-bound": (X10_ROW, ("AMBIENTS", "X10", (1, 4))),
    "hirzebruch-sweep-empty": (X10_ROW, ("AMBIENTS", "X10", (1, 4))),
    "pencil-degree-five-expected-dimension": (X14_ROW, ("FAMILIES", "x14", 16)),
    "pencil-degree-four-expected-dimension": (V5_ROW, ("FAMILIES", "v5", 12)),
    "plane-has-no-class-of-square": (X10_ROW, ("AMBIENTS", "X10", (1, 4))),
    "residual-of-degree-five-pencil": (X14_ROW, ("FAMILIES", "x14", 16)),
    "residual-of-degree-four-pencil": (V5_ROW, ("FAMILIES", "v5", 12)),
    # A seed curve of genus 0 is rational.
    "residual-seed-not-rational": ({"id": 1, "family": "v5", "d": 14, "g": 8,
                                    "expected": "Realizable", "construction": "residual",
                                    "seed_d": 6, "seed_g": 0}, None),
    "residual-series-free": (X14_ROW, ("FAMILIES", "x14", 16)),
    "surface-class-splits-in-grassmannian": (V5_ROW, ("FAMILIES", "v5", 12)),
    "surface-lies-on-a-quadric": (QUADRIC_ROW, ("FAMILIES", "quadric", 4)),
    "surface-quadric-net-dimension": (V4_ROW, ("FAMILIES", "v4", 10)),
}

# The names in NEVER_FAILING_CHECKS that no input can fail, with the reason.
UNFAILABLE_CHECKS = {
    "bisecant-exclusion-genus-gate": "built only inside the `if` on the genus gate it tests",
    "degree-two-span-three-branch-contradiction": (
        "c2 is 4, so the degree-2 split has b = 2 and is never the forced class (5, 0); "
        "without a degree-2 split the branch is empty"),
    "picard-lattice-signature": (
        "make_family_lattice refuses det >= 0 first, in the loader and in the proof"),
}


def test_never_failing_checks_each_fail_off_the_census_or_cannot_fail():
    assert FAILING_OFF_CENSUS.keys() | UNFAILABLE_CHECKS.keys() == NEVER_FAILING_CHECKS
    assert not FAILING_OFF_CENSUS.keys() & UNFAILABLE_CHECKS.keys()


@pytest.mark.parametrize("name", sorted(FAILING_OFF_CENSUS))
def test_each_never_failing_check_fails_off_the_census(tmp_path, monkeypatch, name):
    row, patch = FAILING_OFF_CENSUS[name]
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"version": 1, "cases": [row]}))
    (case,) = load_cases(str(path))
    if patch is not None:
        table, key, value = patch
        if table == "FAMILIES":
            value = _with_h_square(key, value)
        monkeypatch.setitem(getattr(lattice, table), key, value)
    assert name in [check.name for check in verify_case(case).checks if not check.passed]


def test_certificate_witnesses_reverify_through_pairing():
    from fanocert.lattice import DivisorClass, make_family_lattice

    for cert in run_all().certificates:
        if cert.case.family == "sporadic":
            continue
        lattice = make_family_lattice(FAMILIES[cert.case.family],
                                      cert.case.d, cert.case.g)
        for check in cert.checks:
            if check.name != "adjoint-class-nef":
                continue
            for witness in check.witnesses:
                cls = DivisorClass(*witness["class"])
                assert lattice.degree(cls) == witness["degree"]
                assert lattice.pair(cls, cls) == 2 * witness["arithmetic_genus"] - 2
                assert lattice.pair(cls, DivisorClass(0, 1)) == witness["meets_curve"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify", "--all", "--strict"]) == 0
    capsys.readouterr()

    # bare "verify" defaults to all cases
    assert main(["verify"]) == 0
    assert "cases=42" in capsys.readouterr().out

    assert main(["verify", "--case", "999"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err

    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    assert main(["verify", "--table", str(bad)]) == 2
    capsys.readouterr()

    flipped = {
        "version": 1,
        "cases": [{"id": 48, "family": "quadric", "d": 13, "g": 14,
                   "expected": "Open"}],
    }
    table = tmp_path / "flip.json"
    table.write_text(json.dumps(flipped))
    assert main(["verify", "--table", str(table)]) == 0
    capsys.readouterr()
    assert main(["verify", "--table", str(table), "--strict"]) == 1
    capsys.readouterr()

    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "nonexistent"])
    assert err.value.code == 2
    capsys.readouterr()


def _one_row_table(tmp_path, family, d, g, **tags):
    table = {"version": 1, "cases": [{"id": 1, "family": family, "d": d, "g": g,
                                      "expected": "Realizable", **tags}]}
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    return path


# (family, d, g, message, residual seed or None); the id leaves the seed out.
ROWS_WITHOUT_A_LATTICE = [
    ("quadric", 0, 0, "curve degree must be >= 1", None),
    ("v4", 5, -1, "curve genus must be >= 0", None),
    ("v5", 3, 5, "lattice for v5 (d=3, g=5) has determinant 71 >= 0; "
                 "signature (1,1) is required", None),
    ("v5", 12, 7, "seed curve degree must be >= 1", (0, 3)),
    ("v5", 12, 7, "seed lattice for v5 (d=3, g=5) has determinant 71 >= 0; "
                  "signature (1,1) is required", (3, 5)),
]


@pytest.mark.parametrize("family, d, g, message, seed", ROWS_WITHOUT_A_LATTICE,
                         ids=["-".join(map(str, row[:4])) for row in ROWS_WITHOUT_A_LATTICE])
def test_row_without_a_picard_lattice_is_a_table_error(tmp_path, capsys, family, d, g, message,
                                                       seed):
    # Every non-sporadic proof builds the row's lattice, and a residual one
    # its seed's, so a row or seed with d < 1, g < 0 or det >= 0 is refused
    # by the loader (exit 2) rather than escaping a proof as an internal
    # error (exit 3).
    tags = {} if seed is None else {"construction": "residual", "seed_d": seed[0],
                                    "seed_g": seed[1]}
    path = _one_row_table(tmp_path, family, d, g, **tags)
    full = f"case 1 {family} (d,g)=({d},{g}): {message}"
    with pytest.raises(CaseTableError, match=f"^{re.escape(full)}$"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanocert: {full}\n"


@pytest.mark.parametrize("family, d, g", [("quadric", 18, 0), ("quadric", 40, 134)])
def test_construction_row_past_the_cutting_bound_is_a_table_error(tmp_path, capsys, family, d, g):
    # A construction's secant table needs d below the cutting bound; past
    # it, these rows would escape the proof as SecantBoundError, an
    # internal error (exit 3).
    path = _one_row_table(tmp_path, family, d, g)
    full = (f"case 1 {family} (d,g)=({d},{g}): a construction needs d below the "
            f"cutting bound {FAMILIES[family].cutting_bound} of {family}")
    with pytest.raises(CaseTableError, match=f"^{re.escape(full)}$"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanocert: {full}\n"


@pytest.fixture
def int_digit_limit():
    """The interpreter's int-string limit, CPython's default where it is off."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before or 4300)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before)


def _assert_one_line_exit(argv, code, capsys, prefix):
    assert main(argv) == code
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(prefix), line
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("shape", ["long-integer", "deep-nesting"])
def test_table_past_the_parser_limits_is_a_table_error(tmp_path, capsys, int_digit_limit,
                                                       shape):
    # An integer longer than the int-string limit and nesting deeper than
    # the recursion limit are unreadable tables (exit 2), not internal errors.
    if shape == "long-integer":
        d = "9" * (int_digit_limit + 701)
        text = ('{"cases": [{"id": 1, "family": "x14", "d": %s, "g": 2, '
                '"expected": "NotRealizable"}]}' % d)
    else:
        text = '{"cases": ' + "[" * 200_000 + "]" * 200_000 + "}"
    path = tmp_path / "override.json"
    path.write_text(text)
    _assert_one_line_exit(["verify", "--table", str(path)], 2, capsys,
                          "fanocert: unreadable case table: ")


def test_report_integer_past_the_limit_is_an_internal_error(tmp_path, capsys,
                                                            int_digit_limit):
    # d prints, but the signature check's determinant, about d^2, has more
    # digits than the writer may print: one line, exit 3, no report file.
    d = 10 ** (int_digit_limit // 2 + 100) + 1
    path = _one_row_table(tmp_path, "x14", d, 2, route="contradiction")
    report_path = tmp_path / "report.json"
    _assert_one_line_exit(["verify", "--table", str(path), "--json", str(report_path)],
                          3, capsys, "fanocert: internal error: ValueError: ")
    assert not report_path.exists()


def test_contradiction_row_past_the_cutting_bound_is_accepted(tmp_path):
    path = _one_row_table(tmp_path, "x14", 30, 2, route="contradiction")
    assert run_all(table=str(path)).certificates[0].computed == "Unverified"


def test_loader_accepts_a_construction_row_exactly_on_census_pairs():
    # So the census pin covers every construction row the loader accepts.
    census = {(name, d, g) for name, d, g, _ in census_lattices()}
    accepted = set()
    for name, family in FAMILIES.items():
        top = 2 * family.cutting_bound
        for d in range(top + 1):
            for g in range(-1, top * top // (2 * family.h_square) + 3):
                try:
                    CaseRecord(case_id=1, family=name, d=d, g=g, expected="Realizable")
                except CaseTableError:
                    continue
                accepted.add((name, d, g))
    assert len(census) == 721
    assert accepted == census


def test_pipeline_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # exit 1 means a mismatch under --strict; an exception escaping a
    # pipeline is reported on one line and exits 3.  No proof raises on a
    # row the loader accepts, so one is made to.
    def broken(case):
        raise RuntimeError(f"no proof of {case.label()}")

    monkeypatch.setitem(pipelines.PIPELINES, ("v4", "construction", "main"), broken)
    path = _one_row_table(tmp_path, "v4", 15, 0)
    assert main(["verify", "--table", str(path)]) == 3
    assert main(["verify", "--table", str(path), "--strict"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "fanocert: internal error: RuntimeError: no proof of case 1 v4 (d,g)=(15,0)"] * 2


def test_every_census_row_ends_in_a_certificate(tmp_path, capsys):
    # One table of every row the loader accepts off the sporadic family:
    # each census pair as a construction, each v5 and x14 pair also as a
    # contradiction.  A proof that cannot conclude fails a check, so the
    # run ends in a verdict per row (exit 0 or 1), never an internal error.
    rows = []
    for name, d, g, _ in census_lattices():
        rows.append({"id": len(rows) + 1, "family": name, "d": d, "g": g,
                     "expected": "Realizable"})
        if name in ("v5", "x14"):
            rows.append({"id": len(rows) + 1, "family": name, "d": d, "g": g,
                         "expected": "NotRealizable", "route": "contradiction"})
    assert len(rows) == 721 + 444
    path = tmp_path / "census.json"
    path.write_text(json.dumps({"version": 1, "cases": rows}))
    assert main(["verify", "--table", str(path), "--strict"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == len(rows) + 1


# A box wider than the census on every side: d from below 1 to 60, past
# twice every cutting bound, and g from below 0 to 199, past every genus
# the loader accepts at d <= 60 (the largest is 180, a v5 contradiction).
BOX_DEGREES, BOX_GENERA = range(-2, 61), range(-2, 200)
SMALLNESS_TAGS = ("table-absent", "ambiguous")


def _accepted_box_rows():
    """Every row of the box the loader accepts, for every main proof of the
    four families and under both smallness tags."""
    rows = []
    for family, route, construction in pipelines.PIPELINES:
        if family == "sporadic" or construction != "main":
            continue
        for smallness in SMALLNESS_TAGS:
            for d in BOX_DEGREES:
                for g in BOX_GENERA:
                    try:
                        rows.append(CaseRecord(case_id=len(rows) + 1, family=family, d=d, g=g,
                                               expected="Realizable", route=route,
                                               smallness=smallness))
                    except CaseTableError:
                        continue
    return rows


def test_no_row_the_loader_accepts_in_a_box_past_the_census_raises(tmp_path, capsys):
    # Each row ends in a certificate, in process and as one --table run.
    # Contradictions have no cutting bound and conclude no Open, so they
    # fill the box under the first tag alone.
    rows = _accepted_box_rows()
    assert Counter(row.smallness for row in rows) == {"table-absent": 7236, "ambiguous": 721}
    assert Counter(row.route for row in rows) == {"construction": 1442, "contradiction": 6515}
    assert {verify_case(row).computed for row in rows} <= {*VERDICTS, UNVERIFIED}
    entries = [{"id": row.case_id, "family": row.family, "d": row.d, "g": row.g,
                "expected": row.expected, "route": row.route, "smallness": row.smallness}
               for row in rows]
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"version": 1, "cases": entries}))
    assert main(["verify", "--table", str(path), "--strict"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == len(rows) + 1


V5_PAIRS = [(d, g) for name, d, g, _ in census_lattices() if name == "v5"]
# Seeds up to four times the v5 cutting bound, each degree with genera from
# below 0 to past its last one with det < 0, so that most draws are accepted.
SEEDS = st.integers(-5, 80).flatmap(
    lambda seed_d: st.tuples(st.just(seed_d), st.integers(-5, seed_d * seed_d // 20 + 5)))


@settings(deadline=None)
@given(st.sampled_from(V5_PAIRS), SEEDS, st.sampled_from(SMALLNESS_TAGS))
def test_no_v5_residual_row_the_loader_accepts_raises(pair, seed, smallness):
    (d, g), (seed_d, seed_g) = pair, seed
    try:
        case = CaseRecord(case_id=1, family="v5", d=d, g=g, expected="Realizable",
                          smallness=smallness, construction="residual",
                          seed_d=seed_d, seed_g=seed_g)
    except CaseTableError:
        assume(False)
    assert verify_case(case).computed in (*VERDICTS, UNVERIFIED)


def test_every_row_accepted_under_a_patched_square_ends_in_a_certificate(monkeypatch):
    # Each family under every even H^2 from 2 to 30, with its rows built
    # after the patch so that the loader judges them on the patched lattice.
    # A small H^2 leaves v5 without a degree-2 split, gives the pencils
    # residuals outside the canonical series and makes v4's restriction
    # special; each such proof fails a check instead of raising.
    computed = Counter()
    for name in list(FAMILIES):
        degrees = range(1, FAMILIES[name].cutting_bound)
        for h_square in range(2, 31, 2):
            monkeypatch.setitem(FAMILIES, name, _with_h_square(name, h_square))
            for route in ("construction", "contradiction"):
                for d in degrees:
                    for g in range(30):
                        try:
                            case = CaseRecord(case_id=1, family=name, d=d, g=g,
                                              expected="Realizable", route=route)
                        except CaseTableError:
                            continue
                        computed[verify_case(case).computed] += 1
    assert sum(computed.values()) == 16723
    assert computed.keys() <= {*VERDICTS, UNVERIFIED}


# The series checks of the two bundle constructions, on an embedded row.
# Each compares the residuation formula or the Brill-Noether count with one
# valid series, which it meets at the family's own section genus alone.
SERIES_CHECKS = {
    "v5": ((7, 0), ["pencil-degree-four-expected-dimension",
                    "residual-of-degree-four-pencil"]),
    "x14": ((5, 0), ["pencil-degree-five-expected-dimension",
                     "residual-of-degree-five-pencil", "residual-series-free"]),
}


@pytest.mark.parametrize("family", sorted(SERIES_CHECKS))
def test_series_checks_pass_only_at_the_family_square(monkeypatch, family):
    (d, g), names = SERIES_CHECKS[family]
    case = _row(family, "construction", d, g)
    real = FAMILIES[family].h_square
    passing = []
    for h_square in range(2, 61, 2):
        monkeypatch.setitem(FAMILIES, family, _with_h_square(family, h_square))
        passing += [(h_square, check.name) for check in verify_case(case).checks
                    if check.name in names and check.passed]
    assert passing == [(real, name) for name in names]


def test_quadric_row_below_degree_three_reads_unverified(tmp_path, capsys):
    # The Berzolari count needs d >= 3, so a line or conic fails the
    # trisecant check with its reason instead of escaping as an error.
    path = _one_row_table(tmp_path, "quadric", 2, 0)
    assert main(["verify", "--table", str(path), "--explain"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "computed Unverified" in captured.out
    cert = run_all(table=str(path)).certificates[0]
    assert cert.computed == "Unverified"
    failed = [c for c in cert.checks if not c.passed]
    assert [c.name for c in failed] == ["trisecant-line-exists"]
    assert "needs d >= 3" in failed[0].result["reason"]


def test_contradiction_refusals_read_unverified(tmp_path, capsys):
    # A residual member of special degree has no span bound (v5), and a
    # curve class of square 0 has undetermined sections (x14): each fails
    # its check with the refusal as the reason instead of escaping as an
    # internal error, and the check that would read the refused value is
    # not built.
    rows = [{"id": 1, "family": "v5", "d": 7, "g": 2, "expected": "NotRealizable",
             "route": "contradiction"},
            {"id": 2, "family": "x14", "d": 6, "g": 1, "expected": "NotRealizable",
             "route": "contradiction"}]
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"version": 1, "cases": rows}))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--table", str(path), "--json", str(report_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("computed Unverified") == 2
    refused = {"residual-span-dimension": "span bound needs deg > 2g-2, got deg=13, g=8",
               "curve-section-count": "h0-undetermined for square 0 (nef_hint=True)"}
    absent = {"two-hyperplanes-contain-residual", "curve-cuts-plane-series-on-section"}
    for cert in json.loads(report_path.read_text())["certificates"]:
        assert cert["computed"] == "Unverified"
        checks = {c["name"]: c["result"] for c in cert["checks"]}
        assert not absent & set(checks)
        (name,) = set(refused) & set(checks)
        assert checks[name] == {"status": "fail", "reason": refused[name]}


def test_cli_json_output_is_stable(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--all", "--json", str(first)]) == 0
    assert main(["verify", "--all", "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_cli_empty_json_path_is_refused(capsys):
    # An empty --json path names no file: it is refused like an empty
    # --table path, not skipped as if the option were absent.
    assert main(["verify", "--all", "--json", ""]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("fanocert: cannot write report: ")


def test_cli_explain_lists_checks(capsys):
    assert main(["verify", "--case", "43", "--explain"]) == 0
    captured = capsys.readouterr()
    assert "degree-exceeds-linear-section" in captured.out
    assert "NotRealizable" in captured.out


def test_cli_report_file_matches_golden_hash(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--all", "--strict", "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256


def test_refused_report_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # a refused value is an internal error (exit 3), and the report file is
    # left as it was rather than truncated
    summary = {"cases": 0, "pass": 0, "mismatch": 0, "open": 0, "flagged": 0,
               "ratio": 0.5}
    monkeypatch.setattr("fanocert.cli.run_all",
                        lambda **_: Report(certificates=(), summary=summary))
    path = tmp_path / "report.json"
    path.write_bytes(b'{"version": 1}\n')
    assert main(["verify", "--all", "--json", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fanocert: internal error: ReportValueError: "
        "float at $.summary.ratio; reports are integer-only"]
    assert "Traceback" not in captured.err
    assert path.read_bytes() == b'{"version": 1}\n'
