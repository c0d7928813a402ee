import hashlib
import json
import re
from importlib import resources

import pytest

from fanocert import pipelines
from fanocert.catalog import CaseRecord, CaseTableError, Report, load_cases, run_all, verify_case
from fanocert.cli import main
from fanocert.lattice import FAMILIES, anticanonical_cube
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


def test_unknown_sporadic_ambient_is_a_table_error(tmp_path, capsys):
    table = _embedded_entries()
    case3 = next(c for c in table["cases"] if c["id"] == 3)
    assert case3["family"] == "sporadic"
    case3["ambient"] = "X12"
    path = tmp_path / "override.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CaseTableError, match="unknown sporadic ambient 'X12'"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path)]) == 2
    assert "X12" in capsys.readouterr().err


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
# or the refusal's "ClassName: message", followed by a newline.  Every
# certificate also passes through the report writer without a refusal.
CENSUS_OUTCOMES_SHA256 = "842a9f47c2f467a803a440e585b368ac1f9e3bab9bf8cc05f84a2c6d6b3d6f11"


# The computed check names (all but cited-rule, every special-donor-(a,b)
# counted as one name) that never fail on the 605 census certificates nor
# on the 42 table rows: 22 of the 37 that occur.
NEVER_FAILING_CHECKS = {
    "adjoint-class-free", "ambient-genus", "anticanonical-degree-positive",
    "bisecant-exclusion-genus-gate", "bundle-section-count",
    "canonical-square-exceeds-noether-bound", "degree-two-span-three-branch-contradiction",
    "donor-family-squares-negative", "forms-through-curve-but-not-surface",
    "hirzebruch-sweep-empty", "pencil-degree-five-expected-dimension",
    "pencil-degree-four-expected-dimension", "picard-lattice-signature",
    "plane-has-no-class-of-square", "residual-of-degree-five-pencil",
    "residual-of-degree-four-pencil", "residual-seed-not-rational", "residual-series-free",
    "special-donor-(a,b)", "surface-class-splits-in-grassmannian",
    "surface-lies-on-a-quadric", "surface-quadric-net-dimension",
}


def _tally_computed_checks(cert, occurs, fails):
    for check in cert.checks:
        if check.kind == CITED:
            continue
        name = "special-donor-(a,b)" if check.name.startswith("special-donor-") else check.name
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
            try:
                cert = verify_case(case)
            except ValueError as exc:
                outcome, line = type(exc).__name__, f"{type(exc).__name__}: {exc}"
            else:
                outcome = "certificate"
                line = json.dumps([cert.computed, [c.to_dict() for c in cert.checks],
                                   list(cert.discrepancies)], sort_keys=True)
                # the pin digests with json.dumps; the writer must take it too
                report_to_json(Report(certificates=(cert,)))
                _tally_computed_checks(cert, occurs, fails)
            tally[route, outcome] = tally.get((route, outcome), 0) + 1
            digest.update((line + "\n").encode())
    assert tally == {
        ("construction", "certificate"): 161,
        ("construction", "FreenessInapplicableError"): 552,
        ("construction", "DonorWindowEmptyError"): 8,
        ("contradiction", "certificate"): 444,
    }
    assert digest.hexdigest() == CENSUS_OUTCOMES_SHA256
    # Which computed checks fail on some input here.  One that never does
    # has not shown that it can fail (ROADMAP item 16).
    for cert in run_all().certificates:
        _tally_computed_checks(cert, occurs, fails)
    assert len(occurs) == 37
    assert occurs - fails == NEVER_FAILING_CHECKS


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
    # it, these rows would escape the proof as SecantBoundError and
    # SectionCountError, an internal error (exit 3).
    path = _one_row_table(tmp_path, family, d, g)
    full = (f"case 1 {family} (d,g)=({d},{g}): a construction needs d below the "
            f"cutting bound {FAMILIES[family].cutting_bound} of {family}")
    with pytest.raises(CaseTableError, match=f"^{re.escape(full)}$"):
        load_cases(str(path))
    assert main(["verify", "--table", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanocert: {full}\n"


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


@pytest.mark.parametrize("family, d, g, error", [
    ("v4", 15, 0, "FreenessInapplicableError: "),
])
def test_pipeline_error_is_an_internal_error(tmp_path, capsys, family, d, g, error):
    # exit 1 means a mismatch under --strict; an exception escaping a
    # pipeline is reported on one line and exits 3
    path = _one_row_table(tmp_path, family, d, g)
    assert main(["verify", "--table", str(path)]) == 3
    assert main(["verify", "--table", str(path), "--strict"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].startswith(f"fanocert: internal error: {error}")
    assert "Traceback" not in captured.err


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
