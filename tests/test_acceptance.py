"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import random
import time
from fractions import Fraction

from fanocert.catalog import load_cases, run_all
from fanocert.cli import main
from fanocert.diophantine import curve_classes, degree_lines, line_maximum
from fanocert.gonality import fixed_moving_bound, tetragonal_certificate
from fanocert.lattice import (FAMILIES, DivisorClass, IntersectionLattice,
                              make_family_lattice, square_and_genus)
from fanocert.nefness import free_certificate
from fanocert.report import report_to_json
from fanocert.ruled import hirzebruch_search, noether_contradiction, plane_square_check
from fanocert.schubert import surface_class_split
from fanocert.secant import admissible_table

from test_secant import QUADRIC_TABLES, V4_TABLES


def _emit(number, label, ok):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_golden_verdict_table(capsys):
    started = time.monotonic()
    exit_code = main(["verify", "--all", "--strict"])
    elapsed = time.monotonic() - started
    output = capsys.readouterr().out

    report = run_all()
    verdicts = {(c.case.case_id, c.case.family): c.computed
                for c in report.certificates}
    expected = {(c.case_id, c.family): c.expected for c in load_cases()}

    with capsys.disabled():
        _emit(1, f"verify --all --strict exit {exit_code}, "
                 f"{len(verdicts)} verdicts match, {elapsed:.2f}s",
              exit_code == 0 and verdicts == expected and elapsed < 10.0
              and "mismatch=0" in output)


def _square_classes(lattice, degree, square):
    """Classes of one degree and exact square: the sweep at that square, filtered."""
    return tuple(DivisorClass(a, b) for _, a, b, found
                 in curve_classes(lattice, (degree,), square) if found == square)


def test_criterion_2_witness_classes(capsys):
    quadric = make_family_lattice(FAMILIES["quadric"], 13, 14)
    hits = _square_classes(quadric, 1, -2)
    ok = hits == (DivisorClass(-2, 1),)
    ok = ok and quadric.pair(hits[0], DivisorClass(0, 1)) == 0

    v4 = make_family_lattice(FAMILIES["v4"], 10, 6)
    hits4 = _square_classes(v4, 2, -2)
    ok = ok and hits4 == (DivisorClass(-1, 1),)
    ok = ok and v4.pair(hits4[0], DivisorClass(0, 1)) == 0
    with capsys.disabled():
        _emit(2, "sweep witnesses (-2,1) and (-1,1) with elimination value 0", ok)


def test_criterion_3_freeness_budgets(capsys):
    ok = True
    positive = set()
    for case in load_cases():
        if case.family == "quadric":
            outcome = free_certificate(FAMILIES["quadric"], case.d, case.g)
            ok = ok and outcome.result["elliptic_multiplicity"] == 27 + case.g - 3 * case.d
            if outcome.result["rational_part_budget"] > 0:
                positive.add((case.d, case.g))
                ok = ok and outcome.witnesses == ()
        elif case.family == "v4":
            outcome = free_certificate(FAMILIES["v4"], case.d, case.g)
            ok = ok and outcome.result["elliptic_multiplicity"] == 16 - 2 * case.d + case.g
            if outcome.result["rational_part_budget"] > 0:
                ok = ok and outcome.witnesses == ()
    ok = ok and positive == {(9, 2), (10, 5), (11, 8), (8, 0)}
    with capsys.disabled():
        _emit(3, "k formulas, positive budgets exactly on the four cases, "
                 "empty rational-part searches", ok)


def test_criterion_4_secant_tables(capsys):
    ok = True
    for (d, g), expected in QUADRIC_TABLES.items():
        got = [(m, p_a) for m, p_a, _ in admissible_table(FAMILIES["quadric"], d, g)]
        ok = ok and got == sorted(expected, key=lambda t: (t[1], t[0]))
    for (d, g), expected in V4_TABLES.items():
        got = [(m, p_a) for m, p_a, _ in admissible_table(FAMILIES["v4"], d, g)]
        ok = ok and got == sorted(expected, key=lambda t: (t[1], t[0]))
    cert72 = run_all(case_id=72).certificates[0]
    flagged = any("secant table note" in note for note in cert72.discrepancies)
    ok = ok and flagged
    with capsys.disabled():
        _emit(4, "21 golden tables verbatim, (10,6) note flagged", ok)


def test_criterion_5_schubert_splits(capsys):
    ok = surface_class_split(4, 10) == ((1, 6, 4), (2, 3, 2))
    ok = ok and surface_class_split(5, 14) == ((1, 9, 5),)
    with capsys.disabled():
        _emit(5, "class splits {(1,6,4),(2,3,2)} and {(1,9,5)}", ok)


def test_criterion_6_gonality(capsys):
    report = tetragonal_certificate(4, 0)
    by_name = {c.name: c for c in report.checks}
    ks = range(-50, 51)
    reference = ({(2 * k, 1 - 7 * k) for k in ks}
                 | {(2 * k + 1, -2 - 7 * k) for k in ks})
    computed = set()
    for w in by_name["donor-family-squares-negative"].witnesses:
        (base_a, base_b), (step_a, step_b) = w["base"], w["step"]
        computed |= {(base_a + k * step_a, base_b + k * step_b) for k in ks}
    ok = computed == reference and all(c.passed for c in report.checks)

    by_name = {c.name: c for c in tetragonal_certificate(5, 0).checks}
    specials = {name for name in by_name if name.startswith("special-donor-")}
    ok = ok and specials == {"special-donor-(0,1)", "special-donor-(1,-2)"}
    ok = ok and by_name["special-donor-(1,-2)"].result["square"] == -14
    ok = ok and by_name["special-donor-(1,-2)"].inputs["t_degree"] == 4
    ok = ok and by_name["fixed-moving-square-contradiction"].inputs["square_cap"] == -58
    bound = fixed_moving_bound(-58, 4)
    ok = ok and bound.passed and bound.result["split_square_floor"] == -32
    with capsys.disabled():
        _emit(6, "(4,0) families verbatim, (5,0) specials, -32 > -58", ok)


def test_criterion_7_non_realizability(capsys):
    cert43 = run_all(case_id=43).certificates[0]
    by_name = {c.name: c for c in cert43.checks}
    ok = cert43.computed == "NotRealizable"
    ok = ok and by_name["residual-member-invariants"].result["degree"] == 6
    ok = ok and by_name["residual-member-invariants"].result["genus"] == 2
    ok = ok and by_name["residual-span-dimension"].result["span_dimension"] == 4
    ok = ok and by_name["degree-exceeds-linear-section"].result["residual_degree"] == 6
    ok = ok and by_name["degree-exceeds-linear-section"].result["section_curve_degree"] == 5

    cert17 = run_all(case_id=17).certificates[0]
    by_name = {c.name: c for c in cert17.checks}
    ok = ok and cert17.computed == "NotRealizable"
    ok = ok and by_name["curve-section-count"].result["h0"] == 3
    ok = ok and by_name["curve-cuts-plane-series-on-section"].result["series"] == "g^2_7"
    with capsys.disabled():
        _emit(7, "case 43 via residual (6,2)/span 4/6 > 5; case 17 via h0 3/g^2_7", ok)


def test_criterion_8_ruled_checks(capsys):
    ok = all(hirzebruch_search(n, 10) == [] for n in range(0, 11))
    ok = ok and plane_square_check(10).passed
    ok = ok and noether_contradiction(10).passed
    # The X10 row passes its own square, r^3 n = 10, to the checks.
    (x10,) = [c for c in run_all(family="sporadic").certificates if c.case.ambient == "X10"]
    by_name = {c.name: c for c in x10.checks}
    ok = ok and by_name["canonical-square-exceeds-noether-bound"].inputs["k_square"] == 10
    with capsys.disabled():
        _emit(8, "empty ruled-surface sweep for n in [0,10], plane and "
                 "canonical-square checks", ok)


def _random_lattice(rng):
    while True:
        h2 = 2 * rng.randint(1, 7)
        d = rng.randint(1, 12)
        c2 = 2 * rng.randint(-1, 10)
        if h2 * c2 - d * d < 0:
            return IntersectionLattice(((h2, d), (d, c2)))


def test_criterion_9_oracle_equivalence(capsys):
    rng = random.Random(0xACCE2026)
    window = 50
    ok = True

    for _ in range(1000):
        lattice = _random_lattice(rng)
        h2, d = lattice.gram[0]
        degree = rng.randint(-30, 30)
        square = 2 * rng.randint(-40, 40)
        brute = []
        for a in range(-window, window + 1):
            rest = degree - h2 * a
            if rest % d:
                continue
            b = rest // d
            cls = DivisorClass(a, b)
            if abs(b) <= window and lattice.pair(cls, cls) == square:
                brute.append(cls)
        solved = [c for c in _square_classes(lattice, degree, square)
                  if abs(c.a) <= window and abs(c.b) <= window]
        ok = ok and solved == sorted(brute, key=lambda c: (c.a, c.b))

    for _ in range(1000):
        lattice = _random_lattice(rng)
        h2, d = lattice.gram[0]
        degree = rng.randint(-20, 20)
        floor_square = rng.randint(-24, 12)
        brute = []
        for a in range(-window, window + 1):
            rest = degree - h2 * a
            if rest % d:
                continue
            b = rest // d
            cls = DivisorClass(a, b)
            if abs(b) <= window and lattice.pair(cls, cls) >= floor_square:
                brute.append(cls)
        found = [DivisorClass(a, b)
                 for _, a, b, _ in curve_classes(lattice, (degree,), floor_square)
                 if abs(a) <= window and abs(b) <= window]
        ok = ok and found == sorted(brute, key=lambda c: (c.a, c.b))

    checked = 0
    while checked < 250:
        lattice = _random_lattice(rng)
        lines = degree_lines(lattice, [rng.randint(-20, 20)], rng.randint(-100, 10))
        if not lines:
            continue
        _, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq, ks = lines[0]
        if abs(Fraction(-quad_b, 2 * quad_a)) > 500:
            continue
        best, _ = line_maximum(quad_a, quad_b, base_sq, ks)
        brute = max(lattice.pair(cls := DivisorClass(base_a + k * step_a, base_b + k * step_b), cls)
                    for k in range(-1000, 1001) if k not in ks)
        ok = ok and best == brute
        checked += 1

    with capsys.disabled():
        _emit(9, "1000+1000 solver instances and 250 degree-line maxima agree "
                 "with brute force", ok)


def test_criterion_10_structural_invariants(capsys):
    from fanocert.lattice import anticanonical_cube

    ok = True
    sample = [DivisorClass(a, b) for a in range(-8, 9) for b in range(-8, 9)]
    for case in load_cases():
        if case.family == "sporadic":
            continue
        family = FAMILIES[case.family]
        lattice = make_family_lattice(family, case.d, case.g)
        ok = ok and lattice.det < 0
        for cls in sample:
            square, _ = square_and_genus(lattice, cls)
            ok = ok and square % 2 == 0
        adjoint = DivisorClass(family.index_multiplier, -1)
        ok = ok and lattice.pair(adjoint, adjoint) == anticanonical_cube(family, case.d, case.g)

    first = report_to_json(run_all())
    second = report_to_json(run_all())
    ok = ok and first == second and json.loads(first)["summary"]["mismatch"] == 0

    with capsys.disabled():
        _emit(10, "even squares, negative determinants, adjoint squares equal "
                  "anticanonical degrees, bit-identical reports", ok)
