import hashlib
import json

from fanocert.gonality import fixed_moving_bound, tetragonal_certificate
from fanocert.lattice import FAMILIES, DivisorClass

from test_diophantine import census_lattices


def family_members(witness, k_range):
    return {member(witness, k) for k in k_range}


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


def family_witnesses(report):
    return check_named(report, "donor-family-squares-negative").witnesses


def member(witness, k):
    """base + k*step of a donor-family witness."""
    (base_a, base_b), (step_a, step_b) = witness["base"], witness["step"]
    return base_a + k * step_a, base_b + k * step_b


def index_of(witness, cls):
    """The k with member(witness, k) == cls, or None."""
    (base_a, base_b), (step_a, step_b) = witness["base"], witness["step"]
    k = (cls[0] - base_a) // step_a if step_a else (cls[1] - base_b) // step_b
    return k if member(witness, k) == tuple(cls) else None


def special_checks(report):
    """The special-donor checks, keyed by the class of their witness."""
    return {tuple(c.witnesses[0]["class"]): c for c in report.checks
            if c.rule == "special-solution-elimination"}


def passed(report):
    return all(c.passed for c in report.checks)


def test_window_constants_come_from_family_spec():
    inputs = check_named(tetragonal_certificate(5, 0), "donor-family-squares-negative").inputs
    assert inputs["section_genus"] == FAMILIES["x14"].section_genus == 8
    assert inputs["degree_window"] == [4, 7]


def test_4_0_families_match_reference_parametrization():
    report = tetragonal_certificate(4, 0)
    assert passed(report)
    assert check_named(report, "donor-family-squares-negative").inputs["route"] == "conic"
    witnesses = family_witnesses(report)
    assert len(witnesses) == 2
    ks = range(-50, 51)
    reference = ({(2 * k, 1 - 7 * k) for k in ks}
                 | {(2 * k + 1, -2 - 7 * k) for k in ks})
    computed = set()
    for witness in witnesses:
        computed |= family_members(witness, ks)
    assert computed == reference
    # no member escapes the square analysis for this case
    assert special_checks(report) == {}
    assert all("excluded_k" not in w for w in witnesses)
    assert {w["value"] for w in witnesses} == {4, 6}
    assert all(w["max_square"] < 0 for w in witnesses)
    assert max(w["max_square"] for w in witnesses) == -2


def test_4_0_solution_coverage_brute_force():
    report = tetragonal_certificate(4, 0)
    d = 4
    solutions = [(a, b) for a in range(-100, 101) for b in range(-100, 101)
                 if 14 * (1 - a) - d * b >= 0 and 4 <= 14 * a + d * b <= 7]
    witnesses = family_witnesses(report)
    specials = special_checks(report)
    for a, b in solutions:
        hits = [w for w in witnesses if index_of(w, (a, b)) is not None]
        assert len(hits) + ((a, b) in specials) == 1, (a, b)


def test_6_1_solution_coverage_brute_force():
    report = tetragonal_certificate(6, 1)
    d = 6
    solutions = [(a, b) for a in range(-100, 101) for b in range(-100, 101)
                 if 14 * (1 - a) - d * b >= 0 and 4 <= 14 * a + d * b <= 7]
    assert solutions
    specials = special_checks(report)
    for a, b in solutions:
        special = (a, b) in specials
        in_family = any(
            (k := index_of(w, (a, b))) is not None
            and k not in w.get("excluded_k", [])
            for w in family_witnesses(report))
        # exactly one of the two buckets covers each solution
        assert special != in_family, (a, b)


def test_5_0_specials_and_cap():
    report = tetragonal_certificate(5, 0)
    assert passed(report)
    assert check_named(report, "donor-family-squares-negative").inputs["route"] == "fixed-moving"
    bound = check_named(report, "fixed-moving-square-contradiction")
    assert bound.inputs == {"square_cap": -58, "t_f_max": 4, "multiplicity_cap": 4}
    assert bound.passed

    specials = special_checks(report)
    assert set(specials) == {(0, 1), (1, -2)}
    assert specials[(0, 1)].name == "special-donor-(0,1)"
    assert specials[(0, 1)].result["square"] == -2
    assert specials[(0, 1)].result["elimination"] == "rigid-class"
    assert specials[(1, -2)].result["square"] == -14
    assert specials[(1, -2)].inputs["t_degree"] == 4
    assert specials[(1, -2)].result["elimination"] == "short-fixed-part"


def test_6_1_special_is_the_curve_class():
    report = tetragonal_certificate(6, 1)
    assert passed(report)
    assert check_named(report, "donor-family-squares-negative").inputs["route"] == "conic"
    specials = special_checks(report)
    assert set(specials) == {(0, 1)}
    assert specials[(0, 1)].result["square"] == 0
    assert specials[(0, 1)].kind == "cited-rule"
    assert "square" in specials[(0, 1)].witnesses[0]["note"]
    assert report.discrepancies  # the cited special is flagged


def test_no_short_curves_on_gonality_lattices():
    for d, g in [(4, 0), (5, 0), (6, 1)]:
        report = tetragonal_certificate(d, g)
        assert check_named(report, "no-line-classes").witnesses == ()
        assert check_named(report, "no-conic-classes").witnesses == ()


def test_conic_route_flags_two_cubic_split_gap():
    for d, g in [(4, 0), (6, 1)]:
        report = tetragonal_certificate(d, g)
        assert any("degree-3" in note for note in report.discrepancies)


def test_fixed_moving_bound():
    assert fixed_moving_bound(-58, 4).passed
    assert not fixed_moving_bound(-32, 4).passed
    assert fixed_moving_bound(-100, 4).passed


def test_specials_reverify_against_lattice():
    # Every emitted donor witness of the x14 census, recomputed through the
    # pairing: specials by their class, family maxima by a scan of k.
    box = range(-500, 501)
    pairs = specials_seen = excluded_seen = 0
    for name, d, g, lattice in census_lattices():
        if name != "x14":
            continue
        pairs += 1
        report = tetragonal_certificate(d, g)
        specials = special_checks(report)
        for (a, b), check in specials.items():
            witness, = check.witnesses
            cls = DivisorClass(a, b)
            assert check.name == f"special-donor-({a},{b})"
            assert lattice.pair(cls, cls) == witness["square"] == check.result["square"]
            assert lattice.degree(cls) == witness["t_degree"] == check.inputs["t_degree"]
            assert witness["elimination"] == check.result["elimination"]
        specials_seen += len(specials)
        for witness in family_witnesses(report):
            excluded = witness.get("excluded_k", [])
            # the excluded parameters are exactly this family's specials
            assert sorted(member(witness, k) for k in excluded) == sorted(
                cls for cls, check in specials.items()
                if check.inputs["t_degree"] == witness["value"]), (d, g)
            excluded_seen += len(excluded)
            # the Gram form at every member of the box, stepping along the line
            (p, q), (_, s) = lattice.gram
            a, b = member(witness, box[0])
            step_a, step_b = witness["step"]
            squares = {}
            for k in box:
                if k not in excluded:
                    squares[k] = p * a * a + 2 * q * a * b + s * b * b
                a, b = a + step_a, b + step_b
            best = max(squares.values())
            # concave in k: a box maximum above both ends is the global one
            assert best > max(squares[box[0]], squares[box[-1]]), (d, g)
            assert witness["max_square"] == best, (d, g)
            assert squares[witness["attained_at"]] == best, (d, g)
    assert pairs == 290 and specials_seen > 0 and excluded_seen == specials_seen


def test_empty_donor_window_fails_its_check():
    # degree form (14, 14) takes only multiples of 14, none in [4, 7]: the
    # donor check fails with that as its reason, and no route or special
    # donor check follows it
    for g in range(8):
        report = tetragonal_certificate(14, g)
        donors = report.checks[0]
        assert donors.name == "donor-family-squares-negative" and not donors.passed
        assert donors.inputs == {"d": 14, "g": g, "degree_window": [4, 7],
                                 "section_genus": 8, "route": None}
        assert donors.result == {"reason": f"x14 (d=14, g={g}): no donor degree in the "
                                           "window [4, 7] is a value of the degree form "
                                           "(14, 14)"}
        assert donors.witnesses == ()
        assert [c.name for c in report.checks[1:]] == ["no-line-classes", "no-conic-classes"]
        assert report.discrepancies == ()


# SHA-256 of every x14 census certificate, in census order: the JSON of its
# checks and discrepancies.
X14_CENSUS_SHA256 = "010e8f0bc3dd050b3686fc7125170da8632ff50a38db8f69996ec4d81d664baa"


def test_x14_census_certificates_are_pinned():
    digest = hashlib.sha256()
    pairs = failed = 0
    for name, d, g, _ in census_lattices():
        if name != "x14":
            continue
        pairs += 1
        report = tetragonal_certificate(d, g)
        failed += "reason" in report.checks[0].result
        digest.update(json.dumps([[c.to_dict() for c in report.checks],
                                  list(report.discrepancies)], sort_keys=True).encode())
    # the 8 d = 14 pairs have an empty donor window
    assert (pairs, failed) == (290, 8)
    assert digest.hexdigest() == X14_CENSUS_SHA256
