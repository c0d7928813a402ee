import pytest

from fanocert.gonality import (DONOR_DEGREES, SECTION_GENUS, DonorWindowEmptyError,
                               fixed_moving_bound, tetragonal_certificate)
from fanocert.lattice import FAMILIES, DivisorClass, make_family_lattice


def family_members(fam, k_range):
    return {fam.member(k).coords() for k in k_range}


def test_window_constants_come_from_family_spec():
    assert SECTION_GENUS == FAMILIES["x14"].section_genus == 8
    assert DONOR_DEGREES[0] == 4
    assert DONOR_DEGREES[-1] == 7


def test_4_0_families_match_reference_parametrization():
    report = tetragonal_certificate(4, 0)
    assert report.passed
    assert report.route == "conic"
    assert len(report.families) == 2
    ks = range(-50, 51)
    reference = ({(2 * k, 1 - 7 * k) for k in ks}
                 | {(2 * k + 1, -2 - 7 * k) for k in ks})
    computed = set()
    for analysis in report.families:
        computed |= family_members(analysis.family, ks)
    assert computed == reference
    # no member escapes the square analysis for this case
    assert report.specials == ()
    assert {a.family.value for a in report.families} == {4, 6}
    assert all(a.max_square < 0 for a in report.families)
    assert max(a.max_square for a in report.families) == -2


def test_4_0_solution_coverage_brute_force():
    report = tetragonal_certificate(4, 0)
    d = 4
    solutions = [(a, b) for a in range(-100, 101) for b in range(-100, 101)
                 if 14 * (1 - a) - d * b >= 0 and 4 <= 14 * a + d * b <= 7]
    for a, b in solutions:
        hits = [fam for fam in (an.family for an in report.families)
                if fam.index_of(DivisorClass(a, b)) is not None]
        specials = [s for s in report.specials if s.cls.coords() == (a, b)]
        assert len(hits) + len(specials) == 1, (a, b)


def test_6_1_solution_coverage_brute_force():
    report = tetragonal_certificate(6, 1)
    d = 6
    solutions = [(a, b) for a in range(-100, 101) for b in range(-100, 101)
                 if 14 * (1 - a) - d * b >= 0 and 4 <= 14 * a + d * b <= 7]
    assert solutions
    for a, b in solutions:
        special = any(s.cls.coords() == (a, b) for s in report.specials)
        in_family = any(
            (k := an.family.index_of(DivisorClass(a, b))) is not None
            and k not in an.special_ks
            for an in report.families)
        # exactly one of the two buckets covers each solution
        assert special != in_family, (a, b)


def test_5_0_specials_and_cap():
    report = tetragonal_certificate(5, 0)
    assert report.passed
    assert report.route == "fixed-moving"
    assert report.multiplicity_cap == 4
    assert report.square_cap == -58

    specials = {s.cls.coords(): s for s in report.specials}
    assert set(specials) == {(0, 1), (1, -2)}
    assert specials[(0, 1)].square == -2
    assert specials[(0, 1)].elimination == "rigid-class"
    assert specials[(1, -2)].square == -14
    assert specials[(1, -2)].t_degree == 4
    assert specials[(1, -2)].elimination == "short-fixed-part"
    assert report.bound is not None and report.bound.passed


def test_6_1_special_is_the_curve_class():
    report = tetragonal_certificate(6, 1)
    assert report.passed
    assert report.route == "conic"
    specials = {s.cls.coords(): s for s in report.specials}
    assert set(specials) == {(0, 1)}
    assert specials[(0, 1)].square == 0
    assert specials[(0, 1)].kind == "cited-rule"
    assert "square" in specials[(0, 1)].note
    assert report.discrepancies  # the cited special is flagged


def test_no_short_curves_on_gonality_lattices():
    for d, g in [(4, 0), (5, 0), (6, 1)]:
        report = tetragonal_certificate(d, g)
        assert report.line_classes == ()
        assert report.conic_classes == ()


def test_conic_route_flags_two_cubic_split_gap():
    for d, g in [(4, 0), (6, 1)]:
        report = tetragonal_certificate(d, g)
        assert any("degree-3" in note for note in report.discrepancies)


def test_fixed_moving_bound():
    assert fixed_moving_bound(-58, 4, 4).passed
    assert not fixed_moving_bound(-32, 4, 4).passed
    assert fixed_moving_bound(-100, 4, 4).passed


def test_specials_reverify_against_lattice():
    for d, g in [(5, 0), (6, 1)]:
        lattice = make_family_lattice(FAMILIES["x14"], d, g)
        report = tetragonal_certificate(d, g)
        for special in report.specials:
            assert lattice.pair(special.cls, special.cls) == special.square
            assert lattice.degree(special.cls) == special.t_degree


def test_empty_donor_window_is_a_typed_refusal():
    # degree form (14, 14) takes only multiples of 14, none in [4, 7]
    for g in range(8):
        with pytest.raises(DonorWindowEmptyError) as info:
            tetragonal_certificate(14, g)
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert f"d=14, g={g}" in message and "[4, 7]" in message
