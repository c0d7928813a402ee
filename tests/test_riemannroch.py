import pytest
from hypothesis import given, strategies as st

from fanocert.lattice import FAMILIES, DivisorClass, make_family_lattice
from fanocert.riemannroch import (SectionCountError, brill_noether, ideal_curve_bound,
                                  k3_h0, monomial_count, plane_curve_genus,
                                  residual_series, span_dimension_bound)


def test_monomial_count():
    assert monomial_count(4, 3) == 35
    assert monomial_count(5, 2) == 21
    assert monomial_count(4, 2) == 15


def test_ideal_curve_bound():
    assert ideal_curve_bound(4, 3, 13, 14) == 9
    assert ideal_curve_bound(5, 2, 11, 8) == 6
    # oracle: direct formula 35 - (3*8 + 1 - 0)
    assert ideal_curve_bound(4, 3, 8, 0) == 35 - 25


def test_ideal_curve_bound_precondition():
    with pytest.raises(SectionCountError):
        ideal_curve_bound(4, 1, 2, 10)


def test_ideal_bound_extremes_over_catalogs():
    from fanocert.catalog import load_cases

    quadric = [(c.d, c.g) for c in load_cases() if c.family == "quadric"]
    v4 = [(c.d, c.g) for c in load_cases() if c.family == "v4"]
    assert min(ideal_curve_bound(4, 3, d, g) for d, g in quadric) == 9
    assert min(ideal_curve_bound(5, 2, d, g) for d, g in v4) == 6


def test_k3_h0_regimes():
    quadric = make_family_lattice(FAMILIES["quadric"], 9, 2)
    assert k3_h0(quadric, DivisorClass(3, 0), nef_hint=True) == 29
    assert monomial_count(4, 3) - k3_h0(quadric, DivisorClass(3, 0), nef_hint=True) == 6
    # cross-check: quadrics restricted to the surface
    assert k3_h0(quadric, DivisorClass(2, 0), nef_hint=True) == 14

    x14 = make_family_lattice(FAMILIES["x14"], 7, 2)
    assert k3_h0(x14, DivisorClass(0, 1), nef_hint=True) == 3

    rigid = make_family_lattice(FAMILIES["x14"], 5, 0)
    assert k3_h0(rigid, DivisorClass(0, 1)) == 1


def test_k3_h0_refuses_undecided_inputs():
    lattice = make_family_lattice(FAMILIES["x14"], 6, 1)
    curve = DivisorClass(0, 1)  # square 0
    with pytest.raises(SectionCountError, match="^h0-undetermined for square "):
        k3_h0(lattice, curve, nef_hint=True)
    with pytest.raises(SectionCountError, match="^h0-undetermined for square "):
        k3_h0(lattice, DivisorClass(1, 0), nef_hint=False)


def test_residual_series():
    assert residual_series(8, 1, 5) == (3, 9)
    assert residual_series(8, 3, 8) == (2, 6)
    assert residual_series(8, 3, 9) == (1, 5)


@given(st.integers(), st.integers(), st.integers())
def test_residual_is_involutive(g, r, d):
    # The formula holds on every integer triple; a caller compares the
    # result with the one valid series it needs.
    assert residual_series(g, *residual_series(g, r, d)) == (r, d)


def test_brill_noether():
    assert brill_noether(8, 1, 5) == 0
    assert brill_noether(8, 2, 7) == -1
    assert brill_noether(0, 0, 0) == 0
    assert brill_noether(6, 1, 4) == 0


@given(st.integers(0, 40), st.integers(0, 5), st.integers(0, 40))
def test_brill_noether_linear_in_genus(g, r, d):
    base = brill_noether(g, r, d)
    bumped = brill_noether(g + 1, r, d)
    assert bumped - base == 1 - (r + 1)


def test_plane_curve_genus():
    assert plane_curve_genus(6) == 10
    assert plane_curve_genus(3) == 1
    assert plane_curve_genus(1) == 0


def test_span_dimension_bound():
    assert span_dimension_bound(6, 2) == 4
    assert span_dimension_bound(3, 0) == 3
    assert span_dimension_bound(5, 0) == 5
    with pytest.raises(SectionCountError):
        span_dimension_bound(2, 2)
