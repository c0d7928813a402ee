import pytest
from hypothesis import given, strategies as st

from fanocert import lattice as lattice_module
from fanocert.catalog import load_cases
from fanocert.lattice import (FAMILIES, DivisorClass, IntersectionLattice,
                              LatticeSignatureError, anticanonical_cube,
                              make_family_lattice, square_and_genus)

coeff = st.integers(min_value=-100, max_value=100)


def catalog_lattices():
    for case in load_cases():
        if case.family == "sporadic":
            continue
        family = FAMILIES[case.family]
        yield family, case.d, case.g, make_family_lattice(family, case.d, case.g)


def test_family_lattice_grams():
    assert make_family_lattice(FAMILIES["quadric"], 13, 14).gram == ((6, 13), (13, 26))
    assert make_family_lattice(FAMILIES["v5"], 14, 10).gram == ((10, 14), (14, 18))
    assert make_family_lattice(FAMILIES["x14"], 4, 0).gram == ((14, 4), (4, -2))


def test_rejects_nonhyperbolic_gram():
    # determinant 6*4 - 1 = 23 > 0 would need an odd off-diagonal; use (2, 0)
    with pytest.raises(LatticeSignatureError):
        make_family_lattice(FAMILIES["quadric"], 1, 2)  # det = 6*2 - 1 = 11 > 0


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_family_lattice(FAMILIES["quadric"], 0, 2)
    with pytest.raises(ValueError):
        make_family_lattice(FAMILIES["quadric"], 9, -1)
    with pytest.raises(ValueError):
        IntersectionLattice(((6, 3), (2, 4)))
    with pytest.raises(ValueError):
        IntersectionLattice(((5, 3), (3, 4)))


def test_pair_values():
    quadric = make_family_lattice(FAMILIES["quadric"], 13, 14)
    assert quadric.pair(DivisorClass(1, 0), DivisorClass(1, 0)) == 6
    assert quadric.pair(DivisorClass(-2, 1), DivisorClass(0, 1)) == 0
    v4 = make_family_lattice(FAMILIES["v4"], 10, 6)
    assert v4.pair(DivisorClass(-1, 1), DivisorClass(0, 1)) == 0


def test_square_and_genus():
    v5_14_10 = make_family_lattice(FAMILIES["v5"], 14, 10)
    assert square_and_genus(v5_14_10, DivisorClass(2, -1)) == (2, 2)
    v5_8_3 = make_family_lattice(FAMILIES["v5"], 8, 3)
    assert square_and_genus(v5_8_3, DivisorClass(2, -1)) == (12, 7)
    v5_7_0 = make_family_lattice(FAMILIES["v5"], 7, 0)
    assert square_and_genus(v5_7_0, DivisorClass(1, -1)) == (-6, -2)


@given(coeff, coeff, coeff, coeff)
def test_pair_symmetric(a1, b1, a2, b2):
    lattice = make_family_lattice(FAMILIES["quadric"], 9, 2)
    x, y = DivisorClass(a1, b1), DivisorClass(a2, b2)
    assert lattice.pair(x, y) == lattice.pair(y, x)


@given(coeff, coeff, coeff, coeff, coeff, coeff, st.integers(-5, 5), st.integers(-5, 5))
def test_pair_bilinear(a1, b1, a2, b2, a3, b3, lam, mu):
    lattice = make_family_lattice(FAMILIES["v5"], 9, 1)
    x, y, z = DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3)
    combo = DivisorClass(lam * x.a + mu * y.a, lam * x.b + mu * y.b)
    assert lattice.pair(combo, z) == lam * lattice.pair(x, z) + mu * lattice.pair(y, z)


@given(coeff, coeff, st.sampled_from(sorted(FAMILIES)), st.integers(1, 17), st.integers(0, 3))
def test_degree_is_pairing_with_polarization(a, b, name, d, g):
    lattice = IntersectionLattice(((FAMILIES[name].h_square, d), (d, 2 * g - 2)))
    cls = DivisorClass(a, b)
    assert lattice.degree(cls) == lattice.pair(cls, DivisorClass(1, 0))


def test_even_squares_on_catalog_lattices():
    sample = [DivisorClass(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    for _, _, _, lattice in catalog_lattices():
        for cls in sample:
            square, p_a = square_and_genus(lattice, cls)
            assert square % 2 == 0
            assert p_a == square // 2 + 1


def test_catalog_determinants_negative():
    for family, d, g, lattice in catalog_lattices():
        assert lattice.det == family.h_square * (2 * g - 2) - d * d
        assert lattice.det < 0


def test_adjoint_square_matches_anticanonical_cube():
    for family, d, g, lattice in catalog_lattices():
        adjoint = DivisorClass(family.index_multiplier, -1)
        assert lattice.pair(adjoint, adjoint) == anticanonical_cube(family, d, g)


def test_family_constants():
    assert [FAMILIES[n].h_square for n in ("quadric", "v4", "v5", "x14")] == [6, 8, 10, 14]
    assert [FAMILIES[n].index_multiplier for n in ("quadric", "v4", "v5", "x14")] == [3, 2, 2, 1]
    assert [FAMILIES[n].cutting_bound for n in ("quadric", "v4", "v5", "x14")] == [18, 16, 20, 28]
    assert [anticanonical_cube(FAMILIES[n], 0, 1) for n in ("quadric", "v4", "v5", "x14")] == [54, 32, 40, 14]
    assert [FAMILIES[n].section_genus for n in ("quadric", "v4", "v5", "x14")] == [4, 5, 6, 8]
    assert not FAMILIES["quadric"].derived_constants
    assert not FAMILIES["v4"].derived_constants
    assert FAMILIES["v5"].derived_constants
    assert FAMILIES["x14"].derived_constants


# The paper's ambients: index r and degree H^3 = n, transcribed here apart
# from the package's table (Iskovskikh-Prokhorov, Fano varieties, Table 12.2).
AMBIENTS = {"quadric": (3, 2), "v4": (2, 4), "v5": (2, 5), "x14": (1, 14),
            "X10": (1, 10), "X16": (1, 16), "X18": (1, 18)}
# The genus of each sporadic prime Fano threefold, as the same source lists it.
SPORADIC_GENERA = {"X10": 6, "X16": 9, "X18": 10}


def test_family_table_matches_the_ambients():
    assert lattice_module.AMBIENTS == AMBIENTS
    # A prime Fano threefold (r = 1) of genus g has (-K)^3 = r^3 n = 2g - 2.
    for name, genus in SPORADIC_GENERA.items():
        r, n = AMBIENTS[name]
        assert r == 1 and 2 * genus - 2 == r**3 * n
    # The K3 slice is a member of |-K| = |rH|, so H^2 = rn on it and s = r,
    # and the blow-up along C has (-K)^3 = r^3 n - 2rd + 2g - 2.
    assert sorted(FAMILIES) == ["quadric", "v4", "v5", "x14"]
    pairs = 0
    for name, family in FAMILIES.items():
        r, n = AMBIENTS[name]
        assert family.h_square == r * n
        assert family.index_multiplier == r
        for d in range(1, family.cutting_bound):
            g = 0
            while family.h_square * (2 * g - 2) - d * d < 0:
                assert anticanonical_cube(family, d, g) == r**3 * n - 2 * r * d + 2 * g - 2
                pairs += 1
                g += 1
    assert pairs == 721
