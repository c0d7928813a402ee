from dataclasses import dataclass
from fractions import Fraction
from math import floor

import pytest

from fanocert.lattice import FAMILIES
from fanocert.riemannroch import plane_curve_genus
from fanocert.secant import (SecantBoundError, admissible_table, genus_cap,
                             max_secant_degree)
from test_diophantine import census_lattices

# Frozen reference tables: the printed obstruction case lists, one entry per
# (degree, arithmetic genus), ordered rational entries first.
QUADRIC_TABLES = {
    (13, 14): [(1, 0)],
    (12, 11): [(1, 0), (2, 0)],
    (8, 3): [(1, 0), (2, 0)],
    (7, 1): [(1, 0), (2, 0)],
    (8, 2): [(1, 0), (2, 0), (3, 0)],
    (9, 4): [(1, 0), (2, 0), (3, 0)],
    (10, 6): [(1, 0), (2, 0), (3, 0)],
    (11, 8): [(1, 0), (2, 0), (3, 0)],
    (8, 1): [(1, 0), (2, 0), (3, 0), (4, 0)],
    (9, 3): [(1, 0), (2, 0), (3, 0), (4, 0)],
    (10, 5): [(1, 0), (2, 0), (3, 0), (4, 0), (3, 1)],
    (8, 0): [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (4, 1)],
    (9, 2): [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (4, 1)],
}

V4_TABLES = {
    (11, 8): [(1, 0)],
    (7, 2): [(1, 0), (2, 0)],
    (8, 3): [(1, 0), (2, 0)],
    (10, 6): [(1, 0), (2, 0)],
    (7, 1): [(1, 0), (2, 0), (3, 0)],
    (9, 4): [(1, 0), (2, 0), (3, 0)],
    (8, 2): [(1, 0), (2, 0), (3, 0), (4, 0)],
    (7, 0): [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (3, 1)],
}


def table_pairs(family, d, g):
    return [(m, p_a) for m, p_a, _ in admissible_table(family, d, g)]


def test_max_secant_degree():
    assert max_secant_degree(FAMILIES["quadric"], 13) == 5
    assert max_secant_degree(FAMILIES["v4"], 7) == 9
    assert max_secant_degree(FAMILIES["x14"], 4) == 24
    with pytest.raises(SecantBoundError):
        max_secant_degree(FAMILIES["quadric"], 18)


def test_genus_cap_values():
    assert genus_cap(FAMILIES["quadric"], 13, 14, 1) == 0  # 196/12 + 1 - 17 = 1/3
    assert genus_cap(FAMILIES["quadric"], 8, 0, 4) == 1
    assert genus_cap(FAMILIES["v4"], 7, 0, 3) == 1
    assert genus_cap(FAMILIES["quadric"], 10, 6, 3) == 0


def test_genus_cap_matches_rational_formula():
    for family in FAMILIES.values():
        h2, s = family.h_square, family.index_multiplier
        for d in range(1, family.cutting_bound):
            for g in range(41):
                for m in range(1, 31):
                    expected = floor(Fraction((d + m) ** 2, 2 * h2) + 1 - g - s * m)
                    assert genus_cap(family, d, g, m) == expected, (family.name, d, g, m)
        with pytest.raises(ValueError):
            genus_cap(family, 1, 0, 0)


def test_quadric_tables_golden():
    for (d, g), expected in QUADRIC_TABLES.items():
        assert table_pairs(FAMILIES["quadric"], d, g) == sorted(expected, key=lambda t: (t[1], t[0])), (d, g)


def test_v4_tables_golden():
    for (d, g), expected in V4_TABLES.items():
        assert table_pairs(FAMILIES["v4"], d, g) == sorted(expected, key=lambda t: (t[1], t[0])), (d, g)


def test_secancy_values():
    for m, _, secancy in admissible_table(FAMILIES["quadric"], 8, 0):
        assert secancy == 3 * m + 1
    for m, _, secancy in admissible_table(FAMILIES["x14"], 5, 0):
        assert secancy == m + 1


def test_plane_cubic_rule_boundary():
    # dropped for d <= 9 on the quadric family, kept at d = 10
    assert (3, 1) not in table_pairs(FAMILIES["quadric"], 9, 2)
    assert (3, 1) in table_pairs(FAMILIES["quadric"], 10, 5)
    # on the v4 family the rule needs d < 7, which never happens
    assert (3, 1) in table_pairs(FAMILIES["v4"], 7, 0)


def test_caps_monotone_for_higher_index_families():
    # with index multiplier >= 2 the cap only decreases over the degree range
    for name in ("quadric", "v4", "v5"):
        family = FAMILIES[name]
        from fanocert.catalog import load_cases

        for case in load_cases():
            if case.family != name:
                continue
            caps = [genus_cap(family, case.d, case.g, m)
                    for m in range(1, max_secant_degree(family, case.d) + 1)]
            assert all(x >= y for x, y in zip(caps, caps[1:])), (name, case.d, case.g)


def test_x14_cap_turns_back_up_but_stays_sound():
    # with index multiplier 1 the cap parabola re-enters the degree window;
    # the extra high-degree candidates are retained and must stay consistent
    family = FAMILIES["x14"]
    caps = [genus_cap(family, 5, 0, m) for m in range(1, 24)]
    assert caps[0] == 1 and min(caps) < 0 and caps[-1] == 6
    for m, p_a, _ in admissible_table(family, 5, 0):
        assert 0 <= p_a <= genus_cap(family, 5, 0, m)


def test_tables_never_exceed_cap():
    from fanocert.catalog import load_cases

    for case in load_cases():
        if case.family == "sporadic":
            continue
        family = FAMILIES[case.family]
        for m, p_a, _ in admissible_table(family, case.d, case.g):
            assert p_a <= genus_cap(family, case.d, case.g, m)
            assert 1 <= m <= max_secant_degree(family, case.d)


@dataclass(frozen=True)
class SecantCandidate:
    """Degree, arithmetic genus and required secancy of a potential obstructor."""

    m: int
    p_a: int
    secancy: int

    def __post_init__(self):
        if self.m < 1 or self.p_a < 0:
            raise ValueError("need m >= 1 and p_a >= 0")


def reference_admissible_table(family, d, g):
    """The original dataclass-and-sort table, kept verbatim as the oracle."""
    s = family.index_multiplier
    table = []
    for m in range(1, max_secant_degree(family, d) + 1):
        cap = min(genus_cap(family, d, g, m), plane_curve_genus(m))
        for p_a in range(0, cap + 1):
            if m == 3 and p_a == 1 and 3 * s + 1 > d:
                continue
            table.append(SecantCandidate(m, p_a, s * m + 1))
    table.sort(key=lambda c: (c.p_a, c.m))
    return tuple(table)


def test_admissible_table_matches_reference():
    pairs = entries = holes = 0
    for name, d, g, _ in census_lattices():
        family = FAMILIES[name]
        expected = [(c.m, c.p_a, c.secancy)
                    for c in reference_admissible_table(family, d, g)]
        table = admissible_table(family, d, g)
        assert type(table) is tuple and list(table) == expected, (name, d, g)
        pairs += 1
        entries += len(table)
        holes += (3 * family.index_multiplier + 1 > d
                  and min(genus_cap(family, d, g, 3), 1) >= 1)
    # the census pairs, their secant entries, and tables the (3, 1) hole cuts
    assert (pairs, entries) == (721, 13586) and holes > 0
