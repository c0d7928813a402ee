"""Nefness and base-point-freeness certificates for the adjoint class sH - C.

Nefness: every admissible obstructor type (m, p_a) is searched for in the
lattice; any class found must fail the secancy requirement against C.

Freeness: a nef class of square >= 2 that is not free decomposes as k E + G
with E elliptic (square 0, H.E >= 3), G a (-2)-curve and E.G = 1.  Matching
squares pins k, and the polarization degree budget left for G is
H.(sH - C) - 3k; if positive, a (-2)-class of that small degree must exist,
which the lattice search decides.

Each certificate builds its lattice once and makes one ``curve_classes``
sweep for classes of square >= -2.  Nefness sweeps the secant table's
degrees and keeps a class of degree m and square 2 p_a - 2 when (m, p_a) is
in the table.  Freeness sweeps every degree up to the budget and keeps the
(-2)-classes.
"""
from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .diophantine import curve_classes
from .lattice import DivisorClass, FamilySpec, make_family_lattice
from .outcome import CheckOutcome, DERIVED, VERIFIED
from .secant import admissible_table


class FreenessInapplicableError(ValueError):
    """The decomposition criterion needs square >= 2 (elliptic multiplicity k >= 2)."""


def _table_kind(family: FamilySpec) -> str:
    return DERIVED if family.derived_constants else VERIFIED


# Sort key of a secant-table entry (m, p_a, secancy): the table's (p_a, m).
_GENUS_FIRST = itemgetter(1, 0)


def nef_certificate(family: FamilySpec, d: int, g: int) -> CheckOutcome:
    """Search out every admissible obstructor and eliminate it by secancy."""
    lattice = make_family_lattice(family, d, g)
    curve = DivisorClass(0, 1)
    table = admissible_table(family, d, g)
    # Genus-0 entries lead the table, one per degree it lists: the degrees to
    # sweep.  A class of degree m and square 2 p_a - 2 >= -2 obstructs when
    # (m, p_a) is an entry, found by bisection; the hits, sorted by
    # (p_a, m, a, b), come out in table order.
    genus_zero = table[:bisect_left(table, (1, 0), key=_GENUS_FIRST)]
    degrees = [entry[0] for entry in genus_zero]
    hits = []
    for m, a, b, square in curve_classes(lattice, degrees, -2):
        key = (square // 2 + 1, m)
        at = bisect_left(table, key, key=_GENUS_FIRST)
        if at < len(table) and _GENUS_FIRST(table[at]) == key:
            hits.append((*key, a, b, table[at][2]))
    hits.sort()
    witnesses = []
    all_eliminated = True
    for p_a, m, a, b, secancy in hits:
        meets = lattice.pair((a, b), curve)
        eliminated = meets < secancy
        all_eliminated = all_eliminated and eliminated
        witnesses.append({
            "class": [a, b],
            "degree": m,
            "arithmetic_genus": p_a,
            "meets_curve": meets,
            "secancy_required": secancy,
            "eliminated": eliminated,
        })
    return CheckOutcome(
        name="adjoint-class-nef",
        rule="secant-obstruction-search",
        kind=_table_kind(family),
        passed=all_eliminated,
        inputs={"family": family.name, "d": d, "g": g, "candidates": table},
        result={"witness_count": len(witnesses)},
        witnesses=tuple(witnesses),
    )


def free_certificate(family: FamilySpec, d: int, g: int) -> CheckOutcome:
    """Rule out the elliptic-plus-rational decomposition of a non-free class."""
    lattice = make_family_lattice(family, d, g)
    adjoint = family.adjoint_class
    square = lattice.pair(adjoint, adjoint)
    if square < 2:
        raise FreenessInapplicableError(
            f"adjoint square {square} < 2; the decomposition criterion "
            "does not apply as stated"
        )
    k = (square + 2) // 2
    h_dot_d = lattice.degree(adjoint)
    budget = h_dot_d - 3 * k
    searched = list(range(1, budget + 1))
    witnesses = [{"class": [a, b], "polarization_degree": degree}
                 for degree, a, b, class_square in curve_classes(lattice, searched, -2)
                 if class_square == -2]
    return CheckOutcome(
        name="adjoint-class-free",
        rule="elliptic-decomposition-budget",
        kind=_table_kind(family),
        passed=not witnesses,
        inputs={"family": family.name, "d": d, "g": g},
        result={"elliptic_multiplicity": k,
                "adjoint_polarization_degree": h_dot_d,
                "rational_part_budget": budget,
                "searched_degrees": searched},
        witnesses=tuple(witnesses),
    )
