"""Nefness and base-point-freeness certificates for the adjoint class sH - C.

Nefness: every admissible obstructor type (m, p_a) is searched for in the
lattice; any class found must fail the secancy requirement against C.

Freeness: a nef class of square >= 2 that is not free decomposes as k E + G
with E elliptic (square 0, H.E >= 3), G a (-2)-curve and E.G = 1.  Matching
squares pins k, and the polarization degree budget left for G is
H.(sH - C) - 3k; if positive, a (-2)-class of that small degree must exist,
which the lattice search decides.

Each certificate builds its lattice once and makes one ``curve_classes``
sweep for classes of square >= -2.  Nefness reads the secant table once:
each listed degree m has the genera 0..cap[m], so the table is the genus
caps, and a swept class of degree m and square 2 p_a - 2 is an obstructor
exactly when p_a <= cap[m].  Its meeting number with C is d a + (2g - 2) b,
read off the Gram matrix.  Freeness sweeps every degree up to the budget and
keeps the (-2)-classes.
"""
from __future__ import annotations

from .diophantine import curve_classes
from .lattice import FamilySpec, make_family_lattice
from .outcome import CheckOutcome, DERIVED, VERIFIED
from .secant import admissible_table


class FreenessInapplicableError(ValueError):
    """The decomposition criterion needs square >= 2 (elliptic multiplicity k >= 2)."""


def _table_kind(family: FamilySpec) -> str:
    return DERIVED if family.derived_constants else VERIFIED


def nef_certificate(family: FamilySpec, d: int, g: int) -> CheckOutcome:
    """Search out every admissible obstructor and eliminate it by secancy."""
    lattice = make_family_lattice(family, d, g)
    table = admissible_table(family, d, g)
    # A degree's genera run from 0 to its cap in the table's (p_a, m) order,
    # so one pass keeps each degree's last entry, its cap and secancy, and
    # keys the degrees in the order of their genus-0 entries.  A class of
    # degree m and square 2 p_a - 2 >= -2 obstructs when p_a <= cap[m]; the
    # hits, sorted by (p_a, m, a, b), come out in table order.
    caps = {m: (p_a, secancy) for m, p_a, secancy in table}
    hits = []
    for m, a, b, square in curve_classes(lattice, list(caps), -2):
        p_a = square // 2 + 1
        cap, secancy = caps[m]
        if p_a <= cap:
            hits.append((p_a, m, a, b, secancy))
    hits.sort()
    # C pairs with (a, b) as d a + C^2 b, C^2 = 2g - 2.
    curve_square = 2 * g - 2
    witnesses = []
    all_eliminated = True
    for p_a, m, a, b, secancy in hits:
        meets = d * a + curve_square * b
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
