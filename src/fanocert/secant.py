"""Candidate tables for curves that could obstruct nefness of sH - C.

A curve of degree m meeting the blown-up curve in at least s*m + 1 points is
the only way the adjoint class can fail to be nef.  Its degree is capped by
the cutting bound of the family, and its arithmetic genus by the index-style
inequality p_a <= (d+m)^2 / (2 H^2) + 1 - g - s*m together with the classical
maximum (m-1)(m-2)/2 for irreducible curves of degree m.  A table lists
plain (m, p_a, secancy) tuples, built directly in (p_a, m) order.
"""
from __future__ import annotations

from math import comb

from .lattice import FamilySpec
from .riemannroch import plane_curve_genus


class SecantBoundError(ValueError):
    """The curve degree reaches the cutting bound; no residual room is left."""


def max_secant_degree(family: FamilySpec, d: int) -> int:
    if d >= family.cutting_bound:
        raise SecantBoundError(
            f"d={d} is not below the cutting bound {family.cutting_bound} "
            f"of {family.name}"
        )
    return family.cutting_bound - d


def genus_cap(family: FamilySpec, d: int, g: int, m: int) -> int:
    """Floor of (d+m)^2 / (2 H^2) + 1 - g - s*m, by integer floor division.

    Only the first term is fractional, so flooring it alone floors the sum.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return ((d + m) ** 2 // (2 * family.h_square)
            + 1 - g - family.index_multiplier * m)


def admissible_table(family: FamilySpec, d: int,
                     g: int) -> tuple[tuple[int, int, int], ...]:
    """All (m, p_a, secancy) a nef-obstructing curve could have for this case.

    Entries are plain-int tuples in (p_a, m) order, secancy s*m + 1 being
    the number of points the curve must meet the degree-d curve in.  A
    degree's genera run from 0 to its cap, so every degree listed has a
    genus-0 entry.  The entry m = 3, p_a = 1 is dropped when s*3 + 1 > d: a
    genus-one cubic is a plane curve and cannot meet the degree-d curve in
    more points than its own degree provides.
    """
    s = family.index_multiplier
    caps = []
    for m in range(1, max_secant_degree(family, d) + 1):
        cap = min(genus_cap(family, d, g, m), plane_curve_genus(m))
        if m == 3 and 3 * s + 1 > d:
            cap = min(cap, 0)
        caps.append((m, cap, s * m + 1))
    top = max(cap for _, cap, _ in caps)
    return tuple([(m, p_a, secancy) for p_a in range(top + 1)
                  for m, cap, secancy in caps if cap >= p_a])


def trisecant_count(d: int, g: int) -> int:
    """Trisecant lines to a degree-d genus-g curve in 4-space."""
    if d < 3:
        raise ValueError("need d >= 3")
    return comb(d - 2, 3) - g * (d - 4)
