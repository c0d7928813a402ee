"""Candidate tables for curves that could obstruct nefness of sH - C.

A curve of degree m meeting the blown-up curve in at least s*m + 1 points is
the only way the adjoint class can fail to be nef.  Its degree is capped by
the cutting bound of the family, and its arithmetic genus by the index-style
inequality p_a <= (d+m)^2 / (2 H^2) + 1 - g - s*m together with the classical
maximum (m-1)(m-2)/2 for irreducible curves of degree m.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .lattice import FamilySpec
from .riemannroch import plane_curve_genus


class SecantBoundError(ValueError):
    """The curve degree reaches the cutting bound; no residual room is left."""


@dataclass(frozen=True)
class SecantCandidate:
    """Degree, arithmetic genus and required secancy of a potential obstructor."""

    m: int
    p_a: int
    secancy: int

    def __post_init__(self):
        if self.m < 1 or self.p_a < 0:
            raise ValueError("need m >= 1 and p_a >= 0")


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


def admissible_table(family: FamilySpec, d: int, g: int) -> tuple[SecantCandidate, ...]:
    """All (m, p_a) a nef-obstructing curve could have for this case.

    Candidates with m = 3, p_a = 1 are dropped when s*3 + 1 > d: a genus-one
    cubic is a plane curve and cannot meet the degree-d curve in more points
    than its own degree provides.
    """
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


def trisecant_count(d: int, g: int) -> int:
    """Trisecant lines to a degree-d genus-g curve in 4-space."""
    if d < 3:
        raise ValueError("need d >= 3")
    return comb(d - 2, 3) - g * (d - 4)
