"""Section counting on projective space, K3 surfaces and curves.

A linear series g^r_d is the plain pair (r, d).  Residuation is its formula
and holds on every integer triple; a caller decides by comparing the result
with the one valid series its argument needs.
"""
from __future__ import annotations

from math import comb

from .lattice import IntersectionLattice


class SectionCountError(ValueError):
    """The requested count lies outside the regime this engine decides."""


def monomial_count(n: int, s: int) -> int:
    """Dimension of degree-s forms on projective n-space: C(n+s, s)."""
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    return comb(n + s, s)


def ideal_curve_bound(n: int, s: int, d: int, g: int) -> int:
    """Lower bound for the degree-s forms through a degree-d genus-g curve.

    Subtracts the nonspecial section count s*d + 1 - g of the restricted
    bundle from the ambient form count; valid only when that count is
    nonnegative, which is asserted rather than re-derived.
    """
    restricted = s * d + 1 - g
    if restricted < 0:
        raise SectionCountError(
            f"restricted count {restricted} < 0; the bound formula needs a "
            "nonspecial restriction"
        )
    return monomial_count(n, s) - restricted


def k3_h0(lattice: IntersectionLattice, divisor, nef_hint: bool = False) -> int:
    """Global sections of a line bundle on a K3, in the two decided regimes.

    A class of square -2 is rigid (one section).  A nef class of positive
    square has square/2 + 2 sections.  Anything else raises: this engine
    does not decide general effectivity.
    """
    square = lattice.pair(divisor, divisor)
    if square == -2:
        return 1
    if nef_hint and square > 0:
        return square // 2 + 2
    raise SectionCountError(
        f"h0-undetermined for square {square} (nef_hint={nef_hint})"
    )


def residual_series(g: int, r: int, d: int) -> tuple[int, int]:
    """Residual (r + g - 1 - d, 2g - 2 - d) of g^r_d in the canonical system of genus g."""
    return r + g - 1 - d, 2 * g - 2 - d


def brill_noether(g: int, r: int, d: int) -> int:
    """rho(g, r, d) = g - (r+1)(g - d + r)."""
    return g - (r + 1) * (g - d + r)


def plane_curve_genus(d: int) -> int:
    """Arithmetic genus of a plane curve of degree d, (d-1)(d-2)/2.

    Also the maximal arithmetic genus of any irreducible curve of degree d.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    return (d - 1) * (d - 2) // 2


def span_dimension_bound(deg: int, g: int) -> int:
    """Dimension bound deg - g for the linear span of a nonspecial curve."""
    if deg <= 2 * g - 2:
        raise SectionCountError(
            f"span bound needs deg > 2g-2, got deg={deg}, g={g}"
        )
    return deg - g
