"""Section counting on projective space, K3 surfaces and curves."""
from __future__ import annotations

from collections import namedtuple
from math import comb

from .lattice import IntersectionLattice


class SectionCountError(ValueError):
    """The requested count lies outside the regime this engine decides."""


class UndeterminedH0Error(SectionCountError):
    """h0-undetermined: the class is neither rigid nor certified nef-positive."""


class LinearSeries(namedtuple("LinearSeries", "r d")):
    """A g^r_d on a curve: projective dimension r, degree d.

    A named tuple that equals only another ``LinearSeries``.
    """

    __slots__ = ()

    def __new__(cls, r: int, d: int):
        if r < 0 or d < 0:
            raise ValueError("a linear series needs r >= 0 and d >= 0")
        return super().__new__(cls, r, d)

    def __eq__(self, other):
        return type(other) is LinearSeries and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def label(self) -> str:
        return f"g^{self.r}_{self.d}"


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
    raise UndeterminedH0Error(
        f"h0-undetermined for square {square} (nef_hint={nef_hint})"
    )


def residual_series(g: int, series: LinearSeries) -> LinearSeries:
    """Residual of a series in the canonical system of a genus-g curve."""
    if not 0 <= series.d <= 2 * g - 2:
        raise SectionCountError(
            f"residuation needs 0 <= d <= 2g-2, got d={series.d}, g={g}"
        )
    degree = 2 * g - 2 - series.d
    dimension = series.r + g - 1 - series.d
    if dimension < 0:
        raise SectionCountError(
            f"residual dimension {dimension} < 0 for {series.label()} at genus {g}"
        )
    return LinearSeries(dimension, degree)


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
