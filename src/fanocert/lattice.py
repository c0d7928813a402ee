"""Rank-2 intersection lattices of polarized K3 surfaces.

Each surface handled by this package carries a Picard lattice with ordered
basis (polarization, curve class) and Gram matrix ``[[H2, d], [d, 2g-2]]``
where ``H2`` is the polarization square and ``(d, g)`` are the degree and
genus of the curve class.  All downstream machinery (degree/square solvers,
nefness budgets, genus caps) reduces to the bilinear form stored here, so
everything stays in exact integer arithmetic.

The ambient data live here too: the family constants, the sporadic ambients'
degrees and the blow-up's anticanonical degree formula.
"""
from __future__ import annotations

from dataclasses import dataclass


class LatticeSignatureError(ValueError):
    """The Gram determinant is >= 0; index-style bounds do not apply."""


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficient pair against a lattice's ordered basis."""

    a: int
    b: int

    def __iter__(self):
        yield self.a
        yield self.b

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(scalar * self.a, scalar * self.b)

    def coords(self) -> tuple[int, int]:
        return (self.a, self.b)


def as_class(value) -> DivisorClass:
    """Coerce a ``DivisorClass`` or a plain ``(a, b)`` pair."""
    if isinstance(value, DivisorClass):
        return value
    a, b = value
    return DivisorClass(int(a), int(b))


@dataclass(frozen=True)
class IntersectionLattice:
    """Even rank-2 lattice given by an explicit symmetric Gram matrix."""

    gram: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        (p, q), (r, s) = self.gram
        if q != r:
            raise ValueError("Gram matrix must be symmetric")
        if p % 2 or s % 2:
            raise ValueError("diagonal Gram entries must be even")

    @property
    def det(self) -> int:
        (p, q), (_, s) = self.gram
        return p * s - q * q

    def pair(self, x, y) -> int:
        x = as_class(x)
        y = as_class(y)
        (p, q), (_, s) = self.gram
        return x.a * (p * y.a + q * y.b) + x.b * (q * y.a + s * y.b)

    def degree(self, x) -> int:
        """Pairing against the polarization (first basis vector)."""
        x = as_class(x)
        (p, q), _ = self.gram
        return p * x.a + q * x.b


@dataclass(frozen=True)
class FamilySpec:
    """One ambient family of blow-up constructions.

    ``h_square`` is the square of the hyperplane class on the K3 slice,
    ``index_multiplier`` the coefficient s in the adjoint class sH - C,
    ``cutting_bound`` the maximal degree of the residual intersection used
    by the secant-degree bound, and ``anticanonical_cube_base`` the constant
    term of the blown-up threefold's anticanonical degree formula.

    The quadric and v4 cutting bounds are fixed by the published analysis;
    the v5 and x14 constants are extensions derived from the surfaces being
    cut out by quadrics (bound = twice the surface degree), so arithmetic
    based on them is marked ``derived-extension`` in certificates.
    """

    name: str
    h_square: int
    index_multiplier: int
    cutting_bound: int
    anticanonical_cube_base: int
    derived_constants: bool = False

    def __post_init__(self):
        if self.h_square <= 0 or self.h_square % 2:
            raise ValueError("polarization square must be a positive even integer")
        if self.index_multiplier < 1:
            raise ValueError("index multiplier must be >= 1")

    @property
    def section_genus(self) -> int:
        """Genus of a hyperplane section of the K3 slice."""
        return self.h_square // 2 + 1

    @property
    def adjoint_class(self) -> DivisorClass:
        """Restriction of the blow-up's anticanonical class: sH - C."""
        return DivisorClass(self.index_multiplier, -1)


FAMILIES: dict[str, FamilySpec] = {
    "quadric": FamilySpec("quadric", 6, 3, 18, 54),
    "v4": FamilySpec("v4", 8, 2, 16, 32),
    "v5": FamilySpec("v5", 10, 2, 20, 40, derived_constants=True),
    "x14": FamilySpec("x14", 14, 1, 28, 14, derived_constants=True),
}

# Anticanonical degree of the ambient of the sporadic twisted-cubic
# constructions; a prime Fano threefold of anticanonical degree 2g-2 has
# genus g.
SPORADIC_AMBIENT_DEGREE = {"X10": 10, "X16": 16, "X18": 18}


def anticanonical_cube(family: FamilySpec, d: int, g: int) -> int:
    """Anticanonical degree of the blow-up along a degree-d genus-g curve."""
    return family.anticanonical_cube_base - 2 * family.index_multiplier * d - 2 + 2 * g


def make_family_lattice(family: FamilySpec, d: int, g: int) -> IntersectionLattice:
    """Picard lattice of the family's K3 slice through a degree-d genus-g curve."""
    if d < 1:
        raise ValueError("curve degree must be >= 1")
    if g < 0:
        raise ValueError("curve genus must be >= 0")
    gram = ((family.h_square, d), (d, 2 * g - 2))
    lattice = IntersectionLattice(gram)
    if lattice.det >= 0:
        raise LatticeSignatureError(
            f"lattice for {family.name} (d={d}, g={g}) has determinant "
            f"{lattice.det} >= 0; signature (1,1) is required"
        )
    return lattice


def square_and_genus(lattice: IntersectionLattice, divisor) -> tuple[int, int]:
    """Self-intersection and adjunction genus (square/2 + 1) of a class."""
    square = lattice.pair(divisor, divisor)
    return square, square // 2 + 1
