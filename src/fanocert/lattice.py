"""Rank-2 intersection lattices of polarized K3 surfaces.

Each surface handled by this package carries a Picard lattice with ordered
basis (polarization, curve class) and Gram matrix ``[[H2, d], [d, 2g-2]]``
where ``H2`` is the polarization square and ``(d, g)`` are the degree and
genus of the curve class.  All downstream machinery (degree/square solvers,
nefness budgets, genus caps) reduces to the bilinear form stored here, so
everything stays in exact integer arithmetic.

The ambient data live here too.  ``AMBIENTS`` is the one home of the index r and
degree H^3 = n of each rank-1 ambient; the family constants are H^2 = rn and s = r,
and the blow-up's anticanonical degree is (sH - C)^2 = r^3 n - 2rd + 2g - 2.

The value types follow :mod:`fanocert.values`: ``DivisorClass`` and
``IntersectionLattice`` take their equality, repr, hash and read-only fields
from ``HashableValue``.  Neither is a tuple, since the report writer must
refuse a ``DivisorClass`` that reaches it and a slot read is faster than a
named-tuple field read on the hot ``gram`` path.  A lattice stores its
determinant in a second slot, computed once, since the signature check, the
degree-line solver and the decomposition search all read it; it is a function
of ``gram``, so comparing both fields compares the Gram matrices.  ``pair``
and ``degree`` read ``.a`` and ``.b`` from the ``DivisorClass`` they are
given.  Each class binds its slot setters once below it
(``_set_a, _set_b = slot_setters(DivisorClass)``).
"""
from __future__ import annotations

from .values import HashableValue, slot_setters


class LatticeSignatureError(ValueError):
    """The Gram determinant is >= 0; index-style bounds do not apply."""


class DivisorClass(HashableValue):
    """Integer coefficient pair against a lattice's ordered basis."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        _set_a(self, a)
        _set_b(self, b)

    def __iter__(self):
        # A tuple iterator, not a generator: ``a, b = cls`` starts no frame.
        return iter((self.a, self.b))


_set_a, _set_b = slot_setters(DivisorClass)


class IntersectionLattice(HashableValue):
    """Even rank-2 lattice given by an explicit symmetric Gram matrix; ``det`` is computed once."""

    __slots__ = ("gram", "det")

    def __init__(self, gram: tuple[tuple[int, int], tuple[int, int]]):
        (p, q), (r, s) = gram
        if q != r:
            raise ValueError("Gram matrix must be symmetric")
        if p % 2 or s % 2:
            raise ValueError("diagonal Gram entries must be even")
        _set_gram(self, gram)
        _set_det(self, p * s - q * q)

    def pair(self, x: DivisorClass, y: DivisorClass) -> int:
        (p, q), (_, s) = self.gram
        return x.a * (p * y.a + q * y.b) + x.b * (q * y.a + s * y.b)

    def degree(self, x: DivisorClass) -> int:
        """Pairing against the polarization (first basis vector)."""
        (p, q), _ = self.gram
        return p * x.a + q * x.b


_set_gram, _set_det = slot_setters(IntersectionLattice)


class FamilySpec(HashableValue):
    """One ambient family of blow-up constructions.

    ``h_square`` is the square of the hyperplane class on the K3 slice,
    ``index_multiplier`` the coefficient s in the adjoint class sH - C, and
    ``cutting_bound`` the maximal degree of the residual intersection used
    by the secant-degree bound.  ``FAMILIES`` builds the first two as rn and r.

    The quadric and v4 cutting bounds are fixed by the published analysis;
    the v5 and x14 constants are extensions derived from the surfaces being
    cut out by quadrics (bound = twice the surface degree), so arithmetic
    based on them is marked ``derived-extension`` in certificates.
    """

    __slots__ = ("name", "h_square", "index_multiplier", "cutting_bound", "derived_constants")

    def __init__(self, name: str, h_square: int, index_multiplier: int, cutting_bound: int,
                 derived_constants: bool = False):
        if h_square <= 0 or h_square % 2:
            raise ValueError("polarization square must be a positive even integer")
        if index_multiplier < 1:
            raise ValueError("index multiplier must be >= 1")
        _set_name(self, name)
        _set_h_square(self, h_square)
        _set_index_multiplier(self, index_multiplier)
        _set_cutting_bound(self, cutting_bound)
        _set_derived_constants(self, derived_constants)

    @property
    def section_genus(self) -> int:
        """Genus of a hyperplane section of the K3 slice."""
        return self.h_square // 2 + 1


(_set_name, _set_h_square, _set_index_multiplier, _set_cutting_bound,
 _set_derived_constants) = slot_setters(FamilySpec)

# Index r and degree n = H^3 of each ambient: Iskovskikh-Prokhorov, *Fano varieties*, Table 12.2.
AMBIENTS: dict[str, tuple[int, int]] = {
    "quadric": (3, 2), "v4": (2, 4), "v5": (2, 5), "x14": (1, 14),
    "X10": (1, 10), "X16": (1, 16), "X18": (1, 18)}

# The sporadic (prime, r = 1) ambients by name, so new AMBIENTS rows leave the loader as it is.
SPORADIC_AMBIENTS = ("X10", "X16", "X18")

# H^2 = rn and s = r from the ambient row; only the last two columns are per family.
FAMILIES: dict[str, FamilySpec] = {
    name: FamilySpec(name, r * n, r, cutting_bound, derived_constants)
    for name, cutting_bound, derived_constants in (
        ("quadric", 18, False), ("v4", 16, False), ("v5", 20, True), ("x14", 28, True))
    for r, n in (AMBIENTS[name],)}


def anticanonical_cube(family: FamilySpec, d: int, g: int) -> int:
    """Anticanonical degree of the blow-up along a degree-d genus-g curve: (sH - C)^2."""
    s = family.index_multiplier
    return s * s * family.h_square - 2 * s * d + 2 * g - 2


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


def square_and_genus(lattice: IntersectionLattice, divisor: DivisorClass) -> tuple[int, int]:
    """Self-intersection and adjunction genus (square/2 + 1) of a class."""
    square = lattice.pair(divisor, divisor)
    return square, square // 2 + 1
