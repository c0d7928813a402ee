"""Rank-2 intersection lattices of polarized K3 surfaces.

Each surface handled by this package carries a Picard lattice with ordered
basis (polarization, curve class) and Gram matrix ``[[H2, d], [d, 2g-2]]``
where ``H2`` is the polarization square and ``(d, g)`` are the degree and
genus of the curve class.  All downstream machinery (degree/square solvers,
nefness budgets, genus caps) reduces to the bilinear form stored here, so
everything stays in exact integer arithmetic.

The ambient data live here too: the family constants, the sporadic ambients'
degrees and the blow-up's anticanonical degree, derived from H^2 = rn and
s = r (index r, H^3 = n) as the adjoint square (sH - C)^2 = r^3 n - 2rd + 2g - 2.

The value types follow :mod:`fanocert.values`.  ``DivisorClass`` and
``IntersectionLattice`` are not tuples, since the report writer must refuse a
``DivisorClass`` that reaches it and a slot read is faster than a named-tuple
field read on the hot ``gram`` path.  ``DivisorClass`` takes its equality,
repr and read-only fields from ``SlotValue`` and adds hashing and the class
arithmetic.  Only ``IntersectionLattice`` keeps its own equality, hash and
repr, over ``gram`` alone: a lattice stores its determinant in a second
read-only slot, computed once, since the signature check, the degree-line
solver and the decomposition search all read it.  Each class binds its slot
setters once below it (``_set_a, _set_b = slot_setters(DivisorClass)``).
"""
from __future__ import annotations

from operator import index

from .values import SlotValue, read_only, slot_setters


class LatticeSignatureError(ValueError):
    """The Gram determinant is >= 0; index-style bounds do not apply."""


class DivisorClass(SlotValue):
    """Integer coefficient pair against a lattice's ordered basis."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        _set_a(self, a)
        _set_b(self, b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __iter__(self):
        # A tuple iterator, not a generator: ``a, b = cls`` starts no frame.
        return iter((self.a, self.b))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(scalar * self.a, scalar * self.b)


_set_a, _set_b = slot_setters(DivisorClass)


def as_class(value) -> DivisorClass:
    """Coerce a ``DivisorClass`` or a plain ``(a, b)`` pair of integers.

    A pair's entries go through ``operator.index``, so an integer subclass
    becomes a plain int.  A ``bool``, a float or a string is refused with a
    ``TypeError`` naming it, where ``int`` would have truncated or parsed it.
    """
    if isinstance(value, DivisorClass):
        return value
    a, b = value
    return DivisorClass(_coefficient(a), _coefficient(b))


def _coefficient(value) -> int:
    """``value`` as a plain int; a bool is refused although it is an int."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError(f"class coefficient must be an integer, got {type(value).__name__} {value!r}")


class IntersectionLattice:
    """Even rank-2 lattice given by an explicit symmetric Gram matrix.

    ``det`` is computed once here; equality, hashing and repr read ``gram`` only.
    """

    __slots__ = ("gram", "det")
    __setattr__ = __delattr__ = read_only

    def __init__(self, gram: tuple[tuple[int, int], tuple[int, int]]):
        (p, q), (r, s) = gram
        if q != r:
            raise ValueError("Gram matrix must be symmetric")
        if p % 2 or s % 2:
            raise ValueError("diagonal Gram entries must be even")
        _set_gram(self, gram)
        _set_det(self, p * s - q * q)

    def __repr__(self) -> str:
        return f"IntersectionLattice(gram={self.gram!r})"

    def __eq__(self, other):
        if type(other) is not IntersectionLattice:
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

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


_set_gram, _set_det = slot_setters(IntersectionLattice)


class FamilySpec(SlotValue):
    """One ambient family of blow-up constructions.

    ``h_square`` is the square of the hyperplane class on the K3 slice,
    ``index_multiplier`` the coefficient s in the adjoint class sH - C, and
    ``cutting_bound`` the maximal degree of the residual intersection used
    by the secant-degree bound.

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

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def section_genus(self) -> int:
        """Genus of a hyperplane section of the K3 slice."""
        return self.h_square // 2 + 1

    @property
    def adjoint_class(self) -> DivisorClass:
        """Restriction of the blow-up's anticanonical class: sH - C."""
        return DivisorClass(self.index_multiplier, -1)


(_set_name, _set_h_square, _set_index_multiplier, _set_cutting_bound,
 _set_derived_constants) = slot_setters(FamilySpec)

FAMILIES: dict[str, FamilySpec] = {
    "quadric": FamilySpec("quadric", 6, 3, 18),
    "v4": FamilySpec("v4", 8, 2, 16),
    "v5": FamilySpec("v5", 10, 2, 20, derived_constants=True),
    "x14": FamilySpec("x14", 14, 1, 28, derived_constants=True),
}

# Anticanonical degree of the ambient of the sporadic twisted-cubic
# constructions; a prime Fano threefold of anticanonical degree 2g-2 has
# genus g.
SPORADIC_AMBIENT_DEGREE = {"X10": 10, "X16": 16, "X18": 18}


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


def square_and_genus(lattice: IntersectionLattice, divisor) -> tuple[int, int]:
    """Self-intersection and adjunction genus (square/2 + 1) of a class."""
    square = lattice.pair(divisor, divisor)
    return square, square // 2 + 1
