"""Rank-2 intersection lattices of polarized K3 surfaces.

Each surface handled by this package carries a Picard lattice with ordered
basis (polarization, curve class) and Gram matrix ``[[H2, d], [d, 2g-2]]``
where ``H2`` is the polarization square and ``(d, g)`` are the degree and
genus of the curve class.  All downstream machinery (degree/square solvers,
nefness budgets, genus caps) reduces to the bilinear form stored here, so
everything stays in exact integer arithmetic.

The ambient data live here too: the family constants, the sporadic ambients'
degrees and the blow-up's anticanonical degree formula.

The value types here are plain ``__slots__`` classes with read-only fields,
value equality and hashing.  A frozen dataclass would generate those methods
by ``exec`` at import, about half a millisecond a class, which every cold
``fanocert verify`` run pays.  They are not tuples either: the report writer
must refuse a ``DivisorClass`` that reaches it, and a slot read is faster
than a named-tuple field read on the hot ``gram`` path.  ``__init__`` fills
each slot through its descriptor's own setter, bound once below the class
(``_set_a = DivisorClass.a.__set__``), because the read-only ``__setattr__``
is in the way and ``object.__setattr__`` costs a lookup per field.  A
lattice stores its determinant in a second read-only slot, computed once,
since the signature check, the degree-line solver and the decomposition
search all read it; equality, hashing and repr see only ``gram``.
"""
from __future__ import annotations


class LatticeSignatureError(ValueError):
    """The Gram determinant is >= 0; index-style bounds do not apply."""


def _read_only(self, name, *value):
    raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__}")


class DivisorClass:
    """Integer coefficient pair against a lattice's ordered basis."""

    __slots__ = ("a", "b")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, a: int, b: int):
        _set_a(self, a)
        _set_b(self, b)

    def __repr__(self) -> str:
        return f"DivisorClass(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

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


_set_a = DivisorClass.a.__set__
_set_b = DivisorClass.b.__set__


def as_class(value) -> DivisorClass:
    """Coerce a ``DivisorClass`` or a plain ``(a, b)`` pair."""
    if isinstance(value, DivisorClass):
        return value
    a, b = value
    return DivisorClass(int(a), int(b))


class IntersectionLattice:
    """Even rank-2 lattice given by an explicit symmetric Gram matrix.

    ``det`` is computed once here; equality, hashing and repr read ``gram`` only.
    """

    __slots__ = ("gram", "det")
    __setattr__ = __delattr__ = _read_only

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


_set_gram = IntersectionLattice.gram.__set__
_set_det = IntersectionLattice.det.__set__


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

    __slots__ = ("name", "h_square", "index_multiplier", "cutting_bound",
                 "anticanonical_cube_base", "derived_constants")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, name: str, h_square: int, index_multiplier: int, cutting_bound: int,
                 anticanonical_cube_base: int, derived_constants: bool = False):
        if h_square <= 0 or h_square % 2:
            raise ValueError("polarization square must be a positive even integer")
        if index_multiplier < 1:
            raise ValueError("index multiplier must be >= 1")
        _set_name(self, name)
        _set_h_square(self, h_square)
        _set_index_multiplier(self, index_multiplier)
        _set_cutting_bound(self, cutting_bound)
        _set_anticanonical_cube_base(self, anticanonical_cube_base)
        _set_derived_constants(self, derived_constants)

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in FamilySpec.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in FamilySpec.__slots__)
        return f"FamilySpec({fields})"

    def __eq__(self, other):
        if type(other) is not FamilySpec:
            return NotImplemented
        return self._fields() == other._fields()

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


_set_name = FamilySpec.name.__set__
_set_h_square = FamilySpec.h_square.__set__
_set_index_multiplier = FamilySpec.index_multiplier.__set__
_set_cutting_bound = FamilySpec.cutting_bound.__set__
_set_anticanonical_cube_base = FamilySpec.anticanonical_cube_base.__set__
_set_derived_constants = FamilySpec.derived_constants.__set__

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
