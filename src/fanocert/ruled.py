"""Numeric eliminations on the plane and on Hirzebruch surfaces.

Used by the sporadic twisted-cubic constructions: if a bisecant line to a
general twisted cubic existed, a certain anticanonical surface would carry a
two-parameter family of rational cubics, and its minimal resolution would be
either the plane, a Hirzebruch surface, or a weak del Pezzo surface of
canonical square 10.  All three branches die on integer arithmetic, which is
what this module certifies.
"""
from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .outcome import CheckOutcome, verified


class RuledLattice(namedtuple("RuledLattice", "n")):
    """Divisor lattice of the Hirzebruch surface with section square -n.

    Basis (s, f): s^2 = -n, f^2 = 0, s.f = 1.  The effective cone is
    generated by s and f and the nef cone by f and s + n*f; both facts are
    standing axioms of the checks below.  The canonical class is
    -2s - (n+2)f.  A named tuple that equals only another ``RuledLattice``.
    """

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("need n >= 0")
        return super().__new__(cls, n)

    def __eq__(self, other):
        return type(other) is RuledLattice and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def dot(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        return -self.n * x[0] * y[0] + x[0] * y[1] + x[1] * y[0]

    @property
    def canonical_class(self) -> tuple[int, int]:
        return (-2, -(self.n + 2))

    def is_nef(self, cls: tuple[int, int]) -> bool:
        return cls[0] >= 0 and cls[1] >= self.n * cls[0]

    def is_effective(self, cls: tuple[int, int]) -> bool:
        return cls[0] >= 0 and cls[1] >= 0


# The configuration searched for: a nef class H of square 10 and rational
# cubics C, of degree H.C = 3.
H_SQUARE = 10
CURVE_DEGREE = 3


def _positive_divisors(value: int) -> list[int]:
    return [k for k in range(1, value + 1) if value % k == 0]


def nef_square_classes(n: int) -> tuple[tuple[int, int], ...]:
    """Nef classes of square ``H_SQUARE`` on the n-th Hirzebruch surface.

    From x(2y - nx) = H_SQUARE and y >= nx follows x | H_SQUARE and
    n <= H_SQUARE / x^2, so the list is empty for every n > H_SQUARE.
    """
    surface = RuledLattice(n)
    classes = []
    for x in _positive_divisors(H_SQUARE):
        rest = H_SQUARE // x + n * x
        if rest % 2:
            continue
        y = rest // 2
        cls = (x, y)
        if surface.is_nef(cls) and surface.dot(cls, cls) == H_SQUARE:
            classes.append(cls)
    return tuple(classes)


def hirzebruch_search(n: int, require_moving: bool = True) -> list[dict]:
    """Witness pairs (H, C) for the rational-cubic configuration, expected none.

    H must be nef of square ``H_SQUARE``, C effective with H.C =
    ``CURVE_DEGREE`` and (K+C).C = -2 (a rational curve).
    ``require_moving`` adds C^2 >= 2, the numerical trace of C moving in a
    two-parameter family (two general points lie on distinct members, which
    then meet twice); without it the rigid sections s and s + k*f slip
    through and the sweep is not empty.
    """
    surface = RuledLattice(n)
    k_class = surface.canonical_class
    witnesses = []
    for h in nef_square_classes(n):
        x, y = h
        w = y - n * x  # H.s
        candidates = set()
        # u = 0: adjunction forces C = f exactly.
        candidates.add((0, 1))
        # u = 1: adjunction holds identically; the degree equation pins v.
        v_num = CURVE_DEGREE - w
        if v_num % x == 0 and v_num // x >= 0:
            candidates.add((1, v_num // x))
        # u >= 2: adjunction pins v = (n*u + 2)/2; the degree equation bounds u.
        if w > 0:
            for u in range(2, CURVE_DEGREE // w + 1):
                if (n * u + 2) % 2 == 0:
                    candidates.add((u, (n * u + 2) // 2))
        elif x > 0 and CURVE_DEGREE % x == 0:
            v = CURVE_DEGREE // x
            if n > 0 and (2 * v - 2) % n == 0 and (2 * v - 2) // n >= 2:
                candidates.add(((2 * v - 2) // n, v))
        for c in sorted(candidates):
            if not surface.is_effective(c):
                continue
            if surface.dot(c, h) != CURVE_DEGREE:
                continue
            adjunction = surface.dot((k_class[0] + c[0], k_class[1] + c[1]), c)
            if adjunction != -2:
                continue
            c_square = surface.dot(c, c)
            if require_moving and c_square < 2:
                continue
            witnesses.append({"n": n, "h": [x, y], "c": [c[0], c[1]],
                              "c_square": c_square})
    return witnesses


def p2_square_ten(square: int = 10) -> CheckOutcome:
    """No divisor class on the plane has the given square.

    Plane classes have square degree^2, so the check is exactly `square is
    not a perfect square` (0 included).
    """
    root = isqrt(square) if square >= 0 else None
    is_square = root is not None and root * root == square
    return verified(
        name="plane-has-no-class-of-square",
        rule="plane-class-squares",
        passed=not is_square,
        inputs={"square": square},
        result={"perfect_square": is_square},
        witnesses=(root,) if is_square else (),
    )


def noether_contradiction(k_square: int) -> CheckOutcome:
    """A weak del Pezzo surface has canonical square at most 9."""
    return verified(
        name="canonical-square-exceeds-noether-bound",
        rule="noether-inequality",
        passed=k_square > 9,
        inputs={"k_square": k_square, "noether_bound": 9},
    )
