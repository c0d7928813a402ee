"""Numeric eliminations on the plane and on Hirzebruch surfaces.

Used by the sporadic twisted-cubic constructions: if a bisecant line to a
general twisted cubic existed, a certain anticanonical surface would carry a
two-parameter family of rational cubics, and its minimal resolution would be
either the plane, a Hirzebruch surface, or a weak del Pezzo surface whose
canonical square is the ambient's (-K)^3 = r^3 n.  All three branches die on
integer arithmetic, which is what this module certifies for a nef class H of
that square, each check's ``square`` argument, and rational curves of degree
``CURVE_DEGREE`` (3); the Hirzebruch sweep's range is derived from both.
"""
from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .outcome import CheckOutcome, verified
from .values import ValueTuple


class RuledLattice(ValueTuple, namedtuple("RuledLattice", "n")):
    """Divisor lattice of the Hirzebruch surface with section square -n.

    Basis (s, f): s^2 = -n, f^2 = 0, s.f = 1.  The effective cone is
    generated by s and f and the nef cone by f and s + n*f; both facts are
    standing axioms of the checks below.  The canonical class is
    -2s - (n+2)f.
    """

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("need n >= 0")
        return super().__new__(cls, n)

    __hash__ = tuple.__hash__

    def dot(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        return -self.n * x[0] * y[0] + x[0] * y[1] + x[1] * y[0]

    @property
    def canonical_class(self) -> tuple[int, int]:
        return (-2, -(self.n + 2))

    def is_nef(self, cls: tuple[int, int]) -> bool:
        return cls[0] >= 0 and cls[1] >= self.n * cls[0]


# The rational curves C searched for are cubics: H.C = 3.
CURVE_DEGREE = 3


def _positive_divisors(value: int) -> list[int]:
    return [k for k in range(1, value + 1) if value % k == 0]


def nef_square_classes(n: int, square: int) -> tuple[tuple[int, int], ...]:
    """Nef classes of square ``square`` on the n-th Hirzebruch surface.

    From x(2y - nx) = square and y >= nx follows x | square and
    n <= square / x^2, so the list is empty for every n > square.
    """
    surface = RuledLattice(n)
    classes = []
    for x in _positive_divisors(square):
        rest = square // x + n * x
        if rest % 2:
            continue
        y = rest // 2
        cls = (x, y)
        if surface.is_nef(cls) and surface.dot(cls, cls) == square:
            classes.append(cls)
    return tuple(classes)


def hirzebruch_search(n: int, square: int) -> list[dict]:
    """Witness pairs (H, C) for the rational-cubic configuration, expected none.

    H must be nef of square ``square``, C effective with H.C =
    ``CURVE_DEGREE``, (K+C).C = -2 (a rational curve) and C^2 >= 2, the
    numerical trace of C moving in a two-parameter family (two general
    points lie on distinct members, which then meet twice); without that
    last condition the rigid sections s and s + k*f slip through and the
    sweep is not empty.

    The range: C^2 = u(2v - n*u) >= 2 with v >= 0 needs u >= 1 (so C is
    effective) and n*u < 2v.  A nef H = (x, y) has x >= 1 and y >= n*x, so
    H.C = x*v + (y - n*x)*u bounds v <= ``CURVE_DEGREE`` and, for n >= 1,
    u < 2 * ``CURVE_DEGREE``; at n = 0, H^2 = 2xy gives y >= 1 and so u <=
    ``CURVE_DEGREE``.  Each u pins v by the degree equation.
    """
    surface = RuledLattice(n)
    k_class = surface.canonical_class
    witnesses = []
    for x, y in nef_square_classes(n, square):
        for u in range(1, 2 * CURVE_DEGREE):
            v, rest = divmod(CURVE_DEGREE - (y - n * x) * u, x)
            if rest or v < 0:
                continue
            c = (u, v)
            c_square = surface.dot(c, c)
            if c_square < 2 or surface.dot((k_class[0] + u, k_class[1] + v), c) != -2:
                continue
            witnesses.append({"n": n, "h": [x, y], "c": [u, v], "c_square": c_square})
    return witnesses


def plane_square_check(square: int) -> CheckOutcome:
    """No divisor class on the plane has square ``square``.

    Plane classes have square degree^2, so the check is exactly `square is
    not a perfect square` (0 included).
    """
    root = isqrt(square)
    is_square = root * root == square
    return verified(
        name="plane-has-no-class-of-square",
        rule="plane-class-squares",
        passed=not is_square,
        inputs={"square": square},
        result={"perfect_square": is_square},
        witnesses=(root,) if is_square else (),
    )


def hirzebruch_sweep(square: int) -> CheckOutcome:
    """No Hirzebruch surface carries the configuration.

    ``nef_square_classes`` is empty for n > ``square``, so the sweep over
    n in 0..``square`` covers every surface.
    """
    witnesses = tuple(w for n in range(square + 1) for w in hirzebruch_search(n, square))
    return verified(
        name="hirzebruch-sweep-empty",
        rule="ruled-surface-enumeration",
        passed=not witnesses,
        inputs={"n_range": [0, square],
                "bound_derivation": f"x divides {square} and n <= {square} / x^2"},
        result={"witnesses_found": len(witnesses)},
        witnesses=witnesses,
    )


def noether_contradiction(square: int) -> CheckOutcome:
    """K^2 <= 9 on a weak del Pezzo surface, but -K pulls back H on the branch's: K^2 = H^2."""
    return verified(
        name="canonical-square-exceeds-noether-bound",
        rule="noether-inequality",
        passed=square > 9,
        inputs={"k_square": square, "noether_bound": 9},
    )
