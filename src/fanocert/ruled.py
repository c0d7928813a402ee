"""Numeric eliminations on the plane and on Hirzebruch surfaces.

Used by the sporadic twisted-cubic constructions: if a bisecant line to a
general twisted cubic existed, a certain anticanonical surface would carry a
two-parameter family of rational cubics, and its minimal resolution would be
either the plane, a Hirzebruch surface, or a weak del Pezzo surface whose
canonical square is the ambient's (-K)^3 = r^3 n.  All three branches die on
integer arithmetic, which is what this module certifies for a nef class H of
that square, each check's ``square`` argument, and rational curves of degree
``CURVE_DEGREE`` (3); the Hirzebruch sweep's range is derived from both.

A class on the n-th Hirzebruch surface (n >= 0) is a pair (a, b) = a*s + b*f
in the basis of the section s and the fibre f: s^2 = -n, f^2 = 0, s.f = 1.
The checks below take as standing axioms that the effective cone is
generated by s and f, the nef cone by f and s + n*f (a >= 0 and b >= n*a),
and that the canonical class is K = -2s - (n+2)f.  Every pairing they need
is written out in closed form where it is used.
"""
from __future__ import annotations

from math import isqrt

from .outcome import CheckOutcome, verified

# The rational curves C searched for are cubics: H.C = 3.
CURVE_DEGREE = 3


def nef_square_classes(n: int, square: int) -> tuple[tuple[int, int], ...]:
    """Nef classes of square ``square`` on the n-th Hirzebruch surface.

    A nef class (x, y) has square x(2y - nx) with x >= 1 and y >= nx, so x
    divides ``square``, y = (square/x + nx)/2 needs square/x + nx even, and
    y >= nx is square >= nx^2.  Those classes are exactly the list, which is
    empty for every n > square.
    """
    return tuple((x, (square // x + n * x) // 2) for x in range(1, square + 1)
                 if not square % x and not (square // x + n * x) % 2
                 and square >= n * x * x)


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
    ``CURVE_DEGREE``.  Each u pins v by the degree equation, and K.C =
    (n - 2)u - 2v turns the rational-curve test into C^2 + (n - 2)u - 2v = -2.
    """
    witnesses = []
    for x, y in nef_square_classes(n, square):
        for u in range(1, 2 * CURVE_DEGREE):
            v, rest = divmod(CURVE_DEGREE - (y - n * x) * u, x)
            if rest or v < 0:
                continue
            c_square = u * (2 * v - n * u)
            if c_square < 2 or c_square + (n - 2) * u - 2 * v != -2:
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
