"""Non-tetragonality certificates for hyperplane sections of degree-14 K3s.

A base-point-free pencil of degree 4 on the section curve T (genus h^2/2 + 1)
would be cut out by a divisor class D = a*T + b*C on the surface satisfying

    (T - D).T >= 0   and   4 <= D.T <= genus(T) - 1,

with D moving (at least a pencil of sections).  The solutions of this system
are the degree lines of the window's degrees (``diophantine.degree_lines``).
Along each line the square is a downward parabola, so the solutions of
square at or above the route's threshold are one exact range of the line's
parameter, and the maximum square off that range sits at one of its two
neighbours (``line_maximum``).  Negative squares force the donor to be
reducible or rigid, and the missing component types (lines, conics, short
elliptic classes) are ruled out by lattice searches.  The solutions in the
range, which the square analysis cannot kill, are singled out as specials
and eliminated individually.

The certificate is its checks: the per-family maxima are the ``max_square``,
``attained_at`` and ``excluded_k`` of the ``donor-family-squares-negative``
witnesses, each special is a ``special-donor-(a,b)`` check with its
``square``, ``t_degree`` and ``elimination``, and the fixed/moving part
contradiction is ``fixed-moving-square-contradiction``.

Since (T - D).T = T^2 - D.T with T^2 = h^2, the first inequality only says
D.T <= h^2, which the window's top h^2/2 meets, so each donor family is a
whole degree line rather than a half-line.  The genus and the window are
read from ``FAMILIES["x14"]`` at call time, as h^2 is.  A window holding no
multiple of gcd(h^2, d) fails ``donor-family-squares-negative`` with that as
its ``reason``, and no route or special-donor check follows.
"""
from __future__ import annotations

from math import gcd

from .diophantine import degree_lines, line_maximum, short_curve_checks
from .lattice import FAMILIES, make_family_lattice
from .outcome import CheckOutcome, CITED, VERIFIED, cited, verified
from .values import SlotValue, slot_setters


# Degree of the excluded pencil: the bottom of the donor degree window
# [PENCIL_DEGREE, section genus - 1].
PENCIL_DEGREE = 4


class TetragonalReport(SlotValue):
    """The checks of one certificate and the gaps they flag."""

    __slots__ = ("checks", "discrepancies")

    def __init__(self, checks: tuple[CheckOutcome, ...], discrepancies: tuple[str, ...]):
        _set_checks(self, checks)
        _set_discrepancies(self, discrepancies)

    def outcomes(self) -> tuple[CheckOutcome, ...]:
        return self.checks


_set_checks, _set_discrepancies = slot_setters(TetragonalReport)


def _eliminate_special(square: int, t_degree: int) -> tuple[str, str, str]:
    """(elimination, kind, note) of a donor the square analysis leaves open."""
    if square == -2:
        return ("rigid-class", VERIFIED,
                "square -2 classes are rigid (one section), so the class cannot move")
    if square < -2 and t_degree - 3 <= 2:
        return ("short-fixed-part", VERIFIED,
                "a moving part needs degree >= 3 (no curves of degree <= 2 exist), "
                "leaving a fixed part of degree <= 2, and no line or conic class exists")
    if square >= 0:
        return ("curve-class-donor", CITED,
                "square >= 0: the rigidity elimination does not apply; for an "
                "irreducible class of square 0 the section count is 2, so the "
                "exclusion of this donor is recorded as a cited rule")
    return ("unresolved", CITED,
            "no arithmetic elimination available for this solution")


def fixed_moving_bound(square_cap: int, multiplicity_cap: int) -> CheckOutcome:
    """Contradiction -2 m^2 > square cap between the split square and the cap.

    A donor splitting as fixed part m*R (R rational, m <= multiplicity_cap)
    plus a moving part has square at least -2 m^2; when that exceeds the
    certified maximum square of the donors, none of them can exist.  The
    fixed part's degree cap ``t_f_max`` is the multiplicity cap itself: both
    are the top donor degree less the moving part's 3.
    """
    floor_value = -2 * multiplicity_cap * multiplicity_cap
    return verified(
        name="fixed-moving-square-contradiction",
        rule="fixed-part-multiplicity-bound",
        passed=floor_value > square_cap,
        inputs={"square_cap": square_cap, "t_f_max": multiplicity_cap,
                "multiplicity_cap": multiplicity_cap},
        result={"split_square_floor": floor_value},
    )


def tetragonal_certificate(d: int, g: int) -> TetragonalReport:
    """Certify that no lattice-compatible donor for a degree-4 pencil exists.

    The pass certifies exactly that: every integer solution of the donor
    system is either shown to have an impossible component structure or is
    individually eliminated; the translation from pencils to donors is an
    imported rule of the check, not re-proved here.
    """
    family_spec = FAMILIES["x14"]
    lattice = make_family_lattice(family_spec, d, g)
    h2 = family_spec.h_square
    section_genus = family_spec.section_genus
    window = [PENCIL_DEGREE, section_genus - 1]

    degree_form = (h2, d)
    step = gcd(h2, d)
    values = [v for v in range(PENCIL_DEGREE, section_genus) if v % step == 0]
    max_value = max(values, default=0)
    if not values:
        route, threshold = None, 0
    elif max_value <= 6:
        route, threshold = "conic", 0
    else:
        route = "fixed-moving"
        multiplicity_cap = max_value - 3
        threshold = -2 * multiplicity_cap * multiplicity_cap + 1

    # Each donor family is a degree line; its specials (square >= threshold)
    # are the line's range ks, and its maximum square is taken off ks.
    specials = []
    family_witnesses = []
    for value, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq, ks in degree_lines(
            lattice, values, threshold):
        for k in ks:
            specials.append((value, base_a + k * step_a, base_b + k * step_b,
                             (quad_a * k + quad_b) * k + base_sq))
        max_square, attained = line_maximum(quad_a, quad_b, base_sq, ks)
        witness = {"base": [base_a, base_b], "step": [step_a, step_b], "value": value,
                   "max_square": max_square, "attained_at": attained}
        if ks:
            witness["excluded_k"] = list(ks)
        family_witnesses.append(witness)
    max_squares = [w["max_square"] for w in family_witnesses]
    if values:
        donors = {"family_count": len(family_witnesses), "max_squares": max_squares}
    else:
        donors = {"reason": f"x14 (d={d}, g={g}): no donor degree in the window {window} "
                            f"is a value of the degree form {degree_form}"}

    discrepancies: list[str] = []
    checks = [verified(
        name="donor-family-squares-negative",
        rule="donor-system-enumeration",
        passed=bool(values) and all(square < 0 for square in max_squares),
        inputs={"d": d, "g": g, "degree_window": window,
                "section_genus": section_genus, "route": route},
        result=donors,
        witnesses=tuple(family_witnesses),
    ), *short_curve_checks(lattice, (1, 2))]

    if route == "fixed-moving":
        checks.append(fixed_moving_bound(max(max_squares), multiplicity_cap))
        checks.append(verified(
            name="fixed-part-cannot-contain-curve",
            rule="fixed-part-degree-cap",
            passed=d > multiplicity_cap,
            inputs={"curve_degree": d, "fixed_part_degree_cap": multiplicity_cap},
        ))
        checks.append(cited(
            name="single-extra-rational-curve",
            rule="picard-rank-two-structure",
            statement="a rank-2 lattice carries at most one rational curve class "
                      "besides the blown-up curve, so the fixed part is a multiple "
                      "of a single reduced rational curve",
        ))
    elif max_value >= 6:
        gap = ("reducible donors of section degree 6 admit a split into two "
               "degree-3 components, which the degree-1 and degree-2 searches "
               "do not exclude; recorded as a gap, not silently closed")
        discrepancies.append(gap)
        checks.append(cited(
            name="no-split-into-two-cubics",
            rule="component-split-gap",
            statement=gap,
        ))

    for value, a, b, square in specials:
        elimination, kind, note = _eliminate_special(square, value)
        checks.append(verified(
            name=f"special-donor-({a},{b})",
            rule="special-solution-elimination",
            passed=elimination != "unresolved",
            inputs={"t_degree": value},
            result={"square": square, "elimination": elimination},
            witnesses=({"class": [a, b], "square": square, "t_degree": value,
                        "elimination": elimination, "note": note},),
            kind=kind,
        ))
        if kind == CITED:
            discrepancies.append(
                f"special donor ({a},{b}) with square {square} eliminated only "
                f"by a cited rule")

    return TetragonalReport(tuple(checks), tuple(discrepancies))
