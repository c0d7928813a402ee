"""Non-tetragonality certificates for hyperplane sections of degree-14 K3s.

A base-point-free pencil of degree 4 on the genus-8 section curve T would be
cut out by a divisor class D = a*T + b*C on the surface satisfying

    (T - D).T >= 0   and   4 <= D.T <= genus(T) - 1 = 7,

with D moving (at least a pencil of sections).  The solutions of this system
form arithmetic progressions; along each progression the square is a downward
parabola, so its exact integer maximum is computable.  Negative squares force
the donor to be reducible or rigid, and the missing component types (lines,
conics, short elliptic classes) are ruled out by lattice searches.  Solutions
the square analysis cannot kill are singled out as specials and eliminated
individually.

Since (T - D).T = T^2 - D.T with T^2 = h^2 = 14, the first inequality only
says D.T <= 14, which every degree of the window meets, so each solution
family is a whole progression rather than a half-line.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diophantine import (LinearFamily, curve_classes, family_quadratic_max,
                          family_solutions)
from .lattice import FAMILIES, DivisorClass, make_family_lattice
from .outcome import CheckOutcome, CITED, VERIFIED, cited, class_witness, verified


class DonorWindowEmptyError(ValueError):
    """No donor degree in the window lies on the lattice's degree form."""


# Degree window a donor divisor must hit on the genus-8 section curve:
# [4, section genus - 1], 4 being the degree of the excluded pencil.
SECTION_GENUS = FAMILIES["x14"].section_genus
DONOR_DEGREES = range(4, SECTION_GENUS)


@dataclass(frozen=True)
class SpecialSolution:
    cls: DivisorClass
    square: int
    t_degree: int
    elimination: str
    kind: str
    note: str = ""

    def to_witness(self) -> dict:
        data = {"class": class_witness(self.cls), "square": self.square,
                "t_degree": self.t_degree, "elimination": self.elimination}
        if self.note:
            data["note"] = self.note
        return data


@dataclass(frozen=True)
class FamilyAnalysis:
    family: LinearFamily
    special_ks: tuple[int, ...]
    max_square: int
    attained_at: int

    def to_witness(self) -> dict:
        data = self.family.to_witness()
        data["max_square"] = self.max_square
        data["attained_at"] = self.attained_at
        if self.special_ks:
            data["excluded_k"] = list(self.special_ks)
        return data


@dataclass
class TetragonalReport:
    d: int
    g: int
    route: str
    families: tuple[FamilyAnalysis, ...]
    specials: tuple[SpecialSolution, ...]
    line_classes: tuple[DivisorClass, ...]
    conic_classes: tuple[DivisorClass, ...]
    square_cap: int | None
    multiplicity_cap: int | None
    bound: CheckOutcome | None
    discrepancies: tuple[str, ...] = ()
    checks: tuple[CheckOutcome, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def outcomes(self) -> tuple[CheckOutcome, ...]:
        return self.checks


def _eliminate_special(cls: DivisorClass, square: int, t_degree: int) -> SpecialSolution:
    if square == -2:
        return SpecialSolution(
            cls, square, t_degree, elimination="rigid-class", kind=VERIFIED,
            note="square -2 classes are rigid (one section), so the class cannot move")
    if square < -2 and t_degree - 3 <= 2:
        return SpecialSolution(
            cls, square, t_degree, elimination="short-fixed-part", kind=VERIFIED,
            note="a moving part needs degree >= 3 (no curves of degree <= 2 exist), "
                 "leaving a fixed part of degree <= 2, and no line or conic class exists")
    if square >= 0:
        return SpecialSolution(
            cls, square, t_degree, elimination="curve-class-donor", kind=CITED,
            note="square >= 0: the rigidity elimination does not apply; for an "
                 "irreducible class of square 0 the section count is 2, so the "
                 "exclusion of this donor is recorded as a cited rule")
    return SpecialSolution(
        cls, square, t_degree, elimination="unresolved", kind=CITED,
        note="no arithmetic elimination available for this solution")


def fixed_moving_bound(square_cap: int, t_f_max: int,
                       multiplicity_cap: int) -> CheckOutcome:
    """Contradiction -2 m^2 > square cap between the split square and the cap.

    A donor splitting as fixed part m*R (R rational, m <= multiplicity_cap)
    plus a moving part has square at least -2 m^2; when that exceeds the
    certified maximum square of the donors, none of them can exist.
    """
    if multiplicity_cap > t_f_max:
        raise ValueError("multiplicity cap cannot exceed the fixed-part degree cap")
    floor_value = -2 * multiplicity_cap * multiplicity_cap
    return verified(
        name="fixed-moving-square-contradiction",
        rule="fixed-part-multiplicity-bound",
        passed=floor_value > square_cap,
        inputs={"square_cap": square_cap, "t_f_max": t_f_max,
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

    degree_form = (h2, d)
    # (T - D).T = h^2 - D.T, so the side condition is D.T <= h^2.
    families = family_solutions(degree_form, [v for v in DONOR_DEGREES if v <= h2])
    if not families:
        raise DonorWindowEmptyError(
            f"x14 (d={d}, g={g}): no donor degree in the window "
            f"[{DONOR_DEGREES[0]}, {DONOR_DEGREES[-1]}] is a value of the "
            f"degree form {degree_form}"
        )
    max_value = max(f.value for f in families)
    if max_value <= 6:
        route = "conic"
        multiplicity_cap = None
        threshold = 0
    else:
        route = "fixed-moving"
        multiplicity_cap = max_value - 3
        threshold = -2 * multiplicity_cap * multiplicity_cap + 1

    # A family of value v is the degree-v line with the same canonical base
    # and step, so its specials (square >= threshold) are that degree's
    # curve classes, in ascending k; one sweep serves every family.
    found = curve_classes(lattice, [fam.value for fam in families], threshold)
    specials = [_eliminate_special(DivisorClass(a, b), square, value)
                for value, a, b, square in found]
    analyses = []
    for fam in families:
        sks = tuple(fam.index_of(special.cls) for special in specials
                    if special.t_degree == fam.value)
        max_square, attained = family_quadratic_max(lattice, fam, exclude=set(sks))
        analyses.append(FamilyAnalysis(fam, sks, max_square, attained))

    short = curve_classes(lattice, (1, 2), -2)
    line_classes = tuple(DivisorClass(a, b) for degree, a, b, _ in short if degree == 1)
    conic_classes = tuple(DivisorClass(a, b) for degree, a, b, _ in short if degree == 2)

    checks: list[CheckOutcome] = []
    discrepancies: list[str] = []

    checks.append(verified(
        name="donor-family-squares-negative",
        rule="donor-system-enumeration",
        passed=all(fa.max_square < 0 for fa in analyses),
        inputs={"d": d, "g": g, "degree_window": [DONOR_DEGREES[0], DONOR_DEGREES[-1]],
                "section_genus": SECTION_GENUS, "route": route},
        result={"family_count": len(analyses),
                "max_squares": [fa.max_square for fa in analyses]},
        witnesses=tuple(fa.to_witness() for fa in analyses),
    ))
    checks.append(verified(
        name="no-line-classes",
        rule="short-curve-search",
        passed=not line_classes,
        inputs={"degree": 1, "min_square": -2},
        witnesses=tuple(class_witness(c) for c in line_classes),
    ))
    checks.append(verified(
        name="no-conic-classes",
        rule="short-curve-search",
        passed=not conic_classes,
        inputs={"degree": 2, "min_square": -2},
        witnesses=tuple(class_witness(c) for c in conic_classes),
    ))

    square_cap = None
    bound = None
    if route == "fixed-moving":
        square_cap = max(fa.max_square for fa in analyses)
        bound = fixed_moving_bound(square_cap, max_value - 3, multiplicity_cap)
        checks.append(bound)
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
    else:
        values_present = sorted({fa.family.value for fa in analyses})
        if any(v >= 6 for v in values_present):
            gap = ("reducible donors of section degree 6 admit a split into two "
                   "degree-3 components, which the degree-1 and degree-2 searches "
                   "do not exclude; recorded as a gap, not silently closed")
            discrepancies.append(gap)
            checks.append(cited(
                name="no-split-into-two-cubics",
                rule="component-split-gap",
                statement=gap,
            ))

    for special in specials:
        outcome = CheckOutcome(
            name=f"special-donor-({special.cls.a},{special.cls.b})",
            rule="special-solution-elimination",
            kind=special.kind,
            passed=special.elimination != "unresolved",
            inputs={"t_degree": special.t_degree},
            result={"square": special.square, "elimination": special.elimination},
            witnesses=(special.to_witness(),),
            notes=(special.note,) if special.note else (),
        )
        checks.append(outcome)
        if special.kind == CITED:
            discrepancies.append(
                f"special donor ({special.cls.a},{special.cls.b}) with square "
                f"{special.square} eliminated only by a cited rule")

    return TetragonalReport(
        d=d, g=g, route=route,
        families=tuple(analyses),
        specials=tuple(specials),
        line_classes=line_classes,
        conic_classes=conic_classes,
        square_cap=square_cap,
        multiplicity_cap=multiplicity_cap,
        bound=bound,
        discrepancies=tuple(discrepancies),
        checks=tuple(checks),
    )
