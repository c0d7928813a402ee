"""Per-family verification proofs.

Each proof re-derives every finite arithmetic claim behind one existence or
non-existence argument and records the geometric steps it cannot decide as
cited rules.  It returns the ordered check trail, any flagged gaps, and the
verdict it concludes: Realizable or Open for a construction, NotRealizable
for a contradiction.  A construction is ``_construction`` around its own
steps, a contradiction ``_contradiction``, and each check has one builder.
A proof builds its case's lattice once, but the nef, free and
non-tetragonality certificates take (family, d, g) and build it again: a
quadric, v4 or v5 construction row builds 3 lattices, an x14 or v5 residual
row 4.  Nothing here imports ``catalog``, which imports ``PIPELINES``.
"""
from __future__ import annotations

from .diophantine import (Interval, band_empty, curve_classes, effective_decompositions,
                          short_curve_checks)
from .gonality import tetragonal_certificate
from .lattice import (FAMILIES, SPORADIC_AMBIENT_DEGREE, DivisorClass, FamilySpec,
                      IntersectionLattice, anticanonical_cube, make_family_lattice,
                      square_and_genus)
from .nefness import free_certificate, nef_certificate
from .outcome import CheckOutcome, DERIVED, VERIFIED, cited, class_witness, verified
from .riemannroch import (LinearSeries, SectionCountError, UndeterminedH0Error, brill_noether,
                          ideal_curve_bound, k3_h0, monomial_count, plane_curve_genus,
                          residual_series, span_dimension_bound)
from .ruled import hirzebruch_search, noether_contradiction, p2_square_ten
from .schubert import surface_class_split
from .secant import trisecant_count

REALIZABLE = "Realizable"
NOT_REALIZABLE = "NotRealizable"
OPEN = "Open"

# What a proof returns: its check trail, flagged gaps, and the verdict it
# concludes if every check passes.
ProofResult = tuple[list[CheckOutcome], list[str], str]

# Genus threshold for the bisecant-exclusion rule on prime Fano threefolds.
BISECANT_GENUS_FLOOR = 7


def _lattice_signature_check(lattice: IntersectionLattice) -> CheckOutcome:
    return verified(
        name="picard-lattice-signature",
        rule="lattice-determinant",
        passed=lattice.det < 0,
        inputs={"gram": [list(row) for row in lattice.gram]},
        result={"determinant": lattice.det},
    )


def _surface_forms(lattice: IntersectionLattice, ambient_dim: int, forms_degree: int) -> int:
    """Forms of the given degree on projective ambient_dim-space through the surface."""
    return (monomial_count(ambient_dim, forms_degree)
            - k3_h0(lattice, DivisorClass(forms_degree, 0), nef_hint=True))


def _ideal_sections_check(lattice: IntersectionLattice, d: int, g: int,
                          ambient_dim: int, forms_degree: int) -> CheckOutcome:
    """Forms through the curve must outnumber forms through the surface."""
    curve_bound = ideal_curve_bound(ambient_dim, forms_degree, d, g)
    surface_count = _surface_forms(lattice, ambient_dim, forms_degree)
    return verified(
        name="forms-through-curve-but-not-surface",
        rule="ideal-sheaf-section-count",
        passed=curve_bound > surface_count,
        inputs={"ambient_dim": ambient_dim, "forms_degree": forms_degree,
                "d": d, "g": g},
        result={"curve_sections_lower_bound": curve_bound,
                "surface_sections": surface_count},
    )


def _anticanonical_degree_check(family: FamilySpec, d: int, g: int) -> CheckOutcome:
    cube = anticanonical_cube(family, d, g)
    return verified(
        name="anticanonical-degree-positive",
        rule="blowup-anticanonical-degree",
        passed=cube > 0,
        inputs={"family": family.name, "d": d, "g": g},
        result={"cube": cube},
    )


def _closed_construction(case, checks: list[CheckOutcome], discrepancies=()) -> ProofResult:
    """End a construction on its smallness step, whose rule decides the conclusion."""
    if case.smallness == "ambiguous":
        conclusion, rule, statement = OPEN, "divisorial-table-overlap", (
            "these invariants also appear among the divisorial-type rows, and "
            "whether the anticanonical map contracts a divisor or only curves "
            "is undecided; the case stays open")
    else:
        conclusion, rule, statement = REALIZABLE, "table-absence", (
            "the invariants appear in no divisorial-type or non-E1 row, so the "
            "anticanonical contraction is small and the link is of E1-E1 type")
    tail = cited(name="anticanonical-contraction-size", rule=rule, statement=statement)
    return [*checks, tail], list(discrepancies), conclusion


def _construction(case, family: FamilySpec, lattice: IntersectionLattice,
                  body: list[CheckOutcome], closing: list[CheckOutcome],
                  discrepancies=()) -> ProofResult:
    """Signature and K3 existence, ``body``, adjoint nef and free, ``closing``, smallness."""
    head = [_lattice_signature_check(lattice), cited(
        name="k3-with-prescribed-lattice-exists",
        rule="knutsen-existence",
        statement=("a smooth K3 surface of degree %d with rank-2 Picard lattice "
                   "generated by the polarization and the curve exists"
                   % family.h_square),
    )]
    adjoint = [nef_certificate(family, case.d, case.g), free_certificate(family, case.d, case.g)]
    return _closed_construction(case, head + body + adjoint + closing, discrepancies)


def _contradiction(lattice: IntersectionLattice, freeness_statement: str,
                   body: list[CheckOutcome]) -> ProofResult:
    """A contradiction: the lattice, a free anticanonical system, then ``body``."""
    head = [_lattice_signature_check(lattice), cited(
        name="anticanonical-system-free-on-blowup",
        rule="classification-freeness",
        statement=freeness_statement,
    )]
    return head + body, [], NOT_REALIZABLE


def quadric_construction(case) -> ProofResult:
    family = FAMILIES["quadric"]
    d, g = case.d, case.g
    lattice = make_family_lattice(family, d, g)
    quadric_sections = _surface_forms(lattice, 4, 2)
    body = [
        _ideal_sections_check(lattice, d, g, ambient_dim=4, forms_degree=3),
        verified(
            name="surface-lies-on-a-quadric",
            rule="ideal-sheaf-section-count",
            passed=quadric_sections >= 1,
            result={"quadric_sections": quadric_sections},
        ),
        cited(
            name="containing-quadric-unique",
            rule="minimal-degree-argument",
            statement="a nondegenerate degree-6 surface in 4-space lies on at "
                      "most one quadric",
        ),
    ]
    # A singular containing quadric would cut a plane cubic of square 0 and
    # degree 3 on the surface.
    plane_cubic = [[a, b] for _, a, b, square in curve_classes(lattice, (3,), 0)
                   if square == 0]
    if d >= 3:
        theta = trisecant_count(d, g)
        trisecant = {"trisecant_count": theta}
    else:
        theta, trisecant = 0, {"reason": "the Berzolari count needs d >= 3; a line or "
                                         "conic has no proper trisecant line"}
    closing = [
        verified(
            name="singular-ambient-excluded",
            rule="plane-cubic-class-search",
            passed=not plane_cubic,
            inputs={"degree": 3, "square": 0},
            result={"classes_found": len(plane_cubic)},
            witnesses=tuple(plane_cubic),
        ),
        verified(
            name="trisecant-line-exists",
            rule="berzolari-trisecant-count",
            passed=theta > 0,
            inputs={"d": d, "g": g},
            result=trisecant,
        ),
        _anticanonical_degree_check(family, d, g),
    ]

    discrepancies = []
    if (d, g) == (10, 6):
        discrepancies.append(
            "secant table note: the genus-one cubic entry is absent here "
            "although the plane-cubic secancy rule is vacuous at d=10; the "
            "exclusion rests on the genus cap at m=3 being 0, reported "
            "rather than silently matched")
    return _construction(case, family, lattice, body, closing, discrepancies)


def v4_construction(case) -> ProofResult:
    family = FAMILIES["v4"]
    d, g = case.d, case.g
    lattice = make_family_lattice(family, d, g)
    quadric_sections = _surface_forms(lattice, 5, 2)
    return _construction(case, family, lattice, [
        _ideal_sections_check(lattice, d, g, ambient_dim=5, forms_degree=2),
        verified(
            name="surface-quadric-net-dimension",
            rule="ideal-sheaf-section-count",
            passed=quadric_sections == 3,
            result={"quadric_sections": quadric_sections},
        ),
        cited(
            name="ambient-intersection-smooth",
            rule="bertini-smoothness",
            statement="general members of the quadric net through the surface "
                      "cut out a smooth intersection of two quadrics",
        ),
    ], [
        _anticanonical_degree_check(family, d, g),
        cited(
            name="anticanonical-class-not-ample",
            rule="fano-classification-tables",
            statement="no Fano threefold of Picard rank two carries these "
                      "invariants with an ample anticanonical class",
        ),
    ])


def _hyperplane_irreducibility(family: FamilySpec, lattice: IntersectionLattice,
                               d: int, g: int) -> list[CheckOutcome]:
    """Every hyperplane section of the surface is irreducible and reduced.

    A splitting T = D1 + D2 either has no curve component equal to C, in
    which case the class of D1 lands in a bounded band, or T - C itself must
    be effective.  Band witnesses and T - C are killed by showing one side
    of each split admits no decomposition into irreducible-curve classes.
    """
    h2 = family.h_square
    band = band_empty((h2, d), Interval.open(0, h2),
                      (d, 2 * g - 2), Interval.closed(0, d))
    witnesses = []
    all_eliminated = True
    for point in band.witnesses:
        part = DivisorClass(point[0], point[1])
        complement = DivisorClass(1, 0) - part
        eliminated = (not effective_decompositions(lattice, part)
                      or not effective_decompositions(lattice, complement))
        all_eliminated = all_eliminated and eliminated
        witnesses.append({
            "class": class_witness(part),
            "complement": class_witness(complement),
            "eliminated": eliminated,
            "reason": "one side admits no decomposition into curve classes",
        })
    checks = [verified(
        name="hyperplane-splitting-band",
        rule="ample-splitting-bounds",
        passed=all_eliminated,
        inputs=band.inputs,
        result={"band_points": len(band.witnesses)},
        witnesses=tuple(witnesses),
    )]

    residual = DivisorClass(1, -1)
    res_deg = lattice.degree(residual)
    res_square = lattice.pair(residual, residual)
    decomp = effective_decompositions(lattice, residual)
    checks.append(verified(
        name="section-minus-curve-not-effective",
        rule="effective-decomposition-search",
        passed=not decomp,
        inputs={"class": class_witness(residual)},
        result={"degree": res_deg, "square": res_square,
                "decompositions_found": len(decomp)},
    ))
    return checks + short_curve_checks(lattice, (1,))


# The pencils of the bundle constructions, by degree.
_PENCIL_WORDS = {4: "four", 5: "five"}


def _pencil_checks(genus: int, degree: int,
                   expected_residual: LinearSeries) -> tuple[list[CheckOutcome], LinearSeries]:
    """A degree-``degree`` pencil of expected dimension and its residual series."""
    word = _PENCIL_WORDS[degree]
    rho = brill_noether(genus, 1, degree)
    residual = residual_series(genus, LinearSeries(1, degree))
    return [verified(
        name=f"pencil-degree-{word}-expected-dimension",
        rule="brill-noether-number",
        passed=rho == 0,
        inputs={"g": genus, "r": 1, "d": degree},
        result={"rho": rho},
    ), verified(
        name=f"residual-of-degree-{word}-pencil",
        rule="series-residuation",
        passed=residual == expected_residual,
        inputs={"genus": genus, "series": f"g^1_{degree}"},
        result={"residual": residual.label()},
    )], residual


def _bundle_sections_check(residual: LinearSeries, expected: int) -> CheckOutcome:
    # Two sections from the trivial part plus the residual series sections;
    # the defining extension is an imported construction.
    sections = 2 + residual.r + 1
    return verified(
        name="bundle-section-count",
        rule="bundle-section-sum",
        passed=sections == expected,
        result={"h0": sections},
    )


def _grassmannian_splits_check(c2: int, t_square: int, expected: list) -> CheckOutcome:
    """The surface class's (deg, a, b) splits in the Grassmannian, in its result."""
    splits = [list(split) for split in surface_class_split(c2_value=c2, t_square=t_square)]
    return verified(
        name="surface-class-splits-in-grassmannian",
        rule="schubert-class-split",
        passed=splits == expected,
        inputs={"c2": c2, "t_square": t_square},
        result={"splits": splits},
    )


def _residual_member_check(lattice: IntersectionLattice, expected: tuple[int, int],
                           kind: str, inputs: dict) -> CheckOutcome:
    """Degree and genus of the residual class 2H - C against ``expected``."""
    residual = DivisorClass(2, -1)
    degree = lattice.degree(residual)
    square, genus = square_and_genus(lattice, residual)
    return CheckOutcome(
        name="residual-member-invariants",
        rule="residual-class-arithmetic",
        kind=kind,
        passed=(degree, genus) == expected,
        inputs={**inputs, "residual_class": class_witness(residual)},
        result={"degree": degree, "square": square, "genus": genus},
    )


def _v5_bundle_checks() -> list[CheckOutcome]:
    """Class arithmetic of the rank-2 bundle mapping the surface to G(1,4)."""
    splits = _grassmannian_splits_check(4, 10, [[1, 6, 4], [2, 3, 2]])
    degree2 = next(split for split in splits.result["splits"] if split[0] == 2)
    pencil, residual = _pencil_checks(6, 4, LinearSeries(2, 6))
    # A degree-5 surface cut on a maximal linear subvariety would have class
    # coefficients (5, 0), incompatible with the split.
    return [splits, verified(
        name="degree-two-span-three-branch-contradiction",
        rule="linear-subvariety-class",
        passed=degree2[1:] != [5, 0],
        inputs={"split": list(degree2)},
        result={"forced_class": [5, 0]},
    ), cited(
        name="degree-two-span-four-five-branches-excluded",
        rule="projection-and-del-pezzo-arguments",
        statement="the span-4 branch forces a reducible hyperplane section and "
                  "the span-5 branch a degree-2 cover of a quintic del Pezzo "
                  "surface; both are impossible, so the map has degree one",
    ), *pencil, _bundle_sections_check(residual, 5), cited(
        name="section-curve-not-trigonal",
        rule="enriques-babbage",
        statement="the section curve is cut out by quadrics, hence neither "
                  "trigonal nor a plane quintic, so both series are free",
    )]


def v5_construction(case) -> ProofResult:
    family = FAMILIES["v5"]
    d, g = case.d, case.g
    lattice = make_family_lattice(family, d, g)
    return _construction(case, family, lattice, [
        *_hyperplane_irreducibility(family, lattice, d, g),
        *_v5_bundle_checks(),
        cited(
            name="surface-embeds-in-quintic-del-pezzo",
            rule="linear-section-smoothness",
            statement="the span of the embedded surface meets the Grassmannian "
                      "in a smooth codimension-3 linear section, a quintic del "
                      "Pezzo threefold",
        ),
    ], [_anticanonical_degree_check(family, d, g)])


def v5_residual_construction(case) -> ProofResult:
    """Cases built from a residual member on an already-realized row."""
    family = FAMILIES["v5"]
    d, g = case.d, case.g
    lattice = make_family_lattice(family, d, g)
    seed_d, seed_g = case.seed_d, case.seed_g
    seed_lattice = make_family_lattice(family, seed_d, seed_g)
    seeds = {"seed_d": seed_d, "seed_g": seed_g}
    # The seed curve sits in the residual system of the new curve; a
    # non-rational member forces that system to be free.
    return _construction(case, family, lattice, [
        cited(
            name="seed-blowup-exists",
            rule="classification-table-row",
            statement=(f"a weak Fano blow-up of a degree-{seed_d} genus-{seed_g} "
                       "curve on the quintic del Pezzo threefold exists by an "
                       "already-settled table row"),
            inputs=seeds,
        ),
        _residual_member_check(seed_lattice, (d, g), DERIVED, seeds),
        verified(
            name="residual-seed-not-rational",
            rule="series-fixed-part",
            passed=seed_g >= 1,
            inputs={"seed_genus": seed_g},
        ),
        cited(
            name="residual-system-free",
            rule="fixed-part-structure",
            statement="the residual system has no base points outside its fixed "
                      "part, and a non-rational member rules the fixed part out",
        ),
    ], [_anticanonical_degree_check(family, d, g)])


def v5_contradiction(case) -> ProofResult:
    """Degree comparison killing the (14, 10) configuration.

    A residual member of special degree has no span bound: the span check
    fails with the refusal as its reason, and the hyperplane count that
    reads the span is not built.
    """
    lattice = make_family_lattice(FAMILIES["v5"], case.d, case.g)
    member = _residual_member_check(lattice, (6, 2), VERIFIED, {})
    degree, genus = member.result["degree"], member.result["genus"]
    try:
        span = span_dimension_bound(degree, genus)
    except SectionCountError as exc:
        span, spanned = None, {"reason": str(exc)}
    else:
        spanned = {"span_dimension": span}
    body = [member, verified(
        name="residual-span-dimension",
        rule="nonspecial-span-bound",
        passed=span == 4,
        inputs={"degree": degree, "genus": genus},
        result=spanned,
    )]
    if span is not None:
        independent_hyperplanes = 6 - span
        body.append(verified(
            name="two-hyperplanes-contain-residual",
            rule="codimension-count",
            passed=independent_hyperplanes >= 2,
            inputs={"ambient_projective_dim": 6, "span_dimension": span},
            result={"independent_hyperplanes": independent_hyperplanes},
        ))
    # Two hyperplane cuts of the degree-5 threefold give a curve of degree 5,
    # which cannot contain a curve of degree 6.
    section_degree = 5
    body.append(verified(
        name="degree-exceeds-linear-section",
        rule="linear-normality-degree",
        passed=degree > section_degree,
        inputs={"threefold_degree": section_degree},
        result={"residual_degree": degree, "section_curve_degree": section_degree},
    ))
    return _contradiction(lattice, (
        "for these invariants the anticanonical system of the hypothetical "
        "blow-up is free, so the residual system on the K3 slice is free as "
        "well"), body)


def _x14_bundle_checks() -> list[CheckOutcome]:
    pencil, residual = _pencil_checks(8, 5, LinearSeries(3, 9))
    # Freeness of the residual series: a base point would leave a g^3_8 whose
    # residual g^2_6 either has a base point (giving a degree-4 pencil) or
    # maps to a plane sextic, whose genus 10 is not 8.  A degree-4 pencil is
    # what the non-tetragonality certificate excludes.
    fallback = residual_series(8, LinearSeries(3, 8))
    return [
        *pencil,
        verified(
            name="residual-series-free",
            rule="series-residuation",
            passed=fallback == LinearSeries(2, 6) and plane_curve_genus(6) != 8,
            inputs={"genus": 8, "blocked_series": "g^3_8"},
            result={"fallback_residual": fallback.label(),
                    "plane_sextic_genus": plane_curve_genus(6)},
        ),
        _bundle_sections_check(residual, 6),
        _grassmannian_splits_check(5, 14, [[1, 9, 5]]),
        cited(
            name="section-curve-embeds-by-bundle",
            rule="linear-section-embedding",
            statement="a non-tetragonal canonical curve of genus 8 with the given "
                      "bundle embeds as a codimension-7 linear section of the "
                      "Grassmannian of lines in 5-space",
        ),
    ]


def x14_construction(case) -> ProofResult:
    family = FAMILIES["x14"]
    d, g = case.d, case.g
    lattice = make_family_lattice(family, d, g)
    report = tetragonal_certificate(d, g)
    body = [cited(
        name="tetragonal-donor-criterion",
        rule="pencil-donor-translation",
        statement="a degree-4 pencil on the section curve forces a donor class "
                  "on the surface meeting the recorded degree window; the "
                  "translation is imported, its case analysis verified below",
    ), *report.outcomes(), *_x14_bundle_checks()]
    return _construction(case, family, lattice, body, [
        _anticanonical_degree_check(family, d, g),
        cited(
            name="ambient-linear-section-smooth",
            rule="bertini-smoothness",
            statement="the embedded surface lies in a smooth codimension-5 linear "
                      "section of the Grassmannian",
        ),
    ], report.discrepancies)


def x14_contradiction(case) -> ProofResult:
    """A plane series on the section curve, against Mukai's linear sections.

    A curve class whose sections are undetermined fails the section count
    with the refusal as its reason, and the series read from that count is
    not built.
    """
    lattice = make_family_lattice(FAMILIES["x14"], case.d, case.g)
    curve = DivisorClass(0, 1)
    square = lattice.pair(curve, curve)
    try:
        sections = k3_h0(lattice, curve, nef_hint=True)
    except UndeterminedH0Error as exc:
        sections, counted = None, {"reason": str(exc)}
    else:
        counted = {"h0": sections}
    body = [verified(
        name="curve-section-count",
        rule="k3-section-count",
        passed=sections == 3,
        inputs={"curve_class": class_witness(curve), "square": square},
        result=counted,
    )]
    if sections is not None:
        degree_on_section = lattice.degree(curve)
        series = LinearSeries(sections - 1, degree_on_section)
        body.append(verified(
            name="curve-cuts-plane-series-on-section",
            rule="restricted-series-invariants",
            passed=series == LinearSeries(2, 7),
            inputs={"curve_degree_on_section": degree_on_section},
            result={"series": series.label()},
        ))
    body.append(cited(
        name="plane-series-obstructs-linear-section",
        rule="mukai-linear-section",
        statement="a genus-8 curve carrying a g^2_7 is never a linear "
                  "section of the Grassmannian of lines in 5-space, "
                  "contradicting the construction",
    ))
    return _contradiction(lattice, (
        "a realizable case would put the curve on a smooth K3 slice with free "
        "adjoint system"), body)


def sporadic_construction(case) -> ProofResult:
    """Twisted cubics on a prime Fano threefold; no K3 lattice is involved."""
    ambient_degree = SPORADIC_AMBIENT_DEGREE[case.ambient]
    ambient_genus = ambient_degree // 2 + 1
    checks = [
        verified(
            name="ambient-genus",
            rule="prime-fano-genus",
            passed=ambient_degree > 0 and ambient_degree % 2 == 0
            and 2 * ambient_genus - 2 == ambient_degree,
            inputs={"ambient": case.ambient, "anticanonical_degree": ambient_degree},
            result={"genus": ambient_genus},
        ),
        cited(
            name="twisted-cubics-exist",
            rule="rational-curve-existence",
            statement="the anticanonical model carries twisted cubics",
        ),
    ]
    if ambient_genus >= BISECANT_GENUS_FLOOR:
        checks.append(verified(
            name="bisecant-exclusion-genus-gate",
            rule="line-surface-base-locus",
            passed=ambient_genus >= BISECANT_GENUS_FLOOR,
            inputs={"genus": ambient_genus, "floor": BISECANT_GENUS_FLOOR},
        ))
        checks.append(cited(
            name="span-meets-threefold-in-curve-only",
            rule="line-surface-base-locus",
            statement="for genus at least 7 the base locus of the anticanonical "
                      "system minus twice a line is exactly the lines meeting "
                      "it, so no bisecant or tangent line of the cubic exists "
                      "and the span cuts the cubic alone; freeness follows",
        ))
    else:
        checks.append(cited(
            name="bisecant-forces-cubic-family",
            rule="line-surface-base-locus",
            statement="the genus sits below the bisecant-exclusion gate, and a "
                      "bisecant or tangent line to a general twisted cubic "
                      "would force an irreducible anticanonical surface to "
                      "carry a two-parameter family of rational cubics",
            inputs={"genus": ambient_genus, "floor": BISECANT_GENUS_FLOOR},
        ))
        checks.append(p2_square_ten())
        sweeps = {n: hirzebruch_search(n) for n in range(0, 11)}
        checks.append(verified(
            name="hirzebruch-sweep-empty",
            rule="ruled-surface-enumeration",
            passed=all(not wits for wits in sweeps.values()),
            inputs={"n_range": [0, 10],
                    "bound_derivation": "x divides 10 and n <= 10 / x^2"},
            result={"witnesses_found": sum(len(w) for w in sweeps.values())},
            witnesses=tuple(w for wits in sweeps.values() for w in wits),
        ))
        checks.append(noether_contradiction(10))
        checks.append(cited(
            name="higher-picard-rank-branch",
            rule="surface-classification",
            statement="any remaining resolution has Picard rank at least 3, is "
                      "weak del Pezzo with canonical square 10, and dies on the "
                      "bound above",
        ))
    return _closed_construction(case, checks)


# The proof that a row's (family, route, construction) tags select.  A row
# whose tags name no proof here is refused when the case table is loaded.
PIPELINES = {
    ("quadric", "construction", "main"): quadric_construction,
    ("v4", "construction", "main"): v4_construction,
    ("v5", "construction", "main"): v5_construction,
    ("v5", "construction", "residual"): v5_residual_construction,
    ("v5", "contradiction", "main"): v5_contradiction,
    ("x14", "construction", "main"): x14_construction,
    ("x14", "contradiction", "main"): x14_contradiction,
    ("sporadic", "construction", "main"): sporadic_construction,
}
