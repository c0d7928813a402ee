import json
from bisect import bisect_left
from operator import itemgetter

import pytest

from fanocert import nefness
from fanocert.catalog import load_cases
from fanocert.diophantine import curve_classes
from fanocert.lattice import FAMILIES, DivisorClass, FamilySpec, make_family_lattice
from fanocert.nefness import _table_kind, free_certificate, nef_certificate
from fanocert.outcome import CheckOutcome
from fanocert.secant import SecantBoundError, admissible_table
from test_diophantine import census_lattices, reference_exact_square_classes

QUADRIC_PAIRS = [(c.d, c.g) for c in load_cases() if c.family == "quadric"]
V4_PAIRS = [(c.d, c.g) for c in load_cases() if c.family == "v4"]
V5_PAIRS = [(c.d, c.g) for c in load_cases() if c.family == "v5"]
X14_PAIRS = [(c.d, c.g) for c in load_cases() if c.family == "x14"]


def test_nef_witness_elimination_quadric():
    outcome = nef_certificate(FAMILIES["quadric"], 13, 14)
    assert outcome.passed
    assert len(outcome.witnesses) == 1
    witness = outcome.witnesses[0]
    assert witness["class"] == [-2, 1]
    assert witness["meets_curve"] == 0
    assert witness["secancy_required"] == 4
    assert witness["eliminated"]


def test_nef_witness_elimination_v4():
    outcome = nef_certificate(FAMILIES["v4"], 10, 6)
    assert outcome.passed
    assert len(outcome.witnesses) == 1
    witness = outcome.witnesses[0]
    assert witness["class"] == [-1, 1]
    assert witness["meets_curve"] == 0
    assert witness["secancy_required"] == 5


def test_nef_zero_witnesses():
    outcome = nef_certificate(FAMILIES["quadric"], 9, 2)
    assert outcome.passed
    assert outcome.witnesses == ()


def test_nef_passes_across_catalog():
    for family_name, pairs in (("quadric", QUADRIC_PAIRS), ("v4", V4_PAIRS),
                               ("v5", V5_PAIRS), ("x14", X14_PAIRS)):
        family = FAMILIES[family_name]
        for d, g in pairs:
            outcome = nef_certificate(family, d, g)
            assert outcome.passed, (family_name, d, g)
            for witness in outcome.witnesses:
                assert witness["eliminated"], (family_name, d, g, witness)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_nef_certificate_refuses_d_at_the_cutting_bound(name):
    # At d = bound the secant table would be empty and the certificate would
    # pass with nothing checked; the guard refuses it instead.
    family = FAMILIES[name]
    with pytest.raises(SecantBoundError, match=f"d={family.cutting_bound} is not below"):
        nef_certificate(family, family.cutting_bound, 0)
    assert nef_certificate(family, family.cutting_bound - 1, 0).name == "adjoint-class-nef"


def test_nef_kind_tracks_derived_constants():
    assert nef_certificate(FAMILIES["quadric"], 9, 2).kind == "verified"
    assert nef_certificate(FAMILIES["v5"], 9, 0).kind == "derived-extension"
    assert nef_certificate(FAMILIES["x14"], 5, 0).kind == "derived-extension"


def test_budget_formulas():
    for d, g in QUADRIC_PAIRS:
        result = free_certificate(FAMILIES["quadric"], d, g).result
        assert result["elliptic_multiplicity"] == 27 + g - 3 * d
        assert result["adjoint_polarization_degree"] == 18 - d
        assert result["elliptic_multiplicity"] >= 2
    for d, g in V4_PAIRS:
        result = free_certificate(FAMILIES["v4"], d, g).result
        assert result["elliptic_multiplicity"] == 16 - 2 * d + g
        assert result["adjoint_polarization_degree"] == 16 - d


def test_positive_budget_cases_exactly():
    budgets = {(d, g): free_certificate(FAMILIES["quadric"], d, g).result["rational_part_budget"]
               for d, g in QUADRIC_PAIRS}
    positive = {pair for pair, budget in budgets.items() if budget > 0}
    assert positive == {(9, 2), (10, 5), (11, 8), (8, 0)}
    assert {pair: budgets[pair] for pair in positive} == {
        (9, 2): 3, (10, 5): 2, (11, 8): 1, (8, 0): 1}


def test_free_reference_cases():
    outcome = free_certificate(FAMILIES["quadric"], 12, 11)
    assert outcome.passed
    assert outcome.result["elliptic_multiplicity"] == 2
    assert outcome.result["rational_part_budget"] == 0

    outcome = free_certificate(FAMILIES["quadric"], 9, 2)
    assert outcome.passed
    assert outcome.result["rational_part_budget"] == 3
    assert outcome.result["searched_degrees"] == [1, 2, 3]
    assert outcome.witnesses == ()

    outcome = free_certificate(FAMILIES["v4"], 9, 4)
    assert outcome.passed
    assert outcome.result["rational_part_budget"] == 1
    assert outcome.witnesses == ()


def test_free_passes_across_catalog():
    for family_name, pairs in (("quadric", QUADRIC_PAIRS), ("v4", V4_PAIRS),
                               ("v5", V5_PAIRS), ("x14", X14_PAIRS)):
        family = FAMILIES[family_name]
        for d, g in pairs:
            assert free_certificate(family, d, g).passed, (family_name, d, g)


def test_freeness_requires_positive_square():
    # a synthetic family with adjoint square 0 is out of the criterion's
    # range: the check fails with that as its reason and searches nothing
    flat = FamilySpec("quadric", 6, 3, 18)
    # (3H - C)^2 = 54 - 6d + 2g - 2; d=10, g=4 gives 54 - 60 + 8 - 2 = 0
    outcome = free_certificate(flat, 10, 4)
    assert not outcome.passed and outcome.witnesses == ()
    assert (outcome.name, outcome.rule, outcome.kind) == (
        "adjoint-class-free", "elliptic-decomposition-budget", "verified")
    assert outcome.inputs == {"family": "quadric", "d": 10, "g": 4}
    assert outcome.result == {"reason": "adjoint square 0 < 2; the decomposition "
                                        "criterion does not apply as stated"}


def reference_nef_certificate(family, d, g):
    """The original per-candidate nef search over the reference solver."""
    lattice = make_family_lattice(family, d, g)
    curve = DivisorClass(0, 1)
    table = admissible_table(family, d, g)
    witnesses = []
    all_eliminated = True
    for m, p_a, secancy in table:
        classes = reference_exact_square_classes(lattice, m, 2 * p_a - 2)
        for cls in classes:
            meets = lattice.pair(cls, curve)
            eliminated = meets < secancy
            all_eliminated = all_eliminated and eliminated
            witnesses.append({
                "class": list(cls),
                "degree": m,
                "arithmetic_genus": p_a,
                "meets_curve": meets,
                "secancy_required": secancy,
                "eliminated": eliminated,
            })
    return CheckOutcome(
        name="adjoint-class-nef",
        rule="secant-obstruction-search",
        kind=_table_kind(family),
        passed=all_eliminated,
        inputs={"family": family.name, "d": d, "g": g,
                "candidates": [[m, p_a, secancy] for m, p_a, secancy in table]},
        result={"witness_count": len(witnesses)},
        witnesses=tuple(witnesses),
    )


def reference_free_certificate(family, d, g):
    """The original per-degree freeness search over the reference solver."""
    lattice = make_family_lattice(family, d, g)
    adjoint = DivisorClass(family.index_multiplier, -1)
    square = lattice.pair(adjoint, adjoint)
    witnesses = []
    if square < 2:
        result = {"reason": f"adjoint square {square} < 2; the decomposition "
                            "criterion does not apply as stated"}
    else:
        k = (square + 2) // 2
        h_dot_d = lattice.degree(adjoint)
        gamma_budget = h_dot_d - 3 * k
        searched = []
        if gamma_budget > 0:
            for degree in range(1, gamma_budget + 1):
                searched.append(degree)
                for cls in reference_exact_square_classes(lattice, degree, -2):
                    witnesses.append({"class": list(cls),
                                      "polarization_degree": degree})
        result = {"elliptic_multiplicity": k,
                  "adjoint_polarization_degree": h_dot_d,
                  "rational_part_budget": gamma_budget,
                  "searched_degrees": searched}
    return CheckOutcome(
        name="adjoint-class-free",
        rule="elliptic-decomposition-budget",
        kind=_table_kind(family),
        passed=square >= 2 and not witnesses,
        inputs={"family": family.name, "d": d, "g": g},
        result=result,
        witnesses=tuple(witnesses),
    )


def _json_or_refusal(certificate, family, d, g):
    """The certificate's JSON text, pinning key and witness order, or the refusal."""
    try:
        return json.dumps(certificate(family, d, g).to_dict())
    except ValueError as exc:
        return type(exc)


def test_certificates_match_reference_on_census():
    pairs = witnessed = below_square_two = 0
    for name, d, g, _ in census_lattices():
        family = FAMILIES[name]
        for certificate, reference in ((nef_certificate, reference_nef_certificate),
                                       (free_certificate, reference_free_certificate)):
            expected = _json_or_refusal(reference, family, d, g)
            assert _json_or_refusal(certificate, family, d, g) == expected, (name, d, g)
            outcome = json.loads(expected)
            witnessed += bool(outcome["witnesses"])
            below_square_two += "reason" in outcome["result"]
        pairs += 1
    assert pairs == 721
    # the 560 census pairs whose adjoint square is below 2 fail freeness
    # with a reason, and some certificates have witnesses
    assert below_square_two == 560 and witnessed > 0


def test_free_certificate_matches_reference_off_the_catalog():
    # On the census the budget degrees carry no class of square >= -2, so
    # synthetic families supply both (-2)-witnesses and classes of square
    # >= 0 that the freeness search must leave out.
    witnessed = nonnegative = 0
    for h_square in (12, 16, 22, 30):
        for multiplier in (1, 3):
            family = FamilySpec("quadric", h_square, multiplier, 18)
            for d in range(1, 31):
                for g in range(11):
                    expected = _json_or_refusal(reference_free_certificate, family, d, g)
                    assert _json_or_refusal(free_certificate, family, d, g) == expected, \
                        (h_square, multiplier, d, g)
                    if not isinstance(expected, str):
                        continue
                    result = json.loads(expected)
                    witnessed += bool(result["witnesses"])
                    swept = curve_classes(make_family_lattice(family, d, g),
                                          result["result"].get("searched_degrees", []), -2)
                    nonnegative += any(square > -2 for *_, square in swept)
    assert witnessed > 0 and nonnegative > 0


# Sort key of a secant-table entry (m, p_a, secancy): the table's (p_a, m).
_GENUS_FIRST = itemgetter(1, 0)


def bisect_nef_certificate(family: FamilySpec, d: int, g: int) -> CheckOutcome:
    """The nef search before it read the genus caps: a bisection per swept class."""
    lattice = make_family_lattice(family, d, g)
    curve = DivisorClass(0, 1)
    table = admissible_table(family, d, g)
    # Genus-0 entries lead the table, one per degree it lists: the degrees to
    # sweep.  A class of degree m and square 2 p_a - 2 >= -2 obstructs when
    # (m, p_a) is an entry, found by bisection; the hits, sorted by
    # (p_a, m, a, b), come out in table order.
    genus_zero = table[:bisect_left(table, (1, 0), key=_GENUS_FIRST)]
    degrees = [entry[0] for entry in genus_zero]
    hits = []
    for m, a, b, square in curve_classes(lattice, degrees, -2):
        key = (square // 2 + 1, m)
        at = bisect_left(table, key, key=_GENUS_FIRST)
        if at < len(table) and _GENUS_FIRST(table[at]) == key:
            hits.append((*key, a, b, table[at][2]))
    hits.sort()
    witnesses = []
    all_eliminated = True
    for p_a, m, a, b, secancy in hits:
        meets = lattice.pair(DivisorClass(a, b), curve)
        eliminated = meets < secancy
        all_eliminated = all_eliminated and eliminated
        witnesses.append({
            "class": [a, b],
            "degree": m,
            "arithmetic_genus": p_a,
            "meets_curve": meets,
            "secancy_required": secancy,
            "eliminated": eliminated,
        })
    return CheckOutcome(
        name="adjoint-class-nef",
        rule="secant-obstruction-search",
        kind=_table_kind(family),
        passed=all_eliminated,
        inputs={"family": family.name, "d": d, "g": g, "candidates": table},
        result={"witness_count": len(witnesses)},
        witnesses=tuple(witnesses),
    )


def test_nef_certificate_matches_bisect_search_on_census():
    pairs = witnessed = 0
    for name, d, g, _ in census_lattices():
        family = FAMILIES[name]
        expected = _json_or_refusal(bisect_nef_certificate, family, d, g)
        assert _json_or_refusal(nef_certificate, family, d, g) == expected, (name, d, g)
        witnessed += bool(json.loads(expected)["witnesses"])
        pairs += 1
    assert pairs == 721 and witnessed > 0


def test_nef_certificate_matches_bisect_search_off_the_catalog():
    # Synthetic families reach genus caps above 0 with witnesses at several
    # genera, and witnesses the secancy does not eliminate.
    compared = witnessed = positive_genus = kept = 0
    for h_square in (12, 16, 22, 30):
        for multiplier in (1, 3):
            family = FamilySpec("quadric", h_square, multiplier, 18)
            for d in range(1, family.cutting_bound):
                for g in range(11):
                    if h_square * (2 * g - 2) - d * d >= 0:
                        continue
                    expected = _json_or_refusal(bisect_nef_certificate, family, d, g)
                    assert _json_or_refusal(nef_certificate, family, d, g) == expected, \
                        (h_square, multiplier, d, g)
                    expected = json.loads(expected)
                    compared += 1
                    witnessed += bool(expected["witnesses"])
                    positive_genus += any(w["arithmetic_genus"] > 0 for w in expected["witnesses"])
                    kept += any(not w["eliminated"] for w in expected["witnesses"])
    assert compared == 612 and witnessed > 0 and positive_genus > 0 and kept > 0


def test_nef_certificate_reads_the_secant_table_once(monkeypatch):
    # The benchmark's secant.candidates counter hooks admissible_table.
    calls = []

    def counting(family, d, g):
        calls.append((family.name, d, g))
        return admissible_table(family, d, g)

    monkeypatch.setattr(nefness, "admissible_table", counting)
    certified = 0
    for name, d, g, _ in census_lattices():
        calls.clear()
        nef_certificate(FAMILIES[name], d, g)
        assert calls == [(name, d, g)]
        certified += 1
    assert certified == 721
