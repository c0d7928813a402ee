from fanocert import lattice, ruled
from fanocert.catalog import run_all
from fanocert.ruled import (RuledLattice, hirzebruch_search, hirzebruch_sweep,
                            nef_square_classes, noether_contradiction, plane_square_check)


def brute_hirzebruch(n, square, require_moving=True, bound=20):
    surface = RuledLattice(n)
    k_class = surface.canonical_class
    found = []
    for x in range(0, bound + 1):
        for y in range(0, bound + 1):
            h = (x, y)
            if not surface.is_nef(h) or surface.dot(h, h) != square:
                continue
            for u in range(0, bound + 1):
                for v in range(0, bound + 1):
                    c = (u, v)
                    if surface.dot(c, h) != ruled.CURVE_DEGREE:
                        continue
                    if surface.dot((k_class[0] + u, k_class[1] + v), c) != -2:
                        continue
                    if require_moving and surface.dot(c, c) < 2:
                        continue
                    found.append((h, c))
    return found


def test_ruled_lattice_pairing():
    surface = RuledLattice(3)
    s, f = (1, 0), (0, 1)
    assert surface.dot(s, s) == -3
    assert surface.dot(f, f) == 0
    assert surface.dot(s, f) == 1
    k = surface.canonical_class
    # adjunction: K.(K) = 8 on every Hirzebruch surface
    assert surface.dot(k, k) == 8


def test_sweep_empty_for_all_relevant_n():
    for n in range(0, 11):
        assert hirzebruch_search(n, 10) == [], n


def test_sweep_matches_brute_force_enumeration(monkeypatch):
    for n in range(0, 11):
        assert hirzebruch_search(n, 10) == []
        assert brute_hirzebruch(n, 10) == []
    # Configurations that do have witnesses: the box of 20 holds every one,
    # since x, y <= square and u < 2 * CURVE_DEGREE.
    configurations = with_witnesses = 0
    for h_square in range(2, 21, 2):
        for degree in range(1, 8):
            monkeypatch.setattr(ruled, "CURVE_DEGREE", degree)
            for n in range(0, h_square + 1):
                found = hirzebruch_search(n, h_square)
                pairs = [(tuple(w["h"]), tuple(w["c"])) for w in found]
                assert pairs == brute_hirzebruch(n, h_square), (h_square, degree, n)
                surface = RuledLattice(n)
                for w in found:
                    assert w["n"] == n
                    assert w["c_square"] == surface.dot(w["c"], w["c"])
                configurations += 1
                with_witnesses += bool(found)
    assert (configurations, with_witnesses) == (840, 98)


def test_sweep_check_reads_the_configuration(monkeypatch):
    check = hirzebruch_sweep(10)
    assert check.passed and check.witnesses == ()
    assert check.inputs == {"n_range": [0, 10],
                            "bound_derivation": "x divides 10 and n <= 10 / x^2"}
    # A configuration with witnesses fails the check and lists every one.
    monkeypatch.setattr(ruled, "CURVE_DEGREE", 4)
    check = hirzebruch_sweep(4)
    expected = [w for n in range(0, 5) for w in hirzebruch_search(n, 4)]
    assert expected and not check.passed
    assert list(check.witnesses) == expected
    assert check.result == {"witnesses_found": len(expected)}


def test_sporadic_proof_follows_the_square(monkeypatch):
    # A fictional X10 of degree 8: every check of the branch reads its r^3 n.
    monkeypatch.setitem(lattice.AMBIENTS, "X10", (1, 8))
    (cert,) = [c for c in run_all(family="sporadic").certificates
               if c.case.ambient == "X10"]
    checks = {c.name: c for c in cert.checks}
    assert checks["ambient-genus"].inputs == {"ambient": "X10", "anticanonical_degree": 8}
    assert checks["plane-has-no-class-of-square"].inputs == {"square": 8}
    assert checks["hirzebruch-sweep-empty"].inputs == {
        "n_range": [0, 8], "bound_derivation": "x divides 8 and n <= 8 / x^2"}
    # The weak del Pezzo branch has K^2 = H^2, so the Noether check reads it too,
    # and 8 <= 9 leaves the branch open.
    noether = checks["canonical-square-exceeds-noether-bound"]
    assert noether.inputs == {"k_square": 8, "noether_bound": 9}
    assert "canonical square 8," in checks["higher-picard-rank-branch"].result["statement"]
    assert not noether.passed
    assert cert.computed == "Unverified"


def test_no_nef_square_ten_classes_beyond_bound():
    # from x(2y - nx) = 10 and y >= nx follows n <= 10 / x^2
    for n in (11, 12, 20, 37):
        assert nef_square_classes(n, 10) == ()
    assert nef_square_classes(10, 10) == ((1, 10),)
    assert set(nef_square_classes(0, 10)) == {(1, 5), (5, 1)}


def test_rigid_sections_survive_without_family_constraint():
    # dropping the moving-family square constraint lets rigid sections
    # through; the full constraint set must reject exactly those
    survivor_ns = [n for n in range(0, 11) if brute_hirzebruch(n, 10, require_moving=False)]
    assert survivor_ns == [4, 6, 8, 10]
    for n in survivor_ns:
        surface = RuledLattice(n)
        for _, c in brute_hirzebruch(n, 10, require_moving=False):
            assert surface.dot(c, c) < 2
        assert hirzebruch_search(n, 10) == []


def test_adjunction_chain_on_partial_survivors():
    # (K+H).C = (K+C).C - C^2 + H.C = 1 - C^2 for every rational cubic
    checked = 0
    for n in range(0, 11):
        surface = RuledLattice(n)
        k = surface.canonical_class
        for h, c in brute_hirzebruch(n, 10, require_moving=False):
            kh_dot_c = surface.dot((k[0] + h[0], k[1] + h[1]), c)
            assert kh_dot_c == 1 - surface.dot(c, c)
            checked += 1
    assert checked > 0


def test_plane_square_check():
    assert plane_square_check(10).passed
    for square in (9, 0):
        check = plane_square_check(square)
        assert not check.passed
        assert check.inputs == {"square": square}


def test_noether_bound():
    for square, passed in ((10, True), (9, False), (1, False)):
        check = noether_contradiction(square)
        assert check.passed is passed
        assert check.inputs == {"k_square": square, "noether_bound": 9}
