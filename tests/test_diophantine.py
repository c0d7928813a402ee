import gc
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from fanocert.diophantine import (DependentFormsError, Interval, band_empty,
                                  curve_classes, degree_lines, effective_decompositions,
                                  line_maximum)
from fanocert.diophantine import _line, _nonnegative_range
from fanocert import diophantine, gonality
from fanocert.gonality import DONOR_DEGREES, DonorWindowEmptyError, tetragonal_certificate
from fanocert.lattice import (FAMILIES, DivisorClass, IntersectionLattice,
                              LatticeSignatureError, as_class, make_family_lattice)
from fanocert.nefness import FreenessInapplicableError, free_certificate, nef_certificate
from fanocert.outcome import VERIFIED, CheckOutcome

WINDOW = 50


def random_hyperbolic_lattice(rng):
    while True:
        h2 = 2 * rng.randint(1, 7)
        d = rng.randint(1, 12)
        c2 = 2 * rng.randint(-1, 10)
        if h2 * c2 - d * d < 0:
            return IntersectionLattice(((h2, d), (d, c2)))


def brute_degree_square(lattice, degree, square, window=WINDOW):
    h2, d = lattice.gram[0]
    found = []
    for a in range(-window, window + 1):
        rest = degree - h2 * a
        if rest % d:
            continue
        b = rest // d
        if abs(b) > window:
            continue
        cls = DivisorClass(a, b)
        if lattice.pair(cls, cls) == square:
            found.append(cls)
    return sorted(found, key=lambda c: (c.a, c.b))


def brute_curve_search(lattice, degree, min_square, window=WINDOW):
    h2, d = lattice.gram[0]
    found = []
    for a in range(-window, window + 1):
        rest = degree - h2 * a
        if rest % d:
            continue
        b = rest // d
        if abs(b) > window:
            continue
        cls = DivisorClass(a, b)
        if lattice.pair(cls, cls) >= min_square:
            found.append(cls)
    return sorted(found, key=lambda c: (c.a, c.b))


def in_window(cls, window=WINDOW):
    return abs(cls.a) <= window and abs(cls.b) <= window


def sweep_square(lattice, degree, square) -> tuple[DivisorClass, ...]:
    """The classes of one degree and exact square: the sweep at that square, filtered."""
    return tuple(DivisorClass(a, b) for _, a, b, found
                 in curve_classes(lattice, (degree,), square) if found == square)


def sweep_degree(lattice, degree, min_square) -> tuple[DivisorClass, ...]:
    """The classes of one degree and square >= min_square, boxed, by (a, b)."""
    return tuple(DivisorClass(a, b)
                 for _, a, b, _ in curve_classes(lattice, (degree,), min_square))


def test_solve_degree_square_reference_values():
    quadric = make_family_lattice(FAMILIES["quadric"], 13, 14)
    assert sweep_square(quadric, 1, -2) == (DivisorClass(-2, 1),)
    v4 = make_family_lattice(FAMILIES["v4"], 10, 6)
    assert sweep_square(v4, 2, -2) == (DivisorClass(-1, 1),)
    quadric92 = make_family_lattice(FAMILIES["quadric"], 9, 2)
    assert sweep_square(quadric92, 1, -2) == ()
    assert brute_degree_square(quadric92, 1, -2, window=200) == []


def test_solve_degree_square_matches_brute_force():
    rng = random.Random(0xFA2601)
    for _ in range(300):
        lattice = random_hyperbolic_lattice(rng)
        degree = rng.randint(-30, 30)
        square = 2 * rng.randint(-40, 40)
        solved = sweep_square(lattice, degree, square)
        for cls in solved:
            assert lattice.degree(cls) == degree
            assert lattice.pair(cls, cls) == square
        expected = brute_degree_square(lattice, degree, square)
        assert [c for c in solved if in_window(c)] == expected


def test_solve_degree_square_full_plane_scan():
    # independent 2-D oracle on a smaller batch
    rng = random.Random(0xFA2602)
    for _ in range(40):
        lattice = random_hyperbolic_lattice(rng)
        degree = rng.randint(-12, 12)
        square = 2 * rng.randint(-20, 20)
        expected = sorted(
            (DivisorClass(a, b)
             for a in range(-25, 26) for b in range(-25, 26)
             if lattice.degree(DivisorClass(a, b)) == degree
             and lattice.pair(DivisorClass(a, b), DivisorClass(a, b)) == square),
            key=lambda c: (c.a, c.b))
        solved = sweep_square(lattice, degree, square)
        assert [c for c in solved if abs(c.a) <= 25 and abs(c.b) <= 25] == expected


def _int_sqrt_if_square(value: int) -> int | None:
    if value < 0:
        return None
    root = isqrt(value)
    return root if root * root == value else None


def _line_base(line, target: int) -> tuple[int, int] | None:
    """Canonical base (a, b) of ``_line`` output ``line`` at ``target``.

    None when the target is off the gcd; the fast coordinate lies in [0, step).
    """
    g, u, v, step_a, step_b = line
    if target % g:
        return None
    scale = target // g
    base_a, base_b = u * scale, v * scale
    # step_a == 0 only for a form (p, 0), where v == 0 and so base_b == 0.
    shift = base_a // step_a if step_a else 0
    return base_a - shift * step_a, base_b - shift * step_b


def _line_solutions(coeff_a, coeff_b, target):
    """Canonical (base, step) for the solutions of coeff_a*a + coeff_b*b = target."""
    line = _line(coeff_a, coeff_b)
    base = _line_base(line, target)
    if base is None:
        return None
    return DivisorClass(*base), DivisorClass(*line[3:])


def reference_solve_degree_square(lattice, degree, square) -> tuple[DivisorClass, ...]:
    """The original one-query solver, kept verbatim as the oracle."""
    if lattice.det >= 0:
        raise LatticeSignatureError("degree/square search needs det < 0")
    h2 = lattice.gram[0][0]
    d = lattice.gram[0][1]
    line = _line_solutions(h2, d, degree)
    if line is None:
        return ()
    base, step = line
    quad_a = lattice.pair(step, step)
    quad_b = 2 * lattice.pair(base, step)
    quad_c = lattice.pair(base, base) - square
    disc = quad_b * quad_b - 4 * quad_a * quad_c
    root = _int_sqrt_if_square(disc)
    if root is None:
        return ()
    found = []
    for signed in (root, -root):
        num = -quad_b + signed
        den = 2 * quad_a
        if num % den:
            continue
        cls = base + (num // den) * step
        if cls not in found:
            found.append(cls)
    return tuple(sorted(found, key=lambda c: (c.a, c.b)))


def test_solve_degree_squares_matches_reference():
    # Exact-square queries answered by the sweep, filtered to the square,
    # one query at a time and all at once, against the one-query oracle.
    rng = random.Random(0xFA2607)
    hits = misses = off_gcd = repeated = two_roots = 0
    for _ in range(250):
        lattice = random_hyperbolic_lattice(rng)
        step = gcd(lattice.gram[0][0], lattice.gram[0][1])
        queries = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            square = 2 * rng.randint(-40, 40)
            if roll < 0.3 and queries:
                # a degree already asked, with another square
                degree = rng.choice(queries)[0]
            elif roll < 0.6:
                # the degree and square of a class, so the query has a root
                cls = DivisorClass(rng.randint(-6, 6), rng.randint(-6, 6))
                degree, square = lattice.degree(cls), lattice.pair(cls, cls)
            elif roll < 0.75 and step > 1:
                # off the gcd of the degree form: no integer point at all
                degree = step * rng.randint(-10, 10) + rng.randint(1, step - 1)
            else:
                degree = rng.randint(-30, 30)
            queries.append((degree, square))
        expected = tuple(reference_solve_degree_square(lattice, *q)
                         for q in queries)
        assert tuple(sweep_square(lattice, *q) for q in queries) == expected
        degrees = [q[0] for q in queries]
        swept = curve_classes(lattice, iter(dict.fromkeys(degrees)),
                              min(q[1] for q in queries))
        assert tuple(tuple(DivisorClass(a, b) for degree, a, b, square in swept
                           if (degree, square) == query)
                     for query in queries) == expected
        assert curve_classes(lattice, [], -2) == []
        repeated += len(set(degrees)) < len(degrees)
        off_gcd += sum(degree % step != 0 for degree in degrees)
        hits += sum(bool(found) for found in expected)
        misses += sum(not found for found, degree in zip(expected, degrees)
                      if degree % step == 0)
        two_roots += sum(len(found) == 2 for found in expected)
    # the sample holds repeated and off-gcd degrees, hits, rootless squares
    # and two-solution queries alike
    assert min(hits, misses, off_gcd, repeated, two_roots) > 0


def test_solve_degree_squares_signature_guard():
    for gram in (((2, 1), (1, 2)), ((2, 2), (2, 2))):
        lattice = IntersectionLattice(gram)
        assert lattice.det >= 0
        with pytest.raises(LatticeSignatureError):
            curve_classes(lattice, (1,), -2)
        with pytest.raises(LatticeSignatureError):
            curve_classes(lattice, (), -2)
        with pytest.raises(LatticeSignatureError):
            degree_lines(lattice, (1,), -2)


def test_searches_refuse_nonpositive_polarization():
    # det < 0 but H^2 = 0 (the square is linear on a degree line) or H^2 < 0
    # (an upward parabola: (0, 1) has degree 1 and square 2)
    for gram in (((0, 1), (1, 0)), ((-2, 1), (1, 2))):
        lattice = IntersectionLattice(gram)
        assert lattice.det < 0 and lattice.gram[0][0] <= 0
        with pytest.raises(LatticeSignatureError):
            curve_classes(lattice, (1,), 2)
        with pytest.raises(LatticeSignatureError):
            curve_classes(lattice, (1,), -2)
        with pytest.raises(LatticeSignatureError):
            degree_lines(lattice, (1,), -2)
        with pytest.raises(LatticeSignatureError):
            effective_decompositions(lattice, DivisorClass(0, 1))


def test_nonnegative_range_matches_brute_force():
    rng = random.Random(0xFA2609)
    box = range(-500, 501)
    negative = double = integer_ends = 0
    for _ in range(1000):
        quad_a = -rng.randint(1, 40)
        roll = rng.random()
        if roll < 0.3:
            # integer roots r1 <= r2, so both ends are roots themselves
            r1, r2 = sorted((rng.randint(-200, 200), rng.randint(-200, 200)))
            quad_b, quad_c = -quad_a * (r1 + r2), quad_a * r1 * r2
        elif roll < 0.4:
            # a double root, possibly off the integers
            num, den = rng.randint(-400, 400), rng.randint(1, 3)
            quad_b, quad_c = -2 * quad_a * den * num, quad_a * num * num
            quad_a *= den * den
        else:
            # vertex within 200 of 0 and peak at most 60,000, so every
            # nonnegative k lies in the box
            quad_b, quad_c = rng.randint(-400, 400), rng.randint(-20000, 20000)
        found = list(_nonnegative_range(quad_a, quad_b, quad_c))
        assert found == [k for k in box if quad_a * k * k + quad_b * k + quad_c >= 0]
        disc = quad_b * quad_b - 4 * quad_a * quad_c
        negative += disc < 0
        double += disc == 0
        integer_ends += (disc > 0 and len(found) > 1
                         and quad_a * found[0] ** 2 + quad_b * found[0] + quad_c == 0
                         and quad_a * found[-1] ** 2 + quad_b * found[-1] + quad_c == 0)
    # empty parabolas, tangent ones and ones whose ends sit exactly on roots
    assert min(negative, double, integer_ends) > 0


def test_curve_class_search_reference_values():
    v5 = make_family_lattice(FAMILIES["v5"], 7, 0)
    assert sweep_degree(v5, 1, -2) == ()
    x14 = make_family_lattice(FAMILIES["x14"], 4, 0)
    assert sweep_degree(x14, 2, -2) == ()
    quadric = make_family_lattice(FAMILIES["quadric"], 8, 0)
    found = sweep_degree(quadric, 8, -2)
    assert DivisorClass(0, 1) in found


def test_curve_class_search_matches_brute_force():
    rng = random.Random(0xFA2603)
    for _ in range(300):
        lattice = random_hyperbolic_lattice(rng)
        degree = rng.randint(-20, 20)
        min_square = rng.randint(-24, 12)
        found = sweep_degree(lattice, degree, min_square)
        for cls in found:
            assert lattice.degree(cls) == degree
            assert lattice.pair(cls, cls) >= min_square
        expected = brute_curve_search(lattice, degree, min_square)
        assert [c for c in found if in_window(c)] == expected


def brute_curve_classes(lattice, degree, min_square):
    """(degree, a, b, square) of every class with square >= min_square, by (a, b).

    Hodge index bounds the scan: with det < 0 a class of degree δ has
    square (δ^2 + det b^2) / H^2, so square >= min_square forces
    b^2 <= (δ^2 - H^2 min_square) / -det; one point more on each side is
    scanned, and a is then fixed by the degree.
    """
    h2, d = lattice.gram[0]
    bound = isqrt(max(0, degree * degree - h2 * min_square) // -lattice.det) + 1
    found = []
    for b in range(-bound, bound + 1):
        if (degree - d * b) % h2:
            continue
        cls = DivisorClass((degree - d * b) // h2, b)
        square = lattice.pair(cls, cls)
        if square >= min_square:
            found.append((degree, cls.a, cls.b, square))
    return sorted(found)


def test_curve_classes_matches_brute_force():
    rng = random.Random(0xFA2608)
    repeated = descending = off_gcd = deep = found_any = 0
    for _ in range(300):
        lattice = random_hyperbolic_lattice(rng)
        if rng.random() < 0.5:
            # repeats and unordered degrees, drawn from a narrow range
            degrees = [rng.randint(-6, 12) for _ in range(rng.randint(0, 8))]
        else:
            top = rng.randint(1, 25)
            degrees = list(range(top, rng.randint(-5, top), -rng.randint(1, 3)))
            descending += len(degrees) > 1
        min_square = -2 if rng.random() < 0.5 else rng.randint(-60, -3)
        found = curve_classes(lattice, degrees, min_square)
        expected = [cls for degree in degrees
                    for cls in brute_curve_classes(lattice, degree, min_square)]
        assert found == expected, (lattice.gram, degrees, min_square)
        step = gcd(*lattice.gram[0])
        repeated += len(set(degrees)) < len(degrees)
        off_gcd += any(degree % step for degree in degrees)
        deep += min_square < -2 and bool(found)
        found_any += bool(found)
    assert min(repeated, descending, off_gcd, deep) > 0 and found_any > 100


def test_band_reference_regions():
    lemma_band = band_empty((10, 7), Interval.open(0, 10), (7, -2), Interval.closed(0, 7))
    assert lemma_band.passed and lemma_band.witnesses == ()

    open_box = band_empty((1, 0), Interval.open(0, 1), (0, 1), Interval.open(0, 1))
    assert open_box.passed

    closed_box = band_empty((1, 0), Interval.closed(0, 1), (0, 1), Interval.closed(0, 1))
    assert not closed_box.passed
    assert list(closed_box.witnesses) == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_band_rejects_dependent_forms():
    with pytest.raises(DependentFormsError):
        band_empty((2, 4), Interval.closed(0, 3), (1, 2), Interval.closed(0, 3))


def test_band_witnesses_satisfy_constraints():
    rng = random.Random(0xFA2604)
    for _ in range(100):
        f1 = (rng.randint(-6, 6), rng.randint(-6, 6))
        f2 = (rng.randint(-6, 6), rng.randint(-6, 6))
        if f1[0] * f2[1] - f1[1] * f2[0] == 0:
            continue
        r1 = Interval(rng.randint(-8, 0), rng.randint(1, 8),
                      rng.random() < 0.5, rng.random() < 0.5)
        r2 = Interval(rng.randint(-8, 0), rng.randint(1, 8),
                      rng.random() < 0.5, rng.random() < 0.5)
        outcome = band_empty(f1, r1, f2, r2)
        # oracle: scan a box large enough to hold the whole region, stepping
        # u = f1 . (a, b) and v = f2 . (a, b) along b instead of multiplying
        oracle = []
        ints1, ints2 = r1.integers(), r2.integers()
        lo1, hi1, lo2, hi2 = ints1.start, ints1.stop, ints2.start, ints2.stop
        for a in range(-200, 201):
            u = f1[0] * a - 200 * f1[1]
            v = f2[0] * a - 200 * f2[1]
            for b in range(-200, 201):
                if lo1 <= u < hi1 and lo2 <= v < hi2:
                    oracle.append([a, b])
                u += f1[1]
                v += f2[1]
        assert sorted(list(w) for w in outcome.witnesses) == sorted(oracle)


def reference_band_empty(form1, range1, form2, range2):
    """The original scan of the range1 x range2 box, kept verbatim as the oracle."""
    p, q = form1
    r, s = form2
    det = p * s - q * r
    if det == 0:
        raise DependentFormsError("band forms are linearly dependent")
    witnesses = []
    for u in range1.integers():
        for v in range2.integers():
            a_num = u * s - v * q
            b_num = v * p - u * r
            if a_num % det or b_num % det:
                continue
            witnesses.append([a_num // det, b_num // det])
    witnesses.sort()
    return CheckOutcome(
        name="integer-points-in-band",
        rule="band-enumeration",
        kind=VERIFIED,
        passed=not witnesses,
        inputs={"form1": list(form1), "range1": range1.label(),
                "form2": list(form2), "range2": range2.label()},
        result={"points_found": len(witnesses)},
        witnesses=tuple(witnesses),
    )


def census_band(name, d, g):
    """The hyperplane-splitting band of the v5 construction, on any family."""
    h2 = FAMILIES[name].h_square
    return ((h2, d), Interval.open(0, h2), (d, 2 * g - 2), Interval.closed(0, d))


def test_band_matches_box_scan_on_census_bands():
    count = points = 0
    for name, d, g, _ in census_lattices():
        band = census_band(name, d, g)
        outcome = band_empty(*band)
        assert outcome == reference_band_empty(*band), (name, d, g)
        count += 1
        points += len(outcome.witnesses)
    assert count == 721 and points > 0


def random_band(rng):
    """(form1, range1, form2, range2): coefficients in [-7, 7], ranges near 0."""

    def interval():
        lo = rng.randint(-20, 20)
        # hi < lo, and lo == hi with an open end, give empty ranges
        return Interval(lo, lo + rng.randint(-3, 25), rng.random() < 0.5, rng.random() < 0.5)

    form1 = (rng.randint(-7, 7), rng.randint(-7, 7))
    form2 = (rng.randint(-7, 7), rng.randint(-7, 7))
    return form1, interval(), form2, interval()


RANDOM_BAND_SEED = 0xFA260B


def test_band_matches_box_scan_on_random_forms():
    rng = random.Random(RANDOM_BAND_SEED)
    dependent = zero_coeff = empty = found = 0
    for _ in range(600):
        form1, range1, form2, range2 = random_band(rng)
        try:
            expected = reference_band_empty(form1, range1, form2, range2)
        except DependentFormsError:
            with pytest.raises(DependentFormsError):
                band_empty(form1, range1, form2, range2)
            dependent += 1
            continue
        assert band_empty(form1, range1, form2, range2) == expected
        zero_coeff += 0 in form1 + form2
        empty += not range1.integers() or not range2.integers()
        found += bool(expected.witnesses)
    # proportional forms, zero and negative coefficients, empty ranges and
    # regions with points alike
    assert min(dependent, zero_coeff, empty) > 0 and found > 100


def test_band_solves_one_line_per_call(monkeypatch):
    # The band solves form1's line once and walks only the multiples of
    # gcd(form1) in range1: the first from the unreduced solution, then
    # (u, v) added per further multiple.
    calls = []
    line = diophantine._line
    monkeypatch.setattr(diophantine, "_line",
                        lambda *args: calls.append(args) or line(*args))
    bands = [census_band(name, d, g) for name, d, g, _ in census_lattices()]
    rng = random.Random(RANDOM_BAND_SEED)
    bands += [random_band(rng) for _ in range(600)]
    walked = stepped = 0
    for form1, range1, form2, range2 in bands:
        calls.clear()
        try:
            band_empty(form1, range1, form2, range2)
        except DependentFormsError:
            continue
        assert len(calls) == 1, (form1, range1, form2, range2)
        walked += 1
        spacing = gcd(*form1)
        stepped += sum(1 for u in range1.integers() if u % spacing == 0) > 1
    assert walked > 721 + 500 and stepped > 721


def test_band_matches_box_scan_with_range1_ends_off_the_gcd():
    # gcd(form1) >= 2 and both ends of range1 off its multiples, negative,
    # open and closed alike: the walk starts at the first multiple inside.
    rng = random.Random(0xFA2615)
    seen = set()
    checked = found = 0
    while checked < 400:
        spacing = rng.randint(2, 6)
        form1 = (spacing * rng.randint(-4, 4), spacing * rng.randint(-4, 4))
        form2 = (rng.randint(-7, 7), rng.randint(-7, 7))
        lo = rng.randint(-30, 10)
        hi = lo + rng.randint(1, 30)
        if gcd(*form1) != spacing or lo % spacing == 0 or hi % spacing == 0:
            continue
        range1 = Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        range2 = Interval(rng.randint(-20, 0), rng.randint(0, 20),
                          rng.random() < 0.5, rng.random() < 0.5)
        try:
            expected = reference_band_empty(form1, range1, form2, range2)
        except DependentFormsError:
            continue
        assert band_empty(form1, range1, form2, range2) == expected
        checked += 1
        found += bool(expected.witnesses)
        seen.update({"lo < 0" if lo < 0 else "lo > 0", "hi < 0" if hi < 0 else "hi > 0",
                     "lo open" if range1.lo_open else "lo closed",
                     "hi open" if range1.hi_open else "hi closed"})
    assert len(seen) == 8 and found > 100


def test_forms_without_b_have_bases_with_b_zero():
    # A form (p, 0) is the only one whose step has step_a == 0.  There
    # _line(p, 0) gives u = sign(p) and v == 0, so every base has b == 0, which
    # is why the reference _line_base and the walk of degree_lines from the
    # zero base shift by 0 then.
    # Each base is checked against the solutions of p*a = t in a box, b in
    # the canonical window [0, step_b).
    rng = random.Random(0xFA2625)
    bases = 0
    for _ in range(200):
        p = rng.choice((-1, 1)) * rng.randint(1, 30)
        _, _, v, step_a, step_b = line = _line(p, 0)
        assert v == 0 and step_a == 0 < step_b, p
        for target in range(-40, 41):
            brute = [(a, b) for a in range(-40, 41) if p * a == target
                     for b in range(-3, 4) if 0 <= b < step_b]
            base = _line_base(line, target)
            assert base == (brute[0] if brute else None), (p, target)
            if base is not None:
                assert base[1] == 0
                bases += 1
        lattice = IntersectionLattice(((abs(p) + abs(p) % 2, 0), (0, -2 * rng.randint(1, 9))))
        degrees = [rng.randint(-40, 40) for _ in range(12)]
        assert all(base_b == 0 for _, _, base_b, *_ in degree_lines(lattice, degrees, -40))
    assert bases > 1000


def test_line_solves_every_small_form():
    # Every form (p, q) in [-40, 40]^2 but (0, 0): g is the gcd, (u, v)
    # solves p*u + q*v = g, and the step is a primitive, lexicographically
    # positive solution of the homogeneous equation.  Each base equals the
    # brute-force canonical one: the solution with the fast coordinate (a,
    # or b when step_a == 0) in [0, step).
    checked = 0
    for p in range(-40, 41):
        for q in range(-40, 41):
            if p == q == 0:
                continue
            g, u, v, step_a, step_b = line = _line(p, q)
            assert g == gcd(p, q) and u * p + v * q == g, (p, q)
            assert p * step_a + q * step_b == 0 and gcd(step_a, step_b) == 1, (p, q)
            assert step_a > 0 or (step_a == 0 and step_b > 0), (p, q)
            for target in range(-10, 11):
                if step_a:
                    brute = [(a, (target - p * a) // q) for a in range(step_a)
                             if (target - p * a) % q == 0]
                else:
                    brute = [(target // p, 0)] if target % p == 0 else []
                assert _line_base(line, target) == (brute[0] if brute else None), (p, q, target)
                checked += 1
    assert checked == 6560 * 21


def test_family_solutions_reference_families():
    x14_40 = make_family_lattice(FAMILIES["x14"], 4, 0)
    lines = degree_lines(x14_40, range(4, 8), 0)
    data = {(degree, (base_a, base_b), (step_a, step_b))
            for degree, base_a, base_b, step_a, step_b, *_ in lines}
    assert data == {(4, (0, 1), (2, -7)), (6, (1, -2), (2, -7))}

    x14_50 = make_family_lattice(FAMILIES["x14"], 5, 0)
    lines = degree_lines(x14_50, range(4, 8), 0)
    assert [line[0] for line in lines] == [4, 5, 6, 7]
    on_line = {degree: {(base_a + k * step_a, base_b + k * step_b) for k in range(-5, 6)}
               for degree, base_a, base_b, step_a, step_b, *_ in lines}
    assert (0, 1) in on_line[5] and (1, -2) in on_line[4]

    assert degree_lines(IntersectionLattice(((2, 0), (0, -2))), [1], 0) == []


def test_family_quadratic_max_reference_values():
    x14_40 = make_family_lattice(FAMILIES["x14"], 4, 0)
    line, = degree_lines(x14_40, [4], 0)
    _, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq, ks = line
    assert (base_a, base_b, step_a, step_b) == (0, 1, 2, -7)
    assert (quad_a, quad_b, base_sq) == (-154, 44, -2)
    assert not ks
    assert line_maximum(quad_a, quad_b, base_sq, ks) == (-2, 0)

    # without det < 0 the square is no downward parabola on a degree line
    with pytest.raises(LatticeSignatureError):
        degree_lines(IntersectionLattice(((2, 1), (1, 2))), [0], 0)


def reference_family_solutions(lhs, values, side, side_bound):
    """The original side-filtered family solver, kept verbatim as the oracle.

    It returns (base, step, value, k_min, k_max) tuples where the original
    built a ``LinearFamily`` carrying the half-line bounds.
    """
    families = []
    for value in values:
        line = _line_solutions(lhs[0], lhs[1], value)
        if line is None:
            continue
        base, step = line
        c0 = side[0] * base.a + side[1] * base.b
        c1 = side[0] * step.a + side[1] * step.b
        k_min = k_max = None
        if c1 == 0:
            if c0 < side_bound:
                continue
        elif c1 > 0:
            k_min = -((c0 - side_bound) // c1)
        else:
            k_max = (side_bound - c0) // c1
        families.append((base, step, value, k_min, k_max))
    return tuple(families)


def test_donor_families_match_side_filtered_reference_on_x14_census():
    h2 = FAMILIES["x14"].h_square
    pairs = families_seen = 0
    for name, d, g, lattice in census_lattices():
        if name != "x14":
            continue
        pairs += 1
        expected = reference_family_solutions((h2, d), DONOR_DEGREES, (-h2, -d), -h2)
        # the side form is -1 times the degree form, so no half-line appears
        assert all(k_min is None and k_max is None for *_, k_min, k_max in expected)
        expected = [(base, step, value) for base, step, value, _, _ in expected]
        found = degree_lines(lattice, [v for v in DONOR_DEGREES if v <= h2], 0)
        assert [(DivisorClass(base_a, base_b), DivisorClass(step_a, step_b), value)
                for value, base_a, base_b, step_a, step_b, *_ in found] == expected, (d, g)
        try:
            report = tetragonal_certificate(d, g)
        except DonorWindowEmptyError:
            assert expected == [], (d, g)
            continue
        witnesses = next(c for c in report.checks
                         if c.name == "donor-family-squares-negative").witnesses
        assert [(DivisorClass(*w["base"]), DivisorClass(*w["step"]), w["value"])
                for w in witnesses] == expected, (d, g)
        families_seen += len(expected)
    assert pairs == 290 and families_seen > 0


def reference_degree_lines(lattice, degrees, min_square):
    """The per-degree solve: one ``_line_base`` call for every listed degree,
    the square's quadratic read off the pairing."""
    (h2, d), _ = lattice.gram
    line = _line(h2, d)
    step = line[3:]
    lines = []
    for degree in degrees:
        base = _line_base(line, degree)
        if base is None:
            continue
        quad_a, quad_b = lattice.pair(step, step), 2 * lattice.pair(base, step)
        base_sq = lattice.pair(base, base)
        lines.append((degree, *base, *step, quad_a, quad_b, base_sq,
                      _nonnegative_range(quad_a, quad_b, base_sq - min_square)))
    return lines


def random_degree_list(rng, spacing):
    """(kind, degrees): a pool, nef-style caps, a messy list, or one that
    starts off the gcd."""
    kind = rng.choice(("pool", "caps", "messy", "off-first" if spacing > 1 else "messy"))
    if kind == "pool":
        total = rng.randint(-5, 60)
        return kind, range(total - total % spacing, 0, -spacing)
    if kind == "caps":
        return kind, sorted(rng.sample(range(1, 30), rng.randint(0, 12)))
    degrees = [rng.randint(-40, 40) for _ in range(rng.randint(0, 14))]
    degrees += rng.sample(degrees, min(len(degrees), 3)) + [0] * rng.randint(0, 2)
    rng.shuffle(degrees)
    if kind == "off-first":
        degrees = [spacing * rng.randint(-9, 9) + rng.randint(1, spacing - 1)
                   for _ in range(rng.randint(1, 3))] + degrees
    return kind, degrees


def random_degree_lattice(rng):
    """A random lattice with det < 0 < H^2; d = 0 and d < 0 included."""
    while True:
        h2 = 2 * rng.randint(1, 9)
        d = rng.choice((0, rng.randint(-12, 12)))
        c2 = 2 * rng.randint(-6, 10)
        if h2 * c2 - d * d < 0:
            return IntersectionLattice(((h2, d), (d, c2)))


def test_degree_lines_match_per_degree_reference():
    rng = random.Random(0xFA2618)
    seen = set()
    stepped = 0
    for _ in range(800):
        lattice = random_degree_lattice(rng)
        (h2, d), _ = lattice.gram
        spacing = gcd(h2, d)
        kind, degrees = random_degree_list(rng, spacing)
        min_square = rng.randint(-40, 6)
        lines = degree_lines(lattice, degrees, min_square)
        assert lines == reference_degree_lines(lattice, degrees, min_square), (
            lattice.gram, degrees, min_square)
        stepped += len(lines) > 1
        seen.add(kind)
        seen.add("d = 0" if d == 0 else "d < 0" if d < 0 else "d > 0")
        listed = list(degrees)
        if len(set(listed)) < len(listed):
            seen.add("repeated")
        if any(x > y for x, y in zip(listed, listed[1:])) and kind != "pool":
            seen.add("unsorted")
        if any(x <= 0 for x in listed if x % spacing == 0):
            seen.add("zero or negative")
        if d == 0 and len(lines) > 1:
            seen.add("stepped at d = 0")
    assert seen == {"pool", "caps", "messy", "off-first", "d = 0", "d < 0", "d > 0",
                    "repeated", "unsorted", "zero or negative", "stepped at d = 0"}
    assert stepped > 500
    # Every small lattice with C^2 = -2: each walk starts from the zero base,
    # so its first degree, of either sign, takes the whole step there.  The
    # d = 0 lattices have step_a = 0.  The tail repeats, descends and
    # returns to 0; each list is also walked reversed.
    degrees = [*range(-10, 11), 10, 4, 4, -3, 0, 17, -17, 0, 9]
    compared = 0
    for h2 in range(2, 41, 2):
        for d in range(-40, 41):
            lattice = IntersectionLattice(((h2, d), (d, -2)))
            for listed in (degrees, degrees[::-1]):
                assert degree_lines(lattice, listed, -2) == reference_degree_lines(
                    lattice, listed, -2), (h2, d, listed)
                compared += 1
    assert compared == 3240


def test_degree_lines_solve_one_line_per_call(monkeypatch):
    # As in the band: the degree line is solved once per call, and every
    # listed degree on the gcd steps the previous base, the first from the
    # zero base.  Every degree list that nef, free, tetragonality and the
    # decomposition pool pass on the census lattices is counted, then
    # random lattices and lists.
    calls = []
    line = diophantine._line
    monkeypatch.setattr(diophantine, "_line",
                        lambda *args: calls.append(args) or line(*args))
    walk = diophantine.degree_lines
    counted = []

    def counting_degree_lines(lattice, degrees, min_square):
        calls.clear()
        lines = walk(lattice, degrees, min_square)
        counted.append((len(lines), len(calls)))
        return lines

    monkeypatch.setattr(diophantine, "degree_lines", counting_degree_lines)
    monkeypatch.setattr(gonality, "degree_lines", counting_degree_lines)
    for name, d, g, lattice in census_lattices():
        family = FAMILIES[name]
        nef_certificate(family, d, g)
        try:
            free_certificate(family, d, g)
        except FreenessInapplicableError:
            pass
        if name == "x14":
            try:
                tetragonal_certificate(d, g)
            except DonorWindowEmptyError:
                pass
    for name, d, g, lattice, cls in census_splits():
        effective_decompositions(lattice, cls)
    census = len(counted)
    rng = random.Random(0xFA2619)
    for _ in range(600):
        lattice = random_degree_lattice(rng)
        (h2, d), _ = lattice.gram
        _, degrees = random_degree_list(rng, gcd(h2, d))
        counting_degree_lines(lattice, degrees, rng.randint(-40, 6))
    assert all(solved == 1 for _, solved in counted)
    stepped = [lines > 1 for lines, _ in counted]
    assert sum(stepped[:census]) > 1000 and sum(stepped[census:]) > 300


def random_degree_line(rng, min_square):
    """A degree line of a random hyperbolic lattice with its vertex in [-500, 500]."""
    while True:
        lattice = random_hyperbolic_lattice(rng)
        lines = degree_lines(lattice, [rng.randint(-20, 20)], min_square(rng))
        if not lines:
            continue
        line = lines[0]
        quad_a, quad_b = line[5:7]
        if abs(Fraction(-quad_b, 2 * quad_a)) <= 500:
            return lattice, line


def brute_line_maximum(lattice, line):
    """(max, k) of the square over k in [-1000, 1000] off ks, least k on ties."""
    _, base_a, base_b, step_a, step_b, *_, ks = line
    return max((lattice.pair(cls := (base_a + k * step_a, base_b + k * step_b), cls), -k)
               for k in range(-1000, 1001) if k not in ks)


def test_line_maximum_matches_brute_force():
    rng = random.Random(0xFA2605)
    empty = 0
    for _ in range(200):
        lattice, line = random_degree_line(rng, lambda rng: rng.randint(-100, 10))
        *_, quad_a, quad_b, base_sq, ks = line
        best, neg_at = brute_line_maximum(lattice, line)
        assert line_maximum(quad_a, quad_b, base_sq, ks) == (best, -neg_at)
        empty += not ks
    # ranges that exclude nothing and ranges that exclude the vertex alike
    assert 0 < empty < 200


def test_line_maximum_steps_past_the_excluded_vertex():
    # min_square at most the line's top value, so ks covers the integers
    # nearest the vertex on one side or both
    rng = random.Random(0xFA2608)
    for _ in range(200):
        lattice, line = random_degree_line(rng, lambda rng: 10 ** 9)
        degree, *_, quad_a, quad_b, base_sq, ks = line
        assert not ks
        top, _ = line_maximum(quad_a, quad_b, base_sq, ks)
        line, = degree_lines(lattice, [degree], top - rng.randint(0, 3 * -quad_a))
        ks = line[-1]
        assert ks
        best, at = line_maximum(quad_a, quad_b, base_sq, ks)
        assert at not in ks
        assert (best, -at) == brute_line_maximum(lattice, line)


def test_effective_decompositions():
    v5_70 = make_family_lattice(FAMILIES["v5"], 7, 0)
    assert effective_decompositions(v5_70, DivisorClass(1, -1)) == ()
    # negative degree: trivially nothing
    v5_126 = make_family_lattice(FAMILIES["v5"], 12, 6)
    assert effective_decompositions(v5_126, DivisorClass(1, -1)) == ()
    # a genuine curve class decomposes as itself
    quadric = make_family_lattice(FAMILIES["quadric"], 8, 0)
    decomps = effective_decompositions(quadric, DivisorClass(0, 1))
    assert (DivisorClass(0, 1),) in decomps
    for decomp in decomps:
        total = DivisorClass(0, 0)
        for part in decomp:
            assert quadric.degree(part) >= 1
            assert quadric.pair(part, part) >= -2
            total = total + part
        assert total == DivisorClass(0, 1)


def reference_effective_decompositions(lattice, target, limit=32):
    """The original pool-plus-recursion search, kept as the oracle.

    Verbatim but for the pool's per-degree search, now one degree of the sweep.
    """
    target = as_class(target)
    total = lattice.degree(target)
    if total < 1:
        return ()
    pool = []
    for deg in range(1, total + 1):
        for cls in sweep_degree(lattice, deg, -2):
            pool.append((deg, cls))
    pool.sort(key=lambda item: (-item[0], item[1].a, item[1].b))
    results: list[tuple[DivisorClass, ...]] = []

    def search(start: int, remaining: DivisorClass, budget: int, chosen: list):
        if len(results) >= limit:
            return
        if remaining.a == 0 and remaining.b == 0:
            if chosen:
                results.append(tuple(chosen))
            return
        if budget <= 0:
            return
        for idx in range(start, len(pool)):
            deg, cls = pool[idx]
            if deg > budget:
                continue
            chosen.append(cls)
            search(idx, remaining - cls, budget - deg, chosen)
            chosen.pop()

    search(0, target, total, [])
    return tuple(results)


def census_lattices():
    """Every (family, d, g) with 1 <= d < cutting bound and det < 0."""
    for name, family in sorted(FAMILIES.items()):
        for d in range(1, family.cutting_bound):
            g = 0
            while family.h_square * (2 * g - 2) - d * d < 0:
                yield name, d, g, make_family_lattice(family, d, g)
                g += 1


def test_effective_decompositions_match_reference_on_random_lattices(monkeypatch):
    rng = random.Random(0xFA2606)
    searched = found = truncated = 0
    while searched < 300:
        lattice = random_hyperbolic_lattice(rng)
        target = DivisorClass(rng.randint(-2, 3), rng.randint(-4, 4))
        if lattice.degree(target) > 24:
            continue
        limit = rng.choice((1, 5, 32))
        monkeypatch.setattr(diophantine, "DECOMPOSITION_LIMIT", limit)
        expected = reference_effective_decompositions(lattice, target, limit)
        assert effective_decompositions(lattice, target) == expected
        searched += lattice.degree(target) >= 1
        found += bool(expected)
        truncated += len(expected) == limit
    # the sample holds empty, found and truncated searches alike
    assert 0 < found < searched and truncated > 0


def test_effective_decompositions_match_reference_on_census_lattices():
    count = 0
    for name, d, g, lattice in census_lattices():
        expected = reference_effective_decompositions(lattice, (1, -1))
        assert effective_decompositions(lattice, (1, -1)) == expected, (name, d, g)
        count += 1
    assert count == 721


def census_splits():
    """Every class the v5 band step searches: band points, their complements
    T - point, and T - C, on all census lattices."""
    for name, d, g, lattice in census_lattices():
        classes = {(1, -1)}
        for a, b in band_empty(*census_band(name, d, g)).witnesses:
            classes.update({(a, b), (1 - a, -b)})
        for cls in sorted(classes):
            yield name, d, g, lattice, cls


def test_effective_decompositions_match_reference_on_census_splits():
    count = found = 0
    for name, d, g, lattice, cls in census_splits():
        expected = reference_effective_decompositions(lattice, cls)
        assert effective_decompositions(lattice, DivisorClass(*cls)) == expected, \
            (name, d, g, cls)
        count += 1
        found += bool(expected)
    assert count == 3801 and found == 837


def unreachable_after(run) -> int:
    """The objects ``run()`` leaves that only the cyclic collector frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_decomposition_searches_leave_no_cyclic_garbage():
    # The search is one loop with no closure, so a search that finds
    # something leaves no reference cycle behind it.
    splits = [(lattice, DivisorClass(*cls)) for *_, lattice, cls in census_splits()]

    def search_all():
        for lattice, cls in splits:
            effective_decompositions(lattice, cls)

    assert unreachable_after(search_all) == 0


def test_search_stops_at_the_limit_without_dropping_or_reordering():
    # The search returns as soon as it appends decomposition number 32.  On
    # every census split it truncates, its result is the first 32 of a
    # reference search allowed 64, so the stop cut only what came after.
    truncated = 0
    for name, d, g, lattice, cls in census_splits():
        found = effective_decompositions(lattice, DivisorClass(*cls))
        if len(found) < diophantine.DECOMPOSITION_LIMIT:
            continue
        longer = reference_effective_decompositions(lattice, cls, limit=64)
        assert len(longer) > len(found) == 32, (name, d, g, cls)
        assert found == longer[:32], (name, d, g, cls)
        truncated += 1
    assert truncated == 20


def test_census_splits_are_refused_by_the_real_cone_before_any_sweep(monkeypatch):
    # A search of positive degree that never calls degree_lines was refused
    # by the real (Hodge-index) cone; each such target is empty in the
    # reference too.  The counts show a weaker bound or a sweep that runs
    # before the refusal.
    calls = []
    sweep = diophantine.degree_lines
    monkeypatch.setattr(diophantine, "degree_lines",
                        lambda *args: calls.append(args) or sweep(*args))
    count = refused = swept = 0
    for name, d, g, lattice, cls in census_splits():
        before = len(calls)
        result = effective_decompositions(lattice, DivisorClass(*cls))
        count += 1
        if len(calls) > before:
            swept += 1
        elif lattice.degree(cls) >= 1:
            refused += 1
            assert result == ()
            assert reference_effective_decompositions(lattice, cls) == (), (name, d, g, cls)
    assert count == 3801 and refused == 1803 and swept == 1389


def scanned_split(lattice, target) -> int:
    """The least multiple m of step = gcd(H^2, d) with m^2 (-det b_T^2 - T^2) >
    2 H^2 T^2, by a linear scan: past it every candidate is flatter than the
    steep target T."""
    (h2, d), _ = lattice.gram
    step = gcd(h2, d)
    total = lattice.degree(target)
    excess = -lattice.det * target.b ** 2 - total * total
    assert excess > 0
    split = step
    while split * split * excess <= 2 * h2 * total * total:
        split += step
    return split


def random_steep_targets(seed, count):
    """(lattice, target) pairs: on a random degree-T line, the two steep
    points nearest the real bound -det b^2 = T^2 and one random steep point."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        lattice = random_hyperbolic_lattice(rng)
        h2, d = lattice.gram[0]
        total = rng.randint(1, 30)
        line = _line(h2, d)
        base = _line_base(line, total)
        if base is None:
            continue
        members = [DivisorClass(base[0] + k * line[3], base[1] + k * line[4])
                   for k in range(-60, 61)]
        steep = sorted((cls for cls in members if -lattice.det * cls.b ** 2 > total * total),
                       key=lambda cls: abs(cls.b))
        found += [(lattice, cls) for cls in dict.fromkeys((*steep[:2], rng.choice(steep)))]
    return found


def test_steep_targets_walk_the_lines_below_the_split_first(monkeypatch):
    # A steep target (-det b_T^2 > T^2) at split == step is refused before
    # any sweep.  Otherwise the search walks the degrees below the split
    # first, top-down, and only then, if it goes on, the rest from T's line
    # down to the split.  A Hodge-bounded brute force confirms that no
    # candidate of degree >= split reaches the target's slope.
    walks = []
    sweep = diophantine.degree_lines
    monkeypatch.setattr(diophantine, "degree_lines",
                        lambda lattice, degrees, m: walks.append(list(degrees))
                        or sweep(lattice, degrees, m))
    seen = set()
    for lattice, target in random_steep_targets(0xFA261A, 600):
        (h2, d), _ = lattice.gram
        step, det = gcd(h2, d), lattice.det
        total = lattice.degree(target)
        top = total - total % step
        split = scanned_split(lattice, target)
        walks.clear()
        result = effective_decompositions(lattice, target)
        low, high = list(range(split - step, 0, -step)), list(range(top, split - step, -step))
        if split == step:
            assert walks == [] and result == ()
            seen.add("refused")
        elif split <= top:
            assert walks in ([low], [low, high]), (lattice.gram, target)
            seen.add(f"walked {len(walks)}")
        else:
            assert walks == [list(range(top, 0, -step))], (lattice.gram, target)
            seen.add("one walk")
        checked = 0
        for deg in range(split, max(top, split) + 3 * step + 1, step):
            reach = isqrt((deg * deg + 2 * h2) // -det) + 1
            for b in range(-reach, reach + 1):
                if (deg - d * b) % h2:
                    continue
                cls = DivisorClass((deg - d * b) // h2, b)
                if lattice.pair(cls, cls) >= -2:
                    assert abs(b) * total < abs(target.b) * deg, (lattice.gram, target, cls)
                    checked += 1
        seen.add("brute" if checked else "brute empty")
    assert seen == {"refused", "walked 1", "walked 2", "one walk", "brute", "brute empty"}


def test_steep_targets_are_refused_exactly_outside_the_slope_cone():
    # A steep target is refused exactly when the slopes b/deg of every class
    # of degree 1..T and square >= -2 miss its own: the split's early
    # refusal drops no target inside that cone, and on this sample every
    # steep target inside it decomposes.  Small targets match the reference.
    refused = decomposed = matched = 0
    for lattice, target in random_steep_targets(0xFA261B, 900):
        total = lattice.degree(target)
        slopes = [Fraction(b, deg)
                  for deg, _, b, _ in curve_classes(lattice, range(total, 0, -1), -2)]
        inside = bool(slopes) and min(slopes) <= Fraction(target.b, total) <= max(slopes)
        result = effective_decompositions(lattice, target)
        assert bool(result) == inside, (lattice.gram, target)
        refused += not inside
        decomposed += inside
        if total <= 12:
            assert result == reference_effective_decompositions(lattice, target)
            matched += 1
    assert refused > 500 and decomposed > 100 and matched > 300


def test_census_splits_walk_only_the_lines_that_can_decide_them(monkeypatch):
    # Per pass over the 3,801 census splits the search calls degree_lines
    # 1,512 times for 4,939 lines in all (a single walk from T down gave
    # 1,389 calls and 7,580 lines).  Each of the 552 searches refused after
    # a sweep has a steep target and walks only the degrees below its split.
    walks = []
    sweep = diophantine.degree_lines

    def counting(lattice, degrees, min_square):
        lines = sweep(lattice, degrees, min_square)
        walks.append([line[0] for line in lines])
        return lines

    monkeypatch.setattr(diophantine, "degree_lines", counting)
    late_refusals = 0
    for name, d, g, lattice, cls in census_splits():
        target = DivisorClass(*cls)
        before = len(walks)
        if effective_decompositions(lattice, target) or len(walks) == before:
            continue
        late_refusals += 1
        walked = [deg for walk in walks[before:] for deg in walk]
        assert max(walked) < scanned_split(lattice, target), (name, d, g, cls)
    assert len(walks) == 1512 and sum(map(len, walks)) == 4939
    assert late_refusals == 552


def test_effective_decompositions_refuse_targets_outside_the_slope_cone():
    # On a degree-T line the candidates' extreme slopes b/deg bound b to
    # [T*low, T*high]; the nearest points on each side of that window, just
    # inside and just outside, search like the reference.
    rng = random.Random(0xFA260A)
    refused = inside = inside_found = 0
    while refused < 120:
        lattice = random_hyperbolic_lattice(rng)
        h2, d = lattice.gram[0]
        total = rng.randint(1, 10)
        pool = curve_classes(lattice, range(total, 0, -1), -2)
        line = _line(h2, d)
        base = _line_base(line, total)
        if not pool or base is None:
            continue
        low = min(Fraction(b, deg) for deg, _, b, _ in pool) * total
        high = max(Fraction(b, deg) for deg, _, b, _ in pool) * total
        step_a, step_b = line[3:]
        members = sorted(((base[0] + k * step_a, base[1] + k * step_b)
                          for k in range(-60, 61)), key=lambda cls: cls[1])
        below = [cls for cls in members if cls[1] < low]
        within = [cls for cls in members if low <= cls[1] <= high]
        above = [cls for cls in members if cls[1] > high]
        assert below and above
        for cls in {below[-1], above[0], *within[:1], *within[-1:]}:
            expected = reference_effective_decompositions(lattice, cls)
            assert effective_decompositions(lattice, cls) == expected
            if low <= cls[1] <= high:
                inside += 1
                inside_found += bool(expected)
            else:
                assert expected == ()
                refused += 1
    assert inside > 0 and inside_found > 0


def test_effective_decompositions_refuse_targets_outside_the_real_cone():
    # On a degree-T line, x^2 >= -2 and deg >= step = gcd(H^2, d) bound every
    # candidate's |b| by T*sqrt((step^2 + 2H^2) / (-det step^2)) for the
    # whole sum.  The nearest points on each side of that bound, just inside
    # and just outside, search like the reference.
    rng = random.Random(0xFA2610)
    refused = inside = inside_found = 0
    while refused < 120:
        lattice = random_hyperbolic_lattice(rng)
        h2, d = lattice.gram[0]
        total = rng.randint(1, 10)
        line = _line(h2, d)
        base = _line_base(line, total)
        if base is None:
            continue
        step, step_a, step_b = line[0], *line[3:]
        members = sorted(((base[0] + k * step_a, base[1] + k * step_b)
                          for k in range(-60, 61)), key=lambda cls: cls[1])

        def within(cls):
            return -lattice.det * (cls[1] * step) ** 2 <= total ** 2 * (step ** 2 + 2 * h2)

        below = [cls for cls in members if cls[1] < 0 and not within(cls)]
        above = [cls for cls in members if cls[1] > 0 and not within(cls)]
        kept = [cls for cls in members if within(cls)]
        assert below and above
        for cls in {below[-1], above[0], *kept[:1], *kept[-1:]}:
            expected = reference_effective_decompositions(lattice, cls)
            assert effective_decompositions(lattice, cls) == expected
            if within(cls):
                inside += 1
                inside_found += bool(expected)
            else:
                assert expected == ()
                refused += 1
    assert inside > 0 and inside_found > 0


def test_effective_decompositions_signature_and_degree_guards():
    elliptic = IntersectionLattice(((2, 1), (1, 2)))
    assert elliptic.det >= 0
    with pytest.raises(LatticeSignatureError):
        effective_decompositions(elliptic, DivisorClass(1, 0))
    assert effective_decompositions(elliptic, DivisorClass(0, 0)) == ()
    assert effective_decompositions(elliptic, DivisorClass(-1, 1)) == ()
