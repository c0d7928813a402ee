"""Bounded exact integer searches on rank-2 lattices.

All solvers work over the integers alone: bounds come from ``math.isqrt``
and floor division, never from floating point or ``fractions.Fraction``.  A
degree constraint cuts out a line in the class lattice; when det < 0 and
H^2 > 0 the square along that line is a downward parabola, so "square >= m"
is one exact integer range of the line's parameter (``_nonnegative_range``).

One primitive walks degree lines: ``degree_lines`` gives each listed
degree's line as plain ints (base, step, the square's quadratic and its
exact "square >= m" range).  It solves the line once per call, and each
degree takes its own multiple of the gcd solution, returned to the
canonical window.
``curve_classes`` lists the classes on those ranges; every other class
search by degree goes through it.  The donor families of ``gonality`` and
the decomposition search read the lines directly, and ``line_maximum``
gives the exact maximum square off a line's range.

One primitive solves a linear form's level lines: ``_line`` is a gcd and
one modular inverse, with no loop of its own, and the degree lines and the
band call it once per call.  Each line's base is its own multiple of the
one solution (u, v) of the level g = gcd.  Band points come from form1's
lines, one floor-division range of each line's parameter per value of
form1.  Only the multiples of gcd(form1) have lines with integer points,
so the band takes just those.

The decomposition search reads one Hodge-index rule.  H^2 x^2 = deg(x)^2 +
det b(x)^2 for every class x = aH + bC, so a candidate (x^2 >= -2) of
degree m is flatter than a steep target T once m^2 (-det b_T^2 - T^2) >
2 H^2 T^2.  The target's split is the least multiple of step = gcd(H^2, d)
past which that holds.  At split == step every candidate is flatter, and by
the triangle inequality so is any sum of them: the real cone refuses the
target before any sweep.  Otherwise a steep target walks first the degree
lines below its split.  Only a target inside the slope cone read off the
lines' range ends expands them into the pool, boxed once, and searches
depth first in one flat loop over a stack of pool indices.  It stops at
``DECOMPOSITION_LIMIT`` (32) decompositions, a module constant.
"""
from __future__ import annotations

from math import gcd, isqrt

from .lattice import DivisorClass, IntersectionLattice, LatticeSignatureError
from .outcome import CheckOutcome, verified
from .values import HashableValue, slot_setters


class DependentFormsError(ValueError):
    """The two band forms are proportional, so the region is unbounded."""


class Interval(HashableValue):
    """Integer interval with independently open or closed endpoints."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: int, hi: int, lo_open: bool = False, hi_open: bool = False):
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_open(self, lo_open)
        _set_hi_open(self, hi_open)

    @classmethod
    def open(cls, lo: int, hi: int) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def closed(cls, lo: int, hi: int) -> "Interval":
        return cls(lo, hi, False, False)

    def integers(self) -> range:
        return range(self.lo + (1 if self.lo_open else 0),
                     self.hi + (0 if self.hi_open else 1))

    def label(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo},{self.hi}{right}"


_set_lo, _set_hi, _set_lo_open, _set_hi_open = slot_setters(Interval)


def _line(coeff_a: int, coeff_b: int) -> tuple[int, int, int, int, int]:
    """(g, u, v, step_a, step_b) describing the lines coeff_a*a + coeff_b*b = t.

    u*coeff_a + v*coeff_b = g = gcd(coeff_a, coeff_b), so the lines with
    integer points are those with t a multiple of g.  The step solves the
    homogeneous equation and has its first nonzero coordinate positive.  u
    inverts coeff_a / g modulo step_a, v follows; for (p, 0), u = sign(p).
    """
    if coeff_a == 0 and coeff_b == 0:
        raise ValueError("zero form")
    g = gcd(coeff_a, coeff_b)
    step_a, step_b = coeff_b // g, -coeff_a // g
    if step_a < 0 or (step_a == 0 and step_b < 0):
        step_a, step_b = -step_a, -step_b
    if step_a == 0:
        return g, g // coeff_a, 0, step_a, step_b
    u = pow(coeff_a // g, -1, step_a)
    return g, u, (g - coeff_a * u) // coeff_b, step_a, step_b


def _nonnegative_range(quad_a: int, quad_b: int, quad_c: int) -> range:
    """Exactly the integers k with quad_a*k^2 + quad_b*k + quad_c >= 0.

    Needs quad_a < 0.  The real roots are (quad_b -+ sqrt(disc)) / den with
    den = -2*quad_a > 0, and flooring sqrt(disc) first does not move the
    floor of either quotient, so one ``isqrt`` and two floor divisions give
    both ends.
    """
    disc = quad_b * quad_b - 4 * quad_a * quad_c
    if disc < 0:
        return range(0)
    root = isqrt(disc)
    den = -2 * quad_a
    return range(-((root - quad_b) // den), (quad_b + root) // den + 1)


def degree_lines(lattice: IntersectionLattice, degrees, min_square: int) -> list[tuple]:
    """The degree line of each listed polarization degree, as plain ints.

    Returns (degree, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq,
    ks) tuples for the listed degrees on the degree form's gcd g, in the
    order given.  The line is base + k*step with the canonical base (the fast
    coordinate in [0, step)) and the lexicographically positive step; its
    square is quad_a k^2 + quad_b k + base_sq with quad_a < 0, and ``ks`` is
    exactly the range of k with square >= min_square.  Refuses with
    ``LatticeSignatureError`` unless det < 0 and H^2 > 0, which alone make
    the square a downward parabola on every degree line.

    The degree line is solved once per call.  Each listed degree on the gcd
    takes (degree / g) (u, v), (u, v) being the solution of degree g, and
    one floor division on the fast coordinate returns it to the canonical
    window, so any order of degrees gives the canonical bases.
    """
    (h2, q), (_, s) = lattice.gram
    if lattice.det >= 0 or h2 <= 0:
        raise LatticeSignatureError(
            f"degree-line search needs det < 0 and H^2 > 0 (det {lattice.det}, H^2 {h2})")
    spacing, u, v, step_a, step_b = _line(h2, q)
    # The step has degree 0, so it pairs with any (a, b) as b * step_c, and
    # (base + k*step)^2 = quad_a k^2 + quad_b k + base^2 with only quad_b and
    # base^2 moving with the degree.
    step_c = q * step_a + s * step_b
    quad_a = step_b * step_c
    lines = []
    for degree in degrees:
        if degree % spacing:
            continue
        scale = degree // spacing
        # step_a == 0 only at d == 0, where v == 0 keeps base_b at 0.
        shift = scale * u // step_a if step_a else 0
        base_a, base_b = scale * u - shift * step_a, scale * v - shift * step_b
        quad_b = 2 * base_b * step_c
        # The base has the given degree, so base^2 = base_a*degree + base_b*(base.C).
        base_sq = base_a * degree + base_b * (q * base_a + s * base_b)
        lines.append((degree, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq,
                      _nonnegative_range(quad_a, quad_b, base_sq - min_square)))
    return lines


def line_maximum(quad_a: int, quad_b: int, quad_c: int, ks: range) -> tuple[int, int]:
    """(max, k): exact maximum of quad_a k^2 + quad_b k + quad_c off ``ks``.

    Needs quad_a < 0 and ``ks`` a superlevel range of that parabola, as
    ``degree_lines`` gives it.  Outside a nonempty range the maximum sits at
    one of its two neighbours; with nothing excluded, at the floor of the
    vertex or the integer above.  Ties go to the smaller k.
    """
    vertex = -quad_b // (2 * quad_a)
    below, above = (ks.start - 1, ks.stop) if ks else (vertex, vertex + 1)
    low = (quad_a * below + quad_b) * below + quad_c
    high = (quad_a * above + quad_b) * above + quad_c
    return (low, below) if low >= high else (high, above)


def curve_classes(lattice: IntersectionLattice, degrees,
                  min_square: int) -> list[tuple[int, int, int, int]]:
    """Every class of each listed polarization degree with square >= min_square.

    Returns plain-int (degree, a, b, square) tuples: the listed degrees in
    the order given, and within a degree ascending (a, b), since the line's
    step is lexicographically positive.  Degrees off the degree form's gcd
    contribute nothing.  Each degree costs one exact range of its line's
    parameter (``degree_lines``), finite because the square along the line
    is a downward parabola.  An exact square is the caller's filter on the
    last field.
    """
    return [(degree, base_a + k * step_a, base_b + k * step_b, (quad_a * k + quad_b) * k + base_sq)
            for degree, base_a, base_b, step_a, step_b, quad_a, quad_b, base_sq, ks
            in degree_lines(lattice, degrees, min_square) for k in ks]


def short_curve_checks(lattice: IntersectionLattice, degrees) -> list[CheckOutcome]:
    """Per listed degree (1 or 2), one sweep's classes of square >= -2; expected none."""
    short = curve_classes(lattice, degrees, -2)
    checks = []
    for degree in degrees:
        classes = [[a, b] for found, a, b, _ in short if found == degree]
        checks.append(verified(
            name="no-line-classes" if degree == 1 else "no-conic-classes",
            rule="short-curve-search",
            passed=not classes,
            inputs={"degree": degree, "min_square": -2},
            witnesses=tuple(classes),
        ))
    return checks


def band_empty(form1: tuple[int, int], range1: Interval,
               form2: tuple[int, int], range2: Interval) -> CheckOutcome:
    """Enumerate integer points with form1 in range1 and form2 in range2.

    Passes when the region holds no integer point; otherwise the full
    witness list is attached, sorted.  Proportional forms are rejected since
    the region would be an unbounded strip.  Form1's line is solved once,
    and only the multiples f of g = gcd(form1) in range1 have integer
    points; each takes the base (f / g) (u, v), (u, v) being the solution
    of form1 = g.  Along each line form2 moves by a nonzero constant per
    step (det != 0), so the points with form2 in range2 are one
    floor-division range of the line's parameter.
    """
    p, q = form1
    r, s = form2
    det = p * s - q * r
    if det == 0:
        raise DependentFormsError("band forms are linearly dependent")
    spacing, u, v, step_a, step_b = _line(p, q)
    climb = r * step_a + s * step_b
    if climb < 0:
        step_a, step_b, climb = -step_a, -step_b, -climb
    ints1, ints2 = range1.integers(), range2.integers()
    lo2, hi2 = ints2.start, ints2.stop
    witnesses = []
    # Each multiple f of g in range1, f = scale * g, takes the base scale * (u, v):
    # any base of a line gives the same points, and the witnesses are sorted below.
    for scale in range(-(-ints1.start // spacing), -(-ints1.stop // spacing)):
        base_a, base_b = scale * u, scale * v
        value = r * base_a + s * base_b
        # lo2 <= value + k*climb < hi2, with climb > 0
        for k in range(-((value - lo2) // climb), -((value - hi2) // climb)):
            witnesses.append([base_a + k * step_a, base_b + k * step_b])
    witnesses.sort()
    return verified(
        name="integer-points-in-band",
        rule="band-enumeration",
        passed=not witnesses,
        inputs={"form1": list(form1), "range1": range1.label(),
                "form2": list(form2), "range2": range2.label()},
        result={"points_found": len(witnesses)},
        witnesses=tuple(witnesses),
    )


# The most decompositions one search returns; a full result is truncated.
DECOMPOSITION_LIMIT = 32


def effective_decompositions(lattice: IntersectionLattice,
                             target: DivisorClass) -> tuple[tuple[DivisorClass, ...], ...]:
    """Decompositions of a class into irreducible-curve candidates.

    Candidate components are the classes of positive polarization degree and
    square >= -2 (what an irreducible curve on a K3 may have), used with
    multiplicity.  An empty result certifies the class is not represented by
    an effective curve cycle; a nonempty one is merely inconclusive.

    Candidates are ordered by degree descending, then (a, b) ascending, and
    each decomposition lists its components in that order.  The search is
    depth first: it extends the current partial decomposition by each
    candidate at or after the last one chosen, in that order.  The first
    ``DECOMPOSITION_LIMIT`` decompositions met in this order are returned.

    The steps, in order.  Signature: a lattice without det < 0 < H^2 is
    refused with ``LatticeSignatureError`` (raised by ``degree_lines``)
    before any refusal but the degree one.  Degree: a target of degree < 1
    has no decomposition.  Split: H^2 x^2 = deg(x)^2 + det b(x)^2 by Hodge
    index, so a candidate, of square >= -2, is flatter than a steep target
    (-det b^2 > deg^2) once its degree passes the target's split, a multiple
    of step = gcd(H^2, d).  The real cone is its case m = step: a target
    whose split would be step is refused in constant time, since by the
    triangle inequality no sum of candidates reaches its slope.  Lines: the
    lines below the split are walked first, and a steep target beyond their
    slope cone on its own side is refused; the lines above are walked after,
    put in front, and a target outside the two-sided cone, the slopes b/deg
    at the lines' range ends, is refused.  A target that is not steep walks
    every line once.  Pool: the lines' classes, expanded only now.  DFS: the
    pool is boxed once, one ``DivisorClass`` per candidate shared by every
    decomposition; one flat loop walks the pool with a stack of the indices
    taken, prunes each remainder by the same slopes, and returns as soon as
    it appends decomposition number ``DECOMPOSITION_LIMIT``.
    """
    target_a, target_b = target.a, target.b
    (h2, d), _ = lattice.gram
    total = h2 * target_a + d * target_b
    if total < 1:
        return ()
    # Only multiples of the degree form's gcd carry integer points; it is
    # positive here, since total >= 1 is a value of the form, and so total is
    # one of its multiples.
    step = gcd(h2, d)
    # A candidate of degree m is flatter than a steep target (excess = -det
    # b_T^2 - total^2 > 0) once m^2 excess > 2 H^2 total^2 (Hodge index);
    # ``split`` is the least such multiple of step, capped at total + step.
    # At split == step every candidate is flatter, and by the triangle
    # inequality so is any sum of them: the target is refused before any
    # sweep.  A bad signature falls through to ``degree_lines``, which
    # refuses it.
    split = total + step
    det = lattice.det
    if det < 0 < h2:
        excess = -det * target_b * target_b - total * total
        if excess > 0:
            if step * step * excess > 2 * h2 * total * total:
                return ()
            split = min(split, (isqrt(2 * h2 * total * total // excess) // step + 1) * step)
    # Least and greatest candidate slopes b/deg, at the lines' range ends;
    # (0, 1) and (0, -1) stand for +-inf, so an empty pool refuses all.  A
    # sum of candidates of total degree r has its b between r times them; a
    # remainder outside is a dead end, the target (the first) included.
    # The first walk takes the lines below split.  A steep target beyond
    # their cone on its own side is refused, since no line above reaches
    # its slope; otherwise the second walk takes the lines above, in front.
    low_deg, low_b, high_deg, high_b = 0, 1, 0, -1
    lines = []
    stop = 0
    for start in (split - step, total):
        walked = degree_lines(lattice, range(start, stop, -step), -2)
        for deg, _, base_b, _, step_b, _, _, _, ks in walked:
            if ks:
                least, most = base_b + ks[0] * step_b, base_b + ks[-1] * step_b
                if step_b < 0:
                    least, most = most, least
                if least * low_deg < low_b * deg:
                    low_deg, low_b = deg, least
                if most * high_deg > high_b * deg:
                    high_deg, high_b = deg, most
        lines = walked + lines
        if stop or split > total:
            break
        if (target_b * high_deg > high_b * total if target_b > 0
                else target_b * low_deg < low_b * total):
            return ()
        stop = start
    if target_b * low_deg < low_b * total or target_b * high_deg > high_b * total:
        return ()
    pool = [(deg, base_a + k * step_a, base_b + k * step_b)
            for deg, base_a, base_b, step_a, step_b, _, _, _, ks in lines for k in ks]
    # One DivisorClass per candidate, shared by every decomposition.
    classes = [DivisorClass(a, b) for _, a, b in pool]
    results = []
    # The stack: pool indices of the candidates taken so far.  Taking one
    # leaves idx where it is, since a candidate may repeat; past the pool's
    # end the last one taken is given back and the walk goes on after it.
    chosen: list[int] = []
    limit = DECOMPOSITION_LIMIT
    size = len(pool)
    rem_a, rem_b, budget = target_a, target_b, total
    idx = 0
    while True:
        if idx == size:
            if not chosen:
                break
            idx = chosen.pop()
            deg, a, b = pool[idx]
            rem_a += a
            rem_b += b
            budget += deg
            idx += 1
            continue
        deg, a, b = pool[idx]
        if deg < budget:
            rest_b, rest = rem_b - b, budget - deg
            if low_b * rest <= rest_b * low_deg and rest_b * high_deg <= high_b * rest:
                chosen.append(idx)
                rem_a -= a
                rem_b, budget = rest_b, rest
                continue
        elif deg == budget and a == rem_a and b == rem_b:
            # Closes the decomposition exactly when it is the remainder.
            results.append((*map(classes.__getitem__, chosen), classes[idx]))
            if len(results) == limit:
                break
        idx += 1
    return tuple(results)
