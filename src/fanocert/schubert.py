"""Surface class splits in the Grassmannian of lines.

A surface mapped to G(1, n) by a rank-2 bundle has class a*O(0,3) + b*O(1,2)
in the Schubert basis.  Pushing forward the second Chern class gives
deg(map) * b, and the self-intersection of the first gives
deg(map) * (a + b), since both basis classes meet the hyperplane class with
multiplicity one.  Enumerating the divisors of the latter lists every split.
The pipelines emit the splits as the ``splits`` result of the
``surface-class-splits-in-grassmannian`` check.
"""
from __future__ import annotations


def surface_class_split(c2_value: int, t_square: int) -> tuple[tuple[int, int, int], ...]:
    """All (deg, a, b) with deg*b = c2_value and deg*(a+b) = t_square, a, b >= 0.

    ``c2_value`` is the push-forward of c2 and ``t_square`` the square of c1
    (the polarization square); the splits come in ascending ``deg``.
    """
    if c2_value < 1 or t_square < 1:
        raise ValueError("need c2_value >= 1 and t_square >= 1")
    splits = []
    for deg in range(1, t_square + 1):
        if t_square % deg or c2_value % deg:
            continue
        b = c2_value // deg
        a = t_square // deg - b
        if a >= 0:
            splits.append((deg, a, b))
    return tuple(splits)
