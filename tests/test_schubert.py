import pytest

from fanocert.schubert import surface_class_split


def test_golden_splits():
    assert surface_class_split(c2_value=4, t_square=10) == ((1, 6, 4), (2, 3, 2))
    assert surface_class_split(c2_value=5, t_square=14) == ((1, 9, 5),)


def test_forced_unique_split():
    assert surface_class_split(c2_value=1, t_square=1) == ((1, 0, 1),)


def test_splits_reverify_defining_products():
    for c2, t2 in [(4, 10), (5, 14), (6, 12), (2, 8), (1, 1)]:
        for deg, a, b in surface_class_split(c2, t2):
            assert deg * b == c2
            assert deg * (a + b) == t2
            assert a >= 0 and b >= 0


def test_invalid_inputs():
    for c2, t2 in [(0, 10), (4, 0), (-1, 10), (4, -3)]:
        with pytest.raises(ValueError, match="need c2_value >= 1 and t_square >= 1"):
            surface_class_split(c2, t2)
