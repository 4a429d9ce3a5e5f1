"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psdcone.linalg import GaussianRational

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_coerce_forms():
    assert GaussianRational.coerce(3) == GaussianRational(Fraction(3))
    assert GaussianRational.coerce("2/5") == GaussianRational(Fraction(2, 5))
    assert GaussianRational.coerce((1, -2)) == GaussianRational(Fraction(1), Fraction(-2))
    assert GaussianRational.coerce(("1/3", "0")).re == Fraction(1, 3)
    x = GaussianRational(Fraction(1), Fraction(7))
    assert GaussianRational.coerce(x) is x
    with pytest.raises(TypeError):
        GaussianRational.coerce(object())


def test_string_round_trip_is_canonical():
    x = GaussianRational(Fraction(-4, 6), Fraction(10, 4))
    re_s, im_s = x.to_strings()
    assert re_s == "-2/3" and im_s == "5/2"
    assert GaussianRational.coerce((re_s, im_s)) == x


def test_basic_arithmetic_against_complex():
    x = GaussianRational(Fraction(1, 2), Fraction(-3))
    y = GaussianRational(Fraction(2), Fraction(1, 5))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        got = getattr(x, op)(y)
        want = getattr(complex(x), op)(complex(y))
        assert abs(complex(got) - want) < 1e-12


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.coerce(1) / GaussianRational()


def test_mixed_operand_types():
    x = GaussianRational(Fraction(1, 3))
    assert 1 + x == GaussianRational(Fraction(4, 3))
    assert x * 3 == GaussianRational(Fraction(1))
    assert 2 - x == GaussianRational(Fraction(5, 3))
    assert (x / Fraction(1, 3)) == GaussianRational(Fraction(1))


def test_conjugate_and_norm():
    x = GaussianRational(Fraction(3), Fraction(-4))
    assert x.norm_sq() == Fraction(25)
    assert x * GaussianRational(x.re, -x.im) == GaussianRational(x.norm_sq())


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_multiplicative_inverse(a, b):
    if not a:
        return
    one = GaussianRational.coerce(1)
    assert a * (one / a) == one
    assert (b / a) * a == b

