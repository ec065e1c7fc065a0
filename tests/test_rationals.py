from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from severi.rationals import rat, rat_str

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


def test_lowest_terms_and_positive_denominator():
    x = rat(Fraction(6, -4))
    assert (x.numerator, x.denominator) == (-3, 2)


def test_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_string_roundtrip():
    for s in ("3/4", "-7", "0", "22/7"):
        assert rat_str(Fraction(s)) == s
        assert Fraction(rat_str(Fraction(s))) == Fraction(s)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(rationals)
def test_exact_inverse(a):
    if a != 0:
        assert a * (1 / a) == 1
    assert a + (-a) == 0
