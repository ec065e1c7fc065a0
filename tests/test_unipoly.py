import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severi.unipoly import UniPoly, lagrange_interpolate


def test_trailing_zeros_trimmed():
    p = UniPoly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree() == 1
    assert UniPoly([0, 0]).degree() == -1


def test_arithmetic_and_eval():
    p = UniPoly([1, 1])  # 1 + d
    q = UniPoly([-1, 1])  # d - 1
    assert p * q == UniPoly([-1, 0, 1])
    assert (p + q) == UniPoly([0, 2])
    assert (p * q)(3) == 8
    assert p.scaled(Fraction(1, 2))(1) == 1


def test_str_rendering():
    assert str(UniPoly([Fraction(1, 2), -3, 1])) == "d^2 - 3*d + 1/2"
    assert str(UniPoly.zero()) == "0"


def test_forced_quadratic():
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)]) == UniPoly([0, 0, 1])


def test_duplicate_x_rejected():
    with pytest.raises(ValueError, match="degenerate sample set"):
        lagrange_interpolate([(1, 1), (1, 2)])


def test_coeff_string_roundtrip():
    p = UniPoly([Fraction(1, 3), 0, -2])
    assert UniPoly.from_coeff_strings(p.to_coeff_strings()) == p


coeffs = st.lists(
    st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50),
    min_size=0,
    max_size=8,
)


@settings(max_examples=60)
@given(coeffs)
def test_interpolation_roundtrip(cs):
    p = UniPoly(cs)
    n = max(len(p.coeffs) + 1, 2)
    samples = [(x, p(x)) for x in range(n)]
    assert lagrange_interpolate(samples) == p


def _lagrange_reference(samples):
    """The textbook sum of y_i times the Lagrange basis polynomial of x_i."""
    result = UniPoly.zero()
    for i, (xi, yi) in enumerate(samples):
        basis, denom = UniPoly.constant(1), Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if j != i:
                basis = basis * UniPoly([-xj, 1])
                denom *= xi - xj
        result = result + basis.scaled(Fraction(yi) / denom)
    return result


@pytest.mark.parametrize("seed", range(8))
def test_interpolation_equals_lagrange_formula(seed):
    # random distinct rational nodes and random values, not from a polynomial
    # of lower degree
    rng = random.Random(seed)
    nodes = sorted({Fraction(a, b) for a in range(-30, 30) for b in range(1, 5)})
    xs = rng.sample(nodes, rng.randrange(1, 20))
    samples = [(x, Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))) for x in xs]
    assert lagrange_interpolate(samples) == _lagrange_reference(samples)
    assert lagrange_interpolate([]) == UniPoly.zero()
