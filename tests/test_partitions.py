import pytest
from hypothesis import given
from hypothesis import strategies as st

import severi.partitions
import severi.weights
from severi.oracles import hom_tangent_exponents
from severi.partitions import (
    FixedPoint,
    arms_legs,
    cells,
    check_partition,
    conjugate,
    enumerate_fixed_points,
    fixed_point_count,
    partitions,
    plane_points,
)
from severi.weights import hilb_tangent_exponents


def partition_count(n: int) -> int:
    """Independent p(n) via the Euler pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def test_partition_validation():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])


def test_partitions_enumeration_counts():
    for n in range(9):
        assert len(list(partitions(n))) == partition_count(n)
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_cells():
    assert cells((1,)) == [(0, 0)]
    assert cells((2, 1)) == [(0, 0), (1, 0), (0, 1)]
    assert cells((3,)) == [(0, 0), (1, 0), (2, 0)]


def test_arms_legs():
    assert arms_legs((1,)) == {(0, 0): (0, 0)}
    assert arms_legs((2,)) == {(0, 0): (1, 0), (1, 0): (0, 0)}
    assert arms_legs((2, 2))[(0, 0)] == (1, 1)
    assert list(arms_legs((2, 1))) == cells((2, 1))
    with pytest.raises(ValueError):
        arms_legs((1, 2))


def test_fixed_point_counts():
    assert len(enumerate_fixed_points(0)) == 4
    assert len(enumerate_fixed_points(1)) == 12
    assert len(enumerate_fixed_points(2)) == 36


@pytest.mark.parametrize("i", range(0, 13))
def test_fixed_point_count_convolution(i):
    expected = 4 * sum(
        partition_count(a) * partition_count(b) * partition_count(i - a - b)
        for a in range(i + 1)
        for b in range(i + 1 - a)
    )
    points = enumerate_fixed_points(i)
    assert len(points) == expected == fixed_point_count(i)
    # duplicate-free under the canonical encoding
    assert len({fp.encode() for fp in points}) == expected


def test_encoding():
    fp = FixedPoint(0, ((2, 1), (1,), ()))
    assert fp.encode() == "V0:[2,1]|[1]|[]"
    assert fp.length() == 4


def test_plane_points_order():
    assert plane_points(0) == (1, 2, 3)
    assert plane_points(2) == (0, 1, 3)
    with pytest.raises(ValueError):
        plane_points(4)


@given(st.integers(min_value=0, max_value=8))
def test_cells_and_armleg_reconstruct_partition(n):
    for mu in partitions(n):
        cs = cells(mu)
        assert len(cs) == n
        # arms along the bottom row reconstruct the first part, legs in the
        # first column reconstruct the number of parts
        if mu:
            arms = arms_legs(mu)
            arm0, leg0 = arms[0, 0]
            assert arm0 + 1 == mu[0]
            assert leg0 + 1 == len(mu)
            rebuilt = tuple(arms[0, b][0] + 1 for b in range(len(mu)))
            assert rebuilt == mu
        # conjugation is an involution matching transposed cells
        assert sorted((b, a) for a, b in cs) == sorted(cells(conjugate(mu)))


def test_hilb_tangent_exponents_equal_the_hom_oracle_up_to_size_8():
    for n in range(9):
        for mu in partitions(n):
            assert sorted(hilb_tangent_exponents(mu)) == sorted(hom_tangent_exponents(mu)), mu


def test_hilb_tangent_exponents_validate_the_partition_once(monkeypatch):
    calls = []
    real = severi.partitions.check_partition

    def counting(mu):
        calls.append(mu)
        return real(mu)

    for module in (severi.partitions, severi.weights):
        if hasattr(module, "check_partition"):
            monkeypatch.setattr(module, "check_partition", counting)
    for mu in ((1,), [3, 2, 2, 1], (5, 3, 3, 1, 1)):
        calls.clear()
        assert len(hilb_tangent_exponents(mu)) == 2 * sum(mu)
        assert calls == [mu]
    with pytest.raises(ValueError):
        hilb_tangent_exponents([1, 2])
