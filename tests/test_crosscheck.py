import pytest

from severi.crosscheck import (
    _one_nodal_class,
    enumerate_decompositions,
    nu_class,
    reducible_count,
)

NU_TABLE = {
    (1, 0, 2): 1,
    (1, 0, 3): 2,
    (1, 0, 4): 2,
    (1, 0, 5): 0,
    (2, 0, 5): 1,
    (2, 0, 6): 8,
    (2, 0, 7): 34,
    (2, 0, 8): 92,
    (3, 1, 8): 12,
    (3, 1, 9): 216,
    (3, 1, 10): 2040,
    (3, 1, 11): 12960,
}


def test_nu_table():
    for (d, delta, n), coeff in NU_TABLE.items():
        nc = nu_class(d, delta, n)
        assert nc.coefficient == coeff
        assert nc.h_power == n - min(k for (dd, de, k) in NU_TABLE if (dd, de) == (d, delta))


def test_one_nodal_class_is_the_discriminant_for_every_degree():
    # the discriminant of plane curves of degree d has degree 3(d-1)^2, and
    # as an SL_3 invariant weight degree * d / 3 = d(d-1)^2
    for d in range(1, 13):
        expected = {(0, 0, 1): 3 * (d - 1) ** 2, (1, 0, 0): d * (d - 1) ** 2}
        assert _one_nodal_class(d) == {key: v for key, v in expected.items() if v}


def test_nu_classes_are_computed_in_integers():
    for key in NU_TABLE:
        assert type(nu_class(*key).coefficient) is int
    assert all(type(v) is int for v in _one_nodal_class(5).values())


def test_nu_unsupported():
    with pytest.raises(ValueError, match="unavailable"):
        nu_class(4, 0, 10)
    with pytest.raises(ValueError, match="unavailable"):
        nu_class(2, 1, 7)
    with pytest.raises(ValueError):
        nu_class(1, 0, 6)  # outside the table range


def test_enumerate_decompositions_quartic_four_nodes():
    fams = enumerate_decompositions(4, 4)
    comps = sorted(tuple(sorted(f.components)) for f in fams)
    assert comps == [((1, 0), (3, 1)), ((2, 0), (2, 0))]


def test_enumerate_decompositions_conic_one_node():
    fams = enumerate_decompositions(1, 2)
    assert [f.components for f in fams] == [((1, 0), (1, 0))]
    # n = 7 split as 3 + 4 or 5 + 2 (the latter contributes 0 through nu)
    nbars = sorted(nbar for f in fams for nbar, _ in f.assignments)
    assert (4, 3) in nbars or (3, 4) in nbars


def test_enumerate_decompositions_single_line():
    fams = enumerate_decompositions(0, 1)
    assert [f.components for f in fams] == [((1, 0),)]


def test_enumerate_decompositions_unsupported_component():
    with pytest.raises(ValueError, match=r"\(4, 0\)"):
        enumerate_decompositions(0, 4)


def test_reducible_counts():
    cases = {
        (1, 2): 140,
        (3, 3): 7280,
        (6, 4): 261800,
        (0, 2): 92,
        (2, 3): 15660,
        (5, 4): 1303500,
        (4, 4): 3071796,
        (8, 5): 385022820,
    }
    for (delta, d), expected in cases.items():
        assert reducible_count(delta, d) == expected


def test_nu_agrees_with_localization_where_both_defined():
    # full-line classes match the line counts; the bottom of each column
    # (plane pinned by three general points) matches the fixed-plane counts
    from severi.integrand import P2_FIXED
    from severi.localization import count_nodal

    assert nu_class(2, 0, 8).coefficient == count_nodal(0, 2)
    assert nu_class(1, 0, 5).coefficient == count_nodal(0, 1)
    assert nu_class(3, 1, 11).coefficient == count_nodal(1, 3)
    assert nu_class(2, 0, 5).coefficient == count_nodal(0, 2, P2_FIXED)
    assert nu_class(3, 1, 8).coefficient == count_nodal(1, 3, P2_FIXED)
