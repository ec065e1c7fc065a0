from fractions import Fraction
from itertools import permutations

import pytest

from severi.oracles import hilb_weights_match_oracle, hom_tangent_exponents
from severi.partitions import FixedPoint, enumerate_fixed_points, partitions, plane_points
from severi.weights import (
    NonGenericSpecialization,
    Specialization,
    char_ratio,
    chart_weights,
    chern_values,
    euler_class,
    gr_tangent_weights,
    h_weight,
    hilb_tangent_weights,
    taut_cell_weight,
    taut_weights,
    weight_system,
)

SP = Specialization.default()


def ratio(i, j):
    return char_ratio(i, j)


# all 12 chart pairs, recomputed by hand from the torus action on the
# plane coordinates x_p/x_m, x_q/x_m (function characters lambda_m/lambda_p)
CHART_TABLE = {
    (0, 1): (ratio(1, 2), ratio(1, 3)),
    (0, 2): (ratio(2, 1), ratio(2, 3)),
    (0, 3): (ratio(3, 1), ratio(3, 2)),
    (1, 0): (ratio(0, 2), ratio(0, 3)),
    (1, 2): (ratio(2, 0), ratio(2, 3)),
    (1, 3): (ratio(3, 0), ratio(3, 2)),
    (2, 0): (ratio(0, 1), ratio(0, 3)),
    (2, 1): (ratio(1, 0), ratio(1, 3)),
    (2, 3): (ratio(3, 0), ratio(3, 1)),
    (3, 0): (ratio(0, 1), ratio(0, 2)),
    (3, 1): (ratio(1, 0), ratio(1, 2)),
    (3, 2): (ratio(2, 0), ratio(2, 1)),
}


def test_chart_weights_all_twelve():
    for (plane, point), expected in CHART_TABLE.items():
        assert chart_weights(plane, point) == expected


def test_chart_weight_swap_symmetry():
    # the m=2 chart of V0 is the m=1 chart with the roles of x1, x2 swapped
    t1, t2 = chart_weights(0, 1)
    s1, s2 = chart_weights(0, 2)
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    swapped = tuple(tuple(c[swap[j]] for j in range(4)) for c in (t1, t2))
    assert (s1, s2) == swapped


def test_chart_ratio_of_off_chart_coordinates():
    for plane in range(4):
        for point in plane_points(plane):
            t1, t2 = chart_weights(plane, point)
            p, q = [j for j in plane_points(plane) if j != point]
            diff = tuple(a - b for a, b in zip(t1, t2))
            assert diff == ratio(q, p)


def test_gr_tangent_weights():
    assert gr_tangent_weights(0) == [ratio(0, 1), ratio(0, 2), ratio(0, 3)]
    # the multiset over all planes is symmetric under permuting the torus
    # parameters: it consists of all ordered ratios
    all_chars = {c for k in range(4) for c in gr_tangent_weights(k)}
    assert all_chars == {ratio(i, j) for i in range(4) for j in range(4) if i != j}


def test_gr_tangent_specialization_distinct():
    vals = [SP.value(c) for c in gr_tangent_weights(0)]
    assert len(set(vals)) == 3 and all(v != 0 for v in vals)


def test_hilb_weights_small():
    t1, t2 = chart_weights(0, 1)

    def neg(c):
        return tuple(-x for x in c)

    assert sorted(hilb_tangent_weights((1,), t1, t2)) == sorted([neg(t1), neg(t2)])
    # mu = (2): cells (0,0) arm 1 and (1,0); honest Hom(I, O/I) weights
    expected = sorted(
        [
            tuple(-2 * x for x in t1),
            neg(t1),
            neg(t2),
            tuple(x - y for x, y in zip(t1, t2)),
        ]
    )
    assert sorted(hilb_tangent_weights((2,), t1, t2)) == expected


@pytest.mark.parametrize("size", range(0, 6))
def test_hilb_weights_match_hom_oracle_all_charts(size):
    for mu in partitions(size):
        for plane in range(4):
            for point in plane_points(plane):
                t1, t2 = chart_weights(plane, point)
                assert hilb_weights_match_oracle(mu, t1, t2, SP)
                ws = hilb_tangent_weights(mu, t1, t2)
                assert len(ws) == 2 * size
                assert all(w != (0, 0, 0, 0) for w in ws)


def test_hom_oracle_dimension():
    for size in range(6):
        for mu in partitions(size):
            assert len(hom_tangent_exponents(mu)) == 2 * size


def test_taut_weights_rank_one():
    # a single point carries exactly the (twisted) O(d)-fiber weight there
    for d in (1, 3):
        fp = FixedPoint(0, ((1,), (), ()))
        (w,) = taut_weights(fp, d)
        assert w == tuple(d * x for x in ratio(0, 1))


def test_taut_weights_length_two():
    # chart monomials 1 and u contribute w0 and w0 * t1
    fp = FixedPoint(0, ((2,), (), ()))
    t1, _ = chart_weights(0, 1)
    w0 = tuple(2 * x for x in ratio(0, 1))
    got = sorted(taut_weights(fp, 2))
    assert got == sorted([w0, tuple(a + b for a, b in zip(w0, t1))])


def test_cell_weights_are_affine_in_d_with_one_slope_per_chart():
    # the evaluator shears a chart series from one degree to another on this:
    # every cell weight at P_m moves by the same character lambda_0/lambda_m
    # per unit of d, which is trivial at P_0
    cells = [(a, b) for a in range(6) for b in range(6 // (a + 1))]
    for k in range(4):
        for m in plane_points(k):
            slopes = {
                tuple(y - x for x, y in zip(*(taut_cell_weight(k, m, cell, e) for e in (d, d + 1))))
                for cell in cells
                for d in range(-2, 8)
            }
            assert slopes == {ratio(0, m)}
            assert (ratio(0, m) == (0, 0, 0, 0)) == (m == 0)


def test_all_characters_balanced():
    for i in range(4):
        for fp in enumerate_fixed_points(i):
            ws = weight_system(fp, 2)
            for c in ws.tangent_gr + ws.tangent_hilb + ws.taut + (ws.h,):
                assert sum(c) == 0


def test_euler_class_rank_zero_and_one():
    fp0 = FixedPoint(2, ((), (), ()))
    expected = Fraction(1)
    for w in gr_tangent_weights(2):
        expected *= SP.value(w)
    assert euler_class(fp0, SP) == expected

    fp1 = FixedPoint(2, ((1,), (), ()))
    t1, t2 = chart_weights(2, 0)
    hilb = Fraction(1)
    for w in hilb_tangent_weights((1,), t1, t2):
        hilb *= SP.value(w)
    assert euler_class(fp1, SP) == expected * hilb


def test_euler_translation_invariance():
    # every character has exponent sum zero, so shifting all torus values by
    # a common constant (the additive form of a simultaneous scaling) fixes
    # every specialized weight
    shifted = Specialization(tuple(v + 11 for v in SP.values))
    for fp in enumerate_fixed_points(2)[:12]:
        assert euler_class(fp, SP) == euler_class(fp, shifted)


def test_non_generic_specialization_raises():
    # mu = (2,2) has a cell with arm 1, leg 1: its weight -2 t1 + t2 ...
    # vanishes when the chart values line up 2:1
    bad = Specialization((Fraction(1), Fraction(2), Fraction(4), Fraction(3)))
    fp = FixedPoint(0, (((2, 2)), (), ()))
    found = False
    for spec in (bad, Specialization((1, 3, 5, 4))):
        try:
            euler_class(fp, spec)
        except NonGenericSpecialization:
            found = True
    assert found


def test_chern_values():
    assert chern_values([(1, 0, 0, 0)], Specialization((2, 3, 5, 7))) == [2]
    sp = Specialization((2, 3, 5, 7))
    vals = chern_values([(1, 0, 0, 0), (0, 1, 0, 0)], sp)
    assert vals == [5, 6]  # e1 = 2 + 3, e2 = 2 * 3


def test_chern_top_is_product():
    fp = FixedPoint(1, ((2,), (1,), ()))
    ws = weight_system(fp, 3)
    cs = chern_values(ws.tangent_hilb, SP)
    prod = Fraction(1)
    for w in ws.tangent_hilb:
        prod *= SP.value(w)
    assert cs[-1] == prod


def test_h_weight():
    assert h_weight(0) == (0, 0, 0, 0)
    assert h_weight(2) == ratio(2, 0)


def test_specialization_validation():
    with pytest.raises(ValueError):
        Specialization((1, 1, 2, 3))
    with pytest.raises(ValueError):
        Specialization((0, 1, 2, 3))
    sp = Specialization.from_seed(5)
    assert len(set(sp.values)) == 4


def test_gr_weights_symmetric_under_torus_permutation():
    # permuting the specialization values permutes the per-plane tangent
    # triples; the full 12-element multiset of values is invariant
    base = sorted(SP.value(c) for k in range(4) for c in gr_tangent_weights(k))
    for perm in list(permutations(SP.values))[:6]:
        sp = Specialization(perm)
        assert sorted(sp.value(c) for k in range(4) for c in gr_tangent_weights(k)) == base
