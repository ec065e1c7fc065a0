from fractions import Fraction

import pytest

from severi.integrand import (
    IntegrandSpec,
    P2_FIXED,
    bps_coefficients,
    general_binomial,
    genus,
    segre_coeffs,
)
from severi.oracles import _one_minus_q_power, bps_series_check
from severi.reference import (
    GradedPoly,
    TruncationRules,
    build_integrand,
    h_only_table,
    sym_chern,
    symbol_table,
)


@pytest.mark.parametrize("d,g", [(1, 0), (2, 0), (3, 1), (4, 3), (5, 6)])
def test_genus(d, g):
    assert genus(d) == g


def test_general_binomial():
    assert general_binomial(5, 2) == 10
    assert general_binomial(-2, 3) == -4  # (-2)(-3)(-4)/6
    assert general_binomial(-1, 0) == 1
    assert general_binomial(3, -1) == 0


def test_bps_small():
    assert bps_coefficients(0, 7) == (1,)
    for g in (0, 1, 5):
        assert bps_coefficients(1, g) == (2 * g - 2, 1)


def test_bps_unitriangular_normalization():
    for delta in range(6):
        for g in (0, 2, 9):
            assert bps_coefficients(delta, g)[delta] == 1


@pytest.mark.parametrize("delta", range(0, 7))
def test_bps_series_oracle_subset(delta):
    for g in (0, 1, 2, 7, 19, 40):
        assert bps_series_check(delta, g)


def test_one_minus_q_power_equals_repeated_series_products():
    def times(a, b, order):
        return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(order + 1)]

    for order in range(14):
        one_minus_q = [1, -1] + [0] * order
        geometric = [1] * (order + 1)  # 1 / (1 - q)
        power, inverse_power = [1] + [0] * order, [1] + [0] * order
        assert _one_minus_q_power(0, order) == power
        for m in range(1, 31):
            power = times(power, one_minus_q, order)
            inverse_power = times(inverse_power, geometric, order)
            assert _one_minus_q_power(m, order) == power, (m, order)
            assert _one_minus_q_power(-m, order) == inverse_power, (-m, order)
            assert times(power, inverse_power, order) == [1] + [0] * order


def test_sym_chern_d1():
    table = h_only_table()
    expected = GradedPoly.constant(table, 1)
    for k in range(1, 4):
        expected = expected + GradedPoly.monomial(table, {"H": k})
    assert sym_chern(1) == expected


def test_sym_chern_d1_is_inverse_of_one_minus_h():
    # rank-3 direct image for d = 1: total Chern class is forced by the
    # dual tautological sequence to be 1/(1 - H) truncated at H^4 = 0
    table = h_only_table()
    geo = GradedPoly.constant(table, 1)
    for k in range(1, 4):
        geo = geo + GradedPoly.monomial(table, {"H": k})  # 1 + H + H^2 + H^3
    assert sym_chern(1) == geo


def test_sym_chern_d2():
    # plugging d = 2 into the closed formula: (1, 4, 10, 20)
    p = sym_chern(2)
    coeffs = {exps[0]: c for exps, c in p.terms.items()}
    assert coeffs == {0: 1, 1: 4, 2: 10, 3: 20}


def test_segre_coeffs_invert_chern():
    # sum_j c_j s_{t-j} = 0 for t >= 1
    for d in (1, 2, 3, 5):
        c = [Fraction(1)]
        p = sym_chern(d)
        for k in range(1, 4):
            c.append(sum(v for e, v in p.terms.items() if e[0] == k))
        s = segre_coeffs(d, 5)
        for t in range(1, 6):
            total = sum(c[j] * s[t - j] for j in range(0, min(3, t) + 1))
            assert total == 0


def test_integrand_spec_validation():
    with pytest.raises(ValueError):
        IntegrandSpec(i=1, delta=0, d=2)
    with pytest.raises(ValueError):
        IntegrandSpec(i=0, delta=0, d=0)
    with pytest.raises(ValueError):
        IntegrandSpec(i=0, delta=3, d=1)  # n = 2 < 3
    with pytest.raises(ValueError):
        IntegrandSpec(i=0, delta=0, d=1, mode=P2_FIXED)  # n = 5 < 6
    s = IntegrandSpec(i=2, delta=3, d=4)
    assert (s.n, s.r, s.dimension, s.series_bound) == (14, 15, 7, 10)


def test_build_integrand_zero_case():
    from severi.reference import eval_graded

    q = build_integrand(IntegrandSpec(i=0, delta=0, d=1))
    assert q.is_zero()
    assert eval_graded(q, {"H": Fraction(17, 3)}) == 0


def test_build_integrand_smooth_conic():
    q = build_integrand(IntegrandSpec(i=0, delta=0, d=2))
    table = symbol_table(0)
    assert q == GradedPoly.monomial(table, {"H": 3}, 92)


def test_build_integrand_point_free_case():
    # rank-0 tautological bundle: no L or T symbols, H-degree <= 3
    for delta, d in ((1, 3), (2, 2), (0, 4)):
        q = build_integrand(IntegrandSpec(i=0, delta=delta, d=d))
        assert q.symbols_used() <= {"H"}
        assert q.max_degree() <= 3


@pytest.mark.parametrize("i,delta,d", [(1, 1, 2), (1, 2, 3), (2, 2, 3), (3, 3, 4)])
def test_integrand_degree_capped_at_dimension(i, delta, d):
    q = build_integrand(IntegrandSpec(i=i, delta=delta, d=d))
    assert q.max_degree() <= 3 + 2 * i


@pytest.mark.parametrize("i,delta,d", [(1, 1, 2), (2, 2, 3), (1, 2, 4)])
def test_series_bound_slack_is_symbolically_irrelevant(i, delta, d):
    s = IntegrandSpec(i=i, delta=delta, d=d)
    assert build_integrand(s) == build_integrand(s, series_bound=s.series_bound + 3)


def test_h4_off_adds_only_high_h_terms():
    s = IntegrandSpec(i=1, delta=1, d=2)
    on = build_integrand(s)
    off = build_integrand(s, rules=TruncationRules(degree_cap=s.dimension, nilpotent=False))
    low = {e: c for e, c in off.terms.items() if e[0] < 4}
    assert low == on.terms
