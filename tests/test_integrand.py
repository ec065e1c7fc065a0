from fractions import Fraction

import pytest

from severi.integrand import (
    IntegrandSpec,
    P2_FIXED,
    _sym_chern_coeffs,
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


@pytest.mark.parametrize("delta", range(1, 9))
def test_bps_series_oracle_refuses_one_perturbed_weight(monkeypatch, delta):
    import severi.oracles as oracles

    for k in range(delta + 1):

        def perturbed(delta, g, k=k):
            a = list(bps_coefficients(delta, g))
            a[k] += 1
            return tuple(a)

        monkeypatch.setattr(oracles, "bps_coefficients", perturbed)
        assert not any(bps_series_check(delta, g) for g in (0, 1, 7, 40)), k


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
    # rank-3 direct image for d = 1: total Chern class is forced by the
    # dual tautological sequence to be 1/(1 - H) truncated at H^4 = 0
    assert _sym_chern_coeffs(1) == (1, 1, 1, 1)


def test_sym_chern_d2():
    # plugging d = 2 into the closed formula: (1, 4, 10, 20)
    assert _sym_chern_coeffs(2) == (1, 4, 10, 20)


def test_segre_coeffs_invert_chern():
    # sum_j c_j s_{t-j} = 0 for t >= 1
    for d in (1, 2, 3, 5):
        c = _sym_chern_coeffs(d)
        s = segre_coeffs(d, 5)
        for t in range(1, 6):
            total = sum(c[j] * s[t - j] for j in range(0, min(3, t) + 1))
            assert total == 0


def test_sym_chern_coeffs_follow_from_the_chern_roots_of_the_dual_plane_bundle():
    # splitting principle: c(S^dual) = (1 + H)(1 + H^2) has Chern roots
    # H * {1, i, -i}, so Sym^d S^dual has the roots (p + (q - r) i) H over
    # p + q + r = d; their product of (1 + root), mod H^4, in exact
    # Gaussian integers (pairs re, im)
    for d in range(1, 61):
        c = [(1, 0), (0, 0), (0, 0), (0, 0)]
        for p in range(d + 1):
            for q in range(d - p + 1):
                a, b = p, 2 * q + p - d  # q - r with r = d - p - q
                c = [c[0]] + [
                    (re + a * lre - b * lim, im + a * lim + b * lre)
                    for (re, im), (lre, lim) in zip(c[1:], c[:-1])
                ]
        assert all(im == 0 for _, im in c), d
        coeffs = _sym_chern_coeffs(d)
        assert coeffs == tuple(re for re, _ in c), d
        assert all(type(v) is int for v in coeffs), d
        assert all(type(v) is int for v in segre_coeffs(d, 9)), d


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
    assert (s.n, s.dimension, s.series_bound) == (14, 7, 10)


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
