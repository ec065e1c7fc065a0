import random
from fractions import Fraction

import pytest

import severi.localization as localization
from severi.integrand import IntegrandSpec, P2_FIXED, P3, build_integrand
from severi.localization import (
    _compile_terms,
    _plane_integral,
    _reference_integral,
    _sum_over_points,
    count_nodal,
    integrate,
)
from severi.partitions import enumerate_fixed_points, partitions
from severi.weights import NonGenericSpecialization, Specialization

SP = Specialization.default()


def test_integrate_smooth_conic():
    res = integrate(IntegrandSpec(i=0, delta=0, d=2), SP)
    assert res.value == 92
    assert res.fixed_point_count == 4


def test_integrate_line_case_vanishes():
    assert integrate(IntegrandSpec(i=0, delta=0, d=1), SP).value == 0


def test_integrate_two_specializations_agree():
    s = IntegrandSpec(i=1, delta=1, d=2)
    a = integrate(s, SP).value
    b = integrate(s, Specialization.from_seed(421)).value
    assert a == b


def test_count_examples():
    assert count_nodal(0, 2) == 92
    assert count_nodal(1, 2) == 140
    assert count_nodal(0, 1) == 0
    assert count_nodal(3, 3) == 7280


def test_count_verify_flag():
    assert count_nodal(1, 3, verify=True) == 12960


def test_count_p2_one_node():
    for d in (2, 3, 4, 5):
        assert count_nodal(1, d, P2_FIXED) == 3 * (d - 1) ** 2


def test_count_invalid_window():
    with pytest.raises(ValueError):
        count_nodal(3, 1)  # n = 2 < 3


def test_shuffle_invariance():
    s = IntegrandSpec(i=2, delta=2, d=3)
    integrand = build_integrand(s)
    names, terms = _compile_terms(integrand)
    points = enumerate_fixed_points(2)
    base = _sum_over_points(terms, names, points, s.d, SP)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert _sum_over_points(terms, names, shuffled, s.d, SP) == base


def test_parallel_matches_serial():
    s = IntegrandSpec(i=2, delta=2, d=3)
    serial = integrate(s, SP, jobs=1).value
    parallel = integrate(s, SP, jobs=2).value
    assert serial == parallel
    assert count_nodal(2, 3, jobs=2) == 15660


def test_resampling_on_degenerate_values():
    # (1, 2, 4, 3) makes a Hilbert tangent weight vanish on the square
    # partition; the run must recover by resampling and still be exact
    bad = Specialization((Fraction(1), Fraction(2), Fraction(4), Fraction(3)))
    assert count_nodal(4, 4, specialization=bad) == 3071796


def test_integral_result_echo():
    res = integrate(IntegrandSpec(i=1, delta=2, d=3, mode=P2_FIXED), SP)
    assert (res.i, res.delta, res.d, res.mode) == (1, 2, 3, P2_FIXED)
    assert res.spec_used is SP


@pytest.mark.parametrize(
    "mode, i, h4_rule, values",
    [(mode, i, True, None) for mode in (P3, P2_FIXED) for i in range(6)]
    + [
        (mode, i, False, (Fraction(1, 2), 3, Fraction(7, 3), 5))
        for mode in (P3, P2_FIXED)
        for i in range(4)
    ],
)
def test_factorized_evaluator_equals_symbolic_reference(monkeypatch, mode, i, h4_rule, values):
    sp = Specialization.from_seed(11) if values is None else Specialization(values)
    s = IntegrandSpec(i=i, delta=5, d=4, mode=mode)
    res = integrate(s, sp, h4_rule=h4_rule)
    assert res.value == _reference_integral(s, sp, h4_rule)
    assert res.fixed_point_count == len(enumerate_fixed_points(i))

    # reversed plane order and a shuffled partition order at every chart
    rng = random.Random(i)

    def shuffled_partitions(n):
        parts = list(partitions(n))
        rng.shuffle(parts)
        return parts

    monkeypatch.setattr(localization, "partitions", shuffled_partitions)
    assert sum(_plane_integral(k, s, sp, h4_rule) for k in (3, 2, 1, 0)) == res.value


def test_non_generic_raises_where_the_reference_does():
    # the default specialization makes a Hilbert tangent weight vanish at i=3
    s = IntegrandSpec(i=3, delta=3, d=4)
    with pytest.raises(NonGenericSpecialization):
        _reference_integral(s, SP)
    with pytest.raises(NonGenericSpecialization):
        integrate(s, SP)
    with pytest.raises(NonGenericSpecialization):
        integrate(s, SP, jobs=2)
