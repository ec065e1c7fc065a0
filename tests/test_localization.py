import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from helpers import reference_count

import severi.localization as localization
from severi.integrand import IntegrandSpec, P2_FIXED, P3
from severi.localization import _plane_integrals, count_nodal, integrate, nodal_counts
from severi.partitions import enumerate_fixed_points, partitions, plane_points
from severi.reference import _compile_terms, _reference_integral, _sum_over_points, build_integrand
from severi.weights import NonGenericSpecialization, Specialization, taut_cell_weight

SP = Specialization.default()
# makes a Hilbert tangent weight vanish at i = 3, at a chart of some plane
NON_GENERIC = Specialization((2, 3, 5, 7))


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


def integrate_calls(monkeypatch) -> list:
    """The specialization of every ``integrate`` call a count makes, from now on."""
    calls = []
    real = localization.integrate

    def spied(spec, specialization, **kw):
        calls.append(specialization)
        return real(spec, specialization, **kw)

    monkeypatch.setattr(localization, "integrate", spied)
    return calls


def non_generic_default(monkeypatch) -> None:
    monkeypatch.setattr(
        localization.Specialization, "default", classmethod(lambda cls: NON_GENERIC)
    )


def test_given_non_generic_specialization_raises_naming_its_values(monkeypatch):
    # a specialization the caller gives is used as given or not at all
    calls = integrate_calls(monkeypatch)
    with pytest.raises(NonGenericSpecialization, match="2,3,5,7"):
        count_nodal(3, 4, specialization=NON_GENERIC)
    # (1, 2, 4, 3) makes a Hilbert tangent weight vanish on the square partition
    bad = Specialization((1, 2, 4, 3))
    with pytest.raises(NonGenericSpecialization, match="1,2,4,3"):
        nodal_counts(4, (4, 5), specialization=bad, verify=True)
    assert calls == [NON_GENERIC, bad]


def test_resampling_on_degenerate_values(monkeypatch):
    # with no specialization given, a non-generic default is replaced by the
    # first seeded draw, once for all degrees, and the counts stay exact
    non_generic_default(monkeypatch)
    calls = integrate_calls(monkeypatch)
    counts = nodal_counts(3, (3, 4), seed=2)
    draw = Specialization.from_seed(2 * 1000003 + 1)
    assert calls == [NON_GENERIC, draw]
    assert counts.specialization == draw
    assert counts.values == (7280, reference_count(3, 4))


def test_verify_uses_the_first_other_generic_draw(monkeypatch):
    # verification draws from the same sequence as resampling, and never
    # checks a count under the specialization that produced it
    calls = integrate_calls(monkeypatch)
    draws = [Specialization.from_seed(5 * 1000003 + k) for k in (1, 2)]
    assert nodal_counts(2, (3,), seed=5, verify=True) == ((15660,), SP)
    assert calls == [SP, draws[0]]
    calls.clear()
    assert nodal_counts(2, (3,), specialization=draws[0], seed=5, verify=True).values == (15660,)
    assert calls == draws
    calls.clear()
    non_generic_default(monkeypatch)
    assert nodal_counts(3, (3,), seed=5, verify=True) == ((7280,), draws[0])
    assert calls == [NON_GENERIC, draws[0], draws[1]]


def test_no_generic_draw_raises_naming_every_candidate(monkeypatch):
    monkeypatch.setattr(localization.Specialization, "from_seed", lambda seed: NON_GENERIC)
    non_generic_default(monkeypatch)
    calls = integrate_calls(monkeypatch)
    with pytest.raises(NonGenericSpecialization, match="2,3,5,7; 2,3,5,7"):
        count_nodal(3, 3)
    assert len(calls) == 1 + localization._DRAWS


def test_process_pool_is_capped_at_the_four_plane_units(monkeypatch):
    # a worker beyond the four plane units would be forked only to idle
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # set on the module itself, where integrate looks the pool up
    monkeypatch.setitem(vars(localization), "ProcessPoolExecutor", SerialPool)
    s = IntegrandSpec(i=3, delta=3, d=4)
    serial = integrate(s, SP).values
    assert integrate(s, SP, jobs=64).values == serial
    assert integrate(s, SP, jobs=3).values == serial
    assert asked == [4, 3]


def test_default_specialization_is_generic_up_to_i17_not_i18():
    # the longest supported job is the fixed-plane delta = 15 polynomial, and
    # the default is claimed generic up to size 17; at size 18 it is not, so
    # the resampling of an unset specialization is reachable
    exponents = localization._tangent_exponents(18)
    values = [v.numerator for v in SP.values]
    assert all(v.denominator == 1 for v in SP.values)

    def value(char):
        return sum(c * v for c, v in zip(char, values))

    up_to_17 = {mu: pairs for mu, pairs in exponents.items() if sum(mu) <= 17}
    vanishing = 0
    for k in range(4):
        for m in plane_points(k):
            tangents = localization._chart_tangents(k, m, up_to_17, value)  # raises if one is 0
            assert len(tangents) == len(up_to_17)
            try:
                localization._chart_tangents(k, m, exponents, value)
            except NonGenericSpecialization:
                vanishing += 1
    assert len(up_to_17) == sum(len(list(partitions(n))) for n in range(1, 18))
    assert vanishing


# degrees of one batched call: spec.d = 4 is neither first nor last
DEGREES = (5, 4, 3)


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
    # one call evaluates i = 0..top at every degree; its entry (d, i) must
    # equal the reference for (d, i)
    sp = Specialization.from_seed(11) if values is None else Specialization(values)
    top = 5 if h4_rule else 3
    s = IntegrandSpec(i=top, delta=5, d=4, mode=mode)
    res = integrate(s, sp, h4_rule=h4_rule, degrees=DEGREES)
    assert list(res.by_degree) == list(DEGREES)
    assert res.values == res.by_degree[4] and res.value == res.values[-1]
    assert all(len(v) == top + 1 for v in res.by_degree.values())
    assert res.values[i] == _reference_integral(replace(s, i=i), sp, h4_rule)
    if i <= 2:
        for d in DEGREES:
            assert res.by_degree[d][i] == _reference_integral(replace(s, i=i, d=d), sp, h4_rule)
    assert res.fixed_point_count == len(enumerate_fixed_points(top))
    # each degree equals a one-degree call, and the deeper truncation of the
    # shared series changes no shallower integral
    shallow = integrate(replace(s, i=i), sp, h4_rule=h4_rule, degrees=DEGREES)
    assert shallow.fixed_point_count == len(enumerate_fixed_points(i))
    for d in DEGREES:
        single = integrate(replace(s, d=d), sp, h4_rule=h4_rule)
        assert single.by_degree == {d: single.values} and single.values == res.by_degree[d]
        assert shallow.by_degree[d] == res.by_degree[d][: i + 1]

    # reversed plane order and a shuffled partition order at every chart
    rng = random.Random(i)

    def shuffled_partitions(n):
        parts = list(partitions(n))
        rng.shuffle(parts)
        return parts

    monkeypatch.setattr(localization, "partitions", shuffled_partitions)
    readouts = [(d, localization._readout_terms(replace(s, d=d), h4_rule)) for d in DEGREES]
    per_plane = [_plane_integrals(k, s, sp, readouts) for k in (3, 2, 1, 0)]
    for d, per_degree in zip(DEGREES, zip(*per_plane)):
        assert tuple(sum(column, Fraction(0)) for column in zip(*per_degree)) == res.by_degree[d]


def test_chart_series_without_d_are_built_once_per_plane_per_call(monkeypatch):
    # every chart series is built once per call, at the first degree, and
    # sheared to the others; a one-degree call shears nothing
    builds, shears = [], []
    chart_series, sheared = localization._chart_series, localization._sheared

    def counted(weights, factors, *rest):
        builds.append((id(factors), tuple(sorted(weights.items()))))
        return chart_series(weights, factors, *rest)

    monkeypatch.setattr(localization, "_chart_series", counted)
    monkeypatch.setattr(localization, "_sheared", lambda *a: shears.append(a) or sheared(*a))
    s = IntegrandSpec(i=3, delta=3, d=4)
    ds = (4, 5, 6, 7)
    res = integrate(s, SP, degrees=ds)
    assert len(builds) == 12
    assert len(set(builds)) == len(builds)  # no series is built twice
    # the 9 charts off P_0, at the 3 degrees after the first, sizes 1..3
    assert len(shears) == 9 * (len(ds) - 1) * 3
    builds.clear()
    shears.clear()
    for d in ds:
        assert integrate(replace(s, d=d), SP).values == res.by_degree[d]
    assert len(builds) == 12 * len(ds)
    assert shears == []


@pytest.mark.parametrize("values", [None, (Fraction(1, 2), 3, Fraction(7, 3), 5)])
def test_sheared_chart_series_equal_the_series_built_at_their_degree(values):
    # the series built at d0 and sheared by (d - d0) * slope is, exactly, the
    # series built at d, at all 12 charts and for shifts of both signs
    sp = SP if values is None else Specialization(values)
    scale = lcm(*(v.denominator for v in sp.values))
    scaled = [(v * scale).numerator for v in sp.values]

    def value(char):
        return sum(c * v for c, v in zip(char, scaled))

    d0, delta = 5, 3
    for size in range(1, 5):
        exponents = localization._tangent_exponents(size)
        cells = [(a, b) for a in range(size) for b in range(size // (a + 1))]
        top = delta + 2 * size
        rows, cols = min(delta + 4, top + 1), top + 1
        for k in range(4):
            for m in plane_points(k):
                tangents = localization._chart_tangents(k, m, exponents, value)
                factors = localization._chern_factors(tangents, size)

                def built(d, rows):
                    weights = {cell: value(taut_cell_weight(k, m, cell, d)) for cell in cells}
                    return localization._chart_series(weights, factors, rows, cols, top)

                base = built(d0, top + 1)
                w0, w1 = (value(taut_cell_weight(k, m, (0, 0), d)) for d in (d0, d0 + 1))
                assert (w1 == w0) == (m == 0)
                for d in (2, 4, 5, 6, 9):
                    sheared = localization._shear(base, (d - d0) * (w1 - w0), rows, top)
                    assert sheared == built(d, rows), (size, k, m, d)


def test_integrate_needs_spec_d_among_the_degrees():
    with pytest.raises(ValueError):
        integrate(IntegrandSpec(i=1, delta=1, d=2), SP, degrees=(3, 4))
    res = integrate(IntegrandSpec(i=1, delta=1, d=2), SP, degrees=(2, 3, 2))
    assert list(res.by_degree) == [2, 3]


def test_nodal_counts_equal_single_counts_under_one_specialization():
    counts = nodal_counts(2, (5, 3, 4), verify=True)
    assert counts.values == tuple(count_nodal(2, d) for d in (5, 3, 4))
    assert counts.specialization == SP


def test_verify_compares_every_degree_and_i(monkeypatch):
    # a disagreement at one (d, i) of the second specialization must surface
    real = localization.integrate

    def perturbed(spec, specialization, **kw):
        res = real(spec, specialization, **kw)
        if specialization != SP:
            res.by_degree[5] = res.by_degree[5][:1] + (res.by_degree[5][1] + 1,) + res.by_degree[5][2:]
        return res

    monkeypatch.setattr(localization, "integrate", perturbed)
    with pytest.raises(ArithmeticError, match="d=5, i=1"):
        nodal_counts(2, (3, 4, 5), verify=True)


def test_non_generic_plane_units_raise_before_any_cell_product(monkeypatch):
    # NON_GENERIC makes a Hilbert tangent weight vanish at i=3, at a chart of
    # some plane; every plane unit must notice before real work
    calls = []
    times_cell = localization._times_cell
    monkeypatch.setattr(
        localization, "_times_cell", lambda *a: calls.append(a) or times_cell(*a)
    )
    s = IntegrandSpec(i=3, delta=3, d=4)
    readouts = [(d, localization._readout_terms(replace(s, d=d), True)) for d in (4, 5)]
    for plane in range(4):
        with pytest.raises(NonGenericSpecialization):
            _plane_integrals(plane, s, NON_GENERIC, readouts)
    assert calls == []
    shallow = replace(s, i=2)
    readouts = [(4, localization._readout_terms(shallow, True))]
    assert _plane_integrals(0, shallow, NON_GENERIC, readouts)  # the counter works
    assert calls


def test_non_generic_raises_where_the_reference_does():
    # NON_GENERIC makes a Hilbert tangent weight vanish at i=3
    s = IntegrandSpec(i=3, delta=3, d=4)
    with pytest.raises(NonGenericSpecialization):
        _reference_integral(s, NON_GENERIC)
    with pytest.raises(NonGenericSpecialization):
        integrate(s, NON_GENERIC)
    with pytest.raises(NonGenericSpecialization):
        integrate(s, NON_GENERIC, jobs=2)
    with pytest.raises(NonGenericSpecialization):
        integrate(s, NON_GENERIC, degrees=(4, 5), jobs=2)
