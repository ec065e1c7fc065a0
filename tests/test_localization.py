import random
from dataclasses import replace
from fractions import Fraction
from math import lcm, prod

import pytest
from helpers import reference_count

import severi.localization as localization
from severi.integrand import IntegrandSpec, P2_FIXED, P3, incidence_terms, segre_coeffs
from severi.localization import _plane_integrals, count_nodal, integrate, nodal_counts
from severi.partitions import enumerate_fixed_points, partitions, plane_points
from severi.reference import _compile_terms, _reference_integral, _sum_over_points, build_integrand
from severi.node_polys import valid_degrees
from severi.weights import (
    NonGenericSpecialization,
    Specialization,
    gr_tangent_weights,
    h_weight,
    taut_cell_weight,
)

SP = Specialization.default()
# makes a Hilbert tangent weight vanish at i = 3, at a chart of some plane
NON_GENERIC = Specialization((2, 3, 5, 7))
# torus values with denominators, scaled to integers by the evaluator
RATIONAL_VALUES = (Fraction(1, 2), 3, Fraction(7, 3), 5)


def integrals(spec: IntegrandSpec, sp: Specialization, **options) -> tuple:
    """The integrals for i = 0..spec.i at spec.d."""
    return integrate(spec, sp, **options).by_degree[spec.d]


def test_integrate_smooth_conic():
    res = integrate(IntegrandSpec(i=0, delta=0, d=2), SP)
    assert res.by_degree == {2: (92,)}
    assert res.fixed_point_count == 4


def test_integrate_line_case_vanishes():
    assert integrals(IntegrandSpec(i=0, delta=0, d=1), SP)[-1] == 0


def test_integrate_two_specializations_agree():
    s = IntegrandSpec(i=1, delta=1, d=2)
    a = integrals(s, SP)[-1]
    b = integrals(s, Specialization.from_seed(421))[-1]
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


def test_nodal_counts_refuse_a_negative_delta_and_no_degrees():
    with pytest.raises(ValueError, match="delta must be >= 0"):
        nodal_counts(-1, (3,))
    with pytest.raises(ValueError, match="at least one degree"):
        nodal_counts(1, ())


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
    serial = integrals(s, SP, jobs=1)[-1]
    parallel = integrals(s, SP, jobs=2)[-1]
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
    # a worker beyond the plane units would be forked only to idle; the work
    # gate is opened, so that these small calls ask for a pool at all
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
    monkeypatch.setattr(localization, "_POOL_WORK", 0)
    s = IntegrandSpec(i=3, delta=3, d=4)
    serial = integrals(s, SP)
    assert integrals(s, SP, jobs=64) == serial
    assert integrals(s, SP, jobs=3) == serial
    # at delta = 2 the last plane of the lift order reads no line
    shallow = IntegrandSpec(i=2, delta=2, d=4)
    assert integrals(shallow, SP, jobs=64) == integrals(shallow, SP)
    assert asked == [4, 3, 3]


def pool_stub(monkeypatch) -> tuple:
    """The max_workers of every process pool ``integrate`` asks for from now
    on, and the exception that asking raises."""
    asked = []

    class Refused(Exception):
        pass

    def stub(max_workers):
        asked.append(max_workers)
        raise Refused

    monkeypatch.setitem(vars(localization), "ProcessPoolExecutor", stub)
    return asked, Refused


def test_counts_below_the_work_gate_start_no_pool(monkeypatch):
    # count(6, 4): 884 fixed points at one degree, below the gate
    asked, _ = pool_stub(monkeypatch)
    assert count_nodal(6, 4, jobs=2) == count_nodal(6, 4)
    assert asked == []


def test_a_call_the_size_of_the_delta8_polynomial_asks_for_a_pool(monkeypatch):
    # the p3 delta = 8 polynomial: 3,240 fixed points at 21 direct degrees
    asked, refused = pool_stub(monkeypatch)
    ds = valid_degrees(8, P3, 28)
    s = IntegrandSpec(i=8, delta=8, d=ds[0])
    with pytest.raises(refused):
        integrate(s, SP, degrees=ds, jobs=2)
    assert asked == [2]


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
    # equal the reference for (d, i), with the reference's H^4 rule on or off
    sp = Specialization.from_seed(11) if values is None else Specialization(values)
    top = 5 if h4_rule else 3
    s = IntegrandSpec(i=top, delta=5, d=4, mode=mode)
    res = integrate(s, sp, degrees=DEGREES)
    assert list(res.by_degree) == list(DEGREES)
    assert all(len(v) == top + 1 for v in res.by_degree.values())
    assert res.by_degree[4][i] == _reference_integral(replace(s, i=i), sp, h4_rule)
    if i <= 2:
        for d in DEGREES:
            assert res.by_degree[d][i] == _reference_integral(replace(s, i=i, d=d), sp, h4_rule)
    assert res.fixed_point_count == len(enumerate_fixed_points(top))
    # each degree equals a one-degree call, and the deeper truncation of the
    # shared series changes no shallower integral
    shallow = integrate(replace(s, i=i), sp, degrees=DEGREES)
    assert shallow.fixed_point_count == len(enumerate_fixed_points(i))
    for d in DEGREES:
        single = integrate(replace(s, d=d), sp)
        assert single.by_degree == {d: res.by_degree[d]}
        assert shallow.by_degree[d] == res.by_degree[d][: i + 1]

    # reversed plane order and a shuffled partition order at every chart
    rng = random.Random(i)

    def shuffled_partitions(n):
        parts = list(partitions(n))
        rng.shuffle(parts)
        return parts

    monkeypatch.setattr(localization, "partitions", shuffled_partitions)
    readouts = [localization._readout_terms(replace(s, d=d)) for d in DEGREES]
    units = localization._plane_units(s, sp, sorted(readouts[0]), DEGREES)
    for d, readout, sums in zip(DEGREES, readouts, lifted_sums(reversed(units))):
        assert read_out(sums, readout, top) == res.by_degree[d]


def lifted_sums(units) -> list[dict]:
    """Per direct degree of the plane units, in Fractions, the plane sums
    M(i, x, d) = sum_k lift_k(x) L_k(i, x) / e_k of their lifted lines, each
    unit's from ``_plane_integrals``, added in the order given."""
    parts = [_plane_integrals(*unit) for unit in units]
    return [
        {
            key: sum(Fraction(at[j].get(key, 0), den) for den, at in parts)
            for key in dict.fromkeys(key for _, at in parts for key in at[j])
        }
        for j in range(len(parts[0][1]))
    ]


def read_out(sums: dict, readout: dict, size: int) -> tuple:
    """The integrals for i = 0..size that ``readout`` takes from the plane
    sums at one degree."""
    return tuple(
        sum((c * sums.get((i, x), 0) for x, c in readout.items()), Fraction(0))
        for i in range(size + 1)
    )


@pytest.mark.parametrize("h4_rule", [True, False])
@pytest.mark.parametrize("mode", [P3, P2_FIXED])
def test_plane_sums_are_free_of_the_specialization(mode, h4_rule):
    # the plane sum of a lifted line is the integral of H^p times the line's
    # class, a number, and for x > delta, p >= 4 (read with the H^4 rule
    # off, as nodal_counts checks them), it is 0
    s = IntegrandSpec(i=4, delta=4, d=6, mode=mode)
    xs = sorted(localization._readout_terms(s))
    if not h4_rule:
        xs += range(s.delta + 1, s.delta + 2 * s.i + 1)
    degrees = (6, 7)
    sums = [
        lifted_sums(localization._plane_units(s, sp, xs, degrees))
        for sp in (SP, Specialization.from_seed(11), Specialization(RATIONAL_VALUES))
    ]
    assert sums[0] == sums[1] == sums[2]
    for d, at in zip(degrees, sums[0]):
        assert {x for _, x in at} == set(xs)
        assert all(v == 0 for (_, x), v in at.items() if x > s.delta)
        assert any(at.values())
        assert read_out(at, localization._readout_terms(replace(s, d=d)), s.i) == (
            integrals(replace(s, d=d), SP)
        )


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
        assert integrals(replace(s, d=d), SP) == res.by_degree[d]
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


@pytest.mark.parametrize(
    "mode, ds",
    [(P3, (4, 4, *range(5, 13))), (P2_FIXED, (3, 4, 3, *range(5, 10)))],
    ids=["p3", "p2"],
)
def test_repeated_degrees_give_the_one_degree_counts(mode, ds):
    # each degree is evaluated once: a repeat among the first E degrees
    # would be a repeated interpolation node (E = 7 in p3, 5 in p2)
    assert nodal_counts(2, ds, mode).values == tuple(count_nodal(2, d, mode) for d in ds)


def test_a_non_integer_count_raises(monkeypatch):
    # the BPS combination is summed in fractions; a third added to the top
    # integral, whose weight is 1, leaves a non-integer at that degree
    real = localization.integrate

    def perturbed(spec, specialization, **kw):
        res = real(spec, specialization, **kw)
        res.by_degree[4] = res.by_degree[4][:-1] + (res.by_degree[4][-1] + Fraction(1, 3),)
        return res

    assert nodal_counts(2, (3, 4)).values == (15660, reference_count(2, 4))
    monkeypatch.setattr(localization, "integrate", perturbed)
    with pytest.raises(ArithmeticError, match="non-integer count"):
        nodal_counts(2, (3, 4))


def test_non_generic_plane_units_raise_before_any_cell_product(monkeypatch):
    # NON_GENERIC makes a Hilbert tangent weight vanish at i=3, at a chart of
    # some plane; integrate must notice before any plane unit or pool starts
    calls, pools = [], []
    times_cell = localization._times_cell
    monkeypatch.setattr(
        localization, "_times_cell", lambda *a: calls.append(a) or times_cell(*a)
    )
    monkeypatch.setitem(
        vars(localization), "ProcessPoolExecutor", lambda *a, **k: pools.append(a) or 1 / 0
    )
    s = IntegrandSpec(i=3, delta=3, d=4)
    assert localization.fixed_point_count(s.i) >= 64  # jobs=2 would start the pool
    with pytest.raises(NonGenericSpecialization):
        integrate(s, NON_GENERIC, degrees=(4, 5), jobs=2)
    assert calls == [] and pools == []
    assert integrate(replace(s, i=2), NON_GENERIC, degrees=(4, 5))  # the counter works
    assert calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_chart_tangents_are_evaluated_once_per_chart_per_call(monkeypatch, tmp_path, jobs):
    # the twelve charts' tangent values are the call's one genericity check;
    # plane units evaluate none of their own, in this process or in a forked
    # pool worker, so the calls are logged to a file both can append to
    log = tmp_path / "calls"
    chart_tangents = localization._chart_tangents

    def logged(plane, point, *rest):
        with open(log, "a") as f:
            f.write(f"{plane} {point}\n")
        return chart_tangents(plane, point, *rest)

    monkeypatch.setattr(localization, "_chart_tangents", logged)
    s = IntegrandSpec(i=3, delta=3, d=4)
    res = integrate(s, SP, degrees=(4, 5), jobs=jobs)
    assert res.fixed_point_count >= 64  # with jobs=2 the pool runs the plane units
    calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert calls == [(k, m) for k in range(4) for m in plane_points(k)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixed_plane_genericity_checks_only_the_charts_it_evaluates(monkeypatch, tmp_path, jobs):
    # a p2 integral is one plane's chart sum, so only that plane's three
    # charts need nonzero tangent weights; (1, 2, 3, 6) makes one vanish at
    # i = 3 only at charts of V_3, so p2 accepts it and p3 does not
    off_plane = Specialization((1, 2, 3, 6))
    log = tmp_path / "calls"
    chart_tangents = localization._chart_tangents

    def logged(plane, point, *rest):
        with open(log, "a") as f:
            f.write(f"{plane} {point}\n")
        return chart_tangents(plane, point, *rest)

    monkeypatch.setattr(localization, "_chart_tangents", logged)
    s = IntegrandSpec(i=3, delta=3, d=4, mode=P2_FIXED)
    res = integrate(s, off_plane, degrees=(4, 5), jobs=jobs)
    assert res.fixed_point_count >= 64  # jobs=2 would start a pool for more units
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(calls) == [(1, m) for m in plane_points(1)]
    assert res.by_degree == integrate(s, SP, degrees=(4, 5)).by_degree
    counts = nodal_counts(3, (4, 5), P2_FIXED, specialization=off_plane)
    assert counts.values == nodal_counts(3, (4, 5), P2_FIXED).values
    with pytest.raises(NonGenericSpecialization, match="1,2,3,6"):
        nodal_counts(3, (4, 5), specialization=off_plane)


def test_fixed_plane_integrals_start_no_process_pool(monkeypatch):
    # p2 has one plane unit, which a pool could hand to one worker at most
    pools = []
    monkeypatch.setitem(
        vars(localization), "ProcessPoolExecutor", lambda *a, **k: pools.append(a) or 1 / 0
    )
    s = IntegrandSpec(i=3, delta=3, d=4, mode=P2_FIXED)
    assert localization.fixed_point_count(s.i) >= 64
    pooled = integrate(s, SP, degrees=(4, 5, 6), jobs=2)
    assert pooled.by_degree == integrate(s, SP, degrees=(4, 5, 6), jobs=1).by_degree
    assert pools == []


@pytest.mark.parametrize("values", [None, (Fraction(1, 2), 3, Fraction(7, 3), 5)])
@pytest.mark.parametrize("h4_rule", [True, False])
def test_fixed_plane_integrals_equal_the_reference_on_every_plane(monkeypatch, h4_rule, values):
    # the class of any one plane V_k lifts H^3, so V_k alone, read with
    # H^(3 + t) as h_k^t and no Euler division, gives the four-plane sum
    sp = Specialization.from_seed(11) if values is None else Specialization(values)
    s = IntegrandSpec(i=3, delta=3, d=4, mode=P2_FIXED)
    reference = [_reference_integral(replace(s, i=i), sp, h4_rule) for i in range(s.i + 1)]
    for k in range(4):
        monkeypatch.setattr(localization, "_FIXED_PLANE", k)
        assert list(integrals(s, sp)) == reference, k


@pytest.mark.parametrize("h4_rule", [True, False])
def test_fixed_plane_integrals_at_shuffled_degrees_equal_on_every_plane(monkeypatch, h4_rule):
    # twelve degrees, so that some are interpolated (E = 9 in p2 at delta = 4);
    # with h4_rule off, the counts check every plane's lines past H^3 there
    s = IntegrandSpec(i=4, delta=4, d=6, mode=P2_FIXED)
    degrees = (8, 3, 11, 5, 14, 6, 9, 12, 4, 13, 7, 10)
    assert t_degree_bound(s) + 1 < len(degrees)
    fixed = integrate(s, SP, degrees=degrees).by_degree
    counts = nodal_counts(s.delta, degrees, P2_FIXED)
    assert localization._FIXED_PLANE == 1
    for k in (0, 2, 3):
        monkeypatch.setattr(localization, "_FIXED_PLANE", k)
        assert integrate(s, SP, degrees=degrees).by_degree == fixed, k
        assert nodal_counts(s.delta, degrees, P2_FIXED, h4_rule=h4_rule) == counts, k


def unruled_readout(spec: IntegrandSpec) -> dict:
    """The p3 readout without H^4 = 0: x = delta + t - s, weight sum c_s rho_t,
    for every x <= delta + 2i."""
    terms = {}
    for s, _, c in incidence_terms(spec):
        for t, r in enumerate(segre_coeffs(spec.d, 2 * spec.i + 3)):
            x = spec.delta + t - s
            if 0 <= x <= spec.delta + 2 * spec.i:
                terms[x] = terms.get(x, 0) + c * r
    return terms


def test_readout_weights_are_one_integer_per_xi_degree():
    # p3 reads x = delta + t - s, weight sum c_s rho_t, for every x <= delta:
    # the H^4 rule truncates the unruled readout there; p2 reads x = delta
    for delta in range(7):
        for d in range(delta + 1, delta + 9):
            s = IntegrandSpec(i=delta, delta=delta, d=d)
            full = unruled_readout(s)
            assert sorted(full) == list(range(max(0, delta - 3), 3 * delta + 1))
            readout = localization._readout_terms(s)
            assert sorted(readout) == list(range(max(0, delta - 3), delta + 1))
            assert all(type(c) is int for c in readout.values())
            assert readout == {x: c for x, c in full.items() if x <= delta}
            if s.n >= 6:
                assert localization._readout_terms(replace(s, mode=P2_FIXED)) == {delta: 1}


def test_fixed_plane_lines_past_h_cubed_vanish(monkeypatch):
    # a p2 readout reads the line at xi-degree delta alone; a line at
    # delta + t, t >= 1, would stand for H^(3 + t), the integral of a class
    # of degree 2i - t over the compact fibre Hilb^i(V_k), so it is zero.
    # H^(3 + t) lifts to H^t times the lift of H^3, so, asked for every such
    # line, the fixed plane alone reads them; as each plane is made the
    # fixed one in turn, every plane reads zero on all of them.
    s = IntegrandSpec(i=4, delta=4, d=5, mode=P2_FIXED)
    sp = Specialization(RATIONAL_VALUES)
    every = range(s.delta, s.delta + 2 * s.i + 1)
    expected = integrals(s, sp)
    read = []
    read_lines = localization._read_lines
    monkeypatch.setattr(
        localization, "_read_lines", lambda *a: read.append(read_lines(*a)) or read[-1]
    )
    for k in range(4):
        monkeypatch.setattr(localization, "_FIXED_PLANE", k)
        units = localization._plane_units(s, sp, list(every), (s.d,))
        assert len(units) == 1, k
        [(_, euler, _, _, lifted)] = units
        assert lifted == dict.fromkeys(every, euler), k  # each line weighed by e_k
        (sums,) = lifted_sums(units)
        assert read_out(sums, dict.fromkeys(every, 1), s.i) == expected, k
    assert len(read) == 4
    for lines, _ in read:
        assert sorted(lines) == [
            (i, x) for i in range(s.i + 1) for x in every if x <= s.delta + 2 * i
        ]
        assert all(c == 0 for (_, x), c in lines.items() if x > s.delta)
        assert any(lines[i, s.delta] for i in range(s.i + 1))


@pytest.mark.parametrize("mode", [P3, P2_FIXED])
def test_counts_with_the_lines_past_h_cubed_checked_equal_the_counts(mode):
    # acceptance 7's grid, where a p2 count needs n >= 6 incidence points
    n_min = 3 if mode == P3 else 6
    grid = [
        (delta, d)
        for delta in range(4)
        for d in range(1, 7)
        if d * (d + 3) // 2 + 3 - delta >= n_min
    ]
    assert len(grid) == (23 if mode == P3 else 19)
    for delta, d in grid:
        assert count_nodal(delta, d, mode, h4_rule=False) == count_nodal(delta, d, mode), (delta, d)


@pytest.mark.parametrize("mode, count", [(P3, 1721700), (P2_FIXED, 225)])
def test_a_nonzero_line_past_h_cubed_raises(monkeypatch, mode, count):
    # the lines x > delta enter no count, so a fault there shows only when
    # nodal_counts checks them; the first nonzero line is named
    read_lines = localization._read_lines

    def bumped(top_alone):
        def read(charts, xs, delta, top):
            lines, common = read_lines(charts, xs, delta, top)
            for i, x in lines:
                if x > delta and (x == delta + 2 * i == top or not top_alone):
                    lines[i, x] += 1
            return lines, common

        return read

    for top_alone, first in ((False, r"\(4, \(1, 3\)\)"), (True, r"\(4, \(2, 6\)\)")):
        monkeypatch.setattr(localization, "_read_lines", bumped(top_alone))
        assert count_nodal(2, 4, mode) == count
        with pytest.raises(ArithmeticError, match=rf"past H\^3, \(d, \(i, x\)\) = {first}"):
            count_nodal(2, 4, mode, h4_rule=False)


@pytest.mark.parametrize(
    "sp",
    [SP, Specialization.from_seed(11), Specialization(RATIONAL_VALUES)],
    ids=["default", "seeded", "rational"],
)
def test_grassmannian_euler_factor_is_the_product_of_hyperplane_weight_differences(sp):
    # the count path takes e_k = prod_{j != k} (h_k - h_j), in the weights h
    # its lift is written in; that is the product of the tangent weights of
    # the Grassmannian at V_k
    h = [sp.value(h_weight(k)) for k in range(4)]
    eulers = [prod(sp.value(w) for w in gr_tangent_weights(k)) for k in range(4)]
    assert eulers == [prod(h[k] - h[j] for j in range(4) if j != k) for k in range(4)]
    # the plane units carry it in the integer torus values, scale^3 times it
    scale = lcm(*(v.denominator for v in sp.values))
    s = IntegrandSpec(i=3, delta=3, d=4)
    units = localization._plane_units(s, sp, sorted(localization._readout_terms(s)), (4,))
    assert sorted(euler for _, euler, *_ in units) == sorted(e * scale**3 for e in eulers)


def unlifted_planes(spec: IntegrandSpec, sp: Specialization) -> list:
    """Per plane V_k: its h_k, its Grassmannian Euler factor e_k and its
    lines L_k(i, x) at spec.d for i = 0..spec.i and every x <= delta + 2i,
    from its three chart series, with no readout and no lift."""
    scale = lcm(*(v.denominator for v in sp.values))
    scaled = [(v * scale).numerator for v in sp.values]

    def value(char):
        return sum(c * v for c, v in zip(char, scaled))

    size, delta = spec.i, spec.delta
    top = delta + 2 * size
    exponents = localization._tangent_exponents(size)
    cells = [(a, b) for a in range(size) for b in range(size // (a + 1))]
    planes = []
    for k in range(4):
        charts = []
        for m in plane_points(k):
            tangents = localization._chart_tangents(k, m, exponents, value)
            factors = localization._chern_factors(tangents, size)
            weights = {cell: value(taut_cell_weight(k, m, cell, spec.d)) for cell in cells}
            charts.append(localization._chart_series(weights, factors, top + 1, top + 1, top))
        coefficients, common = localization._read_lines(charts, range(top + 1), delta, top)
        lines = [{} for _ in range(size + 1)]
        for (i, x), n in coefficients.items():
            lines[i][x] = Fraction(n, common)
        euler = prod(value(w) for w in gr_tangent_weights(k))
        planes.append((value(h_weight(k)), euler, lines))
    return planes


def plane_sums(planes: list, delta: int) -> list:
    """sum_k h_k^q L_k(i, x) / e_k for every line and every q <= 2 + x - delta:
    H^q times the line's class has degree below the dimension."""
    return [
        sum(h**q * lines[i][x] / euler for h, euler, lines in planes)
        for i in range(len(planes[0][2]))
        for x in range(delta + 2 * i + 1)
        for q in range(3 + x - delta)
    ]


@pytest.mark.parametrize("sp", [SP, Specialization.from_seed(11)], ids=["default", "seeded"])
def test_plane_sums_below_the_read_power_vanish_and_the_lift_keeps_every_integral(sp):
    # the identities that let H^p, p <= 3, be read on the planes outside J_p
    # alone; every plane's every line is built, which the lifted readout no
    # longer does, so they are checked here and not at run time
    for delta in range(3, 7):
        spec = IntegrandSpec(i=delta, delta=delta, d=delta + 2)
        planes = unlifted_planes(spec, sp)
        sums = plane_sums(planes, delta)
        assert len(sums) == sum((2 * i + 3) * (2 * i + 4) // 2 for i in range(delta + 1))
        assert not any(sums), delta
        # one plane's h one more breaks them
        (h, euler, lines), *rest = planes
        assert any(plane_sums([(h + 1, euler, lines), *rest], delta)), delta
        for readout in (localization._readout_terms(spec), unruled_readout(spec)):
            unlifted = [
                sum(
                    c * h ** (3 + x - delta) * lines[i][x] / euler
                    for h, euler, lines in planes
                    for x, c in readout.items()
                    if x <= delta + 2 * i
                )
                for i in range(spec.i + 1)
            ]
            assert list(integrals(spec, sp)) == unlifted, (delta, len(readout))
        # p2 reads H^3 on the line x = delta, lifted to the fixed plane alone
        p2 = integrals(replace(spec, mode=P2_FIXED), sp)
        assert list(p2) == [
            sum(h**3 * lines[i][delta] / euler for h, euler, lines in planes)
            for i in range(spec.i + 1)
        ]


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


def test_top_size_entries_are_kept_on_the_read_line_alone(monkeypatch):
    # the size-size entry of each chart series, its shears and W[size] meet
    # only size-0 entries, which are 1, so they are kept on the line of total
    # degree top alone; the entries below the top size are not banded
    s = IntegrandSpec(i=3, delta=3, d=4)
    ds = (4, 5, 6)
    size, top = s.i, s.delta + 2 * s.i
    seen = {"_chart_series": [], "_shear": [], "_pair_sums": []}
    for name, out in seen.items():
        real = getattr(localization, name)
        monkeypatch.setattr(
            localization, name, lambda *a, real=real, out=out: out.append(real(*a)) or out[-1]
        )
    res = integrate(s, SP, degrees=ds)
    assert [len(out) for out in seen.values()] == [12, 12 * len(ds), 4 * len(ds)]
    def degrees(grid):
        return {x + e for x, row in enumerate(grid) for e, v in enumerate(row) if v}

    for name, out in seen.items():
        for series in out:
            assert degrees(series[size][0]) <= {top}, name
            # the last plane of the lift order reads the row x = 0 alone,
            # where the size-size entry of its unsheared chart is zero
            if len(series[size][0]) > 1:
                assert degrees(series[size][0]) == {top}, name
                assert min(degrees(series[size - 1][0])) < top - 1, name
    assert res.by_degree[5] == integrals(replace(s, d=5), SP)


def test_top_size_pair_products_are_asked_for_the_top_line_alone(monkeypatch):
    # every product Z1[a]*Z2[s - a], 0 < a < s, is asked for its band of total
    # degrees: the line top..top at s = size, 0..top - (size - s) below it
    asked = []
    product = localization._product
    monkeypatch.setattr(
        localization,
        "_product",
        lambda p, q, low, top: asked.append((low, top)) or product(p, q, low, top),
    )
    s = IntegrandSpec(i=4, delta=4, d=5)
    ds = (5, 6)
    size, top = s.i, s.delta + 2 * s.i
    integrate(s, SP, degrees=ds)
    expected = [
        (top if n == size else 0, top - (size - n))
        for _ in range(4 * len(ds))
        for n in range(2, size + 1)
        for _ in range(1, n)
    ]
    assert sorted(asked) == sorted(expected)
    assert asked.count((top, top)) == 4 * len(ds) * (size - 1)


def t_degree_bound(spec: IntegrandSpec) -> int:
    """E: one more than the largest eps-degree a readout of ``spec`` takes
    from the three-chart product, which bounds the degree in d - d0."""
    return 1 + spec.delta + 2 * spec.i - min(localization._readout_terms(spec))


# ten degrees in shuffled order, some below the first; with E = 7 for both,
# the eighth and ninth are interpolated, and spec.d is the eighth
BATCHES = [
    (IntegrandSpec(i=2, delta=2, d=8, mode=P3), (7, 3, 11, 2, 9, 5, 10, 8, 4, 6)),
    (IntegrandSpec(i=3, delta=3, d=9, mode=P2_FIXED), (8, 12, 3, 6, 11, 4, 10, 9, 5, 7)),
]


@pytest.mark.parametrize(
    "h4_rule, values", [(True, None), (False, (Fraction(1, 2), 3, Fraction(7, 3), 5))]
)
@pytest.mark.parametrize("spec, degrees", BATCHES)
def test_batched_degrees_past_the_direct_ones_equal_one_degree_calls(
    spec, degrees, h4_rule, values
):
    # with h4_rule off, the counts also check the lines past H^3 at every degree
    sp = SP if values is None else Specialization(values)
    assert t_degree_bound(spec) + 1 < len(degrees)  # some degrees are interpolated
    res = integrate(spec, sp, degrees=degrees)
    assert list(res.by_degree) == list(degrees)
    for d in degrees:
        assert res.by_degree[d] == integrals(replace(spec, d=d), sp), d
    counts = nodal_counts(spec.delta, degrees, spec.mode, specialization=sp, h4_rule=h4_rule)
    assert counts.values == tuple(count_nodal(spec.delta, d, spec.mode) for d in degrees)


def test_only_the_first_E_degrees_and_the_last_are_sheared(monkeypatch):
    # consecutive degrees from d0, so the j-th degree has t = d - d0 = j; at
    # every plane and chart, the shift of the shear is t times one slope
    spec = IntegrandSpec(i=2, delta=2, d=3)
    bound = t_degree_bound(spec)
    assert bound == 7
    shifts = []
    shear = localization._shear
    monkeypatch.setattr(
        localization, "_shear", lambda series, c, *rest: shifts.append(c) or shear(series, c, *rest)
    )
    planes = 3  # at delta = 2 the last plane of the lift order reads no line
    for n in (3, bound, bound + 1, bound + 3):
        shifts.clear()
        integrate(spec, SP, degrees=range(3, 3 + n))
        direct = list(range(min(n, bound))) + ([n - 1] if n > bound else [])
        assert len(shifts) == planes * len(direct) * 3
        for k in range(planes):
            for m in range(3):
                seen = shifts[k * len(direct) * 3 + m :: 3][: len(direct)]
                assert seen == [t * seen[1] for t in direct], (n, k, m)


def test_a_line_coefficient_of_degree_E_in_d_raises(monkeypatch):
    # a term t^(E - 1) added to one line coefficient at every direct degree
    # is interpolated exactly; a term t^E fails the check at the last degree
    spec = IntegrandSpec(i=2, delta=2, d=3)
    bound = t_degree_bound(spec)
    degrees = range(3, 3 + bound + 3)
    ts = list(range(bound)) + [len(degrees) - 1]  # of the direct degrees, per plane
    read_lines = localization._read_lines
    exact = integrate(spec, SP, degrees=degrees)

    def bumped(power):
        calls = []

        def read(*args):
            lines = read_lines(*args)
            t = ts[len(calls) % len(ts)]
            calls.append(t)
            coefficients, _ = lines
            coefficients[min(key for key in coefficients if key[0] == spec.i)] += t**power
            return lines

        return read

    monkeypatch.setattr(localization, "_read_lines", bumped(bound - 1))
    res = integrate(spec, SP, degrees=degrees)
    for d in degrees[bound : -1]:  # interpolated, and carrying the term
        assert res.by_degree[d] != exact.by_degree[d]
    monkeypatch.setattr(localization, "_read_lines", bumped(bound))
    with pytest.raises(ArithmeticError, match="not of degree below 7"):
        integrate(spec, SP, degrees=degrees)


def test_interpolation_raises_on_an_inexact_division():
    def at(values):
        return [{(0, 0): v} for v in values]

    nodes = [0, 2, 5]
    assert localization._interpolated(at([-3, 1, 22]), nodes, -4) == {(0, 0): 13}  # t^2 - 3
    # no integer polynomial of degree < 3 takes 0, 1, 0 there: it is 2/3 at t = 1
    with pytest.raises(ArithmeticError, match="inexact"):
        localization._interpolated(at([0, 1, 0]), nodes, 1)
