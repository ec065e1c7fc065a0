"""Residue-formula evaluation of the localized integrals and the node count.

The integral over the length-i relative Hilbert scheme is a sum over its
torus-fixed points: a coordinate plane V_k and one partition (a monomial
ideal) at each of the plane's three fixed points.  At such a point every
factor of the integrand built in ``integrand.py`` multiplies over the three
charts: c(T_rel)/e(T_rel) over the Hilbert tangent weights, and
c_i(E (x) xi)/c(E (x) xi) over the tautological cell weights.  Only the
incidence factor, the Segre coefficient, the power of H and the
Grassmannian Euler factor depend on the plane alone.

So the integrand is never built.  For each chart (V_k, P_m) the evaluator
sums, over partitions mu with |mu| <= i, the local factor

    prod_{hilb w} (1 + eps w) / w  *  prod_{cells c} (xi + eps w_c) / (1 + xi + eps w_c)

as a bivariate series in xi and a variable eps that counts cohomological
degree; the series for one partition size is stored as an integer
polynomial over one common denominator.  The sum over tripartitions of size
i is then the q^i coefficient of the product of the plane's three chart
series, q counting partition size.  Cohomological degree exactly
3 + 2i, the dimension, makes every coefficient the integral reads lie on
the line (xi-degree) + (eps-degree) = delta + 2i: lower degrees integrate to
zero and higher ones are cut by the degree cap.  Those few coefficients are
weighted by the incidence term, the Segre coefficient rho_t and the power
of H (with H^4 = 0 only under the H^4 rule), divided by the Grassmannian
Euler factor and summed over the four planes.

All arithmetic is exact.  The torus values are scaled to integers first;
every contribution is homogeneous of degree zero in them, so the scale
changes nothing.  A vanishing tangent weight raises
``NonGenericSpecialization`` for the caller to resample.  Planes are
independent work units and the optional process pool evaluates them in
parallel; exact sums make any order give the identical result.

The full count for (delta, d) is the linear combination of the integrals
for i = 0..delta with the unitriangular-inverse weights; the combination is
always an integer and that is asserted, never rounded.

``_reference_integral`` computes the same integral the old way, by building
the symbolic integrand and evaluating it at every fixed point.  It is kept
only as the reference the tests compare against.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from .graded import GradedPoly, TruncationRules
from .integrand import (
    P3,
    IntegrandSpec,
    bps_coefficients,
    build_integrand,
    genus,
    incidence_terms,
    segre_coeffs,
)
from .partitions import FixedPoint, enumerate_fixed_points, partitions, plane_points
from .weights import (
    NonGenericSpecialization,
    Specialization,
    chart_weights,
    gr_tangent_weights,
    h_weight,
    hilb_tangent_weights,
    taut_cell_weight,
    taut_weights,
)

DEFAULT_RETRIES = 8


@dataclass(frozen=True)
class IntegralResult:
    value: Fraction
    spec_used: Specialization
    fixed_point_count: int
    i: int
    delta: int
    d: int
    mode: str


# -- the factorized evaluator ---------------------------------------------------
#
# A grid is a truncated bivariate polynomial: grid[x][e] is the coefficient
# of xi^x eps^e.  Entries above the total-degree bound a grid was built for
# are zero.


def _coefficient(p, q_rev, x: int, e: int) -> int:
    """The xi^x eps^e coefficient of p*q, given q with every row reversed."""
    cols = len(q_rev[0])
    total = 0
    for x2 in range(max(0, x - len(p) + 1), min(x, len(q_rev) - 1) + 1):
        total += sum(map(mul, p[x - x2][: e + 1], q_rev[x2][cols - 1 - e :]))
    return total


def _product(p, q, top: int):
    """p*q on the grid of p, truncated to total degree <= top."""
    q_rev = [row[::-1] for row in q]
    return [
        [_coefficient(p, q_rev, x, e) if x + e <= top else 0 for e in range(len(p[0]))]
        for x in range(len(p))
    ]


def _times_cell(g, w: int, top: int):
    """g * (xi + eps w) / (1 + xi + eps w), which is g - g / (1 + xi + eps w)."""
    quotient = [[0] * len(row) for row in g]
    for x, row in enumerate(g):
        for e in range(min(len(row), top - x + 1)):
            v = row[e]
            if x:
                v -= quotient[x - 1][e]
            if e:
                v -= w * quotient[x][e - 1]
            quotient[x][e] = v
    return [[a - b for a, b in zip(row, qrow)] for row, qrow in zip(g, quotient)]


def _chart_series(
    plane: int, point: int, spec: IntegrandSpec, value, rows: int, cols: int, top: int
):
    """(numerator grid, denominator) of the chart series for sizes 0..i.

    The size-n entry sums the local factor over the partitions of n.  The
    other two charts bring total degree at least i - n, so it is kept only
    up to total degree top - (i - n).
    """
    t1, t2 = chart_weights(plane, point)
    one = [[0] * cols for _ in range(rows)]
    one[0][0] = 1
    cell_products = {(): one}
    series = [(one, 1)]
    for n in range(1, spec.i + 1):
        bound = top - (spec.i - n)
        tangents = {}
        for mu in partitions(n):
            # mu is its parent with the last cell of its last row added
            a, b = mu[-1] - 1, len(mu) - 1
            parent = mu[:-1] + ((a,) if a else ())
            w = value(taut_cell_weight(plane, point, (a, b), spec.d))
            cell_products[mu] = _times_cell(cell_products[parent], w, bound)
            tangents[mu] = [value(c) for c in hilb_tangent_weights(mu, t1, t2)]
            if 0 in tangents[mu]:
                raise NonGenericSpecialization("non-generic specialization")
        denominator = lcm(*(prod(ws) for ws in tangents.values()))
        numerator = [[0] * cols for _ in range(rows)]
        for mu, ws in tangents.items():
            chern = [denominator // prod(ws)] + [0] * (cols - 1)
            for v in ws:
                chern = [c + v * lower for c, lower in zip(chern, [0] + chern)]
            term = _product(cell_products[mu], [chern], bound)
            for row, trow in zip(numerator, term):
                row[:] = map(sum, zip(row, trow))
        series.append((numerator, denominator))
    return series


def _readout_weights(spec: IntegrandSpec, h: int, h4_rule: bool) -> dict[int, Fraction]:
    """Weight of each coefficient the integral reads, keyed by its xi-degree.

    The incidence term c H^j xi^s and the Segre term rho_t H^t read the
    xi^(delta+t-s) coefficient of the chart product, in eps-degree
    3 + 2i - j - t, so that xi- plus eps-degree is delta + 2i.
    """
    t_top = 3 if h4_rule else spec.dimension
    rho = segre_coeffs(spec.d, t_top)
    top = spec.delta + 2 * spec.i
    weights: dict[int, Fraction] = {}
    for s, j, c in incidence_terms(spec):
        for t in range(t_top + 1):
            x = spec.delta + t - s
            if (h4_rule and j + t > 3) or not 0 <= x <= top:
                continue
            weights[x] = weights.get(x, 0) + c * rho[t] * h ** (j + t)
    return weights


def _plane_integral(
    plane: int, spec: IntegrandSpec, specialization: Specialization, h4_rule: bool
) -> Fraction:
    """Contribution of the fixed points on the plane V_plane to one integral."""
    # integer torus values: the contribution is homogeneous of degree zero
    scale = lcm(*(v.denominator for v in specialization.values))
    scaled = [(v * scale).numerator for v in specialization.values]

    def value(char) -> int:
        return sum(map(mul, char, scaled))

    gr = [value(w) for w in gr_tangent_weights(plane)]
    if 0 in gr:
        raise NonGenericSpecialization("non-generic specialization")
    i = spec.i
    top = spec.delta + 2 * i
    weights = _readout_weights(spec, value(h_weight(plane)), h4_rule)
    rows, cols = max(weights) + 1, top - min(weights) + 1
    charts = [_chart_series(plane, m, spec, value, rows, cols, top) for m in plane_points(plane)]
    total = Fraction(0)
    for a in range(i + 1):
        for b in range(i + 1 - a):
            (p1, den1), (p2, den2), (p3, den3) = charts[0][a], charts[1][b], charts[2][i - a - b]
            pair = _product(p1, p2, top - (i - a - b))
            p3_rev = [row[::-1] for row in p3]
            num = sum(w * _coefficient(pair, p3_rev, x, top - x) for x, w in weights.items())
            total += num / (den1 * den2 * den3)
    return total / prod(gr)


def integrate(
    spec: IntegrandSpec,
    specialization: Specialization,
    *,
    h4_rule: bool = True,
    jobs: int = 1,
) -> IntegralResult:
    """Evaluate one localized integral at a fixed generic specialization.

    Raises NonGenericSpecialization if a tangent weight vanishes; the caller
    is responsible for resampling (see ``count_nodal``).  With ``jobs`` > 1
    and at least 64 fixed points the four planes go to a process pool.
    """
    i = spec.i
    sizes = [len(list(partitions(n))) for n in range(i + 1)]
    points = 4 * sum(
        sizes[a] * sizes[b] * sizes[i - a - b] for a in range(i + 1) for b in range(i + 1 - a)
    )
    args = (range(4), repeat(spec), repeat(specialization), repeat(h4_rule))
    if jobs <= 1 or points < 64:
        parts = list(map(_plane_integral, *args))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_plane_integral, *args))
    return IntegralResult(
        value=sum(parts, Fraction(0)),
        spec_used=specialization,
        fixed_point_count=points,
        i=i,
        delta=spec.delta,
        d=spec.d,
        mode=spec.mode,
    )


# -- the symbolic reference path (tests only) -------------------------------------


def _compile_terms(integrand: GradedPoly):
    """Flatten to (sparse exponent list, coefficient) pairs for fast evaluation.

    Coefficients with denominator 1 are downgraded to plain ints so the hot
    loop runs on Python bignums.
    """
    names = integrand.table.names
    terms = []
    for exps, coeff in integrand.terms.items():
        sparse = tuple((idx, e) for idx, e in enumerate(exps) if e)
        c = coeff.numerator if coeff.denominator == 1 else coeff
        terms.append((sparse, c))
    return names, terms


def _point_values(fp: FixedPoint, d: int, spec: Specialization, names):
    """Symbol values at a fixed point, plus the euler factor.

    Returns (values aligned with ``names``, euler) or raises on a vanishing
    tangent weight.
    """
    k = fp.plane
    gr_vals = [spec.value(w) for w in gr_tangent_weights(k)]
    hilb_vals = []
    for m, mu in zip(plane_points(k), fp.tri):
        if not mu:
            continue
        t1, t2 = chart_weights(k, m)
        hilb_vals.extend(spec.value(w) for w in hilb_tangent_weights(mu, t1, t2))
    euler = Fraction(1)
    for v in gr_vals + hilb_vals:
        if v == 0:
            raise NonGenericSpecialization("non-generic specialization")
        euler *= v

    taut_vals = [spec.value(w) for w in taut_weights(fp, d)] if fp.length() else []

    by_name = {"H": spec.value(h_weight(k))}
    cl = _elementary_symmetric(taut_vals)
    for j, v in enumerate(cl, start=1):
        by_name[f"L{j}"] = v
    ct = _elementary_symmetric(hilb_vals)
    for j, v in enumerate(ct, start=1):
        by_name[f"T{j}"] = v

    values = []
    for name in names:
        v = by_name[name]
        values.append(v.numerator if v.denominator == 1 else v)
    return values, euler


def _elementary_symmetric(values):
    es = [Fraction(1)] + [Fraction(0)] * len(values)
    for k, v in enumerate(values, start=1):
        for j in range(k, 0, -1):
            es[j] += v * es[j - 1]
    return es[1:]


def _eval_terms(terms, values):
    """Evaluate compiled terms at symbol values, with cached power tables."""
    powers = [[1, v] for v in values]
    total = 0
    for sparse, coeff in terms:
        acc = coeff
        for idx, e in sparse:
            table = powers[idx]
            while len(table) <= e:
                table.append(table[-1] * table[1])
            acc *= table[e]
        total += acc
    return total


def _sum_over_points(terms, names, points, d, spec):
    total = Fraction(0)
    for fp in points:
        values, euler = _point_values(fp, d, spec, names)
        num = _eval_terms(terms, values)
        if num:
            total += Fraction(num) / euler
    return total


def _reference_integral(
    spec: IntegrandSpec, specialization: Specialization, h4_rule: bool = True
) -> Fraction:
    """The integral from the symbolic integrand, evaluated at every fixed point."""
    rules = TruncationRules(degree_cap=spec.dimension, nilpotent=h4_rule)
    names, terms = _compile_terms(build_integrand(spec, rules))
    return _sum_over_points(terms, names, enumerate_fixed_points(spec.i), spec.d, specialization)


# -- the count ----------------------------------------------------------------------


def _run_all_integrals(delta, d, mode, specialization, h4_rule, jobs, retries, seed):
    """All integrals i = 0..delta under one specialization, resampling on
    a non-generic draw (the whole run moves to the fresh specialization).

    The degree cap is pinned to the dimension 3+2i of each Hilbert scheme:
    equivariant representatives above the dimension would push forward to
    nonconstant polynomials in the torus parameters.  Only the H^4 rule is
    a free toggle.
    """
    attempt = 0
    spec_used = specialization
    while True:
        try:
            results = []
            for i in range(delta + 1):
                ispec = IntegrandSpec(i=i, delta=delta, d=d, mode=mode)
                results.append(integrate(ispec, spec_used, h4_rule=h4_rule, jobs=jobs))
            return results, spec_used
        except NonGenericSpecialization:
            attempt += 1
            if attempt > retries:
                raise
            spec_used = Specialization.from_seed(seed * 1000003 + attempt)


class NodalCount(NamedTuple):
    """A count and the specialization that produced it, after any resampling."""

    value: int
    specialization: Specialization


def nodal_count(
    delta: int,
    d: int,
    mode: str = P3,
    *,
    specialization: Specialization | None = None,
    seed: int = 0,
    verify: bool = False,
    jobs: int = 1,
    h4_rule: bool = True,
    retries: int = DEFAULT_RETRIES,
) -> NodalCount:
    """``count_nodal`` together with the specialization actually used."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    spec0 = specialization if specialization is not None else Specialization.default()
    results, spec_used = _run_all_integrals(delta, d, mode, spec0, h4_rule, jobs, retries, seed)
    if verify:
        spec1 = Specialization.from_seed(seed * 7919 + 1)
        if spec1.values == spec0.values:
            spec1 = Specialization.from_seed(seed * 7919 + 2)
        results1, _ = _run_all_integrals(delta, d, mode, spec1, h4_rule, jobs, retries, seed + 1)
        for r0, r1 in zip(results, results1):
            if r0.value != r1.value:
                raise ArithmeticError(
                    f"specialization disagreement at i={r0.i}: {r0.value} vs {r1.value}"
                )
    g = genus(d)
    coeffs = bps_coefficients(delta, g).a
    total = sum((a * r.value for a, r in zip(coeffs, results)), Fraction(0))
    if total.denominator != 1:
        raise ArithmeticError(f"convention or arithmetic fault: non-integer count {total}")
    return NodalCount(total.numerator, spec_used)


def count_nodal(delta: int, d: int, mode: str = P3, **options) -> int:
    """Number of delta-nodal plane curves of degree d meeting the incidence
    conditions (general lines in p3 mode; general points in a fixed plane in
    p2 mode).

    The keyword options are those of ``nodal_count``.  With ``verify`` on,
    every integral is recomputed under a second generic specialization and
    the two runs must agree exactly.  ``h4_rule`` toggles the H^4 = 0
    pruning of the symbolic representative; the count must not depend on it.
    """
    return nodal_count(delta, d, mode, **options).value


def default_jobs() -> int:
    return max(1, min(4, os.cpu_count() or 1))
