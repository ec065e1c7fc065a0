"""Residue-formula evaluation of the localized integrals and the node count.

The integral over the length-i relative Hilbert scheme is a sum over its
torus-fixed points: a coordinate plane V_k and one partition (a monomial
ideal) at each of the plane's three fixed points.  At such a point every
factor of the integrand (see ``integrand.py``) multiplies over the three
charts: c(T_rel)/e(T_rel) over the Hilbert tangent weights, and
c_i(E (x) xi)/c(E (x) xi) over the tautological cell weights.  Only the
incidence factor, the Segre coefficient, the power of H and the
Grassmannian Euler factor depend on the plane alone.

So the integrand is never built.  For each chart (V_k, P_m) the evaluator
sums, over partitions mu of each size n, the local factor

    prod_{hilb w} (1 + eps w) / w  *  prod_{cells c} (xi + eps w_c) / (1 + xi + eps w_c)

as a bivariate series in xi and a variable eps that counts cohomological
degree; the series for one partition size is stored as an integer
polynomial over one common denominator.  The sum over tripartitions of size
i is then the q^i coefficient of the product of the plane's three chart
series, q counting partition size.  Cohomological degree exactly
3 + 2i, the dimension, makes every coefficient the integral for i reads lie
on the line (xi-degree) + (eps-degree) = delta + 2i: lower degrees integrate
to zero and higher ones are cut by the degree cap.  The one at xi-degree x
is weighted by an integer (incidence terms times Segre coefficients) and
H^p, p = 3 + x - delta, x <= delta since H^4 = 0 (see ``_readout_terms``),
divided by the Grassmannian Euler factor and summed over the planes.  H^p
is lifted to a class that restricts to 0 on all but 4 - min(p, 3) of the
planes, so each plane reads only some of the lines; the fixed-plane mode
(p2) reads H^3 on the line x = delta, so one plane (``_plane_units``).

The chart series do not depend on i, only their truncation does, so one
``integrate`` call evaluates a whole count: for the largest i, size, it
builds the three chart series of a plane for sizes 0..size once, sums the
products of the first two charts' size-a and size-b entries with a + b = s
into one grid W[s] over one denominator, and reads every integral
i' <= size off those grids.  With top = delta + 2*size, an entry of size
n is kept up to total degree top - (size - n), since the other charts
bring at least size - n.  The size-size entries are kept on the line of
total degree top alone: Z1[size] and Z2[size] enter only W[size], and
W[size] and Z3[size] only the integral for i = size, each beside a size-0
entry, which is 1, so nothing off that line is read.  Their partitions,
the most of any size, still need whole cell products, but their chern
factors, the pair products summed into W[size] and their shears are
formed on the line alone.

Only the cell weights and the readout weights depend on the degree d, so
one call also evaluates every sample degree of a node polynomial: the
tangent values, chern factors and chart series are computed once, at the
first degree d0.  The O(d) fiber weight adds (d - d0) f_m to every cell
weight of the chart at P_m, one slope per chart (zero at P_0), and a cell
weight enters the series only through xi + eps w, so the series at d is
the one at d0 under xi -> xi + (d - d0) f_m eps (see ``_shear``).  Which
degrees are sheared and which are interpolated is decided once per call,
in ``integrate``.

All arithmetic is exact.  The torus values are scaled to integers first;
every contribution is homogeneous of degree zero in them, so the scale
changes nothing.  Each call evaluates the tangent weights of the charts
it reads once, before any plane unit runs: all twelve in p3 from delta = 3
on, the fixed plane's three in p2.  A vanishing one raises
``NonGenericSpecialization``, and a count moves on to another
specialization only if the caller gave none (see ``nodal_counts``).  Planes
are independent work units, each given only its own three charts, and the
optional process pool evaluates the p3 units in parallel when the call's
work clears a fixed bound (see ``integrate``); exact sums make any order
give the identical result.

The full count for (delta, d) is the linear combination of the integrals
for i = 0..delta with the unitriangular-inverse weights, summed as
fractions; the combination is always an integer and that is asserted,
never rounded.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import comb, lcm, prod
from operator import mul
from typing import NamedTuple

from .integrand import P3, IntegrandSpec, bps_coefficients, genus, incidence_terms, segre_coeffs
from .partitions import fixed_point_count, partitions, plane_points
from .weights import (
    NonGenericSpecialization,
    Specialization,
    chart_weights,
    h_weight,
    hilb_tangent_exponents,
    taut_cell_weight,
)

@dataclass(frozen=True)
class IntegralResult:
    """What ``integrate`` returns.  ``by_degree[d][i]`` is the integral over
    the length-i relative Hilbert scheme at degree d.  ``fixed_point_count``
    is the number of torus-fixed points of the length-i Hilbert scheme at
    the largest i, over all four planes, though a call evaluates only the
    planes that read some line (see ``_plane_units``): fewer than four in p3
    for delta <= 2, one in p2."""

    by_degree: dict[int, tuple[Fraction, ...]]
    fixed_point_count: int


# -- the factorized evaluator ---------------------------------------------------
#
# A grid is a truncated bivariate polynomial: grid[x][e] is the coefficient
# of xi^x eps^e.  Entries outside the band of total degrees a grid was built
# for, 0..bound or, for the top partition size, the one line top..top, are
# zero.


def _coefficient(p, q_rev, x: int, e: int) -> int:
    """The xi^x eps^e coefficient of p*q, given q with every row reversed."""
    cols = len(q_rev[0])
    total = 0
    for x2 in range(max(0, x - len(p) + 1), min(x, len(q_rev) - 1) + 1):
        total += sum(map(mul, p[x - x2][: e + 1], q_rev[x2][cols - 1 - e :]))
    return total


def _product(p, q, low: int, top: int):
    """p*q on the grid of p, kept to total degrees low..top."""
    q_rev = [row[::-1] for row in q]
    return [
        [_coefficient(p, q_rev, x, e) if low <= x + e <= top else 0 for e in range(len(p[0]))]
        for x in range(len(p))
    ]


def _add_times_eps_poly(out, g, c, low: int, top: int) -> None:
    """Add g * c, for a polynomial c in eps alone, into ``out`` over total
    degrees low..top."""
    n, c_rev = len(c) - 1, c[::-1]
    for x, (row, grow) in enumerate(zip(out, g)):
        for e in range(max(0, low - x), min(len(row), top - x + 1)):
            row[e] += sum(map(mul, grow[max(0, e - n) : e + 1], c_rev[max(0, n - e) :]))


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


def _tangent_exponents(top_size: int) -> dict:
    """Each partition of size 1..top_size with its Hilbert tangent weights as
    exponent pairs (a, b), standing for t1^a t2^b at any chart."""
    return {
        mu: hilb_tangent_exponents(mu) for n in range(1, top_size + 1) for mu in partitions(n)
    }


def _chart_tangents(plane: int, point: int, exponents: dict, value) -> dict:
    """Hilbert tangent weight values of every partition at the chart
    (V_plane, P_point); raises if one of them vanishes."""
    tangents = {}
    v1, v2 = map(value, chart_weights(plane, point))
    for mu, pairs in exponents.items():
        ws = [a * v1 + b * v2 for a, b in pairs]
        if 0 in ws:
            raise NonGenericSpecialization("non-generic specialization")
        tangents[mu] = ws
    return tangents


def _chern_factors(tangents: dict, size: int) -> list:
    """Per partition size n = 1..size: one common denominator for the
    partitions of n, and each partition's factor prod (1 + eps w) / w over
    it, as an integer polynomial in eps.  These do not depend on d."""
    factors = [None]
    for n in range(1, size + 1):
        mus = list(partitions(n))
        denominator = lcm(*(prod(tangents[mu]) for mu in mus))
        cherns = {}
        for mu in mus:
            chern = [denominator // prod(tangents[mu])]
            for v in tangents[mu]:
                chern = [c + v * lower for c, lower in zip(chern + [0], [0] + chern)]
            cherns[mu] = chern
        factors.append((denominator, cherns))
    return factors


def _chart_series(weights: dict, factors: list, rows: int, cols: int, top: int):
    """(numerator grid, denominator) of the chart series for sizes 0..size,
    given the evaluated tautological weight of every cell.

    The size-n entry sums the local factor over the partitions of n.  The
    other two charts bring total degree at least size - n, so it is kept
    only up to total degree top - (size - n).  The size-size entry meets
    only the size-0 entries of the other charts, which are 1, so only its
    line of total degree top is ever read: each of its partitions still
    needs its whole cell product, but its chern factor is applied on that
    line alone, one dot product per row.
    """
    size = len(factors) - 1
    one = [[0] * cols for _ in range(rows)]
    one[0][0] = 1
    cell_products = {(): one}
    series = [(one, 1)]
    for n in range(1, size + 1):
        bound = top - (size - n)
        low = top if n == size else 0
        denominator, cherns = factors[n]
        numerator = [[0] * cols for _ in range(rows)]
        for mu, chern in cherns.items():
            # mu is its parent with the last cell of its last row added
            a, b = mu[-1] - 1, len(mu) - 1
            parent = mu[:-1] + ((a,) if a else ())
            cell_products[mu] = _times_cell(cell_products[parent], weights[a, b], bound)
            _add_times_eps_poly(numerator, cell_products[mu], chern, low, bound)
        series.append((numerator, denominator))
    return series


def _sheared(g, c: int, rows: int, low: int, bound: int):
    """g(xi + c eps, eps), kept to its first ``rows`` xi-rows, for g kept to
    total degrees low..bound.

    Its xi^k eps^e coefficient is sum_j binom(k + j, j) c^j g[k + j][e - j].
    Total degree is kept, so the output lies in the band of g, but xi-degree
    moves into eps-degree: every output row reads the rows of g below it, up
    to ``bound``.  On a band of one line, low = bound, each row is one sum.
    """
    height = min(len(g) - 1, bound)
    out = []
    for k in range(rows):
        row = g[k][:]
        # row k + j of g is zero outside eps-degrees low - k - j..bound - k - j
        end = min(len(row), bound - k + 1)
        for j in range(1, height - k + 1):
            coef = comb(k + j, j) * c**j
            start = max(j, low - k)
            row[start:end] = [a + coef * v for a, v in zip(row[start:end], g[k + j][start - j :])]
        out.append(row)
    return out


def _shear(series, c: int, rows: int, top: int):
    """The chart series whose cell weights are all c more, from ``series``
    (see ``_chart_series``), kept to its first ``rows`` xi-rows.

    A cell weight enters the cell factor (xi + eps w) / (1 + xi + eps w)
    only through xi + eps w, and the chern factors are in eps alone, so
    adding c to every cell weight is the substitution xi -> xi + c eps.
    The size-0 entry, 1, is never sheared.  The shear keeps total degree,
    so the size-size entry, kept on the line of total degree top alone,
    shears to that line: its xi^k coefficient there is
    sum_{x >= k} binom(x, k) c^(x - k) times the xi^x coefficient.
    """
    size = len(series) - 1
    return [
        (
            _sheared(grid, c, rows, top if n == size else 0, top - (size - n))
            if n and c
            else grid[:rows],
            denominator,
        )
        for n, (grid, denominator) in enumerate(series)
    ]


def _readout_terms(spec: IntegrandSpec) -> dict[int, int]:
    """What the integrals read: an integer weight per xi-degree x, taken with
    H^(3 + x - delta).  The integral for i reads the x <= delta + 2i.  This
    depends on d but not on the plane, and its keys not on d either.

    The incidence term c_s H^(3-s) xi^s and the Segre term rho_t H^t read
    the xi^(delta+t-s) coefficient of the chart product; H^4 = 0 keeps
    t <= s, so x <= delta.  p2's one incidence term, H^3, gives {delta: 1}.
    """
    terms: dict[int, int] = {}
    for s, _, c in incidence_terms(spec):
        for t, r in enumerate(segre_coeffs(spec.d, s)):
            x = spec.delta + t - s
            if x >= 0:
                terms[x] = terms.get(x, 0) + c * r
    return terms


def _pair_sums(first, second, top: int) -> list:
    """W[s] for s = 0..size, the sum of the products Z1[a]*Z2[s - a] of the
    first two chart series, each as (numerator grid, denominator).

    The products with a + b = s share the truncation top - (size - s), so
    they are summed over one denominator into one grid.  The size-0 entry
    of every series is exactly 1 over 1, so a product with it is a copy.
    W[size] meets only Z3[0], so, like the size-size chart entries, it is
    formed on the line of total degree top alone.
    """
    size = len(first) - 1
    sums = []
    for s in range(size + 1):
        parts = [(first[a], second[s - a]) for a in range(s + 1)]
        denominator = lcm(*(d1 * d2 for (_, d1), (_, d2) in parts))
        grids, scales = [], []
        low = top if s == size else 0
        for a, ((g1, d1), (g2, d2)) in enumerate(parts):
            if a and s - a:
                grids.append(_product(g1, g2, low, top - (size - s)))
            else:  # a product with the size-0 entry
                grids.append(g1 if a else g2)
            scales.append(denominator // (d1 * d2))
        grid = [[sum(map(mul, column, scales)) for column in zip(*xrows)] for xrows in zip(*grids)]
        sums.append((grid, denominator))
    return sums


def _read_lines(charts, xs, delta: int, top: int) -> tuple[dict, int]:
    """The xi^x eps^e coefficient, e = delta + 2i - x, of the product of the
    plane's three chart series, each as (numerator, denominator), for every
    i = 0..size and every x of ``xs`` with e >= 0: {(i, x): numerator} and
    one denominator, the lcm over every pair of sizes, which does not
    depend on d.

    W[s] (see ``_pair_sums``) feeds every i >= s through the line of
    W[s]*Z3[i - s]; a readout of W[s]*Z3[0] is a lookup.  So W[size] and
    Z3[size] are read only at i = size, on the line of total degree top.
    """
    first, second, third = charts
    sums = _pair_sums(first, second, top)
    thirds = [[row[::-1] for row in grid] for grid, _ in third]
    size = len(third) - 1
    common = lcm(*(d12 * d3 for s, (_, d12) in enumerate(sums) for _, d3 in third[: size + 1 - s]))
    out = {}
    for i in range(size + 1):
        scales = [common // (sums[s][1] * third[i - s][1]) for s in range(i + 1)]
        for x in xs:
            e = delta + 2 * i - x
            if e >= 0:
                out[i, x] = sum(
                    scale * (_coefficient(grid, thirds[i - s], x, e) if i - s else grid[x][e])
                    for s, ((grid, _), scale) in enumerate(zip(sums, scales))
                )
    return out, common


def _interpolated(direct: list[dict], nodes: list[int], t: int) -> dict:
    """The plane sums at t, from their values ``direct`` at ``nodes``, each
    {(i, x): numerator} (see ``integrate``), by exact Lagrange interpolation
    in t: p(t) = sum_k b_k p(nodes[k]) / D, with one basis of integers b_k
    over one D shared by every numerator.

    Each numerator is an integer polynomial in t, so every division is
    exact; one that is not raises ArithmeticError.
    """
    numerators, denominators = [], []
    for k, node in enumerate(nodes):
        others = nodes[:k] + nodes[k + 1 :]
        numerators.append(prod(t - other for other in others))
        denominators.append(prod(node - other for other in others))
    common = lcm(*denominators)
    basis = [n * (common // d) for n, d in zip(numerators, denominators)]
    out = {}
    for key in direct[0]:
        out[key], rest = divmod(sum(b * sums[key] for b, sums in zip(basis, direct)), common)
        if rest:
            raise ArithmeticError(f"inexact interpolation of the plane sum (i, x) = {key}")
    return out


# the plane whose fixed points carry a fixed-plane (p2) integral; it holds
# P_0, whose chart has slope 0, and it comes first in the lift order
_FIXED_PLANE = 1


def _plane_units(spec: IntegrandSpec, specialization: Specialization, xs: list, degrees) -> list:
    """The ``_plane_integrals`` arguments of the planes a call evaluates,
    prepared once per call from the xi-degrees ``xs`` its readout reads and
    its direct degrees (see ``integrate``).  The keys of ``lifted`` are the
    xi-degrees x the plane reads, ``lifted[x]`` its weight of the line x.

    The line x is read with H^p, p = 3 + x - delta, lifted to
    prod_{j in J} (H - h_j), J the last min(p, 3) planes of the lift order:
    _FIXED_PLANE, then the others.  For p <= 3 the two differ by terms
    H^q, q < p, with coefficients in the h_j, and H^q times the line's class
    has degree below the dimension, so it integrates to zero:
    sum_k h_k^q L_k(i, x) / e_k = 0.  The lift restricts to 0 at the planes
    of J, so plane k reads the line only if k is not in J, weighed by the
    lift at h_k over its Grassmannian Euler factor
    e_k = prod_{j != k} (h_k - h_j): the tangent weights lambda_k / lambda_j
    at V_k, in the hyperplane weights the lift is written in.  The first
    plane of the order reads x <= delta (and x > delta, with weight e_k:
    see ``nodal_counts``), the next x <= delta - 1, the next
    x <= delta - 2 and the last x = delta - 3 alone; a plane left with no
    line (delta <= 2) is not evaluated.  In p2 the readout {delta: 1} reads
    one line, at p = 3 (H^3 is the class of a point): the lift's one-plane
    case, the fixed plane alone, e_k / e_k = 1.

    Evaluating the tangent weights of the units' charts here is the one
    genericity check: a non-generic draw raises before any cell product and
    before a pool starts.  A cell weight at d is its value at the first
    degree d0 plus (d - d0) times one slope per chart (zero at P_0).
    """
    # integer torus values: the contribution is homogeneous of degree zero
    scale = lcm(*(v.denominator for v in specialization.values))
    scaled = [(v * scale).numerator for v in specialization.values]

    def value(char) -> int:
        return sum(map(mul, char, scaled))

    h = [value(h_weight(k)) for k in range(4)]
    # the lift order: J is its last min(p, 3) planes
    order = [_FIXED_PLANE] + [k for k in (0, 2, 3, 1) if k != _FIXED_PLANE]
    exponents = _tangent_exponents(spec.i)
    cells = [(a, b) for a in range(spec.i) for b in range(spec.i // (a + 1))]
    d0 = degrees[0]
    units = []
    for k in order:
        # nonzero: each factor is a difference of two of the pairwise distinct values
        euler = prod(h[k] - h[j] for j in range(4) if j != k)
        lifted = {}
        for x in xs:
            p = 3 + x - spec.delta
            lift = order[4 - min(p, 3) :]  # J
            if k not in lift:
                lifted[x] = prod(h[k] - h[j] for j in lift)
        if not lifted:
            continue
        charts = []
        for m in plane_points(k):
            tangents = _chart_tangents(k, m, exponents, value)
            weights = {cell: value(taut_cell_weight(k, m, cell, d0)) for cell in cells}
            w0, w1 = (value(taut_cell_weight(k, m, (0, 0), d)) for d in (d0, d0 + 1))
            charts.append((tangents, weights, [(d - d0) * (w1 - w0) for d in degrees]))
        units.append((charts, euler, spec.delta, spec.i, lifted))
    return units


def _plane_integrals(charts: list, euler: int, delta: int, size: int, lifted: dict) -> tuple:
    """One plane's lifted lines at the direct degrees of a call, given its
    three charts as (tangent values, cell weights at d0, shift per direct
    degree), its Grassmannian Euler factor, the largest i and each read
    line's lift weight (see ``_plane_units``): one denominator, free of d,
    Euler factor included, and per direct degree {(i, x): numerator} of
    lifted[x] L(i, x) for every i <= size and x <= delta + 2i read.

    The chern factors and chart series are computed once, the series at d0,
    and sheared to each direct degree by ``_shear``.  A chart that is
    sheared keeps every xi-row up to the top total degree, since the shear
    moves xi-degree into eps-degree; the others keep only the rows that are
    read.
    """
    top = delta + 2 * size
    rows = max(lifted) + 1
    cols = top - min(lifted) + 1
    bases = []
    for tangents, weights, shifts in charts:
        factors = _chern_factors(tangents, size)
        series = _chart_series(weights, factors, top + 1 if any(shifts) else rows, cols, top)
        bases.append((series, shifts))
    numerators = []
    for j in range(len(charts[0][2])):
        sheared = [_shear(series, shifts[j], rows, top) for series, shifts in bases]
        read, common = _read_lines(sheared, lifted, delta, top)
        numerators.append({(i, x): lifted[x] * n for (i, x), n in read.items()})
    return common * euler, numerators


# the work estimate of ``integrate`` (fixed points at spec.i times direct
# degrees) from which a call with jobs > 1 starts a process pool.  Measured
# interleaved on 2 cores, the pool lost at the p3 delta = 3 polynomial (968),
# was within noise at count(6,4) (884), count(7,5) (1,716) and the
# delta = 4 polynomial (2,652), and saved 30-40% from count(8,5) (3,240) on.
_POOL_WORK = 2000


def integrate(
    spec: IntegrandSpec,
    specialization: Specialization,
    *,
    jobs: int = 1,
    degrees=None,
) -> IntegralResult:
    """Evaluate the localized integrals for i = 0..spec.i at every degree of
    ``degrees`` (default: spec.d alone), at one fixed generic specialization,
    all from one set of chart series per plane.

    ``by_degree[d][i]`` is the integral over the length-i relative Hilbert
    scheme at degree d, and ``degrees`` must include spec.d.
    ``fixed_point_count`` counts the fixed points at spec.i over all four
    planes.  One call evaluates everything a count, or the samples of a
    node polynomial, need.  The plane-independent work is done once
    (``_plane_units``), which gives one unit per plane evaluated: the planes
    that read some line under the lifted readout, all four in p3 from
    delta = 3 on, the fixed plane alone in p2.

    The degrees, decided here once per call.  The units shear their chart
    series, built at the first degree d0, to the direct degrees alone
    (``_plane_integrals``).  The shear brings t = d - d0 in only with eps,
    so a line coefficient xi^x eps^e is an integer polynomial in t of degree
    at most e over a denominator free of d, and so is the numerator of the
    plane sum M(i, x, d) = sum_k lift_k(x) L_k(i, x) / e_k over one
    denominator per call (M is the integral of H^p times the line's class,
    free of the specialization).  With E one more than the largest e read
    (min(3*delta + 1, 2*delta + 4) in p3 and 2*delta + 1 in p2, at
    i = delta), the first E degrees and the last are direct; the plane sums
    at the others are interpolated in t from the first E (``_interpolated``),
    and the last must equal that interpolant too, or this raises
    ArithmeticError.  The readout weights (``_readout_terms``, the lines
    x <= delta alone) are applied to the plane sums last, once per degree.

    Raises NonGenericSpecialization, before any plane unit runs, if a
    tangent weight at some size <= spec.i vanishes at a chart of a unit.
    With ``jobs`` > 1, more than one unit (so in p3 alone) and an estimate
    of the work, the fixed points at spec.i times the direct degrees, of at
    least ``_POOL_WORK``, the units go to one process pool with at most one
    worker per unit; otherwise, p2 always, they run serially.  The estimate
    depends on the spec and the degrees alone, so whether a pool starts is
    the same on every run.
    """
    degrees = tuple(dict.fromkeys((spec.d,) if degrees is None else degrees))
    if spec.d not in degrees:
        raise ValueError(f"degrees {degrees} do not include spec.d = {spec.d}")
    readouts = {d: _readout_terms(replace(spec, d=d)) for d in degrees}
    xs = sorted(readouts[spec.d])
    e = 1 + spec.delta + 2 * spec.i - xs[0]
    direct = degrees[:e] + degrees[e:][-1:]
    points = fixed_point_count(spec.i)
    units = _plane_units(spec, specialization, xs, direct)
    args = tuple(zip(*units))
    if jobs <= 1 or len(units) == 1 or points * len(direct) < _POOL_WORK:
        parts = list(map(_plane_integrals, *args))
    else:
        # looked up on the module, so that a wrapper bound there (the
        # benchmark's tracer binds one) is the pool that runs; a worker
        # beyond the plane units would only be forked to idle
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=min(jobs, len(units))) as pool:
            parts = list(pool.map(_plane_integrals, *args))
    # the numerators of M(i, x, d) at the direct degrees, over one denominator
    denominator = lcm(*(den for den, _ in parts))
    sums = [{} for _ in direct]
    for den, numerators in parts:
        scale = denominator // den
        for total, lines in zip(sums, numerators):
            for key, n in lines.items():
                total[key] = total.get(key, 0) + n * scale
    at = dict(zip(direct, sums))
    nodes = [d - direct[0] for d in direct[:e]]
    for d in degrees[e:]:
        interpolated = _interpolated(sums[:e], nodes, d - direct[0])
        if at.setdefault(d, interpolated) != interpolated:
            raise ArithmeticError(f"a plane sum is not of degree below {e} in d")
    by_degree = {
        d: tuple(
            Fraction(sum(readouts[d][x] * n for (j, x), n in at[d].items() if j == i), denominator)
            for i in range(spec.i + 1)
        )
        for d in degrees
    }
    return IntegralResult(by_degree=by_degree, fixed_point_count=points)


# -- the count ----------------------------------------------------------------------

# how many seeded draws a count without a given specialization may try
_DRAWS = 8


def _draws(seed: int):
    """The draws from_seed(seed*1000003 + k), k = 1.._DRAWS, built as tried."""
    for k in range(1, _DRAWS + 1):
        yield Specialization.from_seed(seed * 1000003 + k)


def _first_generic(spec: IntegrandSpec, candidates, **options):
    """``integrate`` under each candidate specialization in turn, until one is
    generic: (the result, that specialization).

    Raises NonGenericSpecialization naming every candidate tried if none is.
    """
    tried = []
    for specialization in candidates:
        try:
            return integrate(spec, specialization, **options), specialization
        except NonGenericSpecialization:
            tried.append(",".join(specialization.describe()))
    raise NonGenericSpecialization(
        f"not generic for delta={spec.delta}: a Hilbert tangent weight vanishes"
        f" under {'; '.join(tried)}"
    )


class Counts(NamedTuple):
    """The counts at each degree, in order, and the specialization used."""

    values: tuple[int, ...]
    specialization: Specialization


def nodal_counts(
    delta: int,
    ds,
    mode: str = P3,
    *,
    specialization: Specialization | None = None,
    seed: int = 0,
    verify: bool = False,
    jobs: int = 1,
    h4_rule: bool = True,
) -> Counts:
    """The counts for ``delta`` at each degree of ``ds``, all from one
    ``integrate`` call under one specialization.

    A given ``specialization`` is used as given: if a tangent weight
    vanishes under it, this raises NonGenericSpecialization naming its
    values.  Without one, the default is tried first and then the seeded
    draws of ``seed``, until one is generic.  With ``verify`` on, every
    integral at every degree is recomputed under the first generic seeded
    draw that differs from the specialization used, and the two runs must
    agree exactly.  With ``h4_rule`` off, in both modes, the lines x > delta
    that H^4 = 0 drops from every readout (integrals of classes of degree
    below 2i over the compact fibre Hilb^i(V_k), so 0) are built under the
    specialization used, at every degree, on the fixed plane that the lift
    reads them on alone (``_plane_units``); one not 0 raises ArithmeticError.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    ds = tuple(ds)
    if not ds:
        raise ValueError("need at least one degree")
    spec = IntegrandSpec(i=delta, delta=delta, d=ds[0], mode=mode)
    options = dict(jobs=jobs, degrees=ds)
    if specialization is None:
        candidates = chain((Specialization.default(),), _draws(seed))
    else:
        candidates = (specialization,)
    result, used = _first_generic(spec, candidates, **options)
    if verify:
        check, _ = _first_generic(spec, (s for s in _draws(seed) if s != used), **options)
        for d in ds:
            for i, (v0, v1) in enumerate(zip(result.by_degree[d], check.by_degree[d])):
                if v0 != v1:
                    raise ArithmeticError(
                        f"specialization disagreement at d={d}, i={i}: {v0} vs {v1}"
                    )
    if not h4_rule:
        for unit in _plane_units(spec, used, range(delta + 1, 3 * delta + 1), ds):
            _, numerators = _plane_integrals(*unit)
            nonzero = [(d, key) for d, at in zip(ds, numerators) for key, n in at.items() if n]
            if nonzero:
                raise ArithmeticError(f"a line past H^3, (d, (i, x)) = {nonzero[0]}, is not 0")
    counts = []
    for d in ds:
        count = sum(map(mul, bps_coefficients(delta, genus(d)), result.by_degree[d]))
        if count.denominator != 1:
            raise ArithmeticError(f"convention or arithmetic fault: non-integer count {count}")
        counts.append(count.numerator)
    return Counts(tuple(counts), used)


def count_nodal(delta: int, d: int, mode: str = P3, **options) -> int:
    """The degree of the paper's class gamma against the incidence
    conditions (general lines in p3 mode; general points in a fixed plane in
    p2 mode) for delta nodes and degree d.

    Under the paper's ampleness assumption that is the number of delta-nodal
    plane curves of degree d meeting them; in p2 it is for d >= delta/2 + 1
    (Fomin-Mikhalkin, arXiv:0906.3828).  Outside that range the value is
    still exact but need not count curves: count_nodal(4, 2) is -5120.

    The keyword options are those of ``nodal_counts``.
    """
    return nodal_counts(delta, (d,), mode, **options).values[0]


def default_jobs() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def __getattr__(name):
    # PEP 562: the process pool and the symbolic reference are imported on
    # first use, so importing the count path loads neither
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    if name in ("build_integrand", "_compile_terms", "_sum_over_points"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
