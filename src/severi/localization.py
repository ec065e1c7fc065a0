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
to zero and higher ones are cut by the degree cap.  Those few coefficients
are weighted by the incidence term, the Segre coefficient rho_t and the
power of H (with H^4 = 0 only under the H^4 rule), divided by the
Grassmannian Euler factor and summed over the four planes.

The chart series do not depend on i, only their truncation does, so one
``integrate`` call evaluates a whole count: for the largest i it builds the
three chart series of a plane for sizes 0..i once, forms each product of
the first two charts' size-a and size-b entries once, sums those with
a + b = s into one grid over one denominator, and reads every integral
i' <= i off those grids with its own integer readout weights.  Only the cell
weights and the readout weights depend on the degree d, so one call also
evaluates every sample degree of a node polynomial: the tangent checks,
chern factors and chart series are computed once, at the first degree d0.
The O(d) fiber weight adds (d - d0) f_m to every cell weight of the chart
at P_m, one slope per chart (zero at P_0), and a cell weight enters the
series only through xi + eps w, so the series at d is the one at d0 under
xi -> xi + (d - d0) f_m eps.  Only that shear, the pair products and the
readouts are redone per degree.  Nothing is kept between calls.

All arithmetic is exact.  The torus values are scaled to integers first;
every contribution is homogeneous of degree zero in them, so the scale
changes nothing.  A vanishing tangent weight raises
``NonGenericSpecialization``, and a count moves on to another specialization
only if the caller gave none (see ``nodal_counts``); every plane unit checks
the tangent weights of all twelve charts before it forms any series, so a
non-generic draw fails at once everywhere.  Planes are independent work
units and the optional process pool evaluates them in parallel; exact sums
make any order give the identical result.

The full count for (delta, d) is the linear combination of the integrals
for i = 0..delta with the unitriangular-inverse weights; the combination is
always an integer and that is asserted, never rounded.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, repeat
from math import comb, lcm, prod
from operator import mul
from typing import NamedTuple

from .integrand import P3, IntegrandSpec, bps_coefficients, genus, incidence_terms, segre_coeffs
from .partitions import partitions, plane_points
from .weights import (
    NonGenericSpecialization,
    Specialization,
    char_ratio,
    chart_weights,
    gr_tangent_weights,
    h_weight,
    hilb_tangent_weights,
    taut_cell_weight,
)

@dataclass(frozen=True)
class IntegralResult:
    value: Fraction
    values: tuple[Fraction, ...]
    by_degree: dict[int, tuple[Fraction, ...]]
    fixed_point_count: int


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


def _times_eps_poly(g, c, top: int):
    """g * c for a polynomial c in eps alone, truncated to total degree <= top."""
    c_rev = c[::-1]
    pad = [0] * (len(c) - 1)
    out = []
    for x, row in enumerate(g):
        padded = pad + row
        out.append(
            [
                sum(map(mul, padded[e : e + len(c)], c_rev)) if x + e <= top else 0
                for e in range(len(row))
            ]
        )
    return out


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
    exponent pairs (a, b), standing for t1^a t2^b at any chart.

    The weights are products of powers of the chart characters t1, t2, so
    evaluating them once at the independent characters lambda_0/lambda_1
    and lambda_0/lambda_2 reads the exponents off for every chart.
    """
    # t1^a t2^b is then the character (a + b, -a, -b, 0)
    t1, t2 = char_ratio(0, 1), char_ratio(0, 2)
    return {
        mu: [(-w[1], -w[2]) for w in hilb_tangent_weights(mu, t1, t2)]
        for n in range(1, top_size + 1)
        for mu in partitions(n)
    }


def _chart_tangents(plane: int, point: int, exponents: dict, value) -> dict:
    """Hilbert tangent weight values of every partition at the chart
    (V_plane, P_point); raises if one of them vanishes."""
    tangents = {}
    if not exponents:  # i = 0, as in every count of the calibration gate
        return tangents
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
    only up to total degree top - (size - n).
    """
    size = len(factors) - 1
    one = [[0] * cols for _ in range(rows)]
    one[0][0] = 1
    cell_products = {(): one}
    series = [(one, 1)]
    for n in range(1, size + 1):
        bound = top - (size - n)
        denominator, cherns = factors[n]
        numerator = [[0] * cols for _ in range(rows)]
        for mu, chern in cherns.items():
            # mu is its parent with the last cell of its last row added
            a, b = mu[-1] - 1, len(mu) - 1
            parent = mu[:-1] + ((a,) if a else ())
            cell_products[mu] = _times_cell(cell_products[parent], weights[a, b], bound)
            term = _times_eps_poly(cell_products[mu], chern, bound)
            for row, trow in zip(numerator, term):
                row[:] = map(sum, zip(row, trow))
        series.append((numerator, denominator))
    return series


def _sheared(g, c: int, rows: int, bound: int):
    """g(xi + c eps, eps), kept to its first ``rows`` xi-rows.

    Its xi^k eps^e coefficient is sum_j binom(k + j, j) c^j g[k + j][e - j].
    Total degree is kept, so entries of g above ``bound`` stay cut, but
    xi-degree moves into eps-degree: every output row reads the rows of g
    below it, up to ``bound``.
    """
    height = min(len(g) - 1, bound)
    out = []
    for k in range(rows):
        row = g[k][:]
        # row k + j of g is zero beyond eps-degree bound - k - j
        end = min(len(row), bound - k + 1)
        for j in range(1, height - k + 1):
            coef = comb(k + j, j) * c**j
            row[j:end] = [a + coef * v for a, v in zip(row[j:end], g[k + j])]
        out.append(row)
    return out


def _shear(series, c: int, rows: int, top: int):
    """The chart series whose cell weights are all c more, from ``series``
    (see ``_chart_series``), kept to its first ``rows`` xi-rows.

    A cell weight enters the cell factor (xi + eps w) / (1 + xi + eps w)
    only through xi + eps w, and the chern factors are in eps alone, so
    adding c to every cell weight is the substitution xi -> xi + c eps.
    The size-0 entry, 1, is never sheared.
    """
    size = len(series) - 1
    return [
        (_sheared(grid, c, rows, top - (size - n)) if n and c else grid[:rows], denominator)
        for n, (grid, denominator) in enumerate(series)
    ]


def _readout_terms(spec: IntegrandSpec, h4_rule: bool) -> list[tuple[dict, int]]:
    """Per i = 0..spec.i, what the integral reads: an integer coefficient
    for each (xi-degree, power of H), and one denominator for all of them.
    This depends on d but not on the plane.

    The incidence term c H^j xi^s and the Segre term rho_t H^t read the
    xi^(delta+t-s) coefficient of the chart product, in eps-degree
    3 + 2i - j - t, so that xi- plus eps-degree is delta + 2i.
    """
    rho = segre_coeffs(spec.d, 3 if h4_rule else spec.dimension)
    top = spec.delta + 2 * spec.i
    terms: dict[tuple[int, int], Fraction] = {}
    for s, j, c in incidence_terms(spec):
        for t, r in enumerate(rho):
            x = spec.delta + t - s
            if (h4_rule and j + t > 3) or not 0 <= x <= top:
                continue
            terms[x, j + t] = terms.get((x, j + t), 0) + c * r
    # x <= delta + 2i already bounds t by 2i + s <= 3 + 2i, the dimension
    out = []
    for i in range(spec.i + 1):
        kept = {key: c for key, c in terms.items() if key[0] <= spec.delta + 2 * i}
        denominator = lcm(*(Fraction(c).denominator for c in kept.values()))
        out.append(({key: int(c * denominator) for key, c in kept.items()}, denominator))
    return out


def _read_integrals(charts, readout: list, h: int, delta: int, top: int) -> list[tuple[int, int]]:
    """The plane's sums over its fixed points for i = 0..size at one degree,
    before the Grassmannian Euler factor, read off its three chart series,
    each as (numerator, denominator).

    The products Z1[a]*Z2[b] with a + b = s share the truncation
    top - (size - s), so they are summed over one denominator into one grid
    W[s], which feeds every i >= s through the line of W[s]*Z3[i - s].  The
    size-0 entry of every series is exactly 1 over 1, so a product with it
    is a copy, and a readout of W[s]*Z3[0] a lookup.
    """
    size = len(readout) - 1
    first, second, third = charts
    sums = []
    for s in range(size + 1):
        parts = [(first[a], second[s - a]) for a in range(s + 1)]
        denominator = lcm(*(d1 * d2 for (_, d1), (_, d2) in parts))
        grids, scales = [], []
        for a, ((g1, d1), (g2, d2)) in enumerate(parts):
            if a and s - a:
                grids.append(_product(g1, g2, top - (size - s)))
            else:  # a product with the size-0 entry
                grids.append(g1 if a else g2)
            scales.append(denominator // (d1 * d2))
        grid = [[sum(map(mul, column, scales)) for column in zip(*xrows)] for xrows in zip(*grids)]
        sums.append((grid, denominator))
    thirds = [[row[::-1] for row in grid] for grid, _ in third]
    values = []
    for i, (terms, denominator) in enumerate(readout):
        read: dict[int, int] = {}
        for (x, power), c in terms.items():
            read[x] = read.get(x, 0) + c * h**power
        lines = []
        for s in range(i + 1):
            (grid, d12), c = sums[s], i - s
            if c:
                num = sum(
                    w * _coefficient(grid, thirds[c], x, delta + 2 * i - x) for x, w in read.items()
                )
            else:
                num = sum(w * grid[x][delta + 2 * i - x] for x, w in read.items())
            lines.append((num, d12 * third[c][1]))
        common = lcm(*(d for _, d in lines))
        values.append((sum(num * (common // d) for num, d in lines), common * denominator))
    return values


def _plane_integrals(
    plane: int, spec: IntegrandSpec, specialization: Specialization, readouts: list
) -> list[list[Fraction]]:
    """Contributions of the fixed points on the plane V_plane to the
    integrals for i = 0..spec.i, at each degree d of ``readouts``, a list of
    (d, ``_readout_terms`` at d).

    The tangent checks, the chern factors and every chart series are
    computed once per call, the series at the first degree d0.  A cell
    weight at d is its value at d0 plus (d - d0) times one slope per chart
    (zero at P_0), so the series at d is the one at d0 sheared by
    ``_shear``.  A chart that is sheared keeps every xi-row up to the top
    total degree, since the shear moves xi-degree into eps-degree; the
    others keep only the rows that are read.
    """
    # integer torus values: the contribution is homogeneous of degree zero
    scale = lcm(*(v.denominator for v in specialization.values))
    scaled = [(v * scale).numerator for v in specialization.values]

    def value(char) -> int:
        return sum(map(mul, char, scaled))

    gr = [value(w) for w in gr_tangent_weights(plane)]
    if 0 in gr:
        raise NonGenericSpecialization("non-generic specialization")
    # every chart of every plane, so that a non-generic draw fails every
    # plane unit before any of them does real work
    size = spec.i
    exponents = _tangent_exponents(size)
    tangents = {
        (k, m): _chart_tangents(k, m, exponents, value) for k in range(4) for m in plane_points(k)
    }
    cells = [(a, b) for a in range(size) for b in range(size // (a + 1))]
    h = value(h_weight(plane))
    euler = prod(gr)
    top = spec.delta + 2 * size
    reads = [
        (i, x) for _, readout in readouts for i, (terms, _) in enumerate(readout) for x, _ in terms
    ]
    rows = max(x for _, x in reads) + 1
    cols = max(spec.delta + 2 * i - x for i, x in reads) + 1
    d0 = readouts[0][0]
    bases = []
    for m in plane_points(plane):
        weights = {cell: value(taut_cell_weight(plane, m, cell, d0)) for cell in cells}
        w0, w1 = (value(taut_cell_weight(plane, m, (0, 0), d)) for d in (d0, d0 + 1))
        shifts = [(d - d0) * (w1 - w0) for d, _ in readouts]
        factors = _chern_factors(tangents[plane, m], size)
        series = _chart_series(weights, factors, top + 1 if any(shifts) else rows, cols, top)
        bases.append((series, shifts))
    out = []
    for j, (_, readout) in enumerate(readouts):
        charts = [_shear(series, shifts[j], rows, top) for series, shifts in bases]
        integrals = _read_integrals(charts, readout, h, spec.delta, top)
        out.append([Fraction(num, denominator * euler) for num, denominator in integrals])
    return out


def integrate(
    spec: IntegrandSpec,
    specialization: Specialization,
    *,
    h4_rule: bool = True,
    jobs: int = 1,
    degrees=None,
) -> IntegralResult:
    """Evaluate the localized integrals for i = 0..spec.i at every degree of
    ``degrees`` (default: spec.d alone), at one fixed generic specialization,
    all from one set of chart series per plane.

    ``by_degree[d][i]`` is the integral over the length-i relative Hilbert
    scheme at degree d; ``values`` is ``by_degree[spec.d]``, so ``degrees``
    must include spec.d, and ``value`` the last of them.
    ``fixed_point_count`` counts the fixed points at spec.i.  One call
    evaluates everything a count, or the samples of a node polynomial, need.
    Each plane builds its three chart series once, at the first degree, and
    shears them to the others, whatever the number of degrees.

    Raises NonGenericSpecialization if a tangent weight at some size
    <= spec.i vanishes.  With ``jobs`` > 1 and at least 64 fixed points at
    spec.i the four planes go to one process pool of at most four workers.
    """
    degrees = tuple(dict.fromkeys((spec.d,) if degrees is None else degrees))
    if spec.d not in degrees:
        raise ValueError(f"degrees {degrees} do not include spec.d = {spec.d}")
    readouts = [(d, _readout_terms(replace(spec, d=d), h4_rule)) for d in degrees]
    i = spec.i
    sizes = [len(list(partitions(n))) for n in range(i + 1)]
    points = 4 * sum(
        sizes[a] * sizes[b] * sizes[i - a - b] for a in range(i + 1) for b in range(i + 1 - a)
    )
    args = (range(4), repeat(spec), repeat(specialization), repeat(readouts))
    if jobs <= 1 or points < 64:
        parts = list(map(_plane_integrals, *args))
    else:
        # looked up on the module, so that a wrapper bound there (the
        # benchmark's tracer binds one) is the pool that runs; a worker
        # beyond the four plane units would only be forked to idle
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=min(jobs, 4)) as pool:
            parts = list(pool.map(_plane_integrals, *args))
    by_degree = {
        d: tuple(sum(column, Fraction(0)) for column in zip(*per_plane))
        for d, per_plane in zip(degrees, zip(*parts))
    }
    values = by_degree[spec.d]
    return IntegralResult(
        value=values[-1],
        values=values,
        by_degree=by_degree,
        fixed_point_count=points,
    )


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
    agree exactly.  ``h4_rule`` toggles the H^4 = 0 pruning of the symbolic
    representative; the counts must not depend on it.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    ds = tuple(ds)
    if not ds:
        raise ValueError("need at least one degree")
    spec = IntegrandSpec(i=delta, delta=delta, d=ds[0], mode=mode)
    options = dict(h4_rule=h4_rule, jobs=jobs, degrees=ds)
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
    counts = []
    for d in ds:
        total = sum(map(mul, bps_coefficients(delta, genus(d)), result.by_degree[d]), Fraction(0))
        if total.denominator != 1:
            raise ArithmeticError(f"convention or arithmetic fault: non-integer count {total}")
        counts.append(total.numerator)
    return Counts(tuple(counts), used)


def count_nodal(delta: int, d: int, mode: str = P3, **options) -> int:
    """Number of delta-nodal plane curves of degree d meeting the incidence
    conditions (general lines in p3 mode; general points in a fixed plane in
    p2 mode).

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
