"""Independent combinatorial verification path.

For small degree and node numbers, every contributing curve is reducible
with lines, smooth conics or one-nodal cubics as components.  The count is
then a sum over component decompositions of products of classical incidence
classes nu_{d, delta, n} (the pushforward to the Grassmannian of planes of
the locus of irreducible delta-nodal degree-d planar curves meeting n
general lines, an integer multiple of a power of the hyperplane class).

The nu classes are computed here directly in the Chow ring

    Z[H]/(H^4)  [eta]/(eta^3 - H eta^2 + H^2 eta - H^3)  [xi]/(xi-relation)

with no localization anywhere: the delta = 0 classes push forward powers of
the incidence divisor class d*H + xi, and the delta = 1 classes multiply in
the discriminant class obtained from the simultaneous vanishing of a degree
d form and its relative differential.  Everything in this module is an
integer computation on tiny polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .integrand import _sym_chern_coeffs, genus

# the (d, delta) component types whose nu classes are certified classically
SUPPORTED_NU = ((1, 0), (2, 0), (3, 1))


@dataclass(frozen=True)
class NuClass:
    d: int
    delta: int
    n_lines: int
    coefficient: int
    h_power: int

    def __post_init__(self):
        if not 0 <= self.h_power <= 3:
            raise ValueError("h_power out of range")
        if self.coefficient < 0:
            raise ValueError("coefficient must be >= 0")


def _rank(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def _min_lines(d: int, delta: int) -> int:
    """Lines needed to cut the locus down to a 3-fold (h_power = 0)."""
    return _rank(d) + 2 - delta - 3


# -- tiny Chow-ring helpers ------------------------------------------------
#
# An H-vector is a length-4 list of Fractions (coefficients of H^0..H^3);
# classes on the universal plane or the curve space are dicts keyed by the
# eta- or xi-exponent with H-vector values.


def _hvec_mul(a, b):
    out = [Fraction(0)] * 4
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > 3 or bj == 0:
                continue
            out[i + j] += ai * bj
    return out


def _poly_mul(p, q):
    out: dict = {}
    for ea, va in p.items():
        for eb, vb in q.items():
            v = _hvec_mul(va, vb)
            if any(v):
                e = ea + eb
                if e in out:
                    out[e] = [x + y for x, y in zip(out[e], v)]
                else:
                    out[e] = v
    return {e: v for e, v in out.items() if any(v)}


def _hvec_shift(v, k):
    """Multiply an H-vector by H^k."""
    out = [Fraction(0)] * 4
    for i, vi in enumerate(v):
        if vi and i + k <= 3:
            out[i + k] = vi
    return out


def _eta_reduce(p):
    """Apply eta^3 = H eta^2 - H^2 eta + H^3 until all exponents are < 3."""
    work = dict(p)
    while True:
        high = [e for e in work if e >= 3]
        if not high:
            return work
        e = max(high)
        v = work.pop(e)
        for off, sign in ((1, 1), (2, -1), (3, 1)):
            shifted = _hvec_shift(v, off)
            if any(shifted):
                tgt = e - 3 + (3 - off)
                add = [sign * x for x in shifted]
                if tgt in work:
                    work[tgt] = [a + b for a, b in zip(work[tgt], add)]
                else:
                    work[tgt] = add


def _xi_extract(vec_by_xi, d: int, r: int):
    """Reduce xi powers >= r and return the coefficient of xi^{r-1}."""
    _, a1, a2, a3 = _sym_chern_coeffs(d)
    rel = (a1, a2, a3)
    top = max(vec_by_xi) if vec_by_xi else 0
    dense = [[Fraction(0)] * 4 for _ in range(max(top, r - 1) + 1)]
    for e, v in vec_by_xi.items():
        dense[e] = [x + y for x, y in zip(dense[e], v)]
    for e in range(len(dense) - 1, r - 1, -1):
        v = dense[e]
        if not any(v):
            continue
        dense[e] = [Fraction(0)] * 4
        for j, aj in enumerate(rel, start=1):
            add = _hvec_shift(v, j)
            if any(add):
                dense[e - j] = [x - aj * y for x, y in zip(dense[e - j], add)]
    return dense[r - 1]


def _incidence_power(d: int, n: int):
    """(d H + xi)^n as a dict xi-exponent -> H-vector."""
    out = {}
    for j in range(0, min(3, n) + 1):
        vec = [Fraction(0)] * 4
        vec[j] = Fraction(comb(n, j) * d**j)
        out[n - j] = vec
    return out


def _one_nodal_class(d: int):
    """The divisor class of one-nodal curves, as a dict xi-exp -> H-vector.

    Top Chern class of (Omega_{S/Gr} + O) tensored with the incidence line
    bundle, pushed down the universal plane by extracting the eta^2
    coefficient after eta-reduction.
    """
    # classes on the universal plane: c1(T) = 3 eta - H, c2(T) = 3 eta^2 - 2 H eta + H^2
    def hv(c0=0, c1=0, c2=0, c3=0):
        return [Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)]

    # M = d*eta + xi; encode xi as a separate variable by carrying pairs
    # (eta_exp, xi_exp); here keys are (eta, xi).
    def mul2(p, q):
        out = {}
        for (ea, xa), va in p.items():
            for (eb, xb), vb in q.items():
                v = _hvec_mul(va, vb)
                if any(v):
                    key = (ea + eb, xa + xb)
                    if key in out:
                        out[key] = [x + y for x, y in zip(out[key], v)]
                    else:
                        out[key] = v
        return {k: v for k, v in out.items() if any(v)}

    m = {(1, 0): hv(d), (0, 1): hv(1)}
    m2 = mul2(m, m)
    m3 = mul2(m2, m)
    # c((Omega + O) tensor M): c3 = c2(Omega) c1(M) + c1(Omega) c1(M)^2 + c1(M)^3
    c1_omega = {(1, 0): hv(-3), (0, 0): hv(0, 1)}  # H - 3 eta
    c2_omega = {(2, 0): hv(3), (1, 0): hv(0, -2), (0, 0): hv(0, 0, 1)}
    total = mul2(c2_omega, m)
    for key, v in mul2(c1_omega, m2).items():
        if key in total:
            total[key] = [x + y for x, y in zip(total[key], v)]
        else:
            total[key] = v
    for key, v in m3.items():
        if key in total:
            total[key] = [x + y for x, y in zip(total[key], v)]
        else:
            total[key] = v

    # push down the plane: eta-reduce, take the eta^2 coefficient
    by_xi: dict = {}
    for xi_exp in sorted({x for (_, x) in total}):
        sl = {e: v for (e, x), v in total.items() if x == xi_exp}
        red = _eta_reduce(sl)
        if 2 in red and any(red[2]):
            by_xi[xi_exp] = red[2]
    return by_xi


def nu_class(d: int, delta: int, n_lines: int) -> NuClass:
    """The incidence class nu_{d, delta, n_lines} as coefficient * H^power."""
    if (d, delta) not in SUPPORTED_NU:
        raise ValueError(f"nu unavailable for (d, delta) = ({d}, {delta})")
    n0 = _min_lines(d, delta)
    h_power = 3 - ((_rank(d) + 2 - delta) - n_lines)
    if not 0 <= h_power <= 3:
        raise ValueError(f"n_lines = {n_lines} outside the table range for ({d}, {delta})")
    cls = _incidence_power(d, n_lines)
    if delta == 1:
        cls = _poly_mul(cls, _one_nodal_class(d))
    hvec = _xi_extract(cls, d, _rank(d))
    for j, v in enumerate(hvec):
        if j != h_power and v != 0:
            raise ArithmeticError(f"nu class not pure of H-power {h_power}: {hvec}")
    coeff = hvec[h_power]
    if coeff.denominator != 1:
        raise ArithmeticError(f"non-integer nu coefficient {coeff}")
    assert n0 + h_power == n_lines
    return NuClass(d=d, delta=delta, n_lines=n_lines, coefficient=coeff.numerator, h_power=h_power)


# -- decomposition combinatorics --------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """One component multiset with all its admissible line assignments.

    ``assignments`` pairs each n-tuple (aligned with ``components``) with
    the number of distinct set partitions realizing it; components that are
    identical as (d_i, delta_i, n_i) triples are interchangeable, so the
    count divides by the multiplicities of equal triples.
    """

    components: tuple[tuple[int, int], ...]
    assignments: tuple[tuple[tuple[int, ...], int], ...]


def _component_multisets(delta: int, d: int):
    """Multisets of (d_i, delta_i) satisfying the degree, node and genus
    constraints."""
    out = []

    def rec(remaining_d: int, max_comp, acc):
        if remaining_d == 0:
            ds = [c[0] for c in acc]
            crossings = (d * d - sum(x * x for x in ds)) // 2
            if crossings + sum(c[1] for c in acc) == delta:
                out.append(tuple(acc))
            return
        for dc in range(min(remaining_d, max_comp[0]), 0, -1):
            dmax = genus(dc)
            top = max_comp[1] if dc == max_comp[0] else dmax
            for deltac in range(min(dmax, top), -1, -1):
                rec(remaining_d - dc, (dc, deltac), acc + [(dc, deltac)])

    rec(d, (d, genus(d)), [])
    return out


def enumerate_decompositions(delta: int, d: int) -> list[Decomposition]:
    """All component decompositions with their admissible line assignments.

    Raises if a decomposition needs a nu class outside the supported set,
    naming the missing component types.
    """
    n = d * (d + 3) // 2 + 3 - delta
    families = []
    for comps in _component_multisets(delta, d):
        missing = sorted({c for c in comps if c not in SUPPORTED_NU})
        if missing:
            raise ValueError(f"nu unavailable for component types {missing}")
        ranges = []
        for dc, deltac in comps:
            n0 = _min_lines(dc, deltac)
            ranges.append(range(n0, n0 + 4))

        assignments = []

        def rec(idx: int, left: int, acc):
            if idx == len(comps):
                if left == 0 and sum(a - r.start for a, r in zip(acc, ranges)) == 3:
                    triples = [comps[j] + (acc[j],) for j in range(len(comps))]
                    mult = factorial(n)
                    for x in acc:
                        mult //= factorial(x)
                    for t in set(triples):
                        mult //= factorial(triples.count(t))
                    assignments.append((tuple(acc), mult))
                return
            r = ranges[idx]
            for val in r:
                if val > left:
                    break
                # identical component types take non-increasing n values so
                # each unordered assignment appears exactly once
                if idx > 0 and comps[idx] == comps[idx - 1] and val > acc[-1]:
                    break
                rec(idx + 1, left - val, acc + [val])

        rec(0, n, [])
        families.append(Decomposition(components=comps, assignments=tuple(assignments)))
    return families


def reducible_count(delta: int, d: int) -> int:
    """Evaluate the decomposition sum; equals the nodal count whenever every
    contributing curve is reducible with supported components."""
    total = 0
    for fam in enumerate_decompositions(delta, d):
        for nbar, mult in fam.assignments:
            prod = mult
            for (dc, deltac), nc in zip(fam.components, nbar):
                prod *= nu_class(dc, deltac, nc).coefficient
                if prod == 0:
                    break
            total += prod
    return total
