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
d form and its relative differential.  Both relations are monic with
integer coefficients, so everything in this module is an integer
computation on tiny polynomials, with no division.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# A class is a dict {(h, e, x): int} standing for the sum of int * H^h eta^e
# xi^x, with no zero values.  Products drop H^4; eta (slot 1) and xi (slot 2)
# are rewritten by their relations only when asked.


def _add(*classes):
    out: dict = {}
    for cls in classes:
        for key, v in cls.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _mul(a, b):
    out: dict = {}
    for (ha, ea, xa), va in a.items():
        for (hb, eb, xb), vb in b.items():
            if ha + hb <= 3:
                key = (ha + hb, ea + eb, xa + xb)
                out[key] = out.get(key, 0) + va * vb
    return {key: v for key, v in out.items() if v}


def _reduce(cls, slot: int, r: int, relation):
    """Rewrite the powers >= r of the variable in key ``slot``, highest
    first, by var^r = sum_j relation[j-1] H^j var^(r-j)."""
    step = {}
    for j, c in enumerate(relation, start=1):
        key = [j, 0, 0]
        key[slot] = -j
        step[tuple(key)] = c
    for power in range(max((key[slot] for key in cls), default=0), r - 1, -1):
        high = {key: v for key, v in cls.items() if key[slot] == power}
        cls = _add({key: v for key, v in cls.items() if key[slot] != power}, _mul(high, step))
    return cls


def _one_nodal_class(d: int):
    """The divisor class of one-nodal curves, a class with no eta.

    The top Chern class of (Omega_{S/Gr} + O) tensored with the incidence
    line bundle M = d eta + xi, c2(Omega) M + c1(Omega) M^2 + M^3, pushed
    down the universal plane as the eta^2 coefficient after eta-reduction.
    """
    m = {(0, 1, 0): d, (0, 0, 1): 1}
    m2 = _mul(m, m)
    c1_omega = {(1, 0, 0): 1, (0, 1, 0): -3}  # H - 3 eta
    c2_omega = {(0, 2, 0): 3, (1, 1, 0): -2, (2, 0, 0): 1}  # 3 eta^2 - 2 H eta + H^2
    top = _add(_mul(c2_omega, m), _mul(c1_omega, m2), _mul(m2, m))
    # eta^3 = H eta^2 - H^2 eta + H^3
    reduced = _reduce(top, 1, 3, (1, -1, 1))
    return {(h, 0, x): v for (h, e, x), v in reduced.items() if e == 2}


def nu_class(d: int, delta: int, n_lines: int) -> NuClass:
    """The incidence class nu_{d, delta, n_lines} as coefficient * H^power."""
    if (d, delta) not in SUPPORTED_NU:
        raise ValueError(f"nu unavailable for (d, delta) = ({d}, {delta})")
    r = _rank(d)
    h_power = 3 - ((r + 2 - delta) - n_lines)
    if not 0 <= h_power <= 3:
        raise ValueError(f"n_lines = {n_lines} outside the table range for ({d}, {delta})")
    cls = {(j, 0, n_lines - j): comb(n_lines, j) * d**j for j in range(min(3, n_lines) + 1)}
    if delta == 1:
        cls = _mul(cls, _one_nodal_class(d))
    # xi^r = -a1 H xi^(r-1) - a2 H^2 xi^(r-2) - a3 H^3 xi^(r-3)
    _, a1, a2, a3 = _sym_chern_coeffs(d)
    cls = _reduce(cls, 2, r, (-a1, -a2, -a3))
    by_h = {h: v for (h, _, x), v in cls.items() if x == r - 1}
    if set(by_h) - {h_power}:
        raise ArithmeticError(f"nu class not pure of H-power {h_power}: {by_h}")
    assert _min_lines(d, delta) + h_power == n_lines
    coefficient = by_h.get(h_power, 0)
    return NuClass(d=d, delta=delta, n_lines=n_lines, coefficient=coefficient, h_power=h_power)


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
