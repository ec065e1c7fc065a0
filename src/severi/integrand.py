"""Symbolic integrand for the localized count of nodal curves.

For each point number i, node number delta and degree d, the class to be
integrated over the length-i relative Hilbert scheme is assembled from four
factors (total Chern class of the relative tangent bundle, the line/point
incidence factor, the top Chern class of the twisted tautological bundle,
and the truncated geometric series inverting its total Chern class), after
which the projective-bundle variable xi is eliminated through the relation

    xi^r = -c1 xi^{r-1} - c2 xi^{r-2} - c3 xi^{r-3},

with c_j the Chern classes of the direct image of O_S(d) (polynomials in d
and H), and the coefficient of xi^{r-1} extracted.  The result lives in the
graded ring over H, c_1..c_i of the tautological bundle ("L1".."Li") and
c_1..c_{2i} of the relative tangent bundle ("T1".."T2i").

Because the reduction of xi^{r-1+t} contributes exactly the degree-t Segre
coefficient of the direct image times H^t, only the xi-slots delta..delta+3
of the four-factor product survive (delta..delta+cap without the H^4 rule),
which keeps construction cheap even for large d.

The count path never builds this integrand: ``localization`` evaluates the
same factors chart by chart.  ``build_integrand`` is kept as the reference
the tests compare that evaluator against; ``bps_coefficients``,
``segre_coeffs`` and ``incidence_terms`` serve both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .graded import GradedPoly, Symbol, SymbolTable, TruncationRules, graded_mul

P3 = "p3"
P2_FIXED = "p2"
MODES = (P3, P2_FIXED)


def genus(d: int) -> int:
    """Arithmetic genus of a plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return (d - 1) * (d - 2) // 2


def general_binomial(m: int, k: int) -> int:
    """binom(m, k) for arbitrary integer m via the falling factorial."""
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= m - t
    result, remainder = divmod(num, factorial(k))
    assert remainder == 0
    return result


@dataclass(frozen=True)
class BPSCoefficients:
    """Row delta of the inverse of the unitriangular change-of-variable matrix."""

    a: tuple[Fraction, ...]
    g: int

    @property
    def delta(self) -> int:
        return len(self.a) - 1


def bps_coefficients(delta: int, g: int) -> BPSCoefficients:
    """Weights a_0..a_delta with a_delta = 1.

    The matrix M[j][i] = (-1)^(j-i) * binom(2(g-i)-2, j-i), 0 <= i <= j <=
    delta, expresses the Hilbert-scheme classes in terms of the BPS-style
    classes; the weights are row delta of its inverse, obtained by back
    substitution.  Binomials with negative upper argument use the
    generalized (falling-factorial) definition, as forced by the power
    series (1-q)^{2r-2}.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")

    def m_entry(j: int, i: int) -> int:
        return (-1) ** (j - i) * general_binomial(2 * (g - i) - 2, j - i)

    # M is an integer unitriangular matrix, so its inverse is integral too
    a = [0] * (delta + 1)
    a[delta] = 1
    for i in range(delta - 1, -1, -1):
        a[i] = -sum(a[j] * m_entry(j, i) for j in range(i + 1, delta + 1))
    return BPSCoefficients(a=tuple(map(Fraction, a)), g=g)


def _sym_chern_coeffs(d: int):
    """The H^0..H^3 coefficients of the total Chern class of q_* O_S(d)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    a1 = Fraction(d * (d + 1) * (d + 2), 6)
    a2 = Fraction(d * (d + 1) * (d + 2) * (d + 3) * (d * d + 2), 72)
    a3 = Fraction(
        d * (d + 1) * (d + 2) * (d + 3) * (d * d + 2) * (d**3 + 3 * d * d + 2 * d + 12),
        1296,
    )
    return (Fraction(1), a1, a2, a3)


def h_only_table() -> SymbolTable:
    return SymbolTable([Symbol("H", 1, 4)])


def sym_chern(d: int) -> GradedPoly:
    """Total Chern class of the direct image of O_S(d), as a polynomial in H."""
    table = h_only_table()
    coeffs = _sym_chern_coeffs(d)
    out = GradedPoly.zero(table)
    for k, c in enumerate(coeffs):
        out = out + GradedPoly.monomial(table, {"H": k}, c)
    return out


def segre_coeffs(d: int, t_max: int) -> list[Fraction]:
    """rho_0..rho_{t_max} with rho_t the H^t coefficient of the Segre class.

    These are exactly what the top-down xi-reduction contributes:
    reducing xi^{r-1+t} and extracting the coefficient of xi^{r-1} yields
    rho_t * H^t.
    """
    _, a1, a2, a3 = _sym_chern_coeffs(d)
    a = (Fraction(0), a1, a2, a3)
    rho = [Fraction(1)]
    for t in range(1, t_max + 1):
        rho.append(-sum(a[j] * rho[t - j] for j in range(1, min(3, t) + 1)))
    return rho


@dataclass(frozen=True)
class IntegrandSpec:
    """Parameters of one localized integral."""

    i: int
    delta: int
    d: int
    mode: str = P3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if not 0 <= self.i <= self.delta:
            raise ValueError("need 0 <= i <= delta")
        n_min = 3 if self.mode == P3 else 6
        if self.n < n_min:
            raise ValueError(
                f"incidence count n={self.n} below minimum {n_min} for mode {self.mode}"
            )

    @property
    def n(self) -> int:
        return self.d * (self.d + 3) // 2 + 3 - self.delta

    @property
    def r(self) -> int:
        return (self.d + 1) * (self.d + 2) // 2

    @property
    def series_bound(self) -> int:
        return 3 + 2 * self.i + self.delta

    @property
    def dimension(self) -> int:
        """Dimension of the length-i relative Hilbert scheme."""
        return 3 + 2 * self.i


def incidence_terms(spec: IntegrandSpec) -> list[tuple[int, int, int]]:
    """The incidence factor as (xi exponent s, H exponent j, coefficient) terms.

    The common xi^(n-3) is accounted for in the final Segre assembly.
    """
    if spec.mode == P3:
        return [(s, 3 - s, comb(spec.n, 3 - s) * spec.d ** (3 - s)) for s in range(4)]
    return [(0, 3, 1)]


def symbol_table(i: int) -> SymbolTable:
    syms = [Symbol("H", 1, 4)]
    syms += [Symbol(f"L{k}", k) for k in range(1, i + 1)]
    syms += [Symbol(f"T{m}", m) for m in range(1, 2 * i + 1)]
    return SymbolTable(syms)


def default_rules(spec: IntegrandSpec) -> TruncationRules:
    return TruncationRules(degree_cap=spec.dimension, nilpotent=True)


def _xi_mul(a, b, table, slot_rules, xi_max):
    """Multiply two xi-indexed lists of GradedPoly, pruning per target slot."""
    out = [GradedPoly.zero(table) for _ in range(xi_max + 1)]
    for ma, pa in enumerate(a):
        if pa.is_zero():
            continue
        for mb, pb in enumerate(b):
            m = ma + mb
            if m > xi_max:
                break
            if pb.is_zero():
                continue
            out[m] = out[m] + graded_mul(pa, pb, slot_rules[m])
    return out


def build_integrand(spec: IntegrandSpec, rules: TruncationRules | None = None, series_bound: int | None = None) -> GradedPoly:
    """The class to localize, as a GradedPoly in H, L1..Li, T1..T2i.

    This symbolic form is the test reference for the factorized evaluator in
    ``localization``, which computes the same integrals without building it.

    ``rules`` defaults to the H^4 rule plus the dimension cap.  The cap is
    part of the definition: equivariant representatives of classes above the
    dimension of the Hilbert scheme would contribute specialization-dependent
    noise to the residue sum.  ``series_bound`` overrides the geometric
    series truncation (for the invariance test); raising it never changes
    the result because higher powers die against the caps.
    """
    i, delta, d = spec.i, spec.delta, spec.d
    if rules is None:
        rules = default_rules(spec)
    cap = rules.degree_cap if rules.degree_cap is not None else spec.dimension
    table = symbol_table(i)
    bound = spec.series_bound if series_bound is None else series_bound

    t_top = 3 if rules.nilpotent else cap
    xi_max = delta + t_top

    # a term sitting in xi-slot m can only reach the output through final
    # slots >= max(m, delta), picking up at least max(0, m - delta) extra
    # H-degree from the Segre factor; prune against that bound
    slot_rules = [
        TruncationRules(degree_cap=cap - max(0, m - delta), nilpotent=rules.nilpotent)
        for m in range(xi_max + 1)
    ]

    def zero_list():
        return [GradedPoly.zero(table) for _ in range(xi_max + 1)]

    one = GradedPoly.constant(table, 1)

    # factor 1: total Chern class of the relative tangent bundle
    c_tangent = one
    for m in range(1, 2 * i + 1):
        c_tangent = c_tangent + GradedPoly.monomial(table, {f"T{m}": 1})
    f1 = zero_list()
    f1[0] = c_tangent

    # factor 2: incidence conditions
    f2 = zero_list()
    for s, j, c in incidence_terms(spec):
        f2[s] = GradedPoly.monomial(table, {"H": j}, c)

    # factor 3: c_i of the twisted tautological bundle (i <= delta <= xi_max)
    f3 = zero_list()
    f3[i] = one
    for k in range(1, i + 1):
        f3[i - k] = f3[i - k] + GradedPoly.monomial(table, {f"L{k}": 1})

    # factor 4: truncated geometric series for 1/c of the twisted bundle
    base = zero_list()
    for k in range(0, i + 1):
        mono = one if k == 0 else GradedPoly.monomial(table, {f"L{k}": 1})
        for s in range(0, min(i - k, xi_max) + 1):
            base[s] = base[s] + mono.scaled(-comb(i - k, s))
    base[0] = base[0] + one  # the leading 1 of the series cancels the k=0, s=0 term

    f4 = zero_list()
    f4[0] = one
    power = zero_list()
    power[0] = one
    for _ in range(1, bound + 1):
        power = _xi_mul(power, base, table, slot_rules, xi_max)
        if all(p.is_zero() for p in power):
            break
        for m in range(xi_max + 1):
            f4[m] = f4[m] + power[m]

    g = _xi_mul(_xi_mul(f3, f4, table, slot_rules, xi_max), f2, table, slot_rules, xi_max)
    g = _xi_mul(g, f1, table, slot_rules, xi_max)

    rho = segre_coeffs(d, t_top)
    out = GradedPoly.zero(table)
    for t in range(0, t_top + 1):
        m = delta + t
        if m > xi_max or g[m].is_zero() or rho[t] == 0:
            continue
        h_t = GradedPoly.monomial(table, {"H": t}, rho[t])
        out = out + graded_mul(g[m], h_t, rules)
    return out
