"""The symbolic reference: the integrand built as a polynomial in Chern
classes and evaluated fixed point by fixed point.

The count path never loads this module.  ``localization`` evaluates the same
integrals chart by chart; the tests compare it against what is built here,
exactly, so this is the second route to every integral, not a second
production path.  It has three parts.

The ring.  The Chern-class computations happen in a free commutative ring
over a declared table of symbols, each carrying a cohomological degree and
an optional nilpotency order (the hyperplane class H has H^4 = 0).  Two
truncation rules are applied during multiplication:

  * nilpotency: a term whose exponent reaches a symbol's nilpotency order
    is dropped (only when the rule is switched on);
  * degree cap: a term whose total cohomological degree exceeds the cap is
    dropped.

Both rules are per-computation configuration rather than baked into the
type, so the same expressions can be built with and without them and the
results compared downstream.  Terms are stored sparsely as an exponent-tuple
to coefficient map; zero coefficients are never stored.

The builder.  ``build_integrand`` assembles the class described in
``integrand`` from its four factors in the ring over H, c_1..c_i of the
tautological bundle ("L1".."Li") and c_1..c_{2i} of the relative tangent
bundle ("T1".."T2i"), as polynomials in the projective-bundle variable xi.
Eliminating xi through the relation

    xi^r = -c1 xi^{r-1} - c2 xi^{r-2} - c3 xi^{r-3}

leaves, from xi^{r-1+t}, the degree-t Segre coefficient times H^t, so only
the xi-slots delta..delta+3 of the product survive (delta..delta+cap
without the H^4 rule).

The evaluator.  ``_reference_integral`` compiles the integrand to a flat
term list and sums it over every fixed point, with the symbols set to the
elementary symmetric functions of the specialized weights there and each
value divided by the Euler class of the tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .integrand import IntegrandSpec, _sym_chern_coeffs, incidence_terms, segre_coeffs
from .partitions import FixedPoint, enumerate_fixed_points, plane_points
from .rationals import rat
from .weights import (
    NonGenericSpecialization,
    Specialization,
    chart_weights,
    gr_tangent_weights,
    h_weight,
    hilb_tangent_weights,
    taut_weights,
)

# -- the ring ---------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    name: str
    degree: int
    nilpotency: int | None = None


class SymbolTable:
    """An ordered list of symbols; exponent vectors index into it."""

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        self.names = tuple(s.name for s in self.symbols)
        self.degrees = tuple(s.degree for s in self.symbols)
        self.nilpotencies = tuple(s.nilpotency for s in self.symbols)
        self.index = {s.name: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate symbol names")

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def monomial_degree(self, exps) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees) if e)

    def __repr__(self) -> str:
        return f"SymbolTable({list(self.names)})"


@dataclass(frozen=True)
class TruncationRules:
    degree_cap: int | None = None
    nilpotent: bool = True


def _admits(table: SymbolTable, rules: TruncationRules, exps) -> bool:
    if rules.nilpotent:
        for e, n in zip(exps, table.nilpotencies):
            if n is not None and e >= n:
                return False
    if rules.degree_cap is not None:
        if table.monomial_degree(exps) > rules.degree_cap:
            return False
    return True


class GradedPoly:
    """Immutable sparse polynomial over a shared symbol table."""

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms=None):
        self.table = table
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, table: SymbolTable) -> "GradedPoly":
        return cls(table)

    @classmethod
    def constant(cls, table: SymbolTable, c) -> "GradedPoly":
        c = rat(c)
        zero_exp = (0,) * len(table)
        return cls(table, {zero_exp: c} if c != 0 else {})

    @classmethod
    def monomial(cls, table: SymbolTable, powers: dict, coeff=1) -> "GradedPoly":
        """Build ``coeff * prod(sym**e)`` from a name -> exponent map."""
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index[name]] = e
        return cls(table, {tuple(exps): rat(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if self.table is not other.table and self.table != other.table:
            raise ValueError("symbol tables differ")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = GradedPoly.__new__(GradedPoly)
        res.table, res.terms = self.table, out
        return res

    def __neg__(self) -> "GradedPoly":
        res = GradedPoly.__new__(GradedPoly)
        res.table = self.table
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scaled(self, c) -> "GradedPoly":
        c = rat(c)
        res = GradedPoly.__new__(GradedPoly)
        res.table = self.table
        res.terms = {} if c == 0 else {e: c * v for e, v in self.terms.items()}
        return res

    def max_degree(self) -> int:
        """Largest cohomological degree among stored terms (-1 if zero)."""
        if not self.terms:
            return -1
        return max(self.table.monomial_degree(e) for e in self.terms)

    def symbols_used(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.table.names[i])
        return used

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedPoly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{self.table.names[i]}^{e}" if e > 1 else self.table.names[i]
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "GradedPoly(" + " + ".join(bits) + ")"


def graded_mul(a: GradedPoly, b: GradedPoly, rules: TruncationRules) -> GradedPoly:
    """Product with the nilpotency and degree-cap rules applied term by term."""
    if a.table is not b.table and a.table != b.table:
        raise ValueError("symbol tables differ")
    table = a.table
    out: dict = {}
    if not a.terms or not b.terms:
        return GradedPoly.zero(table)
    # iterate the smaller factor outside
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for ea, ca in small.items():
        for eb, cb in large.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if not _admits(table, rules, e):
                continue
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    res = GradedPoly.__new__(GradedPoly)
    res.table, res.terms = table, out
    return res


def eval_graded(p: GradedPoly, assignment: dict) -> Fraction:
    """Exact evaluation of ``p`` at a symbol -> Rational assignment.

    Every symbol actually appearing in ``p`` must be assigned, otherwise a
    KeyError-style ValueError is raised.
    """
    table = p.table
    values = [None] * len(table)
    missing = set()
    for name in p.symbols_used():
        if name in assignment:
            values[table.index[name]] = rat(assignment[name])
        else:
            missing.add(name)
    if missing:
        raise ValueError(f"assignment missing symbols: {sorted(missing)}")
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = c
        for i, e in enumerate(exps):
            if e:
                v *= values[i] ** e
        total += v
    return total


# -- the builder ------------------------------------------------------------------


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


# -- the evaluator ----------------------------------------------------------------


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
