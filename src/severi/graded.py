"""Sparse graded polynomial ring with configurable truncation.

The symbolic Chern-class computations happen in a free commutative ring over
a declared table of symbols, each carrying a cohomological degree and an
optional nilpotency order (the hyperplane class H has H^4 = 0).  Two
truncation rules are applied during multiplication:

  * nilpotency: a term whose exponent reaches a symbol's nilpotency order
    is dropped (only when the rule is switched on);
  * degree cap: a term whose total cohomological degree exceeds the cap is
    dropped.

Both rules are per-computation configuration rather than baked into the
type, so the same expressions can be built with and without them and the
results compared downstream.  Terms are stored sparsely as an exponent-tuple
to coefficient map; zero coefficients are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import rat


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
