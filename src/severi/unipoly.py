"""Dense univariate polynomials over exact rationals.

``UniPoly`` is the output type of the whole pipeline: the node polynomials in
the degree variable d live here.  Coefficients are stored densely (index =
power of d) with trailing zeros trimmed; the zero polynomial has an empty
coefficient tuple and degree -1.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import rat, rat_str


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((rat(c),))

    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scaled(self, c) -> "UniPoly":
        c = rat(c)
        return UniPoly([c * a for a in self.coeffs])

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_coeff_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items) -> "UniPoly":
        return cls([Fraction(s) for s in items])

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = rat_str(abs(c))
            if k == 0:
                term = mag
            else:
                var = "d" if k == 1 else f"d^{k}"
                term = var if mag == "1" else f"{mag}*{var}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def lagrange_interpolate(samples) -> UniPoly:
    """Exact interpolation through ``(x, y)`` pairs.

    Returns the unique polynomial of degree < len(samples) through all the
    samples.  Duplicated x values make the problem degenerate and raise.
    Newton's divided differences give it in the basis
    prod_{j<k} (d - x_j), expanded to monomials by Horner's rule: O(n^2)
    exact operations.
    """
    pts = [(rat(x), rat(y)) for x, y in samples]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("degenerate sample set")
    # after step j, newton[k] = f[x_{k-j}, ..., x_k] for k >= j
    newton = [y for _, y in pts]
    for j in range(1, len(pts)):
        for k in range(len(pts) - 1, j - 1, -1):
            newton[k] = (newton[k] - newton[k - 1]) / (xs[k] - xs[k - j])
    coeffs: list[Fraction] = []
    for x, c in zip(reversed(xs), reversed(newton)):
        # coeffs * (d - x) + c
        shifted = [Fraction(0)] + coeffs
        for k, a in enumerate(coeffs):
            shifted[k] -= x * a
        shifted[0] += c
        coeffs = shifted
    return UniPoly(coeffs)
