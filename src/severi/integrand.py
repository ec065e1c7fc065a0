"""The data of the localized integrand that do not depend on a fixed point.

The class integrated over the length-i relative Hilbert scheme is the
product of four factors (total Chern class of the relative tangent bundle,
the line/point incidence factor, the top Chern class of the twisted
tautological bundle, and the truncated geometric series inverting its total
Chern class), with the projective-bundle variable xi eliminated through the
Chern classes of the direct image of O_S(d).  That elimination leaves one
Segre coefficient of the direct image per power of H.

This module holds what ``localization`` needs besides the fixed-point
weights: the spec of one integral (``IntegrandSpec``), the incidence terms,
the Segre coefficients, and the unitriangular-inverse weights
(``bps_coefficients``) that combine the integrals into a count.  The class
itself, built symbolically, is the test reference in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


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


def bps_coefficients(delta: int, g: int) -> tuple[int, ...]:
    """Integer weights a_0..a_delta with a_delta = 1.

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
    return tuple(a)


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


def __getattr__(name):
    # PEP 562: names of the symbolic reference still looked up here; it is
    # imported on first use, so the count path never loads it
    if name in ("build_integrand", "graded_mul"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
