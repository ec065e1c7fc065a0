"""Equivariant weights of the relevant bundles at torus-fixed points.

A character of the 4-torus is an integer exponent vector (e0, e1, e2, e3)
standing for prod_j lambda_j^{e_j}.  Characters multiply by adding exponent
vectors.  A Specialization assigns an exact rational value v_j to each
torus parameter and evaluates characters additively,

    value(e) = sum_j e_j * v_j,

which is the first-Chern-class evaluation the residue formula needs
(elementary symmetric functions of the specialized weights are then the
specialized equivariant Chern classes of the bundle at the point).

Convention set (fixed once; the calibration gate's one-nodal counts read
the Hilbert tangent and tautological cell weights, so a dualized one fails
there):

  * chart coordinates of the plane V_k at its fixed point P_m are
    u = x_p/x_m, v = x_q/x_m with {p, q} the two remaining indices, p < q;
    the torus scales the coordinate ring by t1 = lambda_m/lambda_p and
    t2 = lambda_m/lambda_q;
  * the tangent space of the Grassmannian at V_k has the three weights
    lambda_k/lambda_j, j != k (the count path takes their product as
    prod_{j != k} (h_k - h_j) in the hyperplane weights below);
  * the tangent space of the Hilbert scheme of the plane at the monomial
    ideal of mu contributes, for each cell with arm A and leg L, the pair
    t1^{-(A+1)} t2^{L} and t1^{A} t2^{-(L+1)};
  * the fiber of the rank-i tautological bundle of O_S(d) picks up, for the
    cell (a, b) at P_m, the weight (lambda_0/lambda_m)^d t1^a t2^b.

The last weight and the hyperplane weight lambda_k/lambda_0 carry a
twist by a power of lambda_0: equivariant lifts of a line bundle are only
defined up to a global character, the twist normalizes every emitted
character to exponent sum zero (the projectivized action only sees the
quotient torus), and the localized integrals do not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .partitions import FixedPoint, arms_legs, cells, plane_points
from .rationals import rat

Character = tuple[int, int, int, int]


def char_mul(a: Character, b: Character) -> Character:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def char_pow(a: Character, n: int) -> Character:
    return (a[0] * n, a[1] * n, a[2] * n, a[3] * n)


def char_ratio(i: int, j: int) -> Character:
    """The character lambda_i / lambda_j."""
    e = [0, 0, 0, 0]
    e[i] += 1
    e[j] -= 1
    return tuple(e)


def _balanced(c: Character) -> Character:
    # every bundle here descends to the quotient torus: exponent sums vanish
    assert sum(c) == 0, f"unbalanced character {c}"
    return c


class NonGenericSpecialization(ValueError):
    pass


@dataclass(frozen=True)
class Specialization:
    """Exact rational values for the four torus parameters.

    Values must be pairwise distinct (so that no Grassmannian tangent weight
    specializes to zero); composite Hilbert-scheme weights can still vanish
    for unlucky values, which callers handle by resampling.
    """

    values: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        vals = tuple(rat(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != 4:
            raise ValueError("need exactly 4 values")
        if any(v == 0 for v in vals):
            raise ValueError("values must be nonzero")
        if len(set(vals)) != 4:
            raise ValueError("values must be pairwise distinct")

    def value(self, char: Character) -> Fraction:
        v = self.values
        return char[0] * v[0] + char[1] * v[1] + char[2] * v[2] + char[3] * v[3]

    @classmethod
    def default(cls) -> "Specialization":
        """(1, 2, 18, 19): every Hilbert tangent weight at every chart is
        nonzero for all partitions of size <= 17, so counts up to delta = 17
        never resample; small values keep the integers small."""
        return _DEFAULT

    @classmethod
    def from_seed(cls, seed: int) -> "Specialization":
        rng = random.Random(seed)
        while True:
            vals = tuple(Fraction(rng.randint(1, 10**6)) for _ in range(4))
            if len(set(vals)) == 4:
                return cls(vals)

    def describe(self) -> list[str]:
        return [str(v) for v in self.values]


# one shared instance (it is immutable): every count starts from it, and
# building and validating it anew is a visible share of a small count
_DEFAULT = Specialization((Fraction(1), Fraction(2), Fraction(18), Fraction(19)))


def chart_weights(plane: int, point: int) -> tuple[Character, Character]:
    """Characters scaling the two affine chart coordinates at a plane point."""
    pts = plane_points(plane)
    if point not in pts:
        raise ValueError(f"point {point} is not a fixed point of plane V{plane}")
    p, q = [j for j in pts if j != point]
    t1 = _balanced(char_ratio(point, p))
    t2 = _balanced(char_ratio(point, q))
    return t1, t2


def gr_tangent_weights(plane: int) -> list[Character]:
    """The three tangent weights of the Grassmannian of planes at V_plane."""
    return [_balanced(char_ratio(plane, j)) for j in range(4) if j != plane]


def hilb_tangent_exponents(mu) -> list[tuple[int, int]]:
    """Tangent weights of the Hilbert scheme of a plane at the monomial ideal
    of mu, as exponent pairs (a, b) standing for t1^a t2^b at any chart.

    One pair per cell via the arm/leg formula, 2|mu| in all; the independent
    Hom(I, O/I) decomposition is reproduced by ``oracles.hom_tangent_exponents``.
    """
    return [
        pair
        for arm, leg in arms_legs(mu).values()
        for pair in ((-(arm + 1), leg), (arm, -(leg + 1)))
    ]


def hilb_tangent_weights(mu, t1: Character, t2: Character) -> list[Character]:
    """The Hilbert tangent weights of mu (``hilb_tangent_exponents``) as
    characters, given the chart characters t1 and t2."""
    return [
        _balanced(char_mul(char_pow(t1, a), char_pow(t2, b)))
        for a, b in hilb_tangent_exponents(mu)
    ]


def taut_weights(fp: FixedPoint, d: int) -> list[Character]:
    """Weights of the rank-i tautological bundle of O_S(d) at a fixed point.

    The fiber is the span of the chart monomials u^a v^b outside each
    monomial ideal, twisted by the O_S(d) fiber weight at the supporting
    plane point.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    return [
        taut_cell_weight(fp.plane, m, cell, d)
        for m, mu in zip(plane_points(fp.plane), fp.tri)
        for cell in cells(mu)
    ]


def taut_cell_weight(plane: int, point: int, cell: tuple[int, int], d: int) -> Character:
    """Weight of the chart monomial u^a v^b of ``cell`` = (a, b) at the plane
    point, twisted by the O_S(d) fiber weight there."""
    t1, t2 = chart_weights(plane, point)
    a, b = cell
    w0 = char_pow(char_ratio(0, point), d)
    return _balanced(char_mul(w0, char_mul(char_pow(t1, a), char_pow(t2, b))))


def h_weight(plane: int) -> Character:
    """Restriction weight of O_Gr(1) at the plane V_plane."""
    return _balanced(char_ratio(plane, 0))
