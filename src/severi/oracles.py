"""Independent oracles for the verification suite.

Each oracle recomputes a quantity along a different derivation path than
the production code and is compared exactly:

  * the BPS-style combination weights are checked against the defining
    series transformation: random placeholder values are pushed through it
    (with the powers of (1-q) expanded by the binomial and negative-binomial
    series, not by the falling-factorial binomial of the production path)
    and the triangular relation is solved back;

  * the Hilbert-scheme tangent weights from the arm/leg formula are checked
    against the torus decomposition of Hom(I, O/I) for the monomial ideal,
    computed from minimal generators and their syzygies by exact linear
    algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .integrand import bps_coefficients
from .partitions import check_partition
from .weights import Character, Specialization, char_mul, char_pow, hilb_tangent_weights


def _one_minus_q_power(e: int, order: int) -> list[int]:
    """(1 - q)^e as a series truncated after q^order, for any integer e.

    The ordinary binomial theorem for e >= 0, and the negative binomial
    series 1/(1-q)^m = sum_k C(m+k-1, k) q^k for e = -m.
    """
    if e >= 0:
        return [(-1) ** k * comb(e, k) for k in range(order + 1)]
    return [comb(-e + k - 1, k) for k in range(order + 1)]


def bps_series_check(delta: int, g: int, trials: int = 2, seed: int = 0) -> bool:
    """Verify the combination weights against the defining series identity.

    Random integers x_0..x_delta play the role of the graded pieces; the
    series sum_i x_i q^i (1-q)^{2(g-i)-2} is expanded and its coefficients
    c_0..c_delta must recombine to x_delta through the production weights.
    """
    rng = random.Random(seed * 1009 + delta * 31 + g)
    a = bps_coefficients(delta, g)
    for _ in range(trials):
        xs = [rng.randint(-50, 50) for _ in range(delta + 1)]
        c = [Fraction(0)] * (delta + 1)
        for i, x in enumerate(xs):
            if x == 0:
                continue
            expansion = _one_minus_q_power(2 * (g - i) - 2, delta)
            for n in range(i, delta + 1):
                c[n] += x * expansion[n - i]
        recovered = sum(ai * ci for ai, ci in zip(a, c))
        if recovered != xs[delta]:
            return False
    return True


# -- Hom(I, O/I) tangent-space oracle ----------------------------------------


def _minimal_generators(mu):
    """Minimal monomial generators of the ideal of mu, as (a, b) exponents,
    ordered by decreasing u-exponent."""
    mu = check_partition(mu)
    gens = []
    prev = None
    for b in range(len(mu) + 1):
        width = mu[b] if b < len(mu) else 0
        if prev is None or width < prev:
            gens.append((width, b))
            prev = width
    return gens


def hom_tangent_exponents(mu) -> list[tuple[int, int]]:
    """Weight multiset of Hom(I, O/I) as (du, dv) exponent pairs.

    Unknowns are the coefficients of generator -> quotient-monomial maps;
    the syzygy between consecutive generators g_r, g_{r+1} (their lcm) cuts
    out the module maps.  The weight decomposition is block diagonal, so
    the kernel dimension is computed per exponent pair by exact Gaussian
    elimination.
    """
    mu = check_partition(mu)
    quotient = {(a, b) for b, part in enumerate(mu) for a in range(part)}
    gens = _minimal_generators(mu)

    candidates: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for r, (ga, gb) in enumerate(gens):
        for cell in quotient:
            key = (cell[0] - ga, cell[1] - gb)
            candidates.setdefault(key, []).append((r, cell))

    weights = []
    for key, cols in sorted(candidates.items()):
        col_index = {col: j for j, col in enumerate(cols)}
        rows = []
        for r in range(len(gens) - 1):
            (a1, b1), (a2, b2) = gens[r], gens[r + 1]
            lcm = (a1, b2)
            # v^{b2-b1} g_r = u^{a1-a2} g_{r+1}; compare images in O/I
            for cell in quotient:
                row = [Fraction(0)] * len(cols)
                involved = False
                src1 = (cell[0], cell[1] - (b2 - b1))
                if src1 in quotient and (r, src1) in col_index:
                    row[col_index[(r, src1)]] += 1
                    involved = True
                src2 = (cell[0] - (a1 - a2), cell[1])
                if src2 in quotient and (r + 1, src2) in col_index:
                    row[col_index[(r + 1, src2)]] -= 1
                    involved = True
                if involved and any(row):
                    rows.append(row)
        dim = len(cols) - _rank(rows, len(cols))
        weights.extend([key] * dim)
    assert len(weights) == 2 * sum(mu)
    return weights


def _rank(rows, width: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def hom_tangent_characters(mu, t1: Character, t2: Character) -> list[Character]:
    """Oracle weights as characters in the same convention as the formula:
    the tangent space is the dual-and-quotient Hom built over function
    characters, so an exponent pair (du, dv) contributes t1^{du} t2^{dv}."""
    return [char_mul(char_pow(t1, du), char_pow(t2, dv)) for du, dv in hom_tangent_exponents(mu)]


def hilb_weights_match_oracle(mu, t1: Character, t2: Character, spec: Specialization) -> bool:
    formula = sorted(spec.value(w) for w in hilb_tangent_weights(mu, t1, t2))
    oracle = sorted(spec.value(w) for w in hom_tangent_characters(mu, t1, t2))
    return formula == oracle
