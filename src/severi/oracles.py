"""Independent oracles for the verification suite.

Each oracle recomputes a quantity along a different derivation path than
the production code and is compared exactly:

  * the BPS-style combination weights are checked against the defining
    series transformation, exactly, one row of its triangular relation per
    graded piece (with the powers of (1-q) expanded by the binomial and
    negative-binomial series, not by the falling-factorial binomial of the
    production path);

  * the Hilbert-scheme tangent weights from the arm/leg formula are checked
    against the torus decomposition of Hom(I, O/I) for the monomial ideal,
    computed from minimal generators and their syzygies by exact linear
    algebra;

  * the fixed-plane node polynomials are checked against the part of
    Goettsche's generating function that holds no unknown series, built
    from divisor sums alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .integrand import bps_coefficients
from .partitions import check_partition
from .unipoly import UniPoly
from .weights import Character, Specialization, char_mul, char_pow, hilb_tangent_weights


def _one_minus_q_power(e: int, order: int) -> list[int]:
    """(1 - q)^e as a series truncated after q^order, for any integer e.

    The ordinary binomial theorem for e >= 0, and the negative binomial
    series 1/(1-q)^m = sum_k C(m+k-1, k) q^k for e = -m.
    """
    if e >= 0:
        return [(-1) ** k * comb(e, k) for k in range(order + 1)]
    return [comb(-e + k - 1, k) for k in range(order + 1)]


def bps_series_check(delta: int, g: int) -> bool:
    """Verify the combination weights against the defining series identity.

    With graded pieces x_0..x_delta, the series sum_i x_i q^i (1-q)^{2(g-i)-2}
    has coefficients c_n = sum_i x_i E_i[n - i], E_i the expansion of
    (1-q)^{2(g-i)-2}, and c_0..c_delta must recombine to x_delta through the
    production weights a_n for every choice of the x_i.  That is the row
    identity sum_n a_n E_i[n - i] = [i == delta] for each i <= delta.
    """
    a = bps_coefficients(delta, g)
    return all(
        sum(a[n] * e for n, e in enumerate(_one_minus_q_power(2 * (g - i) - 2, delta - i), i))
        == int(i == delta)
        for i in range(delta + 1)
    )


# -- Goettsche's generating function on the plane -------------------------------


def _log_series(f: list[UniPoly]) -> list[UniPoly]:
    """log f, for a power series f with f[0] = 1, to the order of f: from
    f g' = f', n g_n = n f_n - sum_{0 < k < n} k g_k f_{n-k}."""
    g = [UniPoly.zero()]
    for n in range(1, len(f)):
        acc = f[n].scaled(n)
        for k in range(1, n):
            acc = acc + (g[k] * f[n - k]).scaled(-k)
        g.append(acc.scaled(Fraction(1, n)))
    return g


def goettsche_p2_check(polynomials) -> bool:
    """Check the fixed-plane node polynomials T_0 = 1, T_1..T_delta (in d)
    against Goettsche's conjecture (alg-geom/9711012; proved by Tzeng,
    arXiv:1009.5371, and by Kool-Shende-Thomas, arXiv:1010.3211), up to
    q^delta.

    For S = P^2 and L = O(d) it says that, at x = DG2(q) with
    DG2 = sum_n n sigma_1(n) q^n,

        log sum_k T_k(d) x^k = chi(L) log(DG2/q) + K^2 log B1 + L.K log B2 + c(q),

    with c(q) free of L: every q^n coefficient is linear in L^2 = d^2,
    L.K = -3d, K^2 and c_2.  So each q^n coefficient of the left side must
    have degree at most 2 in d and, as chi(L) = (d^2 + 3d)/2 + 1, a d^2
    coefficient equal to the q^n coefficient of 1/2 log(DG2/q), which is
    built from divisor sums alone.  The d^1 and d^0 parts hold the unknown
    series B1 and B2, so for one surface they check nothing.
    """
    delta = len(polynomials) - 1
    if polynomials[0] != UniPoly.constant(1):
        return False
    dg2 = [0] + [n * sum(k for k in range(1, n + 1) if n % k == 0) for n in range(1, delta + 2)]
    # sum_k T_k(d) DG2^k, kept to q^delta; DG2 starts at q^1
    series = [UniPoly.zero()] * (delta + 1)
    power = [1] + [0] * delta
    for t in polynomials:
        series = [s + t.scaled(c) for s, c in zip(series, power)]
        power = [sum(power[a] * dg2[n - a] for a in range(n + 1)) for n in range(delta + 1)]
    expected = _log_series([UniPoly.constant(c) for c in dg2[1:]])
    return all(
        p.degree() <= 2 and UniPoly(p.coeffs[2:]) == e.scaled(Fraction(1, 2))
        for p, e in zip(_log_series(series), expected)
    )


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
