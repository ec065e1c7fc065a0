"""Shared fixtures: published reference polynomials and table counts.

The ordered-node count polynomials delta! * N_delta(d) for delta <= 4 are
stored in factored form and expanded exactly; a few values are pinned
against the independently known table counts at import time, so a
transcription slip here fails loudly before any test runs.
"""

from fractions import Fraction

from severi.unipoly import UniPoly


def _poly(*coeff_lists):
    out = UniPoly([1])
    for cs in coeff_lists:
        out = out * UniPoly(cs)
    return out


# delta! * N_delta(d), ascending coefficient lists per factor
ORDERED_REFERENCE = {
    0: _poly([0, 1], [-1, 1], [2, 1], [1, 1], [6, 4, 1], [3, 13, 6, 2]).scaled(Fraction(1, 324)),
    1: _poly([0, 1], [3, 1], [2, 1], [-6, -10, 1, 4, 2], [-1, 1], [-1, 1], [1, 1], [1, 1]).scaled(
        Fraction(1, 108)
    ),
    2: _poly(
        [0, 1], [-1, 1], [-2, 1], [2, 1], [1, 1],
        [198, 18, 629, 333, -142, -255, -25, 30, 6],
    ).scaled(Fraction(1, 108)),
    3: _poly(
        [0, 1], [-1, 1], [-2, 1],
        [110700, -165798, 129360, 7039, -106948, -58136, 19103, 21919, 470, -2664, -315, 108, 18],
    ).scaled(Fraction(1, 108)),
    4: _poly(
        [-1, 1], [-3, 1],
        [3404160, -11795040, 12893256, -3282032, -4123550, 1150606, 1773729, 73143,
         -486678, -75352, 63140, 11660, -3843, -747, 90, 18],
    ).scaled(Fraction(1, 36)),
    # stretch targets (tests/test_stretch.py: the delta=5 polynomial, delta=6 spot values)
    5: _poly(
        [-1, 1],
        [4224182400, -12007211040, 11267964504, -1811459616, -2869526338, 563804514,
         752976733, 9946932, -198254910, -12936036, 32041927, 1450512, -2985967,
         -67218, 159342, 1152, -4545, 0, 54],
    ).scaled(Fraction(1, 36)),
    6: _poly(
        [1359752313600, -4582360442880, 5446674186768, -2089991213304, -777706339956,
         629801216266, 130703793592, -99732049025, -50159288793, 18632510223,
         10302259428, -3072121759, -1138677007, 327808568, 73412631, -21438711,
         -2772558, 836361, 56781, -17901, -486, 162],
    ).scaled(Fraction(1, 36)),
}

# (delta, d) -> count, from the classical consistency tables
TABLE_COUNTS = {
    (1, 2): 140,
    (3, 3): 7280,
    (6, 4): 261800,
    (0, 2): 92,
    (2, 3): 15660,
    (5, 4): 1303500,
    (4, 4): 3071796,
    (8, 5): 385022820,
}


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def reference_count(delta: int, d: int) -> Fraction:
    """N_delta(d) from the reference polynomial."""
    return ORDERED_REFERENCE[delta](d) / factorial(delta)


# transcription guards: the reference polynomials must hit the table counts
assert reference_count(0, 2) == 92
assert reference_count(1, 2) == 140
assert reference_count(2, 3) == 15660
assert reference_count(3, 3) == 7280
assert reference_count(4, 4) == 3071796
assert reference_count(5, 4) == 1303500
assert reference_count(6, 4) == 261800
