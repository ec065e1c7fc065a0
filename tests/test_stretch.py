"""Stretch validation beyond the acceptance targets.

The delta=6 spot values (about 0.1 s each), the delta=5 polynomial
reconstruction (about 0.3 s), the delta=7 polynomial with verify on (about
2.5 s) and Goettsche's check of the fixed-plane polynomials for delta <= 10
(5-8 s, most of it the delta = 9 and 10 polynomials), timed on 2 cores, run
in every test run.
"""

import pytest
from helpers import ORDERED_REFERENCE, factorial

from severi.integrand import P2_FIXED
from severi.localization import count_nodal, default_jobs
from severi.node_polys import node_polynomial
from severi.oracles import goettsche_p2_check
from severi.unipoly import UniPoly


def test_delta5_polynomial_matches_reference():
    rec = node_polynomial(5, jobs=default_jobs())
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[5]


# The p3 delta = 7 node polynomial as this package computed it, ascending
# coefficients.  A regression pin, not an independent check: no reference
# outside this package reaches delta = 7, so it guards a change to the
# evaluator beyond the delta <= 6 references, but it cannot tell a wrong
# polynomial that was pinned from a right one.
DELTA7_PIN = (
    "-2257799880", "6863210679", "-969912531241/140", "4220444911511/2520",
    "1414383467909/1008", "-18688160346187/30240", "-6787284497981/30240",
    "223523023139/2880", "3506892852821/60480", "-20133690323/2160",
    "-224154325181/20160", "22294947557/15120", "77840061643/60480",
    "-737046551/4032", "-70257793/756", "875704283/60480", "9540513/2240",
    "-804353/1120", "-270579/2240", "36529/1680", "867/448", "-165/448",
    "-3/224", "3/1120",
)


def test_delta7_polynomial_equals_its_regression_pin():
    rec = node_polynomial(7, verify=True, jobs=default_jobs())
    assert tuple(rec.polynomial.to_coeff_strings()) == DELTA7_PIN
    assert (rec.sample_ds, rec.check_ds) == (tuple(range(8, 32)), (32, 33))
    assert rec.verified


@pytest.mark.parametrize("d", [5, 6])
def test_delta6_spot_values(d):
    expected = ORDERED_REFERENCE[6](d) / factorial(6)
    assert count_nodal(6, d, jobs=default_jobs()) == expected


def test_fixed_plane_polynomials_to_delta10_meet_goettsches_divisor_sum_series():
    # the d^2 part of log sum_k T_k(d) x^k at x = DG2(q) is 1/2 log(DG2/q)
    # up to q^10; adding 1 to the d^2 coefficient of T_10 breaks it at q^10
    polys = [node_polynomial(delta, P2_FIXED).polynomial for delta in range(11)]
    assert goettsche_p2_check(polys)
    coeffs = list(polys[10].coeffs)
    coeffs[2] += 1
    assert not goettsche_p2_check(polys[:10] + [UniPoly(coeffs)])
