"""Stretch validation beyond the acceptance targets.

The delta=6 spot values (about 0.1 s each) and the delta=5 polynomial
reconstruction (about 0.4 s), timed on 2 cores, run in every test run.
"""

import pytest
from helpers import ORDERED_REFERENCE, factorial

from severi.localization import count_nodal, default_jobs
from severi.node_polys import node_polynomial


def test_delta5_polynomial_matches_reference():
    rec = node_polynomial(5, jobs=default_jobs())
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[5]


@pytest.mark.parametrize("d", [5, 6])
def test_delta6_spot_values(d):
    expected = ORDERED_REFERENCE[6](d) / factorial(6)
    assert count_nodal(6, d, jobs=default_jobs()) == expected
