"""Calibration gate for the weight conventions.

The global sign and dualization conventions of the equivariant weights are
not recoverable from first principles alone; they are pinned by fixtures
that over-determine them.  Three independent fixture families are checked:

  * the twelve classical incidence classes nu_{d, delta, n} computed by the
    localization-free Chow-ring path must reproduce their known integer
    coefficients;
  * the localized count of smooth plane curves of degree d through the
    maximal number of general lines must match, for d = 1..5, the reference
    values of the degree-zero count polynomial;
  * two localized one-nodal counts, one per mode, must match their classical
    values.  A delta = 0 count reads only the integral for i = 0, which has
    no partition, so these are the fixtures that read the Hilbert tangent
    and tautological cell weights.

A fixture whose computation raises ArithmeticError, as the localization
does when a count is not an integer, fails the gate too.  Every
command-line entry point runs this gate (it takes a few milliseconds)
before reporting any localization result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crosscheck import nu_class
from .integrand import P2_FIXED, P3
from .localization import nodal_counts

NU_TABLE = {
    (1, 0, 2): 1,
    (1, 0, 3): 2,
    (1, 0, 4): 2,
    (1, 0, 5): 0,
    (2, 0, 5): 1,
    (2, 0, 6): 8,
    (2, 0, 7): 34,
    (2, 0, 8): 92,
    (3, 1, 8): 12,
    (3, 1, 9): 216,
    (3, 1, 10): 2040,
    (3, 1, 11): 12960,
}

# smooth plane curves of degree 1..5 through the maximal number of general
# lines in P^3 (values of the degree-zero count polynomial)
SMOOTH_COUNTS = {1: 0, 2: 92, 3: 1500, 4: 11780, 5: 61880}

# one-nodal counts per (mode, d): line pairs meeting 7 general lines in P^3,
# and one-nodal plane cubics through 8 general points, 3(d - 1)^2
ONE_NODAL_COUNTS = {(P3, 2): 140, (P2_FIXED, 3): 12}


@dataclass(frozen=True)
class CalibrationCheck:
    name: str
    expected: int
    got: int

    @property
    def ok(self) -> bool:
        return self.expected == self.got


class CalibrationError(RuntimeError):
    pass


def run_calibration(seed: int = 0) -> list[CalibrationCheck]:
    checks = []
    for (d, delta, n), coeff in sorted(NU_TABLE.items()):
        nc = nu_class(d, delta, n)
        checks.append(CalibrationCheck(f"nu[{d},{delta},{n}]", coeff, nc.coefficient))
    ds = sorted(SMOOTH_COUNTS)
    for d, got in zip(ds, nodal_counts(0, ds, seed=seed).values):
        checks.append(CalibrationCheck(f"smooth-count[d={d}]", SMOOTH_COUNTS[d], got))
    for (mode, d), expected in ONE_NODAL_COUNTS.items():
        (got,) = nodal_counts(1, (d,), mode, seed=seed).values
        checks.append(CalibrationCheck(f"one-nodal-count[{mode},d={d}]", expected, got))
    return checks


_calibrated = False


def ensure_calibrated(seed: int = 0) -> None:
    """Run the gate once per process; raise naming the first failing fixture."""
    global _calibrated
    if _calibrated:
        return
    try:
        checks = run_calibration(seed)
    except ArithmeticError as exc:
        raise CalibrationError(f"calibration failed: {exc}") from exc
    for check in checks:
        if not check.ok:
            raise CalibrationError(
                f"calibration fixture {check.name} failed: "
                f"expected {check.expected}, got {check.got}"
            )
    _calibrated = True
