"""Reconstruction of the node polynomials by exact interpolation.

The count of delta-nodal degree-d planar curves through general lines is a
polynomial in d of degree at most 9 + 2*delta once d >= delta.  Sampling
the localized count at 10 + 2*delta consecutive valid degrees therefore
determines the polynomial; two extra sample points are always evaluated and
must agree with the interpolant, which catches both degree-bound violations
and sampling-window mistakes.  Sampling starts at d = delta + 1, inside the
regime where the count is known to be polynomial.

For the fixed-plane variant no degree bound is asserted a priori; the same
window is used and stability is checked the same way (the observed degree
is 2*delta).

Records are persisted as one JSON file per (delta, mode), keyed also by the
package version; coefficients are exact ``p/q`` strings so the round trip
is lossless.  Writes go through a temp file and an atomic rename.  A record
stores whether its samples were verified under a second specialization, and
a request with verification on treats an unverified record as a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from math import factorial

from .integrand import P3, IntegrandSpec, MODES
# count_nodal is not called here any more; the benchmark's tracer
# (bench/spans.py) still rebinds node_polys.count_nodal, so it stays importable
from .localization import count_nodal, nodal_counts  # noqa: F401
from .unipoly import UniPoly, lagrange_interpolate

CACHE_VERSION = "severi-2"


@dataclass(frozen=True)
class NodePolynomialRecord:
    delta: int
    mode: str
    polynomial: UniPoly
    sample_ds: tuple[int, ...]
    check_ds: tuple[int, ...]
    seed: int
    degree_bound_checked: bool
    verified: bool = False
    created_at: float = field(default_factory=time.time)
    cache_version: str = CACHE_VERSION

    def ordered_polynomial(self) -> UniPoly:
        """delta! times the polynomial (the ordered-nodes normalization)."""
        return self.polynomial.scaled(factorial(self.delta))


def valid_degrees(delta: int, mode: str, count: int) -> list[int]:
    """The first ``count`` degrees d >= delta + 1 admitting the integral."""
    out = []
    d = delta + 1
    while len(out) < count:
        try:
            IntegrandSpec(i=0, delta=delta, d=d, mode=mode)
        except ValueError:
            d += 1
            continue
        out.append(d)
        d += 1
    return out


def node_polynomial(
    delta: int,
    mode: str = P3,
    *,
    seed: int = 0,
    verify: bool = False,
    jobs: int = 1,
) -> NodePolynomialRecord:
    """Interpolate the node polynomial for ``delta`` and check stability.

    All samples come from one ``nodal_counts`` call.  ``verify``
    additionally runs every localization sample under a second
    specialization.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n_samples = 10 + 2 * delta
    ds = valid_degrees(delta, mode, n_samples + 2)
    sample_ds, check_ds = ds[:n_samples], ds[n_samples:]

    values = nodal_counts(delta, ds, mode, seed=seed, verify=verify, jobs=jobs).values
    poly = lagrange_interpolate(list(zip(sample_ds, values)))
    for d, value in zip(check_ds, values[n_samples:]):
        if poly(d) != value:
            raise ArithmeticError(
                "degree bound violated or sampling window invalid "
                f"(delta={delta}, mode={mode}, extra sample d={d})"
            )
    # the interpolant has degree <= 9 + 2*delta by construction; the extra
    # samples are what certify the true count agrees with it
    assert mode != P3 or poly.degree() <= 9 + 2 * delta
    return NodePolynomialRecord(
        delta=delta,
        mode=mode,
        polynomial=poly,
        sample_ds=tuple(sample_ds),
        check_ds=tuple(check_ds),
        seed=seed,
        degree_bound_checked=True,
        verified=verify,
    )


# -- persistence -------------------------------------------------------------


def default_cache_dir() -> str:
    env = os.environ.get("SEVERI_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "severi")


def _cache_path(cache_dir: str, delta: int, mode: str) -> str:
    return os.path.join(cache_dir, f"node-poly-{mode}-delta{delta}.json")


def store(record: NodePolynomialRecord, cache_dir: str | None = None) -> str:
    """Persist a record; atomic replace so readers never see partial files."""
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, record.delta, record.mode)
    payload = {
        "cache_version": record.cache_version,
        "delta": record.delta,
        "mode": record.mode,
        "coefficients": record.polynomial.to_coeff_strings(),
        "sample_ds": list(record.sample_ds),
        "check_ds": list(record.check_ds),
        "seed": record.seed,
        "degree_bound_checked": record.degree_bound_checked,
        "verified": record.verified,
        "created_at": record.created_at,
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".node-poly-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load(delta: int, mode: str, cache_dir: str | None = None) -> NodePolynomialRecord | None:
    """Load a cached record; any corruption or version mismatch is a miss."""
    cache_dir = cache_dir or default_cache_dir()
    path = _cache_path(cache_dir, delta, mode)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("cache_version") != CACHE_VERSION:
            return None
        if payload.get("delta") != delta or payload.get("mode") != mode:
            return None
        return NodePolynomialRecord(
            delta=delta,
            mode=mode,
            polynomial=UniPoly.from_coeff_strings(payload["coefficients"]),
            sample_ds=tuple(payload["sample_ds"]),
            check_ds=tuple(payload["check_ds"]),
            seed=payload["seed"],
            degree_bound_checked=payload["degree_bound_checked"],
            verified=payload["verified"],
            created_at=payload["created_at"],
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def node_polynomial_cached(
    delta: int,
    mode: str = P3,
    *,
    cache_dir: str | None = None,
    seed: int = 0,
    verify: bool = False,
    jobs: int = 1,
) -> NodePolynomialRecord:
    """The cached record, or a fresh one that replaces it.

    A request with ``verify`` on never returns an unverified record.
    """
    rec = load(delta, mode, cache_dir)
    if rec is not None and (rec.verified or not verify):
        return rec
    rec = node_polynomial(delta, mode, seed=seed, verify=verify, jobs=jobs)
    store(rec, cache_dir)
    return rec
