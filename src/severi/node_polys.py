"""Reconstruction of the node polynomials by exact interpolation.

The count of delta-nodal degree-d planar curves through general lines is a
polynomial in d of degree at most 9 + 2*delta once d >= delta.  Sampling
the localized count at 10 + 2*delta consecutive valid degrees therefore
determines the polynomial.  Two extra samples are always evaluated, and the
interpolant through all 12 + 2*delta samples must have degree below
10 + 2*delta, which holds exactly when both extra samples agree with the
interpolant of the others; this catches both degree-bound violations and
sampling-window mistakes.  Sampling starts at d = delta + 1, inside the
regime where the count is known to be polynomial.

For the fixed-plane variant the count is a polynomial of degree 2*delta
(Kleiman-Piene; Kool-Shende-Thomas), which is asserted on the same
interpolant; the same window is used and stability is checked the same way.
Its samples are one plane's chart sums, the one-plane case of the lifted
readout (see ``localization._plane_units``), so they run serially whatever
``jobs`` is.  ``oracles.goettsche_p2_check`` checks these
polynomials against Goettsche's generating function, independently of the
localization.

All the samples come from one ``integrate`` call, which evaluates some of
them directly and interpolates the others (see ``localization.integrate``).

Records are persisted as one JSON file per (delta, mode) holding the
record's fields and ``CACHE_VERSION``; a file of another version is a miss.
Coefficients are exact ``p/q`` strings so the round trip is lossless.
Writes go through a temp file and an atomic rename.  A record stores
whether its samples were verified under a second specialization, and a
request with verification on treats an unverified record as a miss.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field, fields
from math import factorial, isfinite

from .integrand import P2_FIXED, P3, IntegrandSpec, MODES
# count_nodal is not called here any more; the benchmark's tracer
# (bench/spans.py) still rebinds node_polys.count_nodal, so it stays importable
from .localization import count_nodal, nodal_counts  # noqa: F401
from .unipoly import UniPoly, lagrange_interpolate

CACHE_VERSION = "severi-3"


@dataclass(frozen=True)
class NodePolynomialRecord:
    delta: int
    mode: str
    polynomial: UniPoly
    sample_ds: tuple[int, ...]
    check_ds: tuple[int, ...]
    seed: int
    verified: bool = False
    created_at: float = field(default_factory=time.time)

    def ordered_polynomial(self) -> UniPoly:
        """delta! times the polynomial (the ordered-nodes normalization)."""
        return self.polynomial.scaled(factorial(self.delta))


def valid_degrees(delta: int, mode: str, count: int) -> list[int]:
    """The first ``count`` degrees d >= delta + 1 admitting the integral."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
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
    n_samples = 10 + 2 * delta
    ds = valid_degrees(delta, mode, n_samples + 2)
    sample_ds, check_ds = ds[:n_samples], ds[n_samples:]

    values = nodal_counts(delta, ds, mode, seed=seed, verify=verify, jobs=jobs).values
    poly = lagrange_interpolate(list(zip(ds, values)))
    if poly.degree() >= n_samples:
        raise ArithmeticError(
            "degree bound violated or sampling window invalid (delta="
            f"{delta}, mode={mode}: the extra sample at d = {check_ds[0]} or "
            f"{check_ds[1]} disagrees with the interpolant of the others)"
        )
    if mode == P2_FIXED and poly.degree() > 2 * delta:
        raise ArithmeticError(
            f"fixed-plane polynomial for delta={delta} has degree {poly.degree()} "
            f"above the bound {2 * delta}"
        )
    return NodePolynomialRecord(
        delta=delta,
        mode=mode,
        polynomial=poly,
        sample_ds=tuple(sample_ds),
        check_ds=tuple(check_ds),
        seed=seed,
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


def cached_deltas(mode: str, cache_dir: str) -> list[int]:
    """The deltas, in order, whose record file for ``mode`` is in
    ``cache_dir``; ``load`` still decides whether each holds a record."""
    name = re.compile(rf"node-poly-{mode}-delta(0|[1-9][0-9]*)\.json")
    try:
        found = [name.fullmatch(entry) for entry in os.listdir(cache_dir)]
    except OSError:
        return []
    return sorted(int(m[1]) for m in found if m)


def store(record: NodePolynomialRecord, cache_dir: str | None = None) -> str:
    """Persist a record; atomic replace so readers never see partial files."""
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, record.delta, record.mode)
    payload = {f.name: getattr(record, f.name) for f in fields(record)}
    payload["polynomial"] = record.polynomial.to_coeff_strings()
    payload["cache_version"] = CACHE_VERSION
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


# a coefficient as ``store`` writes it
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def load(delta: int, mode: str, cache_dir: str | None = None) -> NodePolynomialRecord | None:
    """Load a cached record; any corruption or version mismatch is a miss,
    and so is a field of the wrong type."""
    cache_dir = cache_dir or default_cache_dir()
    path = _cache_path(cache_dir, delta, mode)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("cache_version") != CACHE_VERSION:
            return None
        if payload.get("delta") != delta or payload.get("mode") != mode:
            return None
        values = {f.name: payload[f.name] for f in fields(NodePolynomialRecord)}
        coefficients, ds = values["polynomial"], (values["sample_ds"], values["check_ds"])
        if not (
            isinstance(coefficients, list)
            and all(isinstance(c, str) and _RATIONAL.fullmatch(c) for c in coefficients)
            and all(isinstance(v, list) and v and all(type(d) is int for d in v) for v in ds)
            and all(type(values[name]) is int for name in ("delta", "seed"))
            and type(values["verified"]) is bool
            and type(values["created_at"]) in (int, float)
            and isfinite(values["created_at"])
        ):
            return None
        values["polynomial"] = UniPoly.from_coeff_strings(coefficients)
        values["sample_ds"] = tuple(values["sample_ds"])
        values["check_ds"] = tuple(values["check_ds"])
        return NodePolynomialRecord(**values)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
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
