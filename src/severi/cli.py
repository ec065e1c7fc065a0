"""Command-line front end.

Subcommands:

  count   one nodal count N_{delta,d}
  poly    reconstruct (and cache) the node polynomial for one delta
  check   run the verification suite; exit 0 iff everything passes
  table   dump cached node polynomials

Exit codes: 0 success, 1 verification failure, 2 invalid input.  JSON output
is canonical (sorted keys) and, for a fixed seed, byte-identical across
runs; timing is only included when requested, so that the default output
stays deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .calibrate import CalibrationError, ensure_calibrated, run_calibration
from .crosscheck import reducible_count
from .integrand import P2_FIXED, P3, IntegrandSpec
from .localization import count_nodal, nodal_count
from .node_polys import default_cache_dir, load, node_polynomial_cached
from .partitions import enumerate_fixed_points
from .weights import Specialization

SCHEMA_VERSION = 1

TABLE_CASES = (
    (1, 2, 140),
    (3, 3, 7280),
    (6, 4, 261800),
    (0, 2, 92),
    (2, 3, 15660),
    (5, 4, 1303500),
    (4, 4, 3071796),
    (8, 5, 385022820),
)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    specialization: Specialization | None
    seed: int
    jobs: int
    verify: bool
    cache_dir: str
    as_json: bool
    timing: bool

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("worker count must be >= 1")


def _mode(arg: str) -> str:
    return {"p3": P3, "p2": P2_FIXED}[arg]


def _config(args, default_verify: bool) -> RunConfig:
    spec = None
    if args.spec is not None:
        parts = [Fraction(x) for x in args.spec.split(",")]
        if len(parts) != 4:
            raise ValueError("--spec needs exactly 4 comma-separated values")
        spec = Specialization(tuple(parts))
    verify = default_verify
    if args.verify:
        verify = True
    if args.no_verify:
        verify = False
    return RunConfig(
        mode=_mode(args.mode),
        specialization=spec,
        seed=args.seed,
        jobs=args.jobs,
        verify=verify,
        cache_dir=args.cache_dir or default_cache_dir(),
        as_json=args.json,
        timing=args.timing,
    )


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def cmd_count(args) -> int:
    cfg = _config(args, default_verify=False)
    ensure_calibrated(cfg.seed)
    t0 = time.time()
    result = nodal_count(
        args.delta,
        args.degree,
        cfg.mode,
        specialization=cfg.specialization,
        seed=cfg.seed,
        verify=cfg.verify,
        jobs=cfg.jobs,
    )
    elapsed = time.time() - t0
    value = result.value
    fp_counts = {i: len(enumerate_fixed_points(i)) for i in range(args.delta + 1)}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "count",
        "delta": args.delta,
        "degree": args.degree,
        "mode": cfg.mode,
        "count": value,
        "fixed_points": fp_counts,
        "specialization": result.specialization.describe(),
        "seed": cfg.seed,
        "verified": cfg.verify,
    }
    if cfg.timing:
        payload["timing_s"] = round(elapsed, 3)
    lines = [str(value)]
    if cfg.timing:
        lines.append(f"# {elapsed:.2f}s, fixed points {fp_counts}")
    _emit(payload, cfg.as_json, lines)
    return 0


def cmd_poly(args) -> int:
    cfg = _config(args, default_verify=True)
    ensure_calibrated(cfg.seed)
    rec = node_polynomial_cached(
        args.delta,
        cfg.mode,
        cache_dir=cfg.cache_dir,
        seed=cfg.seed,
        verify=cfg.verify,
        jobs=cfg.jobs,
    )
    ordered = rec.ordered_polynomial()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "poly",
        "delta": args.delta,
        "mode": cfg.mode,
        "coefficients": rec.polynomial.to_coeff_strings(),
        "ordered_coefficients": ordered.to_coeff_strings(),
        "degree": rec.polynomial.degree(),
        "sample_ds": list(rec.sample_ds),
        "seed": rec.seed,
        "verified": rec.verified,
    }
    lines = [
        f"N_{args.delta}(d) = {rec.polynomial}",
        f"{args.delta}! * N_{args.delta}(d) = {ordered}",
        f"# degree {rec.polynomial.degree()}, samples d = {rec.sample_ds[0]}..{rec.sample_ds[-1]}",
    ]
    _emit(payload, cfg.as_json, lines)
    return 0


def cmd_check(args) -> int:
    cfg = _config(args, default_verify=True)
    sections = []
    only = args.only

    def want(name: str) -> bool:
        return only is None or only == name

    if want("nu") or want("calibration"):
        cases = [
            {"name": c.name, "expected": c.expected, "got": c.got, "ok": c.ok}
            for c in run_calibration(cfg.seed)
        ]
        sections.append({"name": "calibration", "cases": cases})

    if want("tables"):
        cases = []
        for delta, d, expected in TABLE_CASES:
            if delta > args.max_delta:
                continue
            combinatorial = reducible_count(delta, d)
            localized = count_nodal(delta, d, seed=cfg.seed, jobs=cfg.jobs)
            cases.append(
                {
                    "name": f"N[{delta},{d}]",
                    "expected": expected,
                    "combinatorial": combinatorial,
                    "localized": localized,
                    "ok": combinatorial == expected == localized,
                }
            )
        sections.append({"name": "tables", "cases": cases})

    if want("bps"):
        from .oracles import bps_series_check

        cases = []
        for delta in range(0, 13):
            ok = all(bps_series_check(delta, g) for g in range(0, 41, 8))
            cases.append({"name": f"bps[delta={delta}]", "ok": ok})
        sections.append({"name": "bps", "cases": cases})

    if want("weights"):
        from .oracles import hilb_weights_match_oracle
        from .partitions import partitions, plane_points
        from .weights import chart_weights

        spec_w = cfg.specialization or Specialization.from_seed(cfg.seed * 17 + 3)
        cases = []
        for size in range(0, 6):
            for mu in partitions(size):
                ok = True
                for plane in range(4):
                    for point in plane_points(plane):
                        t1, t2 = chart_weights(plane, point)
                        ok = ok and hilb_weights_match_oracle(mu, t1, t2, spec_w)
                cases.append({"name": f"hom-oracle[{list(mu)}]", "ok": ok})
        sections.append({"name": "weights", "cases": cases})

    if want("dualspec"):
        cases = []
        for delta in range(0, 3):
            for d in (2, 3):
                if d < 1:
                    continue
                try:
                    IntegrandSpec(i=0, delta=delta, d=d, mode=cfg.mode)
                except ValueError:
                    continue
                a = count_nodal(delta, d, cfg.mode, seed=cfg.seed, jobs=cfg.jobs)
                b = count_nodal(
                    delta,
                    d,
                    cfg.mode,
                    specialization=Specialization.from_seed(cfg.seed * 31 + 7),
                    jobs=cfg.jobs,
                )
                cases.append({"name": f"dualspec[{delta},{d}]", "ok": a == b})
        sections.append({"name": "dualspec", "cases": cases})

    all_ok = all(case.get("ok", False) for s in sections for case in s["cases"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "passed": all_ok,
        "sections": sections,
    }
    lines = []
    for s in sections:
        good = sum(1 for c in s["cases"] if c["ok"])
        lines.append(f"[{s['name']}] {good}/{len(s['cases'])} pass")
        for c in s["cases"]:
            if not c["ok"]:
                lines.append(f"  FAIL {c['name']}: {c}")
    lines.append("ALL PASS" if all_ok else "FAILURES PRESENT")
    _emit(payload, cfg.as_json, lines)
    return 0 if all_ok else 1


def cmd_table(args) -> int:
    cfg = _config(args, default_verify=False)
    rows = []
    for mode in (P3, P2_FIXED):
        for delta in range(0, 16):
            rec = load(delta, mode, cfg.cache_dir)
            if rec is not None:
                rows.append(
                    {
                        "delta": delta,
                        "mode": mode,
                        "degree": rec.polynomial.degree(),
                        "coefficients": rec.polynomial.to_coeff_strings(),
                    }
                )
    payload = {"schema_version": SCHEMA_VERSION, "command": "table", "polynomials": rows}
    lines = [f"delta={r['delta']} mode={r['mode']} degree={r['degree']}" for r in rows] or [
        "(cache empty)"
    ]
    _emit(payload, cfg.as_json, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description="Exact counts of nodal plane curves in P^3 meeting general lines.",
    )
    parser.add_argument("--version", action="version", version=f"severi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=("p3", "p2"), default="p3")
        p.add_argument("--spec", help="explicit torus values, e.g. 2,3,5,7", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--json", action="store_true")
        p.add_argument("--timing", action="store_true")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--verify", action="store_true", help="force dual-specialization check")
        p.add_argument("--no-verify", action="store_true", help="skip dual-specialization check")

    p_count = sub.add_parser("count", help="one nodal count")
    p_count.add_argument("--delta", type=int, required=True)
    p_count.add_argument("--degree", type=int, required=True)
    common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_poly = sub.add_parser("poly", help="reconstruct a node polynomial")
    p_poly.add_argument("--delta", type=int, required=True)
    common(p_poly)
    p_poly.set_defaults(func=cmd_poly)

    p_check = sub.add_parser("check", help="verification suite")
    p_check.add_argument(
        "--only",
        choices=("nu", "calibration", "tables", "bps", "weights", "dualspec"),
        default=None,
    )
    p_check.add_argument(
        "--max-delta",
        type=int,
        default=8,
        help="largest delta of the table cases to run (8 runs everything)",
    )
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table", help="dump cached polynomials")
    common(p_table)
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
