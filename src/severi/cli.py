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
from fractions import Fraction

from . import __version__
from .calibrate import CalibrationError, ensure_calibrated, run_calibration
from .crosscheck import reducible_count
from .integrand import P2_FIXED, P3, IntegrandSpec
from .localization import count_nodal, nodal_counts
from .node_polys import default_cache_dir, load, node_polynomial_cached
from .partitions import enumerate_fixed_points
from .weights import NonGenericSpecialization, Specialization

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


def worker_count(arg: str) -> int:
    jobs = int(arg)
    if jobs < 1:
        raise argparse.ArgumentTypeError("worker count must be >= 1")
    return jobs


def _specialization(args) -> Specialization | None:
    if args.spec is None:
        return None
    parts = [Fraction(x) for x in args.spec.split(",")]
    if len(parts) != 4:
        raise ValueError("--spec needs exactly 4 comma-separated values")
    return Specialization(tuple(parts))


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def cmd_count(args) -> int:
    specialization = _specialization(args)
    ensure_calibrated(args.seed)
    t0 = time.time()
    try:
        result = nodal_counts(
            args.delta,
            (args.degree,),
            args.mode,
            specialization=specialization,
            seed=args.seed,
            verify=args.verify,
            jobs=args.jobs,
        )
    except NonGenericSpecialization as exc:
        if specialization is None:
            raise
        raise NonGenericSpecialization(
            f"{exc}; choose other --spec values or omit --spec"
        ) from None
    elapsed = time.time() - t0
    (value,) = result.values
    fp_counts = {i: len(enumerate_fixed_points(i)) for i in range(args.delta + 1)}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "count",
        "delta": args.delta,
        "degree": args.degree,
        "mode": args.mode,
        "count": value,
        "fixed_points": fp_counts,
        "specialization": result.specialization.describe(),
        "seed": args.seed,
        "verified": args.verify,
    }
    if args.timing:
        payload["timing_s"] = round(elapsed, 3)
    lines = [str(value)]
    if args.timing:
        lines.append(f"# {elapsed:.2f}s, fixed points {fp_counts}")
    _emit(payload, args.json, lines)
    return 0


def cmd_poly(args) -> int:
    ensure_calibrated(args.seed)
    rec = node_polynomial_cached(
        args.delta,
        args.mode,
        cache_dir=args.cache_dir or default_cache_dir(),
        seed=args.seed,
        verify=args.verify,
        jobs=args.jobs,
    )
    ordered = rec.ordered_polynomial()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "poly",
        "delta": args.delta,
        "mode": args.mode,
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
    _emit(payload, args.json, lines)
    return 0


def cmd_check(args) -> int:
    specialization = _specialization(args)
    sections = []
    only = args.only

    def want(name: str) -> bool:
        return only is None or only == name

    if want("nu") or want("calibration"):
        cases = [
            {"name": c.name, "expected": c.expected, "got": c.got, "ok": c.ok}
            for c in run_calibration(args.seed)
        ]
        sections.append({"name": "calibration", "cases": cases})

    if want("tables"):
        cases = []
        for delta, d, expected in TABLE_CASES:
            if delta > args.max_delta:
                continue
            combinatorial = reducible_count(delta, d)
            localized = count_nodal(delta, d, seed=args.seed, jobs=args.jobs)
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

        spec_w = specialization or Specialization.from_seed(args.seed * 17 + 3)
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
                try:
                    IntegrandSpec(i=0, delta=delta, d=d, mode=args.mode)
                except ValueError:
                    continue
                try:
                    # verify recomputes every integral under a second draw
                    count_nodal(delta, d, args.mode, seed=args.seed, verify=True, jobs=args.jobs)
                    ok = True
                except ArithmeticError:
                    ok = False
                cases.append({"name": f"dualspec[{delta},{d}]", "ok": ok})
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
    _emit(payload, args.json, lines)
    return 0 if all_ok else 1


def cmd_table(args) -> int:
    cache_dir = args.cache_dir or default_cache_dir()
    rows = []
    for mode in (P3, P2_FIXED):
        for delta in range(0, 16):
            rec = load(delta, mode, cache_dir)
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
    _emit(payload, args.json, lines)
    return 0


# each subcommand registers only the flags it reads
FLAGS = {
    "mode": dict(choices=(P3, P2_FIXED), default=P3),
    "spec": dict(default=None, help="explicit torus values, e.g. 2,3,5,7"),
    "seed": dict(type=int, default=0),
    "jobs": dict(type=worker_count, default=1),
    "json": dict(action="store_true"),
    "timing": dict(action="store_true"),
    "cache-dir": dict(default=None),
}


def _flags(parser, *names, verify=None) -> None:
    """Add the named ``FLAGS``, and --verify/--no-verify with the given
    default unless it is None."""
    for name in names:
        parser.add_argument(f"--{name}", **FLAGS[name])
    if verify is not None:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--verify", action="store_true", help="force dual-specialization check")
        group.add_argument(
            "--no-verify", dest="verify", action="store_false", help="skip dual-specialization check"
        )
        parser.set_defaults(verify=verify)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description="Exact counts of nodal plane curves in P^3 meeting general lines.",
    )
    parser.add_argument("--version", action="version", version=f"severi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="one nodal count")
    p_count.add_argument("--delta", type=int, required=True)
    p_count.add_argument("--degree", type=int, required=True)
    _flags(p_count, "mode", "spec", "seed", "jobs", "json", "timing", verify=False)
    p_count.set_defaults(func=cmd_count)

    p_poly = sub.add_parser("poly", help="reconstruct a node polynomial")
    p_poly.add_argument("--delta", type=int, required=True)
    _flags(p_poly, "mode", "seed", "jobs", "json", "cache-dir", verify=True)
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
    _flags(p_check, "mode", "spec", "seed", "jobs", "json")
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table", help="dump cached polynomials")
    _flags(p_table, "json", "cache-dir")
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
