#!/usr/bin/env python3
"""Interleaved benchmark pairs: a parent commit against the working tree.

    python3 tools/pairs.py PARENT_REF --workload W --pairs N --seconds S

Exports PARENT_REF with ``git archive`` into a temporary directory, then
runs ``bench/run.py --workload W --seed k --seconds S --trace 0`` in that
tree and in this checkout's working tree for k = 1..N, one pair per seed,
alternating which tree runs first (the parent for odd k).  On a shared
machine single runs are noise, and interleaving spreads its drift over both
sides.  Each run gets a fresh, empty bytecode cache directory, so neither
side reads bytecode left in its tree.

For each end-to-end metric of ``BENCHMARK.json`` it prints the parent's and
the change's medians, the parent's interquartile range and the pairs in
which the change was better (ties count for neither side).  Exit 0 if every
run was correct, 1 if one was not (it exited nonzero or reported
``correct: false``), 2 if the parent cannot be exported.  The temporary
tree is removed.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The end-to-end metrics {name: value} of one benchmark run in ``tree``,
    or None if the run was not correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # DONTWRITEBYTECODE does not stop a stale __pycache__ in the tree from
    # being read; an empty prefix makes every run compile from source
    with tempfile.TemporaryDirectory(prefix="severi-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode or not result.get("correct"):
        sys.stderr.write(done.stderr)
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def export(ref: str, dest: Path, repo: Path = REPO) -> bool:
    """Write the tree of ``ref`` in ``repo`` into ``dest`` with ``git archive``;
    False, with git's message on stderr, if it cannot."""
    archive = subprocess.run(["git", "archive", ref], cwd=repo, capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return False
    # the repository's own tree: extracted as is (tarfile's ``filter``
    # keyword is missing before Python 3.11.4)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return True


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(declared: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per declared end-to-end metric, from the metrics of the
    parent's and the change's runs, pair by pair."""
    lines = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        q1, q3 = quartiles(before)
        lines.append(
            f"{name}: parent {statistics.median(before):.4g} -> change"
            f" {statistics.median(after):.4g} {unit} (parent IQR {q1:.4g}-{q3:.4g};"
            f" change better in {wins}/{len(before)})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change, wrong = [], [], 0
    with tempfile.TemporaryDirectory(prefix="severi-parent-") as tmp:
        if not export(args.parent, Path(tmp)):
            return 2
        trees = {"parent": (Path(tmp), parent), "change": (REPO, change)}
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                tree, runs = trees[side]
                metrics = run_bench(tree, args.workload, seed, args.seconds)
                if metrics is None:
                    print(f"seed {seed}: the {side} run is not correct", file=sys.stderr)
                    wrong += 1
                else:
                    runs.append(metrics)
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, parent {args.parent}")
    if wrong:
        print(f"{wrong} incorrect runs; no summary")
        return 1
    for line in summary(declared, parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
