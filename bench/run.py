#!/usr/bin/env python3
"""End-to-end benchmark of the severi library, with a traced per-layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload count-deep --seed 1 --seconds 20 --trace 0

The benchmark imports the package from ``src/`` and drives its public API in
this one process: a closed loop with one client, each job starting after
the previous one has finished.  One pass over a workload's jobs is a job
set; job sets repeat, with the same inputs, until ``--seconds`` have passed
(at least one).  The workload seed is passed as ``seed=`` to the API and
picks the resampling and verification specializations; every answer is
exact and is checked against published values, so a fast wrong run fails.

``--trace 0`` prints the end-to-end metrics (medians over job sets).
``--trace 1`` runs one untraced job set and two traced ones, prints the
per-layer metrics, and writes the spans to ``.bench_out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the run.  The exit
code is 0 only for a correct run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # fresh set-up processes before each job set and after the last
UNCHARGED_SHARE = 0.02  # of traced wall time that may be charged to no layer

# fresh-process set-up: importing the package plus the calibration gate
# every command-line entry point runs first
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import severi.calibrate
t1 = time.perf_counter()
severi.calibrate.ensure_calibrated(int(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "gate_s": t2 - t1}))
"""


def import_package():
    """``severi`` from ``src/`` and the pinned reference values of the tests."""
    if not (ROOT / "src" / "severi" / "__init__.py").is_file() or not (
        ROOT / "tests" / "helpers.py"
    ).is_file():
        sys.exit(f"benchmark: no severi sources under {ROOT}; run from a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import helpers
    import severi

    return severi, helpers


# -- workloads -------------------------------------------------------------------


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def kleiman_piene_p2_delta3(severi):
    """3-nodal plane curves of degree d through the right number of points
    (Kleiman-Piene, math/9903192)."""
    h = Fraction(1, 2)
    return severi.UniPoly([525, -829 * h, -229, 423 * h, 9 * h, -27, 9 * h])


DEEP_COUNTS = ((4, 4), (5, 4), (6, 4))  # (delta, d); i runs up to 6


def count_jobs(severi, helpers, seed, scratch, jobs, *, cases=DEEP_COUNTS):
    return [
        Job(
            f"count_nodal({delta},{d},jobs={jobs})",
            partial(severi.count_nodal, delta, d, seed=seed, jobs=jobs),
            lambda value, expected=helpers.TABLE_COUNTS[(delta, d)]: value == expected,
        )
        for delta, d in cases
    ]


def poly_jobs(severi, helpers, seed, scratch, jobs):
    """Both delta=3 polynomials into an empty cache, then both again as hits."""
    references = {
        "p3": helpers.ORDERED_REFERENCE[3].scaled(Fraction(1, helpers.factorial(3))),
        "p2": kleiman_piene_p2_delta3(severi),
    }
    fresh = {}

    def request(mode):
        return severi.node_polynomial_cached(
            3, mode, cache_dir=scratch, seed=seed, verify=True, jobs=jobs
        )

    def compute(mode):
        fresh[mode] = request(mode)
        return fresh[mode]

    misses = [
        Job(f"node_polynomial_cached(3,{mode}) miss", partial(compute, mode),
            lambda rec, mode=mode: rec.polynomial == references[mode])
        for mode in references
    ]
    # a hit returns the stored record: equal to the fresh one, creation time included
    hits = [
        Job(f"node_polynomial_cached(3,{mode}) hit", partial(request, mode),
            lambda rec, mode=mode: rec == fresh[mode])
        for mode in references
    ]
    return misses + hits


@dataclass
class Workload:
    make_jobs: Callable  # (severi, helpers, seed, scratch dir, jobs) -> [Job]
    jobs: int


WORKLOADS = {
    "count-deep": Workload(count_jobs, jobs=1),
    "count-pool": Workload(count_jobs, jobs=2),
    "poly-sweep": Workload(poly_jobs, jobs=1),
}


# -- measuring ---------------------------------------------------------------------


def cpu_s() -> float:
    """User and system time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    return me.ru_utime + me.ru_stime + spans.children_cpu_s()


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, child) / 1024


def measure_setup(seed: int, samples: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout))
    return out


@dataclass
class JobSet:
    wall_s: float
    cpu_s: float
    job_walls: list[float]
    failed: int
    spans: list | None = None

    @property
    def attempted(self) -> int:
        return len(self.job_walls)


def run_jobset(workload: Workload, severi, helpers, seed: int, tracer=None) -> JobSet:
    scratch = tempfile.mkdtemp(prefix="jobset-", dir=OUT)
    try:
        jobs = workload.make_jobs(severi, helpers, seed, scratch, workload.jobs)
        failed, job_walls = 0, []
        if tracer is not None:
            tracer.install(severi)
        cpu0, t0 = cpu_s(), time.perf_counter()
        try:
            for n, job in enumerate(jobs):
                if tracer is not None:
                    tracer.run_id = n
                    span = tracer.begin(spans.JOB, job=job.name)
                started = time.perf_counter()
                try:
                    ok = job.check(job.call())
                except Exception:
                    traceback.print_exc()
                    ok = False
                job_walls.append(time.perf_counter() - started)
                if tracer is not None:
                    tracer.end(span, ok=ok)
                if not ok:
                    failed += 1
                    print(f"benchmark: wrong result from {job.name}", file=sys.stderr)
            wall, cpu = time.perf_counter() - t0, cpu_s() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return JobSet(wall, cpu, job_walls, failed, tracer.spans if tracer else None)


# -- the traced run ------------------------------------------------------------------


def traced_metrics(untraced: JobSet, traced: list[JobSet], gate_s: float, problems: list):
    """Per-layer medians over the traced job sets, with the trace checks."""
    per_set = [spans.layer_metrics(t.spans) for t in traced]
    for name in spans.COUNT_METRICS:
        values = {m[name] for m in per_set}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced job sets: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_set) for name in per_set[0]}
    metrics["calibrate.gate_s"] = gate_s

    traced_wall = statistics.median(t.wall_s for t in traced)
    overhead = traced_wall - untraced.wall_s
    # the time no layer was charged with (the job loop and the tracer's own
    # bookkeeping) must stay a small share of the traced wall time; it is not
    # bounded by the overhead above, which is within run-to-run noise and may
    # even be negative
    for t in traced:
        uncharged = spans.uncharged_s(t.spans, t.wall_s)
        allowed = UNCHARGED_SHARE * t.wall_s
        if uncharged > allowed:
            problems.append(
                f"{uncharged:.6f} s of the traced wall time is charged to no layer "
                f"(allowed {allowed:.6f} s); is a layer boundary no longer wrapped?"
            )
    metrics["trace.overhead_s"] = overhead
    return metrics


def code_digest() -> str:
    """Hash of the package and benchmark sources the counts come from."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def counts_path(workload: str, seed: int) -> Path:
    return OUT / f"counts-{workload}-seed{seed}-{code_digest()}.json"


def check_counts_repeat(workload: str, seed: int, metrics: dict, problems: list) -> None:
    """Counts must equal those of every earlier traced run of this seed on the
    same code; runs of other code are not compared, so a change may move them."""
    counts = {name: metrics[name] for name in spans.COUNT_METRICS}
    path = counts_path(workload, seed)
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, value in counts.items():
            if earlier.get(name) != value:
                problems.append(f"count {name} = {value}, an earlier run had {earlier.get(name)}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def write_trace(meta: dict, traced: list[JobSet]) -> Path:
    path = OUT / f"trace-{meta['workload']}-seed{meta['seed']}-{os.getpid()}.json"
    payload = {
        "meta": meta,
        "fields": ["name", "start", "end", "parent", "run", "attrs"],
        "jobsets": [t.spans for t in traced],
    }
    path.write_text(json.dumps(payload, default=str))
    return path


# -- entry point ---------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    severi, helpers = import_package()
    OUT.mkdir(exist_ok=True)
    severi.ensure_calibrated(args.seed)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": workload.jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    setup: list[dict] = []

    def run(tracer=None):
        # set-up is sampled throughout the run, not at one moment of it,
        # because the machine's speed drifts over seconds
        setup.extend(measure_setup(args.seed, SETUP_SAMPLES))
        return run_jobset(workload, severi, helpers, args.seed, tracer)

    problems: list[str] = []
    if args.trace:
        untraced = run()
        traced = [run(tracer=spans.Tracer()) for _ in range(2)]
        sets = [untraced] + traced
        setup.extend(measure_setup(args.seed, SETUP_SAMPLES))
        gate_s = statistics.median(s["gate_s"] for s in setup)
        metrics = traced_metrics(untraced, traced, gate_s, problems)
        check_counts_repeat(args.workload, args.seed, metrics, problems)
        meta["untraced_wall_s"] = untraced.wall_s
        meta["traced_wall_s"] = [t.wall_s for t in traced]
        meta["trace_file"] = os.path.relpath(write_trace(meta, traced), ROOT)
    else:
        sets = []
        start = time.perf_counter()
        while not sets or time.perf_counter() - start < args.seconds:
            sets.append(run())
        setup.extend(measure_setup(args.seed, SETUP_SAMPLES))
        meta["wall_s_samples"] = [s.wall_s for s in sets]
        meta["job_wall_s_samples"] = [s.job_walls for s in sets]
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in sets),
            "cpu_s": statistics.median(s.cpu_s for s in sets),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        }

    attempted = sum(s.attempted for s in sets)
    failed = sum(s.failed for s in sets)
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    meta["jobsets"] = len(sets)
    meta["setup_samples"] = len(setup)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
