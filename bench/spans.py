"""In-memory spans for the traced benchmark run, and the per-layer metrics.

The package is instrumented from outside: for the length of one traced job
set, each function that one module of ``severi`` calls in another is
replaced, by rebinding the module attribute the caller looks it up through,
with a wrapper that records a span (name, start, end, parent, run id).  The
originals are restored afterwards, so untraced job sets run the package
exactly as shipped.  Spans stay in memory; the benchmark writes them out
when it exits.

Self time of a span is its duration minus the durations of its direct
children.  Work the tracer does for itself after a span has ended (counting
integrand terms) is recorded as a ``bench.bookkeeping`` child, so it is
charged to no layer.
"""

from __future__ import annotations

import functools
import os
import resource
import time

# a span is [name, start, end, parent index or -1, run id, attrs]
NAME, START, END, PARENT, RUN, ATTRS = range(6)

MAX_I = 6  # per-i metrics exist for i = 0..MAX_I (the deepest workload count)

JOB = "bench.job"
BOOKKEEPING = "bench.bookkeeping"
BUILD = "integrand.build"
MUL = "graded.mul"
INTEGRATE = "localization.integrate"
POOL = "localization.pool"
SAMPLE = "node_polys.sample"
LOAD = "node_polys.cache_load"
STORE = "node_polys.cache_store"
INTERPOLATE = "unipoly.interpolate"


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS].update(attrs)
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def _bookkeeping(self, start: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([BOOKKEEPING, start, time.perf_counter(), parent, self.run_id, {}])

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args, kwargs)`` returns attributes known at the call;
        ``after(args, result)`` returns attributes of the result and is timed
        as bookkeeping, outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name, **(before(args, kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx, error=type(exc).__name__)
                raise
            tracer.end(idx)
            if after is not None:
                t0 = time.perf_counter()
                tracer.spans[idx][ATTRS].update(after(args, result))
                tracer._bookkeeping(t0)
            return result

        return traced

    # -- installing the wrappers ------------------------------------------

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, severi) -> None:
        """Rebind the layer boundaries of an imported ``severi`` package."""
        loc, integ, npol = severi.localization, severi.integrand, severi.node_polys

        def build_after(args, result):
            dim = args[0].dimension
            degree = result.table.monomial_degree
            below = sum(1 for exps in result.terms if degree(exps) < dim)
            return {"terms": len(result.terms), "below_dim": below}

        self._patch(loc, "integrate", self.wrap(
            loc.integrate, INTEGRATE,
            before=lambda a, kw: {"i": a[0].i, "spec": a[1].values},
            after=lambda a, r: {"points": r.fixed_point_count}))
        self._patch(loc, "build_integrand", self.wrap(
            loc.build_integrand, BUILD,
            before=lambda a, kw: {"i": a[0].i}, after=build_after))
        self._patch(integ, "graded_mul", self.wrap(integ.graded_mul, MUL))
        self._patch(loc, "ProcessPoolExecutor", _traced_pool(self, loc.ProcessPoolExecutor))
        self._patch(npol, "count_nodal", self.wrap(npol.count_nodal, SAMPLE))
        self._patch(npol, "lagrange_interpolate", self.wrap(npol.lagrange_interpolate, INTERPOLATE))
        self._patch(npol, "store", self.wrap(npol.store, STORE))
        self._patch(npol, "load", self.wrap(
            npol.load, LOAD, after=lambda a, r: {"hit": r is not None}))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _traced_pool(tracer: Tracer, base):
    """A process pool recorded as one span from construction to shutdown,
    with the CPU time of its workers, which shutdown reaps."""

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            self._bench_span = tracer.begin(POOL)
            self._bench_cpu0 = children_cpu_s()
            super().__init__(max_workers, *args, **kwargs)
            self._bench_workers = max_workers or os.cpu_count() or 1

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if self._bench_span is not None:
                idx, self._bench_span = self._bench_span, None
                tracer.end(idx, workers=self._bench_workers,
                           child_cpu=children_cpu_s() - self._bench_cpu0)

    return TracedPool


# -- per-layer metrics ---------------------------------------------------------


def self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def uncharged_s(spans, wall_s: float) -> float:
    """Wall time charged to no layer: the job loop, the tracer's bookkeeping,
    and any work behind a boundary that is no longer wrapped."""
    layers = sum(t for s, t in zip(spans, self_times(spans)) if s[NAME] not in (JOB, BOOKKEEPING))
    return wall_s - layers


def _discarded_integrals(spans) -> int:
    """Integrals under a specialization that was later abandoned.

    The integrals of one count run in order under one specialization; a
    ``NonGenericSpecialization`` from any of them abandons the whole run of
    consecutive integrals under that specialization, the failing one included.
    """
    by_caller: dict[int, list[list]] = {}
    for s in spans:
        if s[NAME] == INTEGRATE:
            by_caller.setdefault(s[PARENT], []).append(s)
    discarded = 0
    for calls in by_caller.values():
        group: list[list] = []
        for s in calls + [None]:
            if group and (s is None or s[ATTRS]["spec"] != group[0][ATTRS]["spec"]):
                if any(g[ATTRS].get("error") == "NonGenericSpecialization" for g in group):
                    discarded += len(group)
                group = []
            if s is not None:
                group.append(s)
    return discarded


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced job set (times in s)."""
    dur = [s[END] - s[START] for s in spans]
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(k)

    def total(name):
        return sum(dur[k] for k in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}

    builds = by_name.get(BUILD, [])
    terms = sum(spans[k][ATTRS]["terms"] for k in builds)
    below = sum(spans[k][ATTRS]["below_dim"] for k in builds)
    m["integrand.build_s"] = total(BUILD)
    for i in range(MAX_I + 1):
        m[f"integrand.build_s.i{i}"] = sum(dur[k] for k in builds if spans[k][ATTRS]["i"] == i)
    m["integrand.builds"] = len(builds)
    m["integrand.terms"] = terms
    m["integrand.terms_below_dim"] = below
    m["integrand.useful_term_ratio"] = (terms - below) / terms if terms else 0.0

    m["graded.mul_s"] = total(MUL)
    m["graded.mul_calls"] = count(MUL)

    # integrate minus its nested build (and the tracer's bookkeeping); the
    # process pool it drives is part of evaluation
    integrals = by_name.get(INTEGRATE, [])
    eval_self = {k: dur[k] for k in integrals}
    for k, s in enumerate(spans):
        if s[PARENT] in eval_self and s[NAME] != POOL:
            eval_self[s[PARENT]] -= dur[k]
    m["localization.eval_self_s"] = sum(eval_self.values())
    for i in range(MAX_I + 1):
        m[f"localization.eval_self_s.i{i}"] = sum(
            v for k, v in eval_self.items() if spans[k][ATTRS]["i"] == i)
    m["localization.integrals"] = len(integrals)
    m["localization.fixed_points"] = sum(spans[k][ATTRS].get("points", 0) for k in integrals)
    m["localization.retries"] = sum(
        1 for k in integrals if spans[k][ATTRS].get("error") == "NonGenericSpecialization")
    discarded = _discarded_integrals(spans)
    m["localization.discarded_integrals"] = discarded
    m["localization.useful_integral_ratio"] = (
        (len(integrals) - discarded) / len(integrals) if integrals else 0.0)

    pools = [spans[k] for k in by_name.get(POOL, [])]
    window = total(POOL)
    child_cpu = sum(p[ATTRS]["child_cpu"] for p in pools)
    capacity = sum(p[ATTRS]["workers"] * (p[END] - p[START]) for p in pools)
    m["localization.pool.started"] = len(pools)
    m["localization.pool.window_s"] = window
    m["localization.pool.child_cpu_s"] = child_cpu
    m["localization.pool.efficiency"] = child_cpu / capacity if capacity else 0.0

    loads = [spans[k] for k in by_name.get(LOAD, [])]
    m["node_polys.samples"] = count(SAMPLE)
    m["node_polys.cache_hits"] = sum(1 for s in loads if s[ATTRS].get("hit"))
    m["node_polys.cache_misses"] = sum(1 for s in loads if not s[ATTRS].get("hit"))
    m["node_polys.cache_store_s"] = total(STORE)
    m["node_polys.cache_load_s"] = total(LOAD)

    m["unipoly.interpolate_s"] = total(INTERPOLATE)
    return m


# the metrics above that count work; they must repeat exactly for one seed
COUNT_METRICS = (
    "integrand.builds",
    "integrand.terms",
    "integrand.terms_below_dim",
    "graded.mul_calls",
    "localization.integrals",
    "localization.fixed_points",
    "localization.retries",
    "localization.discarded_integrals",
    "localization.pool.started",
    "node_polys.samples",
    "node_polys.cache_hits",
    "node_polys.cache_misses",
)
