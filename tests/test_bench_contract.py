"""The package boundaries the benchmark's tracer (``bench/spans.py``) relies on.

A traced benchmark run rebinds module attributes of ``severi`` and reads the
arguments and results of the calls it wraps.  If a hook is renamed, a
wrapped function is called in a way the tracer does not read, or a result
loses an attribute it records, the traced run fails; this test makes that a
tier-1 failure.  ``bench/`` is loaded by path and not edited.
"""

import importlib.util
from pathlib import Path

import severi
import severi.integrand as integrand
import severi.localization as localization
import severi.node_polys as node_polys

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# every attribute Tracer.install rebinds
HOOKS = [
    (localization, "integrate"),
    (localization, "build_integrand"),
    (integrand, "graded_mul"),
    (localization, "ProcessPoolExecutor"),
    (node_polys, "count_nodal"),
    (node_polys, "lagrange_interpolate"),
    (node_polys, "store"),
    (node_polys, "load"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_calls_record_what_the_benchmark_reads(tmp_path, monkeypatch):
    spans = load_spans()
    # open the work gate, so that count(3, 3) starts the pool
    monkeypatch.setattr(localization, "_POOL_WORK", 0)
    originals = [getattr(module, attr) for module, attr in HOOKS]
    tracer = spans.Tracer()
    tracer.install(severi)
    try:
        assert severi.count_nodal(3, 3, jobs=2) == 7280  # the pool runs
        miss = severi.node_polynomial_cached(1, cache_dir=str(tmp_path), verify=True)
        hit = severi.node_polynomial_cached(1, cache_dir=str(tmp_path), verify=True)
        assert hit == miss
    finally:
        tracer.uninstall()

    assert tracer.spans
    assert all(span[spans.END] is not None for span in tracer.spans)
    integrals = [span for span in tracer.spans if span[spans.NAME] == spans.INTEGRATE]
    assert integrals
    for span in integrals:
        assert {"i", "spec", "points"} <= set(span[spans.ATTRS]), span
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["localization.pool.started"] == 1
    assert metrics["node_polys.cache_hits"] == 1
    assert metrics["node_polys.cache_misses"] == 1
    assert all(getattr(module, attr) is o for (module, attr), o in zip(HOOKS, originals))
