"""Tests of the benchmark itself, on small counts that take a second or two.

    python3 -m pytest bench/test_run.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402

SEVERI, HELPERS = run.import_package()
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    # count(3,3) evaluates i=3 in the process pool when jobs > 1
    monkeypatch.setitem(run.WORKLOADS, "small", run.Workload(
        partial(run.count_jobs, cases=((1, 2), (3, 3))), jobs=1))
    monkeypatch.setitem(run.WORKLOADS, "small-pool", run.Workload(
        partial(run.count_jobs, cases=((3, 3),)), jobs=2))


def bench(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def names(kind):
    return sorted(m["name"] for m in DECLARED[kind])


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    code, result = bench(capsys, "small", trace=0)
    assert code == 0 and result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert sorted(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_reference_value_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(HELPERS.TABLE_COUNTS, (3, 3), HELPERS.TABLE_COUNTS[(3, 3)] + 1)
    code, result = bench(capsys, "small", trace=0)
    assert code != 0 and not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_traced_run_reports_every_per_layer_metric(capsys):
    code, result = bench(capsys, "small", trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == names("per_layer")
    assert metrics["localization.integrals"] == 1 + 1 + 4 + 4  # i=3 retried once
    assert metrics["localization.retries"] == 1
    assert metrics["localization.discarded_integrals"] == 4
    assert metrics["localization.pool.started"] == 0
    assert metrics["integrand.build_s"] >= metrics["graded.mul_s"] > 0


def test_counts_repeat_across_traced_runs(capsys):
    _, first = bench(capsys, "small-pool", trace=1, seed=3)
    code, second = bench(capsys, "small-pool", trace=1, seed=3)
    assert code == 0 and second["correct"]
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name]
    assert second["metrics"]["localization.pool.started"]["value"] == 2  # i=3, resampled
    assert second["metrics"]["localization.pool.child_cpu_s"]["value"] > 0


def test_changed_count_fails_a_later_traced_run_of_the_same_code(capsys, monkeypatch):
    bench(capsys, "small", trace=1, seed=5)
    path = run.counts_path("small", 5)
    counts = json.loads(path.read_text())
    counts["integrand.terms"] += 1
    path.write_text(json.dumps(counts))
    code, result = bench(capsys, "small", trace=1, seed=5)
    assert code != 0 and not result["correct"]
    # counts recorded on other code are not compared
    monkeypatch.setattr(run, "code_digest", lambda: "changed-code")
    code, result = bench(capsys, "small", trace=1, seed=5)
    assert code == 0 and result["correct"]


def test_unwrapped_boundary_fails_the_traced_run(capsys, monkeypatch):
    install = spans.Tracer.install

    def install_but_integrate(self, severi):
        install(self, severi)
        module, attr, original = next(s for s in self._saved if s[1] == "integrate")
        setattr(module, attr, original)

    monkeypatch.setattr(spans.Tracer, "install", install_but_integrate)
    code = run.main(["--workload", "small", "--seed", "1", "--seconds", "0", "--trace", "1"])
    out, err = capsys.readouterr()
    assert code != 0 and not json.loads(out.strip().splitlines()[-1])["correct"]
    assert "charged to no layer" in err


@pytest.mark.parametrize("hits_return_stored, failed", [(True, 0), (False, 2)])
def test_cache_hit_must_return_the_stored_record(hits_return_stored, failed):
    references = {
        "p3": HELPERS.ORDERED_REFERENCE[3].scaled(Fraction(1, 6)),
        "p2": run.kleiman_piene_p2_delta3(SEVERI),
    }
    stored, created = {}, itertools.count()

    def node_polynomial_cached(delta, mode, *, cache_dir, seed, verify, jobs):
        assert (delta, seed, verify, jobs) == (3, 7, True, 1)
        if not (hits_return_stored and mode in stored):
            stored[mode] = SimpleNamespace(polynomial=references[mode], created_at=next(created))
        return stored[mode]

    fake = SimpleNamespace(node_polynomial_cached=node_polynomial_cached, UniPoly=SEVERI.UniPoly)
    result = run.run_jobset(run.WORKLOADS["poly-sweep"], fake, HELPERS, seed=7)
    assert (result.attempted, result.failed) == (4, failed)


def test_discarded_integrals_are_whole_abandoned_runs():
    def integral(parent, spec, error=None):
        attrs = {"i": 0, "spec": spec, **({"error": error} if error else {})}
        return [spans.INTEGRATE, 0.0, 1.0, parent, 0, attrs]

    bad = "NonGenericSpecialization"
    trace = [
        [spans.JOB, 0.0, 9.0, -1, 0, {}],
        integral(0, "a"), integral(0, "a"), integral(0, "a", bad),
        integral(0, "b"), integral(0, "b"), integral(0, "b"),
        integral(0, "c"), integral(0, "c", bad),
        integral(0, "d"), integral(0, "d"),
    ]
    assert spans._discarded_integrals(trace) == 5
