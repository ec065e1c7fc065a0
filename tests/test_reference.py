"""The symbolic reference stays off the count path, and the names the count
modules still serve for it are the reference's own objects."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import severi
import severi.integrand as integrand
import severi.localization as localization
import severi.reference as reference

OFF_THE_COUNT_PATH = ("severi.reference", "severi.graded", "concurrent.futures.process")

LAZY = [
    (integrand, "build_integrand"),
    (integrand, "graded_mul"),
    (localization, "build_integrand"),
    (localization, "_compile_terms"),
    (localization, "_sum_over_points"),
]

PROBE = f"""
import sys
import severi.calibrate
print(sorted(m for m in {OFF_THE_COUNT_PATH!r} if m in sys.modules))
import severi.localization
severi.localization._sum_over_points
print("severi.reference" in sys.modules)
"""


def test_count_path_imports_neither_the_reference_nor_the_process_pool():
    src = str(Path(severi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded, reference_after_use = proc.stdout.splitlines()
    assert loaded == "[]"
    # the first use of a served name imports the reference
    assert reference_after_use == "True"


@pytest.mark.parametrize("module, name", LAZY, ids=[f"{m.__name__}.{n}" for m, n in LAZY])
def test_served_names_are_the_reference_objects(module, name):
    assert getattr(module, name) is getattr(reference, name)


def test_process_pool_is_served_from_concurrent_futures():
    assert localization.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


@pytest.mark.parametrize("module", [integrand, localization])
@pytest.mark.parametrize("name", ["_reference_integral", "GradedPoly", "no_such_name"])
def test_other_names_are_not_served(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)
