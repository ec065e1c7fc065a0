#!/usr/bin/env python3
"""Mutation checks that can be rerun.

Each mutant replaces one exact text, which must occur once, in one file of
a temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``, and runs a
named test subset against the copy with ``-x``.  All three are copied
because ``pythonpath = ["src"]`` in ``pyproject.toml`` would otherwise load
the checkout's own ``src/``.  The unmutated copy must pass every subset,
and every mutant must fail its subset.

Run from anywhere:

    python3 tools/mutants.py               # every mutant
    python3 tools/mutants.py NAME [NAME..] # the named ones

Exit 0 if every mutant was killed, 1 if one survived (each is named), and
2 if the list is wrong: an old text that does not occur exactly once, an
unknown name, or an unmutated copy that fails.  A change that adds a check
adds the mutants it kills here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]


CROSSCHECK = "src/severi/crosscheck.py"
LOCALIZATION = "src/severi/localization.py"
PLANE_SUMS = (
    "tests/test_localization.py::"
    "test_plane_sums_below_the_read_power_vanish_and_the_lift_keeps_every_integral"
)
DEGREE_E = "tests/test_localization.py::test_a_line_coefficient_of_degree_E_in_d_raises"
PAST_H3 = "tests/test_localization.py::test_a_nonzero_line_past_h_cubed_raises"
CLI = "src/severi/cli.py"
CALIBRATE = "src/severi/calibrate.py"
GATE_FAULTS = "tests/test_cli.py::test_fault_injection_fails_calibration"
WEIGHTS_MISMATCH = "tests/test_cli.py::test_check_weights_fails_on_an_oracle_mismatch"

MUTANTS = (
    Mutant(
        "one-nodal-M-degree-3",
        CROSSCHECK,
        "m = {(0, 1, 0): d,",
        "m = {(0, 1, 0): 3,",
        "the incidence bundle of the one-nodal class takes d eta at every degree",
        ("tests/test_crosscheck.py",),
    ),
    Mutant(
        "eta-relation-leading-2",
        CROSSCHECK,
        "_reduce(top, 1, 3, (1, -1, 1))",
        "_reduce(top, 1, 3, (2, -1, 1))",
        "eta^3 = H eta^2 - ...: the eta^2 term is the one the push-down reads",
        ("tests/test_crosscheck.py",),
    ),
    Mutant(
        "c2-omega-middle-term",
        CROSSCHECK,
        "(1, 1, 0): -2,",
        "(1, 1, 0): -1,",
        "c2(Omega) = 3 eta^2 - 2 H eta + H^2",
        ("tests/test_crosscheck.py",),
    ),
    Mutant(
        "table-scans-below-16",
        "src/severi/cli.py",
        "for delta in cached_deltas(mode, cache_dir):",
        "for delta in range(16):",
        "severi table lists every cached record, delta >= 16 included",
        ("tests/test_cli.py::test_table_lists_every_cached_delta",),
    ),
    Mutant(
        "readout-power-offset",
        LOCALIZATION,
        "p = 3 + x - spec.delta",
        "p = 2 + x - spec.delta",
        "the xi^x line is read with H^(3 + x - delta)",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "chern-constant",
        "src/severi/integrand.py",
        "a3, r3 = divmod(p2 * (d**3 + 3 * d * d + 2 * d + 12), 1296)\n"
        "    assert r1 == r2 == r3 == 0",
        "a3, r3 = divmod(p2 * (d**3 + 3 * d * d + 2 * d + 12), 1295)",
        "c3 of q_* O_S(d), with its integrality assert removed",
        ("tests/test_integrand.py",),
    ),
    Mutant(
        "p2-degree-bound-removed",
        "src/severi/node_polys.py",
        "if mode == P2_FIXED and poly.degree() > 2 * delta:",
        "if False:",
        "a p2 node polynomial has degree at most 2 delta",
        ("tests/test_node_polys.py",),
    ),
    Mutant(
        "bps-weight-plus-1",
        "src/severi/integrand.py",
        "    return tuple(a)",
        "    return (a[0] + 1, *a[1:])",
        "the BPS-style combination weights are the row of an exact inverse",
        ("tests/test_integrand.py",),
    ),
    Mutant(
        "cell-weight-plus-1",
        LOCALIZATION,
        "weights = {cell: value(taut_cell_weight(k, m, cell, d0)) for cell in cells}",
        "weights = {cell: value(taut_cell_weight(k, m, cell, d0)) + (cell == (1, 0))"
        " for cell in cells}",
        "cell (1, 0)'s tautological weight plus 1 at every chart",
        (PLANE_SUMS,),
    ),
    Mutant(
        "size-2-tangent-plus-1",
        LOCALIZATION,
        "        ws = [a * v1 + b * v2 for a, b in pairs]\n",
        "        ws = [a * v1 + b * v2 for a, b in pairs]\n        ws[0] += mu == (2,)\n",
        "one Hilbert tangent value of the partition (2,) plus 1",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "times-cell-truncation-short",
        LOCALIZATION,
        "for e in range(min(len(row), top - x + 1)):",
        "for e in range(min(len(row), top - x)):",
        "_times_cell keeps total degrees up to top",
        (PLANE_SUMS,),
    ),
    Mutant(
        "shear-binomial-j2-plus-1",
        LOCALIZATION,
        "coef = comb(k + j, j) * c**j",
        "coef = (comb(k + j, j) + (j == 2)) * c**j",
        "the shear xi -> xi + c eps takes binom(k + j, j) c^j",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "product-truncation-short",
        LOCALIZATION,
        "if low <= x + e <= top else 0",
        "if low <= x + e < top else 0",
        "_product keeps total degrees up to top",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "plane-sum-wrong-denominator",
        LOCALIZATION,
        "scale = denominator // den",
        "scale = denominator // parts[0][0]",
        "each plane's lines are scaled to the common denominator by their own plane's",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "read-bound-strict",
        LOCALIZATION,
        "            if e >= 0:",
        "            if e > 0:",
        "a plane unit reads every line x <= delta + 2i, eps-degree 0 included",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "count-integrality-ignored",
        LOCALIZATION,
        "if count.denominator != 1:",
        "if False:",
        "a count whose BPS sum is not an integer raises",
        ("tests/test_localization.py::test_a_non_integer_count_raises",),
    ),
    Mutant(
        "degrees-not-deduplicated",
        LOCALIZATION,
        "degrees = tuple(dict.fromkeys((spec.d,) if degrees is None else degrees))",
        "degrees = tuple((spec.d,) if degrees is None else degrees)",
        "integrate evaluates a repeated degree once",
        ("tests/test_localization.py::test_repeated_degrees_give_the_one_degree_counts",),
    ),
    Mutant(
        "last-degree-interpolated",
        LOCALIZATION,
        "direct = degrees[:e] + degrees[e:][-1:]",
        "direct = degrees[:e]",
        "the last degree is evaluated directly and checked against the interpolant",
        (DEGREE_E,),
    ),
    Mutant(
        "E-one-lower",
        LOCALIZATION,
        "e = 1 + spec.delta + 2 * spec.i - xs[0]",
        "e = spec.delta + 2 * spec.i - xs[0]",
        "E interpolation nodes: the plane sums have degree up to E - 1 in d",
        ("tests/test_localization.py",),
    ),
    Mutant(
        "h4-check-disabled",
        LOCALIZATION,
        "    if not h4_rule:\n",
        "    if False:\n",
        "with the H^4 rule off, nodal_counts checks that the lines past H^3 are 0",
        (PAST_H3,),
    ),
    Mutant(
        "h4-check-top-line-dropped",
        LOCALIZATION,
        "range(delta + 1, 3 * delta + 1)",
        "range(delta + 1, 3 * delta)",
        "the check reaches the last line past H^3, x = 3 delta at i = delta",
        (PAST_H3,),
    ),
    Mutant(
        "lines-past-h3-on-no-plane",
        LOCALIZATION,
        "lift = order[4 - min(p, 3) :]",
        "lift = order[max(4 - p, 0) :]",
        "a line past H^3 lifts to the fixed plane alone, not to no plane",
        (PAST_H3,),
    ),
    Mutant(
        "readout-past-delta",
        LOCALIZATION,
        "segre_coeffs(spec.d, s)",
        "segre_coeffs(spec.d, s + 1)",
        "H^4 = 0 keeps the readout to x <= delta (t <= s); the lines past it are 0,"
        " so only the readout test sees this",
        ("tests/test_localization.py::test_readout_weights_are_one_integer_per_xi_degree",),
    ),
    Mutant(
        "euler-sign",
        LOCALIZATION,
        "euler = prod(h[k] - h[j] for j in range(4) if j != k)",
        "euler = prod(h[j] - h[k] for j in range(4) if j != k)",
        "e_k = prod_{j != k} (h_k - h_j), the product the lift weights assume",
        (
            "tests/test_localization.py::"
            "test_grassmannian_euler_factor_is_the_product_of_hyperplane_weight_differences",
            "tests/test_cli.py::test_check_calibration_section",
        ),
    ),
    Mutant(
        "one-nodal-fixtures-dropped",
        CALIBRATE,
        "ONE_NODAL_COUNTS = {(P3, 2): 140, (P2_FIXED, 3): 12}",
        "ONE_NODAL_COUNTS = {}",
        "the delta = 1 fixtures are the only ones that read a tangent or cell weight",
        (GATE_FAULTS,),
    ),
    Mutant(
        "gate-ignores-wrong-fixture",
        CALIBRATE,
        "        if not check.ok:",
        "        if False:",
        "the gate raises on the first fixture whose value is wrong",
        (GATE_FAULTS,),
    ),
    Mutant(
        "check-tables-ignores-localized",
        CLI,
        '"ok": combinatorial == expected == localized,',
        '"ok": combinatorial == expected,',
        "a table case needs the localized count to equal the table too",
        ("tests/test_cli.py::test_check_tables_fails_on_a_wrong_localized_count",),
    ),
    Mutant(
        "check-dualspec-fault-passes",
        CLI,
        "            except ArithmeticError:\n                ok = False",
        "            except ArithmeticError:\n                ok = True",
        "a dualspec case whose count raises ArithmeticError fails",
        ("tests/test_cli.py::test_check_dualspec_fails_on_an_arithmetic_error",),
    ),
    Mutant(
        "check-exit-always-0",
        CLI,
        "return 0 if all_ok else 1",
        "return 0",
        "check exits 1 when a case fails",
        (WEIGHTS_MISMATCH,),
    ),
    Mutant(
        "check-weights-always-ok",
        CLI,
        '"name": f"hom-oracle[{list(mu)}]", "ok": ok}',
        '"name": f"hom-oracle[{list(mu)}]", "ok": True}',
        "a weights case fails when the Hom oracle disagrees at some chart",
        (WEIGHTS_MISMATCH,),
    ),
)


def _passes(root: Path, tests: tuple[str, ...]) -> bool:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=900)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def survivors(mutants, repo: Path = REPO) -> list[str]:
    """The names of the mutants whose test subset still passes.  Raises
    ValueError if an old text does not occur once or the unmutated copy
    fails a subset."""
    for m in mutants:
        count = (repo / m.file).read_text().count(m.old)
        if count != 1:
            raise ValueError(f"{m.name}: the old text occurs {count} times in {m.file}")
    with tempfile.TemporaryDirectory(prefix="severi-mutants-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (repo / name).is_dir():
                shutil.copytree(
                    repo / name, root / name, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy2(repo / name, root / name)
        for tests in dict.fromkeys(m.tests for m in mutants):
            if not _passes(root, tests):
                raise ValueError(f"the unmutated copy fails {' '.join(tests)}")
        out = []
        for m in mutants:
            path = root / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                if _passes(root, m.tests):
                    out.append(m.name)
            finally:
                path.write_text(original)
        return out


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    try:
        alive = survivors(chosen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for m in chosen:
        print(f"{'SURVIVED' if m.name in alive else 'killed'}  {m.name}: {m.reason}")
    print(f"{len(chosen) - len(alive)}/{len(chosen)} killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
