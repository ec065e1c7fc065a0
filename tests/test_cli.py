import itertools
import json
import time
from dataclasses import replace

import pytest
from helpers import reference_count

import severi.calibrate as calibrate
import severi.localization as localization
from severi.cli import main
from severi.integrand import P2_FIXED, P3


@pytest.fixture(autouse=True)
def fresh_calibration():
    calibrate._calibrated = False
    yield
    calibrate._calibrated = False


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_basic(capsys):
    code, out, _ = run(capsys, "count", "--delta", "1", "--degree", "2")
    assert code == 0
    assert out.strip() == "140"


def test_count_smooth_conic(capsys):
    code, out, _ = run(capsys, "count", "--delta", "0", "--degree", "2")
    assert code == 0
    assert out.strip() == "92"


def test_count_line(capsys):
    code, out, _ = run(capsys, "count", "--delta", "0", "--degree", "1")
    assert code == 0
    assert out.strip() == "0"


def test_count_json_deterministic(capsys):
    args = ("count", "--delta", "0", "--degree", "2", "--json", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 92
    assert payload["schema_version"] == 1
    assert "timing_s" not in payload


def test_count_timing_flag(capsys, monkeypatch):
    # the timing is read off a monotonic clock: a wall clock stepped back
    # by a second at every reading changes nothing
    wall = itertools.count(10**9, -1)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    code, out, _ = run(capsys, "count", "--delta", "0", "--degree", "2", "--json", "--timing")
    payload = json.loads(out)
    assert code == 0 and payload["timing_s"] >= 0


def test_count_explicit_spec(capsys):
    code, out, _ = run(capsys, "count", "--delta", "1", "--degree", "2", "--spec", "1,2,6,18")
    assert code == 0 and out.strip() == "140"


def test_count_reports_the_specialization_used(capsys, monkeypatch):
    # with a default of (2,3,5,7), non-generic at i = 3, the count resamples;
    # the record must name the specialization that produced it, and that one
    # must reproduce the count when given back explicitly
    monkeypatch.setattr(
        localization.Specialization, "default", classmethod(lambda cls: cls((2, 3, 5, 7)))
    )
    _, out, _ = run(capsys, "count", "--delta", "3", "--degree", "4", "--json")
    first = json.loads(out)
    assert first["specialization"] != ["2", "3", "5", "7"]
    spec = ",".join(first["specialization"])
    _, out, _ = run(capsys, "count", "--delta", "3", "--degree", "4", "--json", "--spec", spec)
    again = json.loads(out)
    assert again["count"] == first["count"] == reference_count(3, 4)
    assert again["specialization"] == first["specialization"]


def test_invalid_spec_exits_2(capsys):
    code, _, err = run(capsys, "count", "--delta", "1", "--degree", "2", "--spec", "1,1,2,3")
    assert code == 2
    assert "distinct" in err


def test_spec_with_a_zero_denominator_exits_2_before_calibration(capsys, monkeypatch):
    import severi.cli as cli

    calibrations = []
    monkeypatch.setattr(cli, "ensure_calibrated", lambda *a: calibrations.append(a))
    code, out, err = run(capsys, "count", "--delta", "1", "--degree", "2", "--spec", "1/0,1,2,3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--spec" in err and "Traceback" not in err
    assert calibrations == []


def test_spec_of_three_values_exits_2_before_calibration(capsys, monkeypatch):
    import severi.cli as cli

    calibrations = []
    monkeypatch.setattr(cli, "ensure_calibrated", lambda *a: calibrations.append(a))
    code, out, err = run(capsys, "count", "--delta", "1", "--degree", "2", "--spec", "1,2,3")
    assert code == 2 and out == ""
    assert err == "error: --spec needs exactly 4 comma-separated values\n"
    assert calibrations == []


def test_count_refuses_zero_workers(capsys):
    code, out, err = run(capsys, "count", "--delta", "1", "--degree", "2", "--jobs", "0")
    assert code == 2 and out == ""
    assert "worker count must be >= 1" in err


def test_count_with_two_workers(capsys):
    code, out, _ = run(capsys, "count", "--delta", "3", "--degree", "3", "--jobs", "2")
    assert code == 0
    assert out.strip() == "7280"


def test_non_generic_explicit_spec_exits_2_without_resampling(capsys):
    # (1,2,4,3) makes a Hilbert tangent weight vanish on the square partition
    code, out, err = run(capsys, "count", "--delta", "4", "--degree", "4", "--spec", "1,2,4,3")
    assert code == 2 and out == ""
    assert "1,2,4,3" in err and "omit --spec" in err


def test_poly_rejects_spec(capsys, tmp_path):
    code, out, err = run(
        capsys, "poly", "--delta", "1", "--spec", "2,3,5,7", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --spec" in err
    assert not list(tmp_path.iterdir())


REQUIRED = {"count": ("--delta", "1", "--degree", "2"), "poly": ("--delta", "1")}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("count", ("--cache-dir", "x")),
        ("poly", ("--spec", "1,2,3,4")),
        ("poly", ("--timing",)),
        ("check", ("--verify",)),
        ("check", ("--no-verify",)),
        ("check", ("--cache-dir", "x")),
        ("check", ("--timing",)),
        ("table", ("--mode", "p2")),
        ("table", ("--spec", "1,2,3,4")),
        ("table", ("--seed", "1")),
        ("table", ("--jobs", "3")),
        ("table", ("--timing",)),
        ("table", ("--verify",)),
        ("table", ("--no-verify",)),
        ("count", ("--verify", "--no-verify")),
        ("poly", ("--no-verify", "--verify")),
        ("check", ("--max-delta", "3")),
        ("check", ("--spec", "2,3,5,7")),
        ("check", ("--mode", "p2")),
        ("check", ("--jobs", "2")),
        ("check", ("--only", "nu")),
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, monkeypatch, tmp_path, command, flags):
    # every flag a subcommand accepts has an effect, and --verify and
    # --no-verify exclude each other; anything else is refused before any work
    monkeypatch.setenv("SEVERI_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    integrals = []
    monkeypatch.setattr(localization, "integrate", lambda *a, **k: integrals.append(a))
    code, out, err = run(capsys, command, *REQUIRED.get(command, ()), *flags)
    assert code == 2 and out == ""
    assert flags[0] in err
    assert not list(tmp_path.iterdir()) and integrals == []


def test_poly_refuses_an_unusable_cache_dir_before_computing(capsys, monkeypatch, tmp_path):
    import severi.node_polys as node_polys

    def computing(*a, **k):
        raise AssertionError("an unusable cache directory computes nothing")

    monkeypatch.setattr(node_polys, "node_polynomial", computing)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "poly", "--delta", "0", "--cache-dir", str(blocker / "sub"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_invalid_window_exits_2(capsys):
    code, _, _ = run(capsys, "count", "--delta", "3", "--degree", "1")
    assert code == 2


def test_poly_delta0(capsys, tmp_path):
    code, out, _ = run(capsys, "poly", "--delta", "0", "--cache-dir", str(tmp_path), "--no-verify")
    assert code == 0
    assert "N_0(d)" in out
    # cached polynomials show up in the table dump
    code, out, _ = run(capsys, "table", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "delta=0 mode=p3 degree=9" in out


def test_table_lists_every_cached_delta(capsys, tmp_path):
    from severi.node_polys import NodePolynomialRecord, store
    from severi.unipoly import UniPoly

    for delta, mode in ((16, P3), (3, P3), (17, P2_FIXED)):
        record = NodePolynomialRecord(
            delta=delta,
            mode=mode,
            polynomial=UniPoly([delta]),
            sample_ds=(delta + 1,),
            check_ds=(delta + 2,),
            seed=0,
        )
        store(record, str(tmp_path))
    # a file whose name does not spell its delta, and a stale record, are not rows
    (tmp_path / "node-poly-p3-delta016.json").write_text("{}")
    (tmp_path / "node-poly-p2-delta4.json").write_text("{}")
    code, out, _ = run(capsys, "table", "--json", "--cache-dir", str(tmp_path))
    rows = [(row["mode"], row["delta"]) for row in json.loads(out)["polynomials"]]
    assert code == 0 and rows == [(P3, 3), (P3, 16), (P2_FIXED, 17)]
    code, out, _ = run(capsys, "table", "--cache-dir", str(tmp_path / "missing"))
    assert code == 0 and out.strip() == "(cache empty)"


def test_poly_p2_one_node(capsys, tmp_path):
    code, out, _ = run(
        capsys, "poly", "--delta", "1", "--mode", "p2", "--cache-dir", str(tmp_path), "--no-verify"
    )
    assert code == 0
    assert "3*d^2 - 6*d + 3" in out


def test_poly_json(capsys, tmp_path):
    code, out, _ = run(
        capsys, "poly", "--delta", "0", "--json", "--cache-dir", str(tmp_path), "--no-verify"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["degree"] == 9
    assert payload["coefficients"] == payload["ordered_coefficients"]


def test_poly_json_reports_the_record_verified_flag(capsys, tmp_path):
    def poly(flag):
        args = ("poly", "--delta", "0", "--json", "--cache-dir", str(tmp_path), flag)
        _, out, _ = run(capsys, *args)
        return json.loads(out)["verified"]

    assert poly("--no-verify") is False
    # an unverified cached record does not answer a verified request
    assert poly("--verify") is True
    # a verified cached record answers an unverified request, and says so
    assert poly("--no-verify") is True


def test_poly_json_is_byte_identical_from_the_cache_and_across_fresh_caches(
    capsys, monkeypatch, tmp_path
):
    import severi.node_polys as node_polys

    def poly(cache):
        args = ("--delta", "2", "--json", "--seed", "5", "--cache-dir", str(tmp_path / cache))
        code, out, _ = run(capsys, "poly", *args)
        assert code == 0
        return out

    computed = poly("a")
    fresh = poly("b")

    def computing(*a, **k):
        raise AssertionError("a cache hit computes nothing")

    monkeypatch.setattr(node_polys, "node_polynomial", computing)
    hit = poly("a")
    assert hit == computed == fresh


def test_check_calibration_section(capsys):
    code, out, _ = run(capsys, "check", "--only", "calibration")
    assert code == 0
    assert "19/19 pass" in out
    assert "ALL PASS" in out


def test_check_tables_small(capsys):
    code, out, _ = run(capsys, "check", "--only", "tables")
    assert code == 0
    assert "[tables] 8/8 pass" in out and "ALL PASS" in out


def refuses_before_any_work(capsys, monkeypatch, argv, flag):
    import severi.cli as cli

    work = []
    monkeypatch.setattr(cli, "run_calibration", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "count_nodal", lambda *a, **k: work.append(a))
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert work == []


@pytest.mark.parametrize("only", [("--only", "tables"), ("--only", "dualspec"), ()])
def test_check_refuses_spec_outside_the_weights_section(capsys, monkeypatch, only):
    # weights uses its seeded draw: check takes no --spec in any section,
    # the weights section included
    refuses_before_any_work(capsys, monkeypatch, (*only, "--spec", "2,3,5,7"), "--spec")
    refuses_before_any_work(
        capsys, monkeypatch, ("--only", "weights", "--spec", "2,3,5,7"), "--spec"
    )


@pytest.mark.parametrize("only", [("--only", "tables"), ("--only", "weights"), ()])
def test_check_refuses_mode_outside_the_dualspec_section(capsys, monkeypatch, only):
    # dualspec counts in both modes: check takes no --mode in any section,
    # the dualspec section included
    refuses_before_any_work(capsys, monkeypatch, (*only, "--mode", "p2"), "--mode")
    refuses_before_any_work(capsys, monkeypatch, ("--only", "dualspec", "--mode", "p2"), "--mode")


@pytest.mark.parametrize("section", ["calibration", "tables"])
def test_check_sections_under_the_default_do_not_read_the_seed(capsys, section):
    # the default specialization is generic for every case these sections
    # run, so no seeded draw is made
    outputs = []
    for seed in ("0", "7"):
        calibrate._calibrated = False
        code, out, _ = run(capsys, "check", "--only", section, "--json", "--seed", seed)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_check_dualspec_counts_in_both_modes(capsys, monkeypatch):
    import severi.cli as cli

    modes = []
    count_nodal = cli.count_nodal

    def counting(delta, d, mode, **kwargs):
        modes.append(mode)
        return count_nodal(delta, d, mode, **kwargs)

    monkeypatch.setattr(cli, "count_nodal", counting)
    code, out, _ = run(capsys, "check", "--only", "dualspec", "--json")
    (section,) = json.loads(out)["sections"]
    assert code == 0 and all(case["ok"] for case in section["cases"])
    assert sorted(modes) == [P2_FIXED] * 6 + [P3] * 6
    names = [case["name"] for case in section["cases"]]
    assert names[0] == "dualspec[p3,0,2]" and names[-1] == "dualspec[p2,2,3]"


def test_check_weights_and_bps(capsys):
    code, out, _ = run(capsys, "check", "--only", "weights")
    assert code == 0 and "[weights] 19/19 pass" in out
    code, out, _ = run(capsys, "check", "--only", "bps")
    assert code == 0 and "[bps] 13/13 pass" in out


def test_check_json_shape(capsys):
    code, out, _ = run(capsys, "check", "--only", "dualspec", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True


def fails_one_case(capsys, section: str, name: str) -> None:
    """``check --only section`` fails the case ``name`` alone, in its JSON
    and in its text, and exits 1."""
    code, out, _ = run(capsys, "check", "--only", section, "--json")
    payload = json.loads(out)
    (cases,) = [s["cases"] for s in payload["sections"]]
    assert code == 1 and payload["passed"] is False
    assert [case["name"] for case in cases if not case["ok"]] == [name]
    code, out, _ = run(capsys, "check", "--only", section)
    assert code == 1 and f"FAIL {name}:" in out and out.endswith("FAILURES PRESENT\n")


def test_check_tables_fails_on_a_wrong_localized_count(capsys, monkeypatch):
    # the combinatorial count still equals the table; the localized one does not
    import severi.cli as cli

    real = cli.count_nodal

    def off_by_one(delta, d, *args, **kwargs):
        return real(delta, d, *args, **kwargs) + ((delta, d) == (3, 3))

    monkeypatch.setattr(cli, "count_nodal", off_by_one)
    fails_one_case(capsys, "tables", "N[3,3]")


def test_check_dualspec_fails_on_an_arithmetic_error(capsys, monkeypatch):
    import severi.cli as cli

    real = cli.count_nodal

    def disagreeing(delta, d, mode, **kwargs):
        if (mode, delta, d) == (P2_FIXED, 1, 3):
            raise ArithmeticError("specialization disagreement at d=3, i=1")
        return real(delta, d, mode, **kwargs)

    monkeypatch.setattr(cli, "count_nodal", disagreeing)
    fails_one_case(capsys, "dualspec", "dualspec[p2,1,3]")


def test_check_weights_fails_on_an_oracle_mismatch(capsys, monkeypatch):
    import severi.oracles as oracles

    real = oracles.hilb_weights_match_oracle

    def mismatched(mu, *args):
        return real(mu, *args) and mu != (2, 1)

    monkeypatch.setattr(oracles, "hilb_weights_match_oracle", mismatched)
    fails_one_case(capsys, "weights", "hom-oracle[[2, 1]]")


def test_fault_injection_fails_calibration(capsys, monkeypatch):
    # dualize the Hilbert tangent weights (every exponent pair negated) or
    # the tautological cell weights: the delta = 0 fixtures read neither, so
    # a one-nodal fixture must fail the gate before anything is reported
    # (ungated, this count prints 1260 or 36, not 140)
    hilb, taut = localization.hilb_tangent_exponents, localization.taut_cell_weight
    dualized = {
        "hilb_tangent_exponents": lambda mu: [(-a, -b) for a, b in hilb(mu)],
        "taut_cell_weight": lambda *args: tuple(-x for x in taut(*args)),
    }
    for name, fault in dualized.items():
        calibrate._calibrated = False
        with monkeypatch.context() as patch:
            patch.setattr(localization, name, fault)
            code, out, err = run(capsys, "count", "--delta", "1", "--degree", "2", "--json")
        assert code == 1 and out == "", name
        assert err.startswith("error: calibration fixture one-nodal-count[p3,d=2] failed"), name


def test_verification_failure_exits_1(capsys, monkeypatch, tmp_path):
    # under every specialization but the default, each integral is one more:
    # calibration (default only) passes, and the verifying run disagrees
    real = localization.integrate
    default = localization.Specialization.default()

    def disagreeing(spec, specialization, **kw):
        res = real(spec, specialization, **kw)
        if specialization == default:
            return res
        by_degree = {d: tuple(v + 1 for v in vs) for d, vs in res.by_degree.items()}
        return replace(res, by_degree=by_degree)

    monkeypatch.setattr(localization, "integrate", disagreeing)
    for argv in (
        ("count", "--delta", "1", "--degree", "3", "--verify"),
        ("poly", "--delta", "1", "--cache-dir", str(tmp_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: specialization disagreement") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
