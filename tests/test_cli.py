import json

import pytest
from helpers import reference_count

import severi.calibrate as calibrate
import severi.localization as localization
from severi.cli import main


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


def test_count_timing_flag(capsys):
    code, out, _ = run(capsys, "count", "--delta", "0", "--degree", "2", "--json", "--timing")
    payload = json.loads(out)
    assert code == 0 and "timing_s" in payload


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
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, monkeypatch, tmp_path, command, flags):
    # every flag a subcommand accepts has an effect, and --verify and
    # --no-verify exclude each other; anything else is refused before any work
    monkeypatch.setenv("SEVERI_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, *REQUIRED.get(command, ()), *flags)
    assert code == 2 and out == ""
    assert flags[0] in err
    assert not list(tmp_path.iterdir())


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


def test_check_calibration_section(capsys):
    code, out, _ = run(capsys, "check", "--only", "nu")
    assert code == 0
    assert "17/17 pass" in out
    assert "ALL PASS" in out


def test_check_tables_small(capsys):
    code, out, _ = run(capsys, "check", "--only", "tables", "--max-delta", "3")
    assert code == 0
    assert "[tables]" in out and "ALL PASS" in out


def test_check_weights_and_bps(capsys):
    code, out, _ = run(capsys, "check", "--only", "weights")
    assert code == 0
    code, out, _ = run(capsys, "check", "--only", "bps")
    assert code == 0


def test_check_json_shape(capsys):
    code, out, _ = run(capsys, "check", "--only", "dualspec", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True


def test_fault_injection_fails_calibration(capsys, monkeypatch):
    # dualize the Grassmannian tangent weights: every localized count flips
    # sign, and the calibration gate must fail before reporting anything
    import severi.weights as weights

    def dualized(plane):
        return [tuple(-x for x in c) for c in weights.gr_tangent_weights(plane)]

    monkeypatch.setattr(localization, "gr_tangent_weights", dualized)
    code, out, err = run(capsys, "count", "--delta", "0", "--degree", "2")
    assert code == 1
    assert "calibration" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
