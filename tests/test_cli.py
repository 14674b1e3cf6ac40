import argparse
import importlib.metadata
import json
import math
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fueterlab import cli, numeric, verify
from fueterlab.cli import main, parse_range
from fueterlab.clifford import Multivector
from fueterlab.numeric import sample_header

GOLDEN = Path(__file__).parent / "data" / "verify_all.golden"
GOLDEN_SEED7 = Path(__file__).parent / "data" / "verify_all_seed7.golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("0") == [0.0]
    vals = parse_range("-2:2:41")
    assert len(vals) == 41 and vals[0] == -2.0 and vals[-1] == 2.0
    with pytest.raises(Exception):
        parse_range("1:2")
    # nan, an infinite endpoint, or endpoints whose span overflows to an infinite step
    for text in ("nan", "inf", "-inf", "0:nan:3", "0:inf:3", "1e308:-1e308:3", "-1e308:1e308:2", "0:1:0"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(text)


def test_verify_operators_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "operators")
    assert code == 0
    assert "op.i PASS" in out
    assert out.strip().endswith("(5/5 checks)")


def test_verify_unknown_suite_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "operators", "--rng-seed", "5")
    _, out2, _ = run(capsys, "verify", "--suite", "operators", "--rng-seed", "5")
    assert out1 == out2


def test_verify_dimension_filter(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gauss", "--m", "3")
    assert code == 0
    assert "gauss.m3_closed_form PASS" in out


def test_verify_all_matches_golden(verdicts):
    # the lines `fueterlab verify --suite all` prints, from the session's run of the check table
    lines = verify.report_lines("all", list(verdicts.values()))
    assert lines == GOLDEN.read_text().splitlines()


def test_verify_even_m_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--suite", "gauss", "--m", "4")
    assert code == 3
    assert "odd" in err and out == ""


@pytest.mark.parametrize("suite", ["core", "operators"])
def test_verify_dimensionless_suite_rejects_m(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--m", "5")
    assert code == 2
    assert "takes no dimension" in err and out == ""


@pytest.mark.parametrize("suite", ["core", "operators", "examples", "hermite", "gauss"])
def test_verify_suite_without_csv_rejects_from(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--from", "/nonexistent.csv")
    assert code == 2
    assert "gauss_fund" in err and out == ""


@pytest.mark.parametrize(
    "text, code",
    [("x0,r\n", 2), ("", 2), (None, 5), ("x0,r,scalar,|value|\n", 2), ("x0,x1,x2,r,scalar,e1,e2,|value|\n", 2)],
    ids=["bad_header", "empty", "missing", "no_x_columns", "even_m"],
)
def test_verify_reads_from_before_any_check(capsys, tmp_path, checks_run, text, code):
    path = tmp_path / "bad.csv"
    if text is not None:
        path.write_text(text)
    for suite in ("gauss_fund", "all"):
        assert run(capsys, "verify", "--suite", suite, "--from", str(path))[:2] == (code, "")
    assert checks_run == []


def test_verify_from_reads_its_file_once(capsys, tmp_path, monkeypatch):
    # the reader counted through each name it can be called by: numeric's, and verify's should the table read it
    calls = []

    def counted(read):
        def read_once(path):
            calls.append(path)
            return read(path)

        return read_once

    read = numeric.read_sample_csv
    monkeypatch.setattr(numeric, "read_sample_csv", counted(read))
    monkeypatch.setattr(verify, "read_sample_csv", counted(read), raising=False)
    path = tmp_path / "gf.csv"
    numeric.write_sample_csv(path, "gauss-fund", 3, [-0.5, 0.5], [3.0, 4.0, 5.0])
    report = tmp_path / "report.json"
    argv = ["--suite", "gauss_fund", "--m", "7", "--from", str(path), "--json", str(report)]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err, len(calls)) == (0, "", 1)
    # the file's verdict comes last, is counted in the suite's, and has the record of every measured check
    lines = out.splitlines()
    assert lines[-2:] == ["gauss_fund.csv_roundtrip PASS 0 6 rows re-verified", "suite gauss_fund: PASS (4/4 checks)"]
    record = json.loads(report.read_text())["checks"][-1]
    assert record.keys() == {"id", "passed", "max_error", "detail", "instances", "first_failure", "seconds"}
    assert record["id"] == "gauss_fund.csv_roundtrip" and record["instances"] is None
    assert isinstance(record["seconds"], float) and record["seconds"] > 0.0


# check ids each suite prints at every m it runs on
UNTIED_CHECKS = {
    "examples": (
        "e1", "ex1.dupper_x0", "e2", "e3", "e4", "e5", "e6", "e7",
        "coeff_a.boundary", "example1.closed", "example2.closed", "vekua.grid",
    ),
    "hermite": ("hermite.rec_eq_closed", "hermite.h2_h3"),
    "gauss": (
        "gauss.restriction_symbolic", "gauss.product_rule", "gauss.full_display",
        "gauss.restriction_numeric", "gauss.taylor_coeffs_exact",
    ),
    "gauss_fund": ("gauss_fund.remainder_vekua",),
}
# check id -> the only dimensions it runs on
TIED_CHECKS = {
    "examples": {"example3.triangle": (3, 5), "transform.linearity": (3,)},
    "hermite": {
        "hermite.coeff_c": (3, 5),
        "hermite.vector_power_parity": (1, 2, 3, 5),
        "hermite.radial_coeffs_match": (1, 3, 5),
        "ck.monogenic_and_restrict": (1, 2, 3, 4, 5),
        "ck.examples": (3,),
    },
    "gauss": {
        "gauss.m3_closed_form": (3,),
        "gauss.series_vs_closed": (3, 5),
        "gauss.series_tail_bound": (3, 5),
        "gauss.restriction_m3_formula": (3,),
    },
    "gauss_fund": {
        "gauss_fund.pole_cancellation": (3, 5, 7, 9, 11, 13, 15),
        "gauss_fund.pole_detected_control": (3, 5, 7, 9, 11, 13, 15),
        "gauss_fund.fd_two_sided": (3,),
        "gauss_fund.fd_two_sided_m5": (5,),
        "gauss_fund.fd_convergence_order": (3, 5),
        "gauss_fund.decay_sup_stable": (3,),
        "gauss_fund.decay_control_divergent": (3,),
    },
}
# tied checks that take no random draw, so a run at one of their m prints the default line
TIED_WITHOUT_DRAWS = (
    "gauss_fund.decay_sup_stable",
    "gauss_fund.decay_control_divergent",
    "gauss.m3_closed_form",
    "gauss.restriction_m3_formula",
    "transform.linearity",
    "ck.examples",
)


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("suite", list(UNTIED_CHECKS))
def test_verify_m_prints_only_checks_run_at_m(capsys, verdicts, suite, m):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--m", str(m))
    lines = {line.split()[0]: line for line in out.splitlines()[:-1]}  # the last line is the suite verdict
    expected = set(UNTIED_CHECKS[suite]) | {cid for cid, ms in TIED_CHECKS[suite].items() if m in ms}
    assert code == 0
    assert len(lines) == len(out.splitlines()) - 1 and set(lines) == expected
    for check_id, line in lines.items():
        # a detail names a dimension as `m=3` or `m in {3, 5}`
        named = re.findall(r"\bm=(\d+)", line) + re.findall(r"\bm in \{([\d, ]+)\}", line)
        assert all({int(d) for d in dims.split(",")} == {m} for dims in named), line
        if m == 3 and check_id in TIED_WITHOUT_DRAWS:
            assert line == verdicts[check_id].line()


def test_verify_all_forwards_m(capsys):
    # examples runs the transform, which needs odd m: a forwarded --m 4 stops it
    code, out, err = run(capsys, "verify", "--suite", "all", "--m", "4")
    assert code == 3
    assert "odd" in err and out == ""


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "core", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["suite"] == "core"
    assert payload["passed"] is True
    assert any(c["id"] == "core.associativity" for c in payload["checks"])
    seconds = [c["seconds"] for c in payload["checks"]]
    assert all(isinstance(t, float) and t >= 0.0 for t in seconds) and sum(seconds) > 0.0
    assert payload["python"] == platform.python_version()
    assert payload["mpmath"] == importlib.metadata.version("mpmath")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    assert payload["numpy"] == numpy_version
    rev = payload["git_revision"]
    assert rev is None or re.fullmatch(r"[0-9a-f]{40}", rev)


def test_tally_carries_instance_count_and_first_failure():
    res = verify.tally("x", [(1, True), ((2, "a"), False), (3, False)])
    assert (res.passed, res.detail) == (False, "1/3 first_failure=(2, 'a')")
    assert (res.instances, res.first_failure) == (3, "(2, 'a')")
    res = verify.tally("x", [(1, True), (2, True)])
    assert (res.detail, res.instances, res.first_failure) == ("2/2", 2, None)


def test_verify_json_carries_instance_counts(capsys, tmp_path):
    # a tallied check gives its count as a field, the same as the k/k of its detail; a measured check gives none
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "gauss", "--json", str(path))
    assert code == 0
    checks = {c["id"]: c for c in json.loads(path.read_text())["checks"]}
    for c in checks.values():
        counted = re.match(r"(\d+)/\1( |$)", c["detail"])
        assert c["instances"] == (int(counted[1]) if counted else None), c
        assert c["first_failure"] is None, c
    assert checks["gauss.taylor_coeffs_exact"]["instances"] == 3 * 41
    assert checks["gauss.series_vs_closed"]["instances"] is None


def test_verify_json_environment_outside_checkout(monkeypatch, tmp_path):
    # the revision is that of the checkout holding the package source; elsewhere it is null
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    assert cli.run_environment()["git_revision"] is None


def test_verify_json_environment_without_a_distribution_or_git(monkeypatch):
    # a distribution that is not installed has no version; a git that cannot start gives no revision
    assert cli._dist_version("fueterlab-no-such-distribution") is None
    monkeypatch.setenv("PATH", "")
    assert cli._git_revision() is None


def test_verify_json_is_strict_json_when_an_error_is_nan(capsys, tmp_path, monkeypatch):
    # one NaN series value makes gauss.series_vs_closed fail with a NaN error, which JSON cannot hold
    series = verify.ck_gauss_series
    calls = []

    def one_nan(pt, m, trunc=60):
        calls.append(pt)
        value = series(pt, m, trunc)
        return value.scale(math.nan) if len(calls) == 1 else value

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    monkeypatch.setattr(verify, "ck_gauss_series", one_nan)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "gauss", "--m", "3", "--json", str(path))
    assert code == 1 and "gauss.series_vs_closed FAIL nan" in out
    payload = json.loads(path.read_text(), parse_constant=refuse)
    checks = {c["id"]: c for c in payload["checks"]}
    assert checks["gauss.series_vs_closed"]["max_error"] is None
    assert checks["gauss.series_vs_closed"]["passed"] is False and payload["passed"] is False
    assert checks["gauss.restriction_numeric"]["max_error"] > 0.0


def test_hermite_both(capsys):
    code, out, _ = run(capsys, "hermite", "--m", "3", "--n", "2", "--form", "both")
    assert code == 0
    assert "-1*x1^2 - 1*x2^2 - 1*x3^2 + 3" in out
    assert "EQUAL" in out


def test_hermite_high_order_builds_powers_by_a_loop(capsys):
    # the closed form asks for every other power of x_ up to 990, each built by its closed form;
    # the recurrence runs 990 steps; neither recurses
    for form in ("closed", "both"):
        code, out, err = run(capsys, "hermite", "--m", "1", "--n", "990", "--form", form)
        assert (code, err) == (0, "")
        assert out.endswith("EQUAL\n") == (form == "both")


def test_hermite_usage(capsys):
    code, _, err = run(capsys, "hermite", "--m", "0", "--n", "2")
    assert code == 2
    # the dimension is checked first, then the order
    code, out, err = run(capsys, "hermite", "--m", "0", "--n", "-1")
    assert (code, out, err) == (2, "", "error: dimension m must be in 1..16, got 0\n")
    code, out, err = run(capsys, "hermite", "--m", "3", "--n", "-1")
    assert (code, out, err) == (2, "", "error: Hermite index must be nonnegative\n")


def test_fueter_inv_z(capsys):
    code, out, _ = run(capsys, "fueter", "--seed", "inv_z", "--m", "3", "--k", "0")
    assert code == 0
    assert "A = -4*x0*Q^-2" in out
    assert "B = 4*r*Q^-2" in out
    assert "VEKUA OK" in out


def test_fueter_even_m_exit_code(capsys):
    code, _, err = run(capsys, "fueter", "--seed", "gauss", "--m", "4", "--k", "0")
    assert code == 3
    assert "odd" in err
    # an even m at the top of 1..16 passes the range check and is still the transform's exit 3
    code, _, err = run(capsys, "fueter", "--seed", "gauss", "--m", "16")
    assert code == 3 and "odd" in err


def test_fueter_invalid_pk_exit_code(capsys, tmp_path):
    pk_file = tmp_path / "pk.txt"
    pk_file.write_text("1*x1*e2\n")
    code, _, err = run(capsys, "fueter", "--seed", "iz", "--m", "3", "--k", "1", "--pk-file", str(pk_file))
    assert code == 4


@pytest.mark.parametrize("text", ["1/0*x1*e1", "1*x1^-1*e1", "1*r*e1", "1.5*x1*e1", "1*x1*e1 #"])
def test_fueter_unparsable_pk_exit_code(capsys, tmp_path, text):
    # a zero denominator raised ZeroDivisionError, which left a traceback and exit 1
    pk_file = tmp_path / "pk.txt"
    pk_file.write_text(text + "\n")
    code, out, err = run(capsys, "fueter", "--seed", "iz", "--m", "3", "--k", "1", "--pk-file", str(pk_file))
    assert code == 4 and "cannot parse P_k" in err and not out


def test_fueter_pk_file_not_utf8_is_an_invalid_pk(capsys, tmp_path):
    # the decode error comes from the read, which stays inside the parse: exit 4, not a usage error
    pk_file = tmp_path / "pk.txt"
    pk_file.write_bytes(b"1*x1*e1 \xff\xfe\n")
    code, out, err = run(capsys, "fueter", "--seed", "iz", "--m", "3", "--k", "1", "--pk-file", str(pk_file))
    assert code == 4 and "cannot parse P_k" in err and not out


@pytest.mark.parametrize("name", ["missing.txt", "a-directory"])
def test_fueter_unreadable_pk_file_is_an_io_error(capsys, tmp_path, name):
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / name)
    code, out, err = run(capsys, "fueter", "--seed", "iz", "--m", "3", "--k", "1", "--pk-file", path)
    assert (code, out) == (5, "")
    assert err.startswith("error: ") and path in err


def test_fueter_custom_pk_accepted(capsys, tmp_path):
    pk_file = tmp_path / "pk.txt"
    pk_file.write_text("1*x1*e1 - 1*x2*e2\n")
    code, out, _ = run(capsys, "fueter", "--seed", "inv_z", "--m", "3", "--k", "1", "--pk-file", str(pk_file))
    assert code == 0
    assert "VEKUA OK" in out


def test_fueter_z_pow_triangle(capsys):
    code, out, _ = run(capsys, "fueter", "--seed", "z_pow", "--n", "5", "--m", "3", "--k", "0")
    assert code == 0
    assert "TRIANGLE OK" in out
    assert "c=-8" in out


def test_fueter_z_pow_triangle_failure_exits_1(capsys, monkeypatch):
    # the Vekua system holds, so the exit code comes from the triangle verdict alone
    check = cli.triangle_check

    def failing(n, k, m, pk):
        return replace(check(n, k, m, pk), ck_equal=False)

    monkeypatch.setattr(cli, "triangle_check", failing)
    code, out, _ = run(capsys, "fueter", "--seed", "z_pow", "--n", "5", "--m", "3", "--k", "0")
    assert code == 1
    assert "VEKUA OK" in out and "TRIANGLE FAIL c=-8" in out


def test_negative_scientific_values(capsys):
    # `--x0 -1e-3` is a value, not an unknown option
    code, out, _ = run(capsys, "ck-gauss", "--m", "3", "--x0", "-1e-3", "--r", "0")
    assert code == 0 and "closed (x_=0 axis)" in out


@pytest.mark.parametrize("r", ["1", "0", "1e-100", "1e60"])
def test_ck_gauss_even_m_prints_nothing(capsys, r):
    # the closed form needs odd m; the series is not printed before that is known, and at r = 1e-100,
    # where the closed form at m = 5 leaves binary64, and r = 1e60, where the series' powers of -r^2 do,
    # the even m is refused before anything is evaluated
    code, out, err = run(capsys, "ck-gauss", "--m", "4", "--r", r)
    assert code == 3
    assert out == "" and "odd" in err


def test_ck_gauss_axis(capsys):
    code, out, _ = run(capsys, "ck-gauss", "--m", "3", "--x0", "1", "--r", "0")
    assert code == 0
    assert f"{math.exp(0.5) * 2}" in out


def test_sample_and_reverify(capsys, tmp_path):
    out_csv = tmp_path / "gf.csv"
    code, out, _ = run(
        capsys, "sample", "--target", "gauss-fund", "--m", "3",
        "--x0", "-2:2:41", "--r", "3:8:51", "--out", str(out_csv),
    )
    assert code == 0
    assert "wrote 2091 rows" in out
    code, out, _ = run(capsys, "verify", "--suite", "gauss_fund", "--from", str(out_csv))
    assert code == 0
    assert "gauss_fund.csv_roundtrip PASS" in out


@pytest.mark.parametrize(
    "flag, value", [("--x0", "nan"), ("--r", "inf"), ("--x0", "-1e308:1e308:2"), ("--x0", "1e308:-1e308:3")]
)
def test_sample_rejects_non_finite(capsys, tmp_path, flag, value):
    # NaN rows would be written, then reported as FAIL by `verify --from`, since NaN != NaN
    out_csv = tmp_path / "g.csv"
    ranges = {"--x0": "0", "--r": "1", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--target", "gauss-fund", "--m", "3", *sum(ranges.items(), ()), "--out", str(out_csv)])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err and not out_csv.exists()


@pytest.mark.parametrize("flag, value", [("--x0", "nan"), ("--r", "inf"), ("--x0", "-inf")])
def test_ck_gauss_rejects_non_finite(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["ck-gauss", "--m", "3", flag, value])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_sample_rejects_nan_rows(capsys, tmp_path):
    # r * r overflows from r ~ 1.34e154: the rows would read r = inf and hold NaN
    out_csv = tmp_path / "g.csv"
    code, _, err = run(
        capsys, "sample", "--target", "ck-gauss", "--m", "3", "--x0", "0", "--r", "1e200:1e300:2", "--out", str(out_csv)
    )
    assert code == 2
    assert "NaN at (x0=0.0, r=1e+200)" in err and not out_csv.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ck-gauss", "--m", "3", "--trunc", "171"], "0..170"),
        (["sample", "--target", "gauss-fund", "--m", "3", "--x0", "1e200", "--r", "1", "--out", "g.csv"], "overflow"),
        # r * r is subnormal, so the point is off the axis and the plan's r^-2 leaves binary64
        (
            ["sample", "--target", "ck-gauss", "--m", "3", "--x0", "0.5", "--r", "1e-160", "--out", "g.csv"],
            "binary64 overflow: sample value is out of range at (x0=0.5, r=1e-160)",
        ),
        (
            ["sample", "--target", "gauss-fund", "--m", "3", "--x0", "0.5", "--r", "1e-160", "--out", "g.csv"],
            "binary64 overflow: sample value is out of range at (x0=0.5, r=1e-160)",
        ),
        # NaN values
        (["ck-gauss", "--m", "3", "--x0", "1e200"], "binary64 overflow"),
    ],
    ids=["trunc_171", "sample_x0_1e200", "sample_ck_gauss_r_1e-160", "sample_gauss_fund_r_1e-160", "ck_gauss_x0_1e200"],
)
def test_overflow_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "argv, deviation",
    [
        # parts near 1e-196, whose squares underflow to 0: a norm of squares reads a deviation of 0 here
        (["--x0", "0.5", "--r", "30"], (1e-11, 1e-10)),
        # a closed value near -4.8e196, whose square overflows; the N = 60 series has not converged there
        (["--x0", "30", "--r", "1"], (1.0, 1.0)),
    ],
    ids=["r_30", "x0_30"],
)
def test_ck_gauss_deviation_of_parts_whose_squares_leave_binary64(capsys, argv, deviation):
    code, out, err = run(capsys, "ck-gauss", "--m", "3", *argv)
    assert (code, err) == (0, "")
    lo, hi = deviation
    assert lo <= float(out.rsplit("relative deviation: ", 1)[1]) <= hi


@pytest.mark.parametrize(
    "m, x0, r, message",
    [
        ("5", "0.5", "1e-100", "closed form is out of range at (x0=0.5, r=1e-100)"),  # r^-m-scale powers
        ("3", "700", "0.5", "closed form is out of range at (x0=700.0, r=0.5)"),  # exp(x0^2/2)
        ("3", "0.5", "1e60", "series is out of range at (x0=0.5, r=1e+60)"),  # the series' powers of -r^2
    ],
    ids=["closed_small_r", "closed_large_x0", "series_large_r"],
)
def test_ck_gauss_overflow_names_the_point(capsys, m, x0, r, message):
    assert run(capsys, "ck-gauss", "--m", m, "--x0", x0, "--r", r) == (2, "", f"error: binary64 overflow: {message}\n")


def test_sample_io_failure_exit_code(capsys):
    code, _, err = run(
        capsys, "sample", "--target", "ck-gauss", "--m", "3",
        "--x0", "0", "--r", "1:2:5", "--out", "/nonexistent-dir/g.csv",
    )
    assert code == 5
    assert err.startswith("error: ") and "/nonexistent-dir/g.csv" in err


def test_sample_radius_whose_square_underflows(capsys, tmp_path):
    # r > 0, but r * r is 0 in binary64: the grid point has no radius, and the message names it
    out_csv = tmp_path / "g.csv"
    code, out, err = run(
        capsys, "sample", "--target", "gauss-fund", "--m", "3", "--x0", "0", "--r", "1e-200", "--out", str(out_csv)
    )
    assert (code, out) == (2, "")
    assert err == "error: sample point needs r > 0 with r * r > 0 in binary64 at (x0=0.0, r=1e-200)\n"
    assert not out_csv.exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fueterlab.cli", "ck-gauss", "--m", "3", "--x0", "0", "--r", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "relative deviation" in proc.stdout


def test_ck_gauss_radius_whose_square_underflows(capsys):
    # r * r is 0 in binary64, so the point's radius is 0 and the axis formula applies
    code, out, err = run(capsys, "ck-gauss", "--m", "3", "--r", "1e-200")
    assert (code, err) == (0, "")
    assert "closed (x_=0 axis): 1.0" in out


@pytest.mark.parametrize(
    "r, formula",
    [("1e-150", "axial"), ("1.5e-154", "axial"), ("1.49e-154", "x_=0 axis"), ("1e-160", "x_=0 axis"), ("1e-170", "x_=0 axis")],
)
def test_ck_gauss_radius_whose_square_is_subnormal(capsys, r, formula):
    # from r ~ 1.49e-154 down, r * r is subnormal: off the axis, r^-2 of the closed form overflowed (exit 2)
    assert (float(r) ** 2 < sys.float_info.min) == (formula == "x_=0 axis")
    code, out, err = run(capsys, "ck-gauss", "--m", "3", "--r", r)
    assert (code, err) == (0, "")
    assert f"closed ({formula}):" in out and "relative deviation: 0.000e+00" in out


def test_verify_refuses_csv_with_no_rows(capsys, tmp_path):
    path = tmp_path / "gf.csv"
    path.write_text(",".join(sample_header(3)) + "\n")
    for suite in ("gauss_fund", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--from", str(path))
        assert (code, out) == (2, "") and "no rows" in err


def test_verify_from_names_the_row_that_overflows(capsys, tmp_path, checks_run):
    # r * r is subnormal, so the recomputed r^-2 leaves binary64: the error names the row's line, x0 and r;
    # the row parses, and it is refused before any check runs
    path = tmp_path / "t.csv"
    row = (0.5, 1e-160, 0.0, 0.0, 1e-160, 1.0, 0.0, 0.0, 0.0, 1.0)
    path.write_text(",".join(sample_header(3)) + "\n" + ",".join(map(repr, row)) + "\n")
    for suite in ("gauss_fund", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--from", str(path))
        assert (code, out) == (2, "")
        assert err == "error: binary64 overflow: sample CSV line 2: value is out of range at (x0=0.5, r=1e-160)\n"
    assert checks_run == []


@pytest.mark.parametrize("x1", [0.0, 1e-170])
def test_verify_from_names_the_row_on_the_axis(capsys, tmp_path, x1):
    # x1 = 0, or x1 whose square underflows, gives r = 0: the error names the row's line, x0 and x1
    path = tmp_path / "z.csv"
    good = (0.5, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    row = (0.5, x1, 0.0, 0.0, x1, 1.0, 0.0, 0.0, 0.0, 1.0)
    path.write_text("\n".join([",".join(sample_header(3)), *(",".join(map(repr, r)) for r in (good, row))]) + "\n")
    code, out, err = run(capsys, "verify", "--suite", "gauss_fund", "--from", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: sample CSV line 3: point needs r > 0 with r * r > 0 in binary64 at (x0=0.5, r={x1!r})\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--target", "gauss-fund", "--m", "3", "--x0", "0.5", "--r", "1e200", "--out", "g.csv"],
         "error: sample value is NaN at (x0=0.5, r=1e+200)\n"),
        (["ck-gauss", "--m", "3", "--x0", "0.5", "--r", "1e200"], "error: closed form is NaN at (x0=0.5, r=1e+200)\n"),
    ],
    ids=["sample", "ck_gauss"],
)
def test_infinite_x0_times_r_names_the_point(capsys, tmp_path, monkeypatch, argv, message):
    # r * r overflows, so the radius reads inf and cos(x0 r) has no value: math raises a bare "math domain error"
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", message)
    assert not (tmp_path / "g.csv").exists()


def test_verify_from_names_the_row_where_x0_times_r_is_infinite(capsys, tmp_path):
    path = tmp_path / "big.csv"
    row = (0.5, 1e200, 0.0, 0.0, 1e200, 1.0, 0.0, 0.0, 0.0, 1.0)
    path.write_text(",".join(sample_header(3)) + "\n" + ",".join(map(repr, row)) + "\n")
    code, out, err = run(capsys, "verify", "--suite", "gauss_fund", "--from", str(path))
    assert (code, out) == (2, "")
    assert err == "error: sample CSV line 2: value is NaN at (x0=0.5, r=1e+200)\n"


@pytest.mark.parametrize(
    "row, point",
    [
        # cos(0 * inf) is NaN without an exception, where x0 = 0.5 makes math raise
        ((0.0, 1e200, 0.0, 0.0, 1e200, 1.0, 0.0, 0.0, 0.0, 1.0), "x0=0.0, r=1e+200"),
        ((math.nan, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0), "x0=nan, r=1.0"),
        ((0.5, math.nan, 0.0, 0.0, math.nan, 1.0, 0.0, 0.0, 0.0, 1.0), "x0=0.5, r=nan"),
    ],
    ids=["x0_zero_r_inf", "x0_nan", "x1_nan"],
)
def test_verify_from_refuses_a_row_whose_value_is_nan(capsys, tmp_path, row, point):
    # a NaN value could only match by its bits; it is refused as sample refuses to write one
    path = tmp_path / "nan.csv"
    path.write_text(",".join(sample_header(3)) + "\n" + ",".join(map(repr, row)) + "\n")
    code, out, err = run(capsys, "verify", "--suite", "gauss_fund", "--from", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: sample CSV line 2: value is NaN at ({point})\n"


def test_verify_from_names_the_line_of_a_cell_that_is_not_a_number(capsys, tmp_path):
    path = tmp_path / "abc.csv"
    good = "0.5,1.0,0.0,0.0,1.0,1.0,0.0,0.0,0.0,1.0"
    path.write_text("\n".join([",".join(sample_header(3)), good, good.replace("1.0", "abc", 1)]) + "\n")
    code, out, err = run(capsys, "verify", "--suite", "gauss_fund", "--from", str(path))
    assert (code, out) == (2, "")
    assert err == "error: sample CSV line 3: could not convert string to float: 'abc'\n"


def test_verify_all_seed7_matches_golden(capsys):
    # the random draws of every suite come from --rng-seed; the golden file was written at seed 7
    code, out, err = run(capsys, "verify", "--suite", "all", "--rng-seed", "7")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SEED7.read_text()


@pytest.mark.parametrize("m", ["0", "-1", "17", "18"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ck-gauss", "--r", "1"],
        ["ck-gauss", "--r", "0"],
        ["sample", "--target", "gauss-fund", "--x0", "0", "--r", "1", "--out", "g.csv"],
        ["verify", "--suite", "examples"],
        ["verify", "--suite", "gauss_fund"],
        ["verify", "--suite", "all"],
        ["fueter", "--seed", "gauss"],
        ["hermite", "--n", "2"],
    ],
    ids=["ck_gauss", "ck_gauss_axis", "sample", "verify_examples", "verify_gauss_fund", "verify_all", "fueter", "hermite"],
)
def test_dimension_out_of_range_is_named(capsys, tmp_path, monkeypatch, argv, m):
    # --m 0 used to build a one-coordinate point and report "point dimension 1 vs m=0"
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--m", m)
    assert (code, out) == (2, "")
    assert err == f"error: dimension m must be in 1..16, got {m}\n"
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cli.cmd_ck_gauss(argparse.Namespace(m=3, x0=0.0, r=-1.0, trunc=60)), "r must be nonnegative"),
        (lambda: next(verify.iter_suite("nope")), "unknown suite 'nope'; choose from"),
    ],
    ids=["ck_gauss_negative_r", "unknown_suite"],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _nan_on_call(fn, n, nan):
    """fn, except that its n-th call returns nan."""
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        return nan if calls == n else fn(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "name, n, nan, argv, check_id",
    [
        ("fd_cr_residual", 3, math.nan, ["--suite", "gauss_fund", "--m", "3"], "gauss_fund.fd_two_sided"),
        ("ck_gauss_series", 5, Multivector.scalar(3, math.nan, exact=False), ["--suite", "gauss", "--m", "3"], "gauss.series_vs_closed"),
    ],
    ids=["fd_residual", "series_vs_closed"],
)
def test_a_nan_error_fails_its_check(capsys, monkeypatch, name, n, nan, argv, check_id):
    # the builtin max drops a NaN that does not come first, so a running max once printed PASS here
    monkeypatch.setattr(verify, name, _nan_on_call(getattr(verify, name), n, nan))
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert f"\n{check_id} FAIL nan " in "\n" + out
