"""End-to-end tests of the command-line front end.

Each subcommand is driven through main() with a temporary output
directory; reports are parsed back and checked against the library
routines, and the resolved-config echo is replayed to confirm the
byte-for-byte reproducibility contract.
"""
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import satolab.cli as cli
from oracles import enumerate_one_prime_at_a_time
from satolab.cli import main
from satolab.number_field import FieldSpec, pi_L

PI = math.pi
Q5 = FieldSpec.real_quadratic(5)
QUARTER = ["0.78539816339744828", "1.5707963267948966"]


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_approx_full_interval_defects(tmp_path):
    out = str(tmp_path)
    code = main(["approx", "--interval", "0", "3.14159265358979", "--M", "20", "--out", out])
    assert code == 0
    rep = _read(os.path.join(out, "approx_report.json"))
    assert rep["mass_defect_plus"] == pytest.approx(1 / 21, abs=1e-9)
    assert rep["mass_defect_minus"] == pytest.approx(-1 / 21, abs=1e-9)
    assert rep["defect_target"] == pytest.approx(1 / 21, rel=1e-15)
    assert rep["sandwich_margin_plus"] >= -1e-9
    assert rep["sandwich_margin_minus"] >= -1e-9
    assert rep["coefficient_closeness_plus"] <= 1 / 21 + 1e-9
    csv_lines = open(os.path.join(out, "approx_coefficients.csv")).read().splitlines()
    assert csv_lines[0] == "m,f_plus,f_minus"
    assert len(csv_lines) == 22


def test_approx_at_size_bounds(tmp_path):
    # the largest accepted degree and grid
    out = str(tmp_path)
    argv = ["approx", "--interval", *QUARTER, "--M", "10000", "--grid", "16385", "--out", out]
    assert main(argv) == 0
    rep = _read(os.path.join(out, "approx_report.json"))
    assert rep["sandwich_margin_plus"] >= -1e-9
    assert rep["sandwich_margin_minus"] >= -1e-9


def test_measures_table_example(tmp_path):
    out = str(tmp_path)
    assert main(["measures", "--q", "4", "--max-m", "6", "--out", out]) == 0
    lines = open(os.path.join(out, "measures_table.csv")).read().splitlines()
    assert lines[0] == "q,m,exact,quadrature,abs_err"
    assert len(lines) == 8
    row = lines[3].split(",")  # m = 2
    assert float(row[0]) == 4.0
    assert int(row[1]) == 2
    assert float(row[2]) == 0.25
    assert abs(float(row[3]) - 0.25) < 1e-9
    rep = _read(os.path.join(out, "measures_report.json"))
    assert rep["max_abs_err"] < 1e-9


def test_primes_report_matches_library(tmp_path):
    out = str(tmp_path)
    assert main(["primes", "--field", "sqrt5", "--x", "100", "--out", out]) == 0
    rep = _read(os.path.join(out, "primes_report.json"))
    want = pi_L(FieldSpec.real_quadratic(5), 100)
    assert rep["pi_L_x"] == want
    lines = open(os.path.join(out, "primes_table.csv")).read().splitlines()
    assert lines[0] == "norm,p,label,residue_degree,split_type"
    assert len(lines) == want + 1
    assert rep["mertens_minus_loglog"] == pytest.approx(
        rep["mertens_sum"] - math.log(math.log(100.0)), rel=1e-12
    )


def test_primes_table_bytes_match_oracle(tmp_path):
    # 78,506 rows: past the first 2^16-row write block, with one inert (3),
    # one ramified (5) and one split (11) prime excluded
    out = str(tmp_path)
    argv = ["primes", "--field", "sqrt5", "--x", "1e6", "--exclude-primes", "3", "5", "11"]
    assert main([*argv, "--out", out]) == 0
    rows = [r for r in enumerate_one_prime_at_a_time(Q5, 10**6) if r[1] not in (3, 5, 11)]
    want = "norm,p,label,residue_degree,split_type\n" + "".join(
        f"{norm},{p},{label},{f},{kind}\n" for norm, p, label, f, kind in rows
    )
    assert len(rows) == 78506
    assert open(os.path.join(out, "primes_table.csv"), "rb").read() == want.encode()
    assert _read(os.path.join(out, "primes_report.json"))["pi_L_x"] == len(rows)


def test_exclude_primes_past_the_primality_range(tmp_path, capsys):
    # 1287836182261 * 2575672364521 passes the 12-witness test; the schema
    # refuses every entry from 2^64 up instead of asking it
    out = str(tmp_path)
    clt = ["clt", "--field", "sqrt5", "--x", "500", "--size", "100", "--seed", "1",
           "--interval", *QUARTER]
    for value in (3317044064679887385961981, 2**64):
        for sub in (["primes", "--x", "100"], clt):
            assert main([*sub, "--exclude-primes", str(value), "--out", out]) == 2, value
            assert "'exclude_primes'" in capsys.readouterr().err
    assert main(["primes", "--x", "100", "--exclude-primes", str(2**64 - 59), "--out", out]) == 0
    capsys.readouterr()


def test_primes_peak_memory_at_1e7(tmp_path):
    # the child reads its own high-water mark: ru_maxrss would carry the
    # parent's over fork and exec
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    script = (
        "import satolab.cli as cli\n"
        "assert cli.main(['primes', '--field', 'sqrt5', '--x', '1e7', '--out', '.']) == 0\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
    )
    proc = _fresh_interpreter(tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split("VmHWM:")[1].split()[0]) / 1024
    assert peak_mb < 256, peak_mb


def _run_clt(out, extra=()):
    argv = [
        "clt",
        "--field",
        "sqrt5",
        "--x",
        "500",
        "--size",
        "1500",
        "--seed",
        "7",
        "--interval",
        *QUARTER,
        "--out",
        out,
    ]
    argv.extend(extra)
    return main(argv)


def test_clt_report_and_histogram(tmp_path):
    out = str(tmp_path)
    assert _run_clt(out) == 0
    rep = _read(os.path.join(out, "report.json"))
    assert rep["size"] == 1500
    assert len(rep["empirical_moments"]) == 6
    assert rep["gaussian_targets"] == [0, 1, 0, 3, 0, 15]
    lines = open(os.path.join(out, "histogram.csv")).read().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    counts = [int(r.split(",")[2]) for r in lines[1:]]
    assert len(counts) == 60
    assert sum(counts) + rep["underflow"] + rep["overflow"] == 1500
    echo = _read(os.path.join(out, "resolved_config.json"))
    assert echo == rep["config"]
    assert echo["statistic"]["kind"] == "indicator"
    assert "threads" not in echo


def test_clt_rerun_from_echo_is_byte_identical(tmp_path):
    # an indicator run from flags, and a custom-kind smooth run from a file
    custom = tmp_path / "custom.json"
    custom.write_text(
        '{"field": "sqrt5", "x": 300, "size": 300, "seed": 4, "statistic": {"kind": "smooth", '
        '"phi": "custom", "M": 2.0, "table": [[0, 1], [0.5, 0.4], [1, 0]]}}'
    )
    runs = {
        "indicator": lambda out: _run_clt(out),
        "custom": lambda out: main(["clt", "--config", str(custom), "--out", out]),
    }
    for kind, run in runs.items():
        first = str(tmp_path / kind / "a")
        second = str(tmp_path / kind / "b")
        assert run(first) == 0
        cfg = os.path.join(first, "resolved_config.json")
        assert main(["clt", "--config", cfg, "--threads", "3", "--out", second]) == 0
        for name in ("report.json", "histogram.csv", "resolved_config.json"):
            a = open(os.path.join(first, name), "rb").read()
            b = open(os.path.join(second, name), "rb").read()
            assert a == b, (kind, name)


def test_clt_flags_override_config_file(tmp_path):
    first = str(tmp_path / "a")
    second = str(tmp_path / "b")
    assert _run_clt(first) == 0
    cfg = os.path.join(first, "resolved_config.json")
    assert main(["clt", "--config", cfg, "--seed", "8", "--out", second]) == 0
    echo = _read(os.path.join(second, "resolved_config.json"))
    assert echo["seed"] == 8
    a = _read(os.path.join(first, "report.json"))
    b = _read(os.path.join(second, "report.json"))
    assert a["empirical_moments"] != b["empirical_moments"]


def test_clt_smooth_statistic_flags(tmp_path):
    out = str(tmp_path)
    code = main(
        [
            "clt",
            "--field",
            "rationals",
            "--x",
            "300",
            "--size",
            "800",
            "--seed",
            "3",
            "--statistic",
            "smooth",
            "--lam",
            "1.0",
            "--smooth-m",
            "2",
            "--out",
            out,
        ]
    )
    assert code == 0
    echo = _read(os.path.join(out, "resolved_config.json"))
    assert echo["statistic"] == {"kind": "smooth", "phi": "gaussian", "M": 2.0, "lam": 1.0}


def test_theory_report(tmp_path):
    out = str(tmp_path)
    code = main(
        ["theory", "--x", "2000", "--interval", *QUARTER, "--n", "2", "--out", out]
    )
    assert code == 0
    rep = _read(os.path.join(out, "theory_report.json"))
    assert rep["n"] == 2
    assert rep["ratio"] == pytest.approx(1.0, abs=0.05)
    assert rep["growth"] is None
    assert set(rep["case_breakdown"]) == {"case1", "case2", "case3"}
    assert len(rep["partition_terms"]) == 2
    assert rep["main_term"] == pytest.approx(
        rep["case_breakdown"]["case1"]
        + rep["case_breakdown"]["case2"]
        + rep["case_breakdown"]["case3"],
        rel=1e-12,
    )
    # n = 8 at the limit-law degree of x = 3e6: M = 1,258, n * M = 10,064
    argv = ["theory", "--field", "sqrt5", "--x", "3e6", "--interval", *QUARTER, "--n", "8"]
    assert main(argv + ["--out", out]) == 0
    rep = _read(os.path.join(out, "theory_report.json"))
    assert (rep["n"], rep["m_used"]) == (8, 1258)


def test_theory_with_weights_and_odd_order(tmp_path):
    out = str(tmp_path)
    code = main(
        [
            "theory",
            "--x",
            "2000",
            "--interval",
            *QUARTER,
            "--n",
            "3",
            "--M",
            "12",
            "--weights",
            "4",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    rep = _read(os.path.join(out, "theory_report.json"))
    assert rep["gaussian_target"] == 0.0
    assert rep["ratio"] is None
    assert rep["m_used"] == 12
    assert rep["growth"]["within_budget"] is False
    assert rep["growth"]["m_limit_law"] >= 1


def test_theory_bytes_do_not_depend_on_sweep_order(tmp_path):
    # --n 3 after --n 8 in one process reads the orders that --n 8 cached;
    # its files must match --n 3 run alone
    argv = ["theory", "--field", "rationals", "--x", "20000", "--interval", *QUARTER]
    fresh = str(tmp_path / "fresh")
    alone = argv + ["--n", "3", "--out", fresh]
    script = f"import sys, satolab.cli as cli; sys.exit(cli.main({alone!r}))"
    assert _fresh_interpreter(tmp_path, script).returncode == 0
    assert main(argv + ["--n", "8", "--out", str(tmp_path / "n8")]) == 0
    assert main(argv + ["--n", "3", "--out", str(tmp_path / "n3")]) == 0
    for name in ("theory_report.json", "resolved_config.json"):
        with open(os.path.join(fresh, name), "rb") as a, open(tmp_path / "n3" / name, "rb") as b:
            assert a.read() == b.read(), name


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # theory then clt through the one cached parser write the bytes of each
    # run in a fresh interpreter
    runs = {
        "theory": ["theory", "--field", "sqrt5", "--x", "3000", "--interval", *QUARTER, "--n", "4"],
        "clt": ["clt", "--field", "sqrt5", "--x", "500", "--size", "100", "--seed", "3",
                "--interval", *QUARTER],
    }
    for name, argv in runs.items():
        script = f"import sys, satolab.cli as cli; sys.exit(cli.main({argv + ['--out', name]!r}))"
        assert _fresh_interpreter(tmp_path, script).returncode == 0
    cli._build_parser.cache_clear()
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / "shared" / name)]) == 0
    assert cli._build_parser.cache_info()[:2] == (1, 1)  # hits, misses
    for name in runs:
        files = sorted(os.listdir(tmp_path / name))
        assert files == sorted(os.listdir(tmp_path / "shared" / name))
        for f in files:
            with open(tmp_path / name / f, "rb") as a, open(tmp_path / "shared" / name / f, "rb") as b:
                assert a.read() == b.read(), (name, f)


def test_smooth_report_and_profile(tmp_path):
    out = str(tmp_path)
    assert main(["smooth", "--lam", "1.0", "--smooth-m", "1", "--out", out]) == 0
    rep = _read(os.path.join(out, "smooth_report.json"))
    assert rep["phi_at_zero"] == pytest.approx(1.7726372048, abs=1e-9)
    assert rep["variance_weight"] >= 0.0
    lines = open(os.path.join(out, "smooth_profile.csv")).read().splitlines()
    assert lines[0] == "t,phi"
    assert len(lines) == 514
    # periodized gaussian is symmetric about t = 1/2
    first = float(lines[2].split(",")[1])
    last = float(lines[-2].split(",")[1])
    assert first == pytest.approx(last, rel=1e-12)


def test_degrees_flag_converts_interval(tmp_path):
    out = str(tmp_path)
    code = main(["approx", "--interval", "0", "90", "--degrees", "--M", "10", "--out", out])
    assert code == 0
    echo = _read(os.path.join(out, "resolved_config.json"))
    assert echo["interval"][1] == pytest.approx(PI / 2, rel=1e-15)
    # --degrees converts the flag only: the echo's radians replay unchanged
    cfg = os.path.join(out, "resolved_config.json")
    again = str(tmp_path / "again")
    assert main(["approx", "--config", cfg, "--degrees", "--out", again]) == 0
    replayed = open(os.path.join(again, "resolved_config.json"), "rb").read()
    assert replayed == open(cfg, "rb").read()


def test_config_error_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    # missing required field
    assert main(["clt", "--x", "500", "--size", "1500", "--seed", "1", "--out", out]) == 2
    assert "field" in capsys.readouterr().err
    # invalid residue norm
    assert main(["measures", "--q", "1", "--out", out]) == 2
    assert "q" in capsys.readouterr().err
    # unknown field name, and a D that is not squarefree
    for name in ("cubic7", "sqrt4"):
        assert main(["primes", "--field", name, "--x", "100", "--out", out]) == 2
        assert "'field'" in capsys.readouterr().err
    # out-of-range values name their key
    for argv, key in (
        (["measures", "--q", "4", "--points", "0"], "points"),
        (["measures", "--q", "4", "--points", "-2"], "points"),
        # the limiting measure LocalMeasure(inf) is a library value, not an input
        (["measures", "--q", "inf"], "q"),
        (["approx", "--interval", *QUARTER, "--M", "2"], "m"),
        (["theory", "--x", "16", "--interval", *QUARTER], "m"),
        (["clt", "--field", "sqrt5", "--x", "2e8", "--size", "100", "--seed", "1",
          "--interval", *QUARTER], "x"),
        (["primes", "--x", "10"], "x"),
        (["smooth", "--smooth-m", "0.5"], "smooth_m"),
        # one past each size bound; none of these runs
        (["approx", "--interval", *QUARTER, "--M", "10001"], "m"),
        (["approx", "--interval", *QUARTER, "--grid", "16386"], "grid"),
        (["measures", "--q", "4", "--max-m", "1001"], "max_m"),
        (["measures", "--q", "4", "--points", "65537"], "points"),
        (["clt", "--field", "sqrt5", "--x", "500", "--size", "10000001", "--seed", "1",
          "--interval", *QUARTER], "size"),
        (["theory", "--x", "2000", "--interval", *QUARTER, "--M", "10001", "--n", "1"], "m"),
        (["smooth", "--points", "1000001"], "points"),
    ):
        assert main(argv + ["--out", out]) == 2, argv
        assert f"'{key}'" in capsys.readouterr().err, argv
    # ensemble too small for jackknife summaries
    assert (
        main(
            ["clt", "--field", "sqrt5", "--x", "500", "--size", "50", "--seed", "1",
             "--interval", *QUARTER, "--out", out]
        )
        == 2
    )
    assert "size" in capsys.readouterr().err
    # malformed flag value: argparse exits with code 2
    assert main(["clt", "--x", "notanumber"]) == 2
    capsys.readouterr()


def test_config_file_validation(tmp_path, capsys):
    out = str(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 4, "mystery": 3}')
    assert main(["measures", "--config", str(bad), "--out", out]) == 2
    assert "mystery" in capsys.readouterr().err
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"subcommand": "primes", "q": 4}')
    assert main(["measures", "--config", str(wrong), "--out", out]) == 2
    assert "subcommand" in capsys.readouterr().err
    assert main(["measures", "--config", str(tmp_path / "nope.json"), "--out", out]) == 2
    capsys.readouterr()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert main(["measures", "--config", str(notjson), "--out", out]) == 2
    capsys.readouterr()
    not_a_name = tmp_path / "field5.json"
    not_a_name.write_text('{"field": 5, "x": 100}')
    assert main(["primes", "--config", str(not_a_name), "--out", out]) == 2
    assert "'field'" in capsys.readouterr().err
    clt = '{"field": "sqrt5", "x": 500, "seed": 1, '
    for text, key in (
        # json reads 1e999 as inf, which is no integer
        (clt + '"size": 1e999, "statistic": {"kind": "smooth"}}', "size"),
        (clt + '"size": 100, "statistic": {"kind": "smooth", "bogus": 1}}', "statistic.bogus"),
        # omega was a setting that no computation read; it is gone
        (clt + '"size": 100, "statistic": {"kind": "smooth", "omega": 2.0}}', "statistic.omega"),
    ):
        path = tmp_path / "clt.json"
        path.write_text(text)
        assert main(["clt", "--config", str(path), "--out", out]) == 2, text
        assert f"'{key}'" in capsys.readouterr().err, text


def _config_error(capsys, argv, config=None):
    """stderr of a run on argv (and, given, a config file) that must exit 2."""
    if config is not None:
        path = os.path.join(argv[argv.index("--out") + 1], "given.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [*argv, "--config", path]
    assert main(argv) == 2, argv
    return capsys.readouterr().err


KNOTS_NOT_FROM_ZERO = [[0.5, 1.0], [1.0, 0.0]]


def test_smooth_knot_table_error_names_table(tmp_path, capsys):
    config = {"phi": "custom", "table": KNOTS_NOT_FROM_ZERO}
    err = _config_error(capsys, ["smooth", "--out", str(tmp_path)], config)
    assert "config field 'table': knots must start at 0" in err


def test_clt_knot_table_error_names_statistic_table(tmp_path, capsys):
    stat = {"kind": "smooth", "phi": "custom", "table": KNOTS_NOT_FROM_ZERO}
    config = {"field": "sqrt5", "x": 500, "size": 200, "seed": 1, "statistic": stat}
    err = _config_error(capsys, ["clt", "--out", str(tmp_path)], config)
    assert "config field 'statistic.table': knots must start at 0" in err


def test_periodization_window_is_bounded(tmp_path, capsys):
    # 2 * 58,824 + 1 shifted gaussians per point: rejected before any weight
    out = str(tmp_path)
    start = time.perf_counter()
    err = _config_error(capsys, ["smooth", "--lam", "1e-8", "--smooth-m", "1", "--out", out])
    assert time.perf_counter() - start < 2.0
    assert "config field 'lam'" in err and "64" in err
    clt = ["clt", "--field", "sqrt5", "--x", "500", "--size", "200", "--seed", "1",
           "--statistic", "smooth", "--smooth-m", "1", "--out", out]
    assert "'statistic.lam'" in _config_error(capsys, [*clt, "--lam", "0.005"])
    # the custom kind sums ceil(U / M) + 1 shifts: 64 pass, 65 do not
    wide = {"phi": "custom", "smooth_m": 1.0}
    for support, code in ((63.0, 0), (63.5, 2)):
        wide["table"] = [[0.0, 1.0], [support, 0.0]]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide))
        assert main(["smooth", "--config", str(path), "--out", out]) == code, support
    assert "config field 'table'" in capsys.readouterr().err


# At lam = 0.3, M = 1 the periodized gaussian is flat in double precision
# (exp(-pi^2/lam) is 5e-15): its variance, 3.6e-15 of rounding noise, reads 0.
FLAT = ["--statistic", "smooth", "--lam", "0.3", "--smooth-m", "1"]


def test_flat_weight_reports_zero_variance(tmp_path):
    out = str(tmp_path)
    assert main(["smooth", *FLAT[2:], "--out", out]) == 0
    assert _read(os.path.join(out, "smooth_report.json"))["variance_weight"] == 0.0


def test_flat_weight_statistic_is_degenerate(tmp_path, capsys):
    clt = ["clt", "--field", "sqrt5", "--x", "500", "--size", "200", "--seed", "1", *FLAT]
    err = _config_error(capsys, [*clt, "--out", str(tmp_path)])
    assert "config field 'statistic': statistic is degenerate" in err


def test_integer_keys_are_read_exactly(tmp_path, capsys):
    # 2^53 + 1 has no double: the seed must reach the run and the echo as given
    seed = 2**53 + 1
    flag_out = str(tmp_path / "flag")
    argv = ["clt", "--field", "sqrt5", "--x", "500", "--size", "200", "--interval", *QUARTER]
    assert main([*argv, "--seed", str(seed), "--out", flag_out]) == 0
    echo_text = open(os.path.join(flag_out, "resolved_config.json")).read()
    assert f'"seed": {seed},' in echo_text
    assert _read(os.path.join(flag_out, "resolved_config.json"))["seed"] == seed
    clt = '{"field": "sqrt5", "x": 500, "statistic": {"interval": [0.5, 1.5]}, '
    path = tmp_path / "clt.json"
    path.write_text(clt + f'"seed": {seed}, "size": 1e3}}')
    file_out = str(tmp_path / "file")
    assert main(["clt", "--config", str(path), "--out", file_out]) == 0
    echo = _read(os.path.join(file_out, "resolved_config.json"))
    assert (echo["seed"], echo["size"]) == (seed, 1000)
    capsys.readouterr()
    for value in ("2.5", '"nan"', "NaN", "true", '"1.5"'):
        path.write_text(clt + f'"seed": {value}, "size": 200}}')
        assert main(["clt", "--config", str(path), "--out", file_out]) == 2, value
        assert "'seed'" in capsys.readouterr().err, value


def test_contract_violation_exits_one(tmp_path, capsys, monkeypatch):
    # tighten the sandwich slack beyond reach to force the failure path
    monkeypatch.setattr(cli, "_SANDWICH_SLACK", -1.0)
    out = str(tmp_path)
    code = main(["approx", "--interval", *QUARTER, "--M", "10", "--out", out])
    assert code == 1
    assert "contract violation" in capsys.readouterr().err


def _fresh_interpreter(tmp_path, script):
    """Run a Python script in a fresh interpreter that imports satolab from
    this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )


def _raise_inside(tmp_path, target, argv):
    """Run the CLI on argv in a fresh interpreter, with target (a name under
    satolab.cli, imported as cli) replaced by a function raising ValueError."""
    script = (
        "import sys\n"
        "import satolab.cli as cli\n"
        "def boom(*args, **kwargs):\n"
        "    raise ValueError('internal failure')\n"
        f"{target} = boom\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    return _fresh_interpreter(tmp_path, script)


def test_internal_value_error_exits_one(tmp_path):
    # a ValueError from inside a run is a numerical failure, not a config error
    proc = _raise_inside(tmp_path, "cli._RUNNERS['smooth']", ["smooth"])
    assert proc.returncode == 1
    assert "ValueError: internal failure" in proc.stderr
    assert "config error" not in proc.stderr


def test_theory_value_error_is_not_blamed_on_a_key(tmp_path):
    argv = ["theory", "--x", "2000", "--interval", *QUARTER]
    proc = _raise_inside(tmp_path, "cli.main_term_report", argv)
    assert proc.returncode == 1
    assert "ValueError: internal failure" in proc.stderr
    assert "config error" not in proc.stderr


def _doc_tables():
    """{heading: [(key, type cell, default cell), ...]} for the key tables of
    docs/config.md."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "config.md")
    tables, heading = {}, None
    for line in open(path).read().splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.startswith("| `") and not line.startswith("| `--"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            tables.setdefault(heading, []).append((cells[0].strip("`"), cells[1], cells[2]))
    return tables


# the leading word of a docs type cell, per config value type
_TYPE_WORDS = (
    (cli._INTEGER, "int"), (cli._NUMBER, "number"), (cli._TEXT, "string"),
    (cli._FIELD_NAME, "string"), (cli._INTEGERS, "list"), (cli._PAIRS, "list"),
    (cli._ARC, "`[a, b]`"), (None, "object"),
)


def _range_edges(kind: str) -> list:
    """(value, inside) pairs at each end of the range a docs type cell states,
    `int >= k`, `number > k`, `int in a..b` (alone or before a comma) or
    `number in [a, b]`, and just past it; [] for a cell that states none."""
    word = kind.split()[0]
    if word not in ("int", "number"):
        return []
    num = int if word == "int" else float

    def step(v, d):  # the next value past v, in the direction of d = +-1
        return v + d if word == "int" else math.nextafter(v, d * math.inf)

    if m := re.match(r"\w+ (>=?) ([^,\s]+)", kind):
        k = num(m[2])
        return [(k, m[1] == ">="), (step(k, -1), False), (step(k, 1), True)]
    if m := re.match(r"\w+ in (\d+)\.\.(\d+)(?:,|$)|\w+ in \[(\S+), (\S+)\]$", kind):
        lo, hi = (num(v) for v in m.groups() if v is not None)
        return [(lo, True), (step(lo, -1), False), (hi, True), (step(hi, 1), False)]
    return []


def test_docs_list_the_schema():
    def cell(default):
        if default is cli._REQUIRED:
            return "required"
        return "none" if default is None else f"`{json.dumps(default)}`"

    expected = {sub: rows for sub, (_, rows) in cli._SCHEMA.items()}
    expected["clt statistic"] = next(key.rows for key in expected["clt"] if key.rows)
    tables = _doc_tables()
    assert set(tables) == set(expected)
    for heading, rows in expected.items():
        got = [(name, default) for name, _, default in tables[heading]]
        assert got == [(key.name, cell(key.default)) for key in rows], heading
        for key, (_, kind, _) in zip(rows, tables[heading]):
            where = (heading, key.name)
            if key.choices:
                assert kind == " or ".join(f'`"{c}"`' for c in key.choices), where
            else:
                word = next(w for t, w in _TYPE_WORDS if t is key.type)
                assert kind == word or kind.startswith(word + " "), where
            for value, inside in _range_edges(kind):
                assert key.check is not None and key.check(value) == inside, (where, value)


def test_threads_outside_bounds_name_threads(tmp_path, monkeypatch, capsys):
    # 1,500 members are one block, so --threads 65 would start one worker
    out = str(tmp_path)
    for bad in ("0", "-1", "65"):
        assert _run_clt(out, ["--threads", bad]) == 2
        assert "'threads'" in capsys.readouterr().err
    # only --threads sets the worker count, so the environment changes nothing
    monkeypatch.setenv("SATOLAB_THREADS", "abc")
    assert _run_clt(out) == 0


def test_large_sqrt_d_refused_at_once(tmp_path, capsys):
    out = str(tmp_path)
    start = time.perf_counter()
    argv = ["primes", "--field", "sqrt1000000000000000003", "--x", "100", "--out", out]
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "'field'" in capsys.readouterr().err
    # 10^12 - 2 = 2 x 499999999999 is squarefree and just below the bound
    assert main(["primes", "--field", "sqrt999999999998", "--x", "100", "--out", out]) == 0
    assert main(["primes", "--field", "sqrt1000000000039", "--x", "100", "--out", out]) == 2


def test_outputs_round_trip_exactly(tmp_path):
    # every float reads back bit for bit and as a float, -0.0 and 2.0
    # included; non-finite floats read back as strings
    floats = [-0.0, 2.0, 1e16, 0.1 + 0.2, 5e-324, np.float64(1 / 3)]
    odd = [math.nan, math.inf, -math.inf]
    report = {"floats": floats, "int": np.int64(2**62), "flag": np.bool_(True), "odd": odd,
              "nested": ((1.5, (-0.0, 2)), ()), 7: "seven"}
    table = ("t.csv", ("f", "i", "o"), (floats, [np.int64(2**62)] * 6, odd * 2))
    cli._emit(SimpleNamespace(out=str(tmp_path)), {"seed": 1}, "r.json", report, table)
    got = _read(tmp_path / "r.json")
    assert list(got) == ["config", "floats", "int", "flag", "odd", "nested", "7"]
    assert got["config"] == _read(tmp_path / "resolved_config.json") == {"seed": 1}
    assert [type(v) for v in got["floats"]] == [float] * 6
    assert [v.hex() for v in got["floats"]] == [float(v).hex() for v in floats]
    assert type(got["int"]) is int and got["int"] == 2**62
    assert got["flag"] is True
    assert got["odd"] == ["nan", "inf", "-inf"]
    assert got["nested"] == [[1.5, [0.0, 2]], []] and got["nested"][0][1][0].hex() == "-0x0.0p+0"
    assert got["7"] == "seven"
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f", "i", "o"]
    assert [float(r[0]).hex() for r in rows[1:]] == [float(v).hex() for v in floats]
    assert [int(r[1]) for r in rows[1:]] == [2**62] * 6
    assert [r[2] for r in rows[1:]] == ["nan", "inf", "-inf"] * 2
    for bad in ({1, 2}, np.complex128(1j), object()):
        with pytest.raises(TypeError):
            cli._emit(SimpleNamespace(out=str(tmp_path)), {}, "r.json", {"bad": bad})


def test_size_keys_are_bounded():
    # lint: every integer key but the seed sets a size or an order, and must
    # refuse absurd values before any work starts
    keys = [(sub, k) for sub, (_, rows) in cli._SCHEMA.items() for row in rows
            for k in row.rows or (row,)]
    loose = [
        (sub, key.name) for sub, key in keys
        if key.type is cli._INTEGER and key.name != "seed"
        and (key.check is None or key.check(10**18))
    ]
    assert loose == []


def test_field_spec_built_once_per_call(tmp_path, monkeypatch):
    # the config check and the run share one squarefree trial division
    built = []
    real_quadratic = FieldSpec.real_quadratic.__func__

    def counted(cls, D):
        built.append(D)
        return real_quadratic(cls, D)

    monkeypatch.setattr(FieldSpec, "real_quadratic", classmethod(counted))
    out = str(tmp_path)
    for argv in (
        ["primes", "--x", "100"],
        ["clt", "--x", "500", "--size", "100", "--seed", "1", "--interval", *QUARTER],
        ["theory", "--x", "2000", "--interval", *QUARTER],
    ):
        FieldSpec.from_name.cache_clear()
        built.clear()
        assert main([*argv, "--field", "sqrt5", "--out", out]) == 0
        assert built == [5], argv
