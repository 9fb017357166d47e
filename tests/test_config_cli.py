import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsg.config import (RunConfig, load_preset, parse_config, parse_init)
from lsg.errors import ConfigError
from lsg.grids import RadialGrid
from lsg.heisenberg import GeodesicParams, geodesic


# --- config parsing -------------------------------------------------------------

def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.grid == (512, 12.0)
    assert cfg.seed == 42


def test_basic_assignment():
    cfg = parse_config("group = A2\nt = 1.0\n")
    assert cfg.group == "A2"
    assert cfg.times == (1.0,)


def test_odd_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config("grid = 15,10")


def test_small_or_negative_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config("grid = 8,10")
    with pytest.raises(ConfigError):
        parse_config("grid = 32,-1")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("grdi = 16,10")
    assert "grdi" in str(err.value)


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\n  group = B2  # inline\n\n")
    assert cfg.group == "B2"


def test_times_list_and_positivity():
    cfg = parse_config("times = 0.25, 1, 4")
    assert cfg.times == (0.25, 1.0, 4.0)
    with pytest.raises(ConfigError):
        parse_config("t = -1")


def test_tolerance_map():
    cfg = parse_config("tol.crit = 0.05\ntol.decay_slope = 0.1")
    assert cfg.tolerances == {"crit": 0.05, "decay_slope": 0.1}


def test_format_validation():
    # output format follows the subcommand; there is no format key
    for text in ("format = csv", "format = xml"):
        with pytest.raises(ConfigError, match="unknown key 'format'"):
            parse_config(text)


def test_init_descriptor_parsing():
    init = parse_init("gaussian:a=0.5,chirp=-0.25")
    assert init.rate == 0.5 and init.chirp == -0.25
    assert parse_init("gaussian").rate == 1.0
    with pytest.raises(ConfigError):
        parse_init("soliton:a=1")
    with pytest.raises(ConfigError):
        parse_init("gaussian:a=-1")


@given(st.sampled_from(["A1", "A2", "B2", "G2"]),
       st.integers(8, 512), st.floats(1.0, 30.0), st.integers(0, 2**31 - 1))
def test_parse_config_roundtrips_values(group, half_n, box, seed):
    n = 2 * half_n
    text = f"group={group}\n grid = {n},{box:.6g}\nseed = {seed}\n"
    cfg = parse_config(text)
    assert cfg.group == group
    assert cfg.grid == (n, float(f"{box:.6g}"))
    assert cfg.seed == seed


def test_load_bundled_preset():
    cfg = load_preset("lemma1")
    assert cfg.group == "euclid:1"
    assert cfg.init.chirp == -0.25
    with pytest.raises(ConfigError):
        load_preset("nonexistent")


# --- CLI ---------------------------------------------------------------------------

def run_cli(*args, cwd=None):
    # the warning policy of the in-process tests (pyproject filterwarnings)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "lsg.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def run_main(capsys, *args):
    """(exit code, stdout, stderr) of an in-process `lsg` call."""
    from lsg.cli import main
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_rootsys_info():
    out = run_cli("rootsys", "info", "A2")
    assert out.returncode == 0
    first = json.loads(out.stdout.splitlines()[0])
    assert first["rank"] == 2 and first["weyl_order"] == 6


def test_cli_config_error_exit_code():
    out = run_cli("evolve", "--group", "A1", "--grid", "15,10", "--t", "1")
    assert out.returncode == 2
    err = json.loads(out.stderr.strip())
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("evolve", "--grid", "abc,1", "--t", "1"),
    ("evolve", "--group", "euclid:x", "--t", "1"),
    ("evolve", "--group", "euclid:0", "--t", "1"),
    ("decay-fit", "--group", "A1", "--times", "1,2,x"),
    ("evolve", "--grid", "16,1e400", "--t", "1"),
    ("hardy-check", "--euclid", "0", "--t0", "1"),
], ids=["grid-abc", "euclid-x", "euclid-0", "decay-fit-times", "grid-inf",
        "hardy-euclid-0"])
def test_cli_malformed_input_is_a_config_error(argv, capsys):
    code, _, err = run_main(capsys, *argv)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_cli_lambda_of_wrong_length_is_a_config_error():
    out = run_cli("spherical", "eval", "--group", "A1", "--lambda", "1,2")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("evolve", "--group", "Z9", "--t", "1"),
    ("rootsys", "info", "Z9"),
], ids=["evolve", "rootsys-info"])
def test_cli_misspelt_root_system_is_a_config_error(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr.strip())["error"] == "UnsupportedRootSystem"


@pytest.mark.parametrize("group", ["A1xA2", "A1xA1xA1"])
def test_cli_evolve_rank3_product(group):
    out = run_cli("evolve", "--group", group, "--t", "1", "--grid", "48,8")
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout.splitlines()[0])["config"]["group"] == group


@pytest.mark.parametrize("group", ["A2xA2", "A1xA1xA1xA1"])
def test_cli_evolve_rank4_product_at_small_t(group):
    # h·y_sup/t is 7π-8π here, so SCALED runs the multiplier
    out = run_cli("evolve", "--group", group, "--t", "0.1", "--grid", "32,7")
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


def test_cli_evolve_large_t_writes_finite_plain_values(tmp_path):
    # φ ~ e^{|ρ||H|} overflows on this output grid unless it is scaled
    path = tmp_path / "o.csv"
    out = run_cli("evolve", "--group", "A1", "--t", "1e3", "--grid", "512,12",
                  "--out", str(path))
    assert out.returncode == 0, out.stderr
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    blank = [float(r[0]) for r in rows if r[3] == ""]
    assert blank == [0.0]
    assert all(r[3] == "" or float(r[3]) >= 0.0 for r in rows)


def test_cli_evolve_tiny_t_returns_the_initial_data(tmp_path):
    # SCALED at t = 1e-6 runs the Fourier multiplier on the input grid
    path = tmp_path / "o.csv"
    out = run_cli("evolve", "--group", "A1", "--t", "1e-6", "--out", str(path))
    assert out.returncode == 0, out.stderr
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
    h, uphi = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    rho = np.sqrt(2.0) / 2.0
    fphi = np.exp(-h * h) * 2.0 * np.sinh(rho * h)
    assert np.linalg.norm(uphi - fphi) <= 1e-5 * np.linalg.norm(fphi)


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_cli_evolve_non_finite_time_is_a_config_error(t, tmp_path, capsys):
    from lsg.cli import main
    path = tmp_path / "x.csv"
    code = main(["evolve", "--group", "A1", "--t", t, "--grid", "64,12",
                 "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"
    assert not path.exists()


def test_cli_numerical_error_exit_code():
    # box far too small for the Gaussian tail -> GridTooSmall -> exit 3
    out = run_cli("evolve", "--group", "A1", "--grid", "16,2",
                  "--init", "gaussian:a=0.3", "--t", "1")
    assert out.returncode == 3
    err = json.loads(out.stderr.strip())
    assert err["error"] == "GridTooSmall"


def test_cli_hardy_check_lemma1(capsys):
    code, out, _ = run_main(capsys, "hardy-check", "--euclid", "1",
                            "--grid", "2048,12", "--init",
                            "gaussian:a=1,chirp=-0.25", "--t0", "1.0")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["classification"] == "CRITICAL"
    assert abs(payload["product"] - 1.0) <= 1e-3


def test_cli_hardy_check_runs_the_lemma1_preset(capsys):
    code, out, _ = run_main(capsys, "hardy-check", "--preset", "lemma1",
                            "--t0", "1")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["system"] == "euclid:1"
    assert payload["classification"] == "CRITICAL"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_hardy_check_bad_tolerance_is_a_config_error(tol, capsys):
    code, out, err = run_main(capsys, "hardy-check", "--euclid", "1",
                              "--t0", "1", "--grid", "256,12",
                              "--tol-crit", tol)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_cli_evolve_spectral_runs_on_euclidean_space(capsys):
    code, out, _ = run_main(capsys, "evolve", "--group", "euclid:1",
                            "--method", "spectral", "--grid", "128,10",
                            "--t", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["scalars"]["method"] == "spectral"
    assert record["config"]["group"] == "euclid:1"


def test_cli_evolve_writes_deterministic_csv(tmp_path):
    args = ("evolve", "--group", "A1", "--grid", "64,8", "--t", "0.5",
            "--init", "gaussian:a=1", "--mode", "fixed", "--method", "closed")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(p1)).returncode == 0
    assert run_cli(*args, "--out", str(p2)).returncode == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "h0,re_uphi,im_uphi,abs_u"


def test_cli_spherical_roundtrip_record():
    out = run_cli("spherical", "roundtrip", "--group", "A1",
                  "--grid", "256,12")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["scalars"]["roundtrip_relative_l2"] <= 1e-6


def test_cli_heisenberg_geodesic_csv(tmp_path):
    path = tmp_path / "geo.csv"
    args = ("heisenberg", "geodesic", "--beta", "0.5", "--tparam", "-1.2",
            "--smax", "5", "--steps", "50")
    out = run_cli(*args, "--out", str(path))
    assert out.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,u,xi"
    assert len(lines) == 51
    # the rows of one scalar geodesic call per s, formatted as the CLI does
    rows = []
    for s in np.linspace(0.0, 5.0, 50):
        p = geodesic(GeodesicParams(0.5, -1.2, float(s)))
        rows.append(",".join("%.17g" % v for v in (float(s), p.x, p.u, p.xi)))
    expected = "s,x,u,xi\n" + "\n".join(rows) + "\n"
    assert path.read_text() == expected
    stdout = run_cli(*args).stdout
    assert stdout[:len(expected)] == expected
    assert json.loads(stdout[len(expected):])["command"] == \
        "heisenberg geodesic"


def test_cli_heisenberg_zero_tparam_is_config_error():
    out = run_cli("heisenberg", "geodesic", "--tparam", "0")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


def _cli_with_closed_stdout(args, read_first_line, unbuffered):
    """Run lsg with stdout on a pipe that the reader closes early."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lsg.cli",
         *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline() if read_first_line else b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, err, proc.wait(timeout=120)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_closed_stdout_ends_quietly(unbuffered):
    # more rows than a pipe holds: the write fails while rows are written
    first, err, code = _cli_with_closed_stdout(
        ["spherical", "eval", "--group", "A2", "--grid", "128,10",
         "--lambda", "0.9,1.4"], read_first_line=True, unbuffered=unbuffered)
    assert first == b"h0,h1,re,im\n"
    assert (code, err) == (141, b"")
    # the pipe closed before anything is written: buffered output fails at
    # the final flush, unbuffered output at its first write
    first, err, code = _cli_with_closed_stdout(
        ["hardy-check", "--euclid", "1", "--grid", "2048,12",
         "--init", "gaussian:a=1,chirp=-0.25", "--t0", "1"],
        read_first_line=False, unbuffered=unbuffered)
    assert (code, err) == (141, b"")


def test_cli_decay_fit_summary():
    out = run_cli("decay-fit", "--group", "A1", "--grid", "1024,12",
                  "--p", "1", "--times", "1,1.6,2.6,4.1,6.5,10")
    assert out.returncode == 0
    summary = json.loads(out.stdout.splitlines()[0])
    assert summary["passed"] is True
    assert abs(summary["slope"] - summary["target"]) <= 0.05


def test_cli_reproduce_quick_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    r1 = run_cli("reproduce", "--profile", "quick", "--out", str(d1))
    r2 = run_cli("reproduce", "--profile", "quick", "--out", str(d2))
    assert r1.returncode == 0 and r2.returncode == 0
    for name in ("acceptance.jsonl", "acceptance.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    rows = [json.loads(line)
            for line in (d1 / "acceptance.jsonl").read_text().splitlines()]
    assert len(rows) == 11
    assert all(r["passed"] for r in rows)


def test_cli_preset_flag():
    out = run_cli("spherical", "roundtrip", "--preset", "roundtrip-a1")
    assert out.returncode == 0


def test_cli_spherical_transform_csv(tmp_path):
    path = tmp_path / "fhat.csv"
    out = run_cli("spherical", "transform", "--group", "A1",
                  "--grid", "128,12", "--init", "gaussian:a=1",
                  "--out", str(path))
    assert out.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "lam0,re,im,singular"
    assert len(lines) == 129


@pytest.mark.parametrize("argv", [
    ("strichartz", "--levels", "0"),
    ("strichartz", "--levels", "1"),
    ("strichartz", "--dyadic", "-3"),
    ("strichartz", "--dyadic", "0"),
    ("strichartz", "--tmax", "nan"),
    ("strichartz", "--tmax", "-1"),
    ("hardy-check", "--euclid", "1", "--t0", "-1"),
    ("hardy-check", "--group", "A1", "--t0", "nan"),
    ("rootsys", "info", "A2", "--normalization", "0"),
    ("rootsys", "info", "A2", "--normalization", "-1"),
    ("rootsys", "info", "A2", "--normalization", "nan"),
], ids=lambda argv: " ".join(argv))
def test_cli_bad_numbers_are_config_errors(argv, capsys):
    if argv[0] != "rootsys":
        argv += ("--grid", "64,12")
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_cli_unwritable_out_is_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_main(capsys, "rootsys", "info", "A2",
                              "--out", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "FileNotFoundError"


@pytest.mark.parametrize("args", [
    ("geodesic", "--steps", "-1"),
    ("integrand", "--t", "0"),
    ("heat", "--t", "0"),
    ("heat", "--tol", "0"),
    ("integrand", "--lmax", "nan"),
])
def test_cli_heisenberg_bad_numbers_are_config_errors(args):
    out = run_cli("heisenberg", *args)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr.strip())["error"] == "ConfigError"


def _integrand_scalars(*args):
    out = run_cli("heisenberg", "integrand", "--steps", "3", *args)
    assert out.returncode == 0, out.stderr
    line, record = out.stdout.splitlines()[-2:]
    assert json.loads(record)["scalars"] == json.loads(line)
    return line, len(out.stdout.encode())


@pytest.mark.parametrize("t", ["1", "6"])
def test_cli_heisenberg_integrand_record_lists_few_singularities(t):
    # --lmax 8: k_max = 2 and 15, every value shown as before
    line, _ = _integrand_scalars("--t", t)
    k_max = int(8.0 * float(t) / np.pi)
    assert line == json.dumps(
        {"singularities": [k * np.pi / float(t) for k in range(1, k_max + 1)]},
        sort_keys=True)


@pytest.mark.parametrize("t, lmax, expected", [
    ("0.1", "8", []),                   # π/t = 31.4 lies past --lmax 8
    ("0.3926", "8", []),                # π/t = 8.0021, just outside
    ("0.3928", "8", [np.pi / 0.3928]),  # π/t = 7.9980, just inside
    # a negative --lmax samples the same interval [-8, 8]
    ("1", "-8", [np.pi, 2 * np.pi]),
    ("0.1", "-8", []),
])
def test_cli_heisenberg_integrand_lists_only_sampled_singularities(t, lmax,
                                                                   expected):
    line, _ = _integrand_scalars("--t", t, "--lmax", lmax)
    assert line == json.dumps({"singularities": expected}, sort_keys=True)


@pytest.mark.parametrize("t", ["1e5", "1e12"])
def test_cli_heisenberg_integrand_record_is_bounded(t):
    line, size = _integrand_scalars("--t", t)
    assert size < 4096
    scalars = json.loads(line)
    assert scalars["singularity_count"] == int(8.0 * float(t) / np.pi)
    assert scalars["singularities"] == [k * np.pi / float(t)
                                        for k in range(1, 17)]


def test_cli_heisenberg_integrand_overflow_is_config_error():
    out = run_cli("heisenberg", "integrand", "--t", "1e300", "--lmax",
                  "1e300", "--steps", "3")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr.strip())["error"] == "ConfigError"


def _row_wise_csv(header, rows):
    """The per-value CSV formatter the column-wise writer replaces."""
    def cell(x):
        if isinstance(x, float) and not np.isfinite(x):
            return ""
        return "%.17g" % x
    return ",".join(header) + "\n" + "".join(
        ",".join(map(cell, row)) + "\n" for row in rows)


def test_field_csv_is_byte_identical_to_row_wise(tmp_path, monkeypatch):
    from lsg import cli
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)   # rows span several blocks
    grid = RadialGrid(2, 3.0, 6)
    vals = np.exp(-grid.radius_sq()) * (1.0 + 0.3j) / 3.0
    vals[0, 1] = np.nan
    vals[2, 3] = complex(np.inf, -0.0)
    vals[4, 4] = complex(-0.0, -np.inf)
    mask = (grid.radius_sq() < 1.0).astype(int)
    header = ["h0", "h1", "re", "im", "singular"]
    path = tmp_path / "field.csv"
    cli._write_csv(str(path), header, cli._field_csv_rows(
        grid, vals.real, vals.imag, mask))
    nodes = grid.nodes()
    rows = [(*map(float, nodes[i]), vals.real.ravel()[i],
             vals.imag.ravel()[i], int(mask.ravel()[i]))
            for i in range(len(nodes))]
    assert path.read_text() == _row_wise_csv(header, rows)
    # the stdout path writes the same text
    import io
    buf = io.StringIO()
    cli._emit_csv(buf, header, cli._field_csv_rows(
        grid, vals.real, vals.imag, mask))
    assert buf.getvalue() == path.read_text()
