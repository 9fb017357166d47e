import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsg.config import (RunConfig, load_preset, parse_config, parse_init)
from lsg.errors import ConfigError


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


def test_config_echo_is_json_ready():
    cfg = parse_config("group = A2\ntol.x = 1e-3")
    echoed = json.dumps(cfg.echo(), sort_keys=True)
    assert "A2" in echoed


# --- CLI ---------------------------------------------------------------------------

def run_cli(*args, cwd=None):
    # the warning policy of the in-process tests (pyproject filterwarnings)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "lsg.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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
def test_cli_malformed_input_is_a_config_error(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr.strip())["error"] == "ConfigError"


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


def test_cli_numerical_error_exit_code():
    # box far too small for the Gaussian tail -> GridTooSmall -> exit 3
    out = run_cli("evolve", "--group", "A1", "--grid", "16,2",
                  "--init", "gaussian:a=0.3", "--t", "1")
    assert out.returncode == 3
    err = json.loads(out.stderr.strip())
    assert err["error"] == "GridTooSmall"


def test_cli_hardy_check_lemma1(tmp_path):
    out = run_cli("hardy-check", "--euclid", "1", "--grid", "2048,12",
                  "--init", "gaussian:a=1,chirp=-0.25", "--t0", "1.0")
    assert out.returncode == 0
    payload = json.loads(out.stdout.splitlines()[0])
    assert payload["classification"] == "CRITICAL"
    assert abs(payload["product"] - 1.0) <= 1e-3


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
    out = run_cli("heisenberg", "geodesic", "--beta", "0.5", "--tparam",
                  "1.2", "--smax", "5", "--steps", "50", "--out", str(path))
    assert out.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,u,xi"
    assert len(lines) == 51


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


def test_programmatic_run_dispatch():
    from lsg.cli import run
    from lsg.config import parse_config

    record = run("rootsys", parse_config("group = A1"))
    assert record.scalars == {"rank": 1, "weyl_order": 2}

    cfg = parse_config("group = euclid:1\ngrid = 2048,12\n"
                       "init = gaussian:a=1,chirp=-0.25\nt = 1.0")
    record = run("hardy-check", cfg)
    assert record.scalars["classification"] == "CRITICAL"


def test_programmatic_run_reproduce(tmp_path):
    from lsg.cli import run
    from lsg.config import RunConfig

    record = run("reproduce", RunConfig(output=str(tmp_path / "rows")),
                 profile="quick")
    assert record.scalars["failed"] == 0
    assert (tmp_path / "rows" / "acceptance.jsonl").exists()
