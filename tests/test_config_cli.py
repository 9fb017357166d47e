import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsg import cli
from lsg.cli import build_parser, main
from lsg.config import (config_args, parse_grid, parse_init, parse_times,
                        preset_text)
from lsg.errors import ConfigError
from lsg.grids import RadialGrid
from lsg.heisenberg import geodesic_coords
from lsg.rootsystem import build_root_system

from grid_helpers import gaussian_chirp_conjugated, grid_nodes, wall_mask

PRESETS = os.path.join(os.path.dirname(cli.__file__), "presets")


def _parse(command, text):
    """The namespace of `lsg <command ...>` run with config `text` alone."""
    return build_parser().parse_args([*command.split(), *config_args(text)])


# --- config parsing -------------------------------------------------------------

def test_empty_text_gives_defaults():
    assert config_args("") == []
    args = _parse("evolve", "")
    assert (args.group, args.grid, args.t) == ("A1", (512, 12.0), 1.0)
    assert (args.init.rate, args.init.chirp) == (1.0, 0.0)


def test_basic_assignment():
    assert config_args("group = A2\nt = 1.0\n") == ["--group=A2", "--t=1.0"]
    args = _parse("evolve", "group = A2\nt = 1.0\n")
    assert args.group == "A2"
    assert args.t == 1.0


def test_odd_grid_rejected():
    with pytest.raises(ConfigError):
        parse_grid("15,10")


def test_small_or_negative_grid_rejected():
    with pytest.raises(ConfigError):
        parse_grid("8,10")
    with pytest.raises(ConfigError):
        parse_grid("32,-1")


def _run_config(capsys, tmp_path, text, *argv):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return run_main(capsys, *argv, "--config", str(path))


def test_unknown_key_rejected(capsys, tmp_path):
    code, out, err = _run_config(capsys, tmp_path, "grdi = 16,10", "evolve")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ConfigError" and "grdi" in error["message"]


def test_comments_and_blank_lines():
    text = "# header\n\n  group = B2  # inline\n\n"
    assert config_args(text) == ["--group=B2"]
    with pytest.raises(ConfigError, match="line 2"):
        config_args("group = A1\ngrid 64,12")
    for key in ("config", "preset"):
        with pytest.raises(ConfigError, match=key):
            config_args(f"{key} = lemma1")


def test_times_list_and_positivity():
    assert parse_times("0.25, 1, 4") == (0.25, 1.0, 4.0)
    for text in ("-1", "1,0", "1,nan", "1,x"):
        with pytest.raises(ConfigError):
            parse_times(text)


def test_config_tol_crit_is_honoured(capsys, tmp_path):
    # product 0.94 here: INCONCLUSIVE at the default 0.02, CRITICAL at 0.5
    text = "group = euclid:1\ngrid = 256,12\nt0 = 1\n"
    for extra, tol, verdict in (("", 0.02, "INCONCLUSIVE"),
                                ("tol-crit = 0.5\n", 0.5, "CRITICAL")):
        code, out, _ = _run_config(capsys, tmp_path, text + extra,
                                   "hardy-check")
        payload = json.loads(out.splitlines()[0])
        assert code == 0
        assert (payload["tol_crit"], payload["classification"]) == (tol,
                                                                    verdict)
    # the command line overrides the file
    code, out, _ = _run_config(capsys, tmp_path, text + "tol-crit = 0.5\n",
                               "hardy-check", "--tol-crit", "0.02")
    assert json.loads(out.splitlines()[0])["tol_crit"] == 0.02


def test_format_validation(capsys, tmp_path):
    # output format follows the subcommand; there is no format key
    for text in ("format = csv", "format = xml"):
        code, _, err = _run_config(capsys, tmp_path, text, "evolve")
        assert code == 2
        assert "--format" in json.loads(err)["message"]


def test_init_descriptor_parsing():
    init = parse_init("gaussian:a=0.5,chirp=-0.25")
    assert init.rate == 0.5 and init.chirp == -0.25
    assert parse_init("gaussian").rate == 1.0
    for text in ("soliton:a=1", "gaussian:a=-1", "gaussian:a=nan",
                 "gaussian:chirp=inf", "gaussian:b=1", "gaussian:rate=1"):
        with pytest.raises(ConfigError):
            parse_init(text)


@given(st.sampled_from(["A1", "A2", "B2", "G2"]),
       st.integers(8, 512), st.floats(1.0, 30.0))
def test_parse_config_roundtrips_values(group, half_n, box):
    n = 2 * half_n
    args = _parse("evolve", f"group={group}\n grid = {n},{box:.6g}\n")
    assert args.group == group
    assert args.grid == (n, float(f"{box:.6g}"))


def test_load_bundled_preset():
    args = _parse("hardy-check", preset_text("lemma1"))
    assert args.group == "euclid:1"
    assert args.init.chirp == -0.25
    assert args.t0 == 1.0
    with pytest.raises(ConfigError):
        preset_text("nonexistent")


# --- CLI ---------------------------------------------------------------------------

def run_cli(*args, cwd=None):
    # the warning policy of the in-process tests (pyproject filterwarnings)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "lsg.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def run_main(capsys, *args):
    """(exit code, stdout, stderr) of an in-process `lsg` call."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_rootsys_info():
    # the one run of `python -m lsg.cli` besides the closed-pipe cases
    out = run_cli("rootsys", "info", "A2")
    assert out.returncode == 0
    first = json.loads(out.stdout.splitlines()[0])
    assert first["rank"] == 2 and first["weyl_order"] == 6


def test_cli_config_error_exit_code(capsys):
    code, _, err = run_main(capsys, "evolve", "--group", "A1", "--grid",
                            "15,10", "--t", "1")
    assert code == 2
    err = json.loads(err.strip())
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("argument --grid:")


@pytest.mark.parametrize("argv", [
    ("evolve", "--grid", "abc,1", "--t", "1"),
    ("evolve", "--group", "euclid:x", "--t", "1"),
    ("evolve", "--group", "euclid:0", "--t", "1"),
    ("decay-fit", "--group", "A1", "--times", "1,2,x"),
    ("evolve", "--grid", "16,1e400", "--t", "1"),
    ("hardy-check", "--group", "euclid:0", "--t0", "1"),
    ("evolve", "--grid", "64,1e308", "--t", "1"),     # the width 2L is inf
], ids=["grid-abc", "euclid-x", "euclid-0", "decay-fit-times", "grid-inf",
        "hardy-euclid-0", "grid-width-inf"])
def test_cli_malformed_input_is_a_config_error(argv, capsys):
    code, _, err = run_main(capsys, *argv)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_cli_lambda_of_wrong_length_is_a_config_error(capsys):
    code, _, err = run_main(capsys, "spherical", "eval", "--group", "A1",
                            "--lambda", "1,2")
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("evolve", "--group", "Z9", "--t", "1"),
    ("rootsys", "info", "Z9"),
], ids=["evolve", "rootsys-info"])
def test_cli_misspelt_root_system_is_a_config_error(argv, capsys):
    code, _, err = run_main(capsys, *argv)
    assert code == 2
    assert json.loads(err.strip())["error"] == "UnsupportedRootSystem"


@pytest.mark.parametrize("group, extra", [
    ("A1xA2", ("--grid", "48,8")), ("A1xA1xA1", ("--grid", "48,8")),
    ("A1xA2", ("--grid", "64,8", "--method", "spectral"))],
    ids=["A1xA2", "A1xA1xA1", "A1xA2-spectral"])
def test_cli_evolve_rank3_product(group, extra, capsys):
    code, out, _ = run_main(capsys, "evolve", "--group", group, "--t", "1",
                            *extra)
    assert code == 0
    assert json.loads(out.splitlines()[0])["config"]["group"] == group


@pytest.mark.parametrize("group", ["A2xA2", "A1xA1xA1xA1"])
def test_cli_evolve_rank4_product_at_small_t(group, capsys):
    # h·y_sup/t is 7π-8π here, so SCALED runs the multiplier
    code, _, _ = run_main(capsys, "evolve", "--group", group, "--t", "0.1",
                          "--grid", "32,7")
    assert code == 0


def test_cli_evolve_large_t_writes_finite_plain_values(tmp_path, capsys):
    # φ ~ e^{|ρ||H|} overflows on this output grid unless it is scaled
    path = tmp_path / "o.csv"
    code, _, _ = run_main(capsys, "evolve", "--group", "A1", "--t", "1e3",
                          "--grid", "512,12", "--out", str(path))
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    blank = [float(r[0]) for r in rows if r[3] == ""]
    assert blank == [0.0]
    assert all(r[3] == "" or float(r[3]) >= 0.0 for r in rows)


def test_cli_evolve_tiny_t_returns_the_initial_data(tmp_path, capsys):
    # SCALED at t = 1e-6 runs the Fourier multiplier on the input grid
    path = tmp_path / "o.csv"
    code, _, _ = run_main(capsys, "evolve", "--group", "A1", "--t", "1e-6",
                          "--out", str(path))
    assert code == 0
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
    h, uphi = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    rho = np.sqrt(2.0) / 2.0
    fphi = np.exp(-h * h) * 2.0 * np.sinh(rho * h)
    assert np.linalg.norm(uphi - fphi) <= 1e-5 * np.linalg.norm(fphi)


def test_cli_evolve_fixed_at_small_t_writes_the_exact_evolution(tmp_path,
                                                                capsys):
    # h·y_sup/t > 2π: the sandwich would refuse this call (exit 3); the
    # multiplier on the input grid evolves it exactly
    path = tmp_path / "o.csv"
    code, _, _ = run_main(capsys, "evolve", "--group", "euclid:1", "--t",
                          "0.05", "--grid", "256,12", "--mode", "fixed",
                          "--out", str(path))
    assert code == 0
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
    h, u = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    den = 1.0 + 4j * 0.05
    want = den ** -0.5 * np.exp(-h * h / den)
    assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_cli_evolve_non_finite_time_is_a_config_error(t, tmp_path, capsys):
    path = tmp_path / "x.csv"
    code = main(["evolve", "--group", "A1", "--t", t, "--grid", "64,12",
                 "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("evolve", "--group", "A1", "--t", "-1e-3"),
    ("heisenberg", "heat", "--t", "-1e308"),
    ("heisenberg", "heat", "--t", "-inf"),
], ids=["evolve-exponent", "heat-exponent", "heat-word"])
def test_cli_negative_exponent_and_word_values_reach_their_parser(argv,
                                                                  capsys):
    # argparse alone takes -1e-3 or -inf for a flag: "expected one argument"
    code = main(list(argv))
    err = json.loads(capsys.readouterr().err.strip())
    assert code == 2
    assert err["error"] == "ConfigError"
    assert f"got '{argv[-1]}'" in err["message"]


def test_cli_numerical_error_exit_code(capsys):
    # box far too small for the Gaussian tail -> GridTooSmall -> exit 3
    code, _, err = run_main(capsys, "evolve", "--group", "A1", "--grid",
                            "16,2", "--init", "gaussian:a=0.3", "--t", "1")
    assert code == 3
    assert json.loads(err.strip())["error"] == "GridTooSmall"


@pytest.mark.parametrize("argv", [
    ("heisenberg", "geodesic", "--smax", "1e308"),
    ("heisenberg", "integrand", "--x", "1e308", "--steps", "4"),
], ids=["geodesic-xi", "integrand-phase"])
def test_cli_non_finite_values_are_numerical_errors(argv, tmp_path, capsys):
    # ξ ~ s overflows; x² overflows in the integrand's phase: exit 3, and
    # no artifact is left behind
    path = tmp_path / "o.csv"
    code, out, err = run_main(capsys, *argv, "--out", str(path))
    assert (code, out) == (3, "")
    assert json.loads(err.strip())["error"] == "NonFiniteValue"
    assert not path.exists()


def test_cli_heisenberg_heat_at_large_t(capsys):
    # sinh(λt) overflows at the outer quadrature nodes, where e^{-tλ²}
    # has already made the integrand 0: no error
    code, out, err = run_main(capsys, "heisenberg", "heat", "--t", "2e4")
    assert (code, err) == (0, "")
    value = json.loads(out.splitlines()[0])
    assert 0.0 < value["re"] < 1.0 and value["im"] == 0.0



@pytest.mark.parametrize("command", [("evolve", "--t", "1"),
                                     ("hardy-check", "--t0", "1")],
                         ids=["evolve", "hardy-check"])
@pytest.mark.parametrize("init", ["gaussian:a=1e9",
                                  "gaussian:a=1,chirp=1e308"],
                         ids=["spike", "phase-overflow"])
def test_cli_unresolved_data_is_grid_too_small(command, init, tmp_path,
                                               capsys):
    # a = 1e9 leaves f nonzero only at H = 0, where φ vanishes: f·φ ≡ 0
    # (hardy-check would call that DEGENERATE); chirp·|H|² overflows in
    # f's phase, so f·φ is NaN
    path = tmp_path / "o.csv"
    code, out, err = run_main(capsys, *command, "--group", "A1", "--init",
                              init, "--grid", "64,12", "--out", str(path))
    assert (code, out) == (3, "")
    assert json.loads(err.strip())["error"] == "GridTooSmall"
    assert not path.exists()


def test_cli_hardy_check_lemma1(capsys):
    code, out, _ = run_main(capsys, "hardy-check", "--group", "euclid:1",
                            "--grid", "2048,12", "--init",
                            "gaussian:a=1,chirp=-0.25", "--t0", "1.0")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["classification"] == "CRITICAL"
    assert abs(payload["product"] - 1.0) <= 1e-3


def test_cli_hardy_check_rate_where_fixed_evolves_by_the_multiplier(capsys):
    # at t0 = 0.12 on this grid the sandwich aliases (rate_u 0.054); the
    # multiplier keeps e^{-|H|²}'s evolved width rate 1/(1 + 16·t0²)
    code, out, _ = run_main(capsys, "hardy-check", "--group", "euclid:1",
                            "--grid", "256,12", "--init", "gaussian:a=1",
                            "--t0", "0.12")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert abs(payload["rate_u"] - 1.0 / (1.0 + 16.0 * 0.12**2)) <= 1e-6


def test_cli_hardy_check_evolves_the_exact_u_phi(capsys, monkeypatch):
    # FIXED onto a box sized by the reach y_sup + 2t0·ξ_sup aliased here:
    # u·φ came out 99 % off, and the product 0.0073
    from lsg import hardy
    evolved = []
    propagate = hardy.group_propagate_closed_form

    def kept(*args, **kwargs):
        evolved.append(propagate(*args, **kwargs))
        return evolved[-1]
    monkeypatch.setattr(hardy, "group_propagate_closed_form", kept)
    code, out, _ = run_main(capsys, "hardy-check", "--group", "G2", "--grid",
                            "96,9", "--init", "gaussian:a=2", "--t0", "0.178")
    assert code == 0
    [result] = evolved
    want = gaussian_chirp_conjugated(build_root_system("G2"),
                                     result.field.grid.axis, 2.0, 0.0, 0.178)
    assert (np.abs(result.field.values - want).max()
            <= 1e-12 * np.abs(want).max())
    assert json.loads(out.splitlines()[0])["product"] > 0.1


def test_cli_hardy_check_runs_the_lemma1_preset(capsys):
    # the preset sets t0 = 1; no --t0 is needed
    code, out, _ = run_main(capsys, "hardy-check", "--preset", "lemma1")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["system"] == "euclid:1"
    assert payload["t0"] == 1.0
    assert payload["classification"] == "CRITICAL"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_hardy_check_bad_tolerance_is_a_config_error(tol, capsys):
    code, out, err = run_main(capsys, "hardy-check", "--group", "euclid:1",
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


def test_cli_evolve_writes_deterministic_csv(tmp_path, capsys):
    args = ("evolve", "--group", "A1", "--grid", "64,8", "--t", "0.5",
            "--init", "gaussian:a=1", "--mode", "fixed", "--method", "closed")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(capsys, *args, "--out", str(p1))[0] == 0
    assert run_main(capsys, *args, "--out", str(p2))[0] == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "h0,re_uphi,im_uphi,abs_u"


def test_cli_spherical_roundtrip_record(capsys):
    code, out, _ = run_main(capsys, "spherical", "roundtrip", "--group", "A1",
                            "--grid", "256,12")
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    assert record["scalars"]["roundtrip_relative_l2"] <= 1e-6


def test_cli_heisenberg_geodesic_csv(tmp_path, capsys):
    path = tmp_path / "geo.csv"
    args = ("heisenberg", "geodesic", "--beta", "0.5", "--tparam", "-1.2",
            "--smax", "5", "--steps", "50")
    assert run_main(capsys, *args, "--out", str(path))[0] == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,u,xi"
    assert len(lines) == 51
    # the rows of one scalar geodesic call per s, formatted as the CLI does
    rows = []
    for s in np.linspace(0.0, 5.0, 50):
        coords = geodesic_coords(0.5, -1.2, float(s))
        rows.append(",".join("%.17g" % v for v in (float(s), *coords)))
    expected = "s,x,u,xi\n" + "\n".join(rows) + "\n"
    assert path.read_text() == expected
    stdout = run_main(capsys, *args)[1]
    assert stdout[:len(expected)] == expected
    assert json.loads(stdout[len(expected):])["command"] == \
        "heisenberg geodesic"


def test_cli_heisenberg_zero_tparam_is_config_error(capsys):
    code, _, err = run_main(capsys, "heisenberg", "geodesic", "--tparam", "0")
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


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
        ["hardy-check", "--group", "euclid:1", "--grid", "2048,12",
         "--init", "gaussian:a=1,chirp=-0.25", "--t0", "1"],
        read_first_line=False, unbuffered=unbuffered)
    assert (code, err) == (141, b"")


def test_cli_decay_fit_summary(capsys):
    code, out, _ = run_main(capsys, "decay-fit", "--group", "A1", "--grid",
                            "1024,12", "--p", "1", "--times",
                            "1,1.6,2.6,4.1,6.5,10")
    assert code == 0
    summary = json.loads(out.splitlines()[0])
    assert summary["passed"] is True
    assert abs(summary["slope"] - summary["target"]) <= 0.05


def test_cli_decay_fit_at_p2_uses_the_l2_bound(capsys):
    # criterion 8's bound at p = 2, and a target of +0.0, not -0.0
    code, out, _ = run_main(capsys, "decay-fit", "--group", "A1", "--grid",
                            "1024,12", "--p", "2", "--times",
                            "1,1.6,2.6,4.1,6.5,10")
    assert code == 0
    summary = json.loads(out.splitlines()[0])
    assert summary["tolerance"] == 0.02
    assert summary["target"] == 0.0 and not np.signbit(summary["target"])
    assert summary["passed"] is True


def test_cli_decay_fit_reads_the_preset_times(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    code, _, _ = run_main(capsys, "decay-fit", "--preset", "thm4a-rank1",
                          "--out", str(path))
    assert code == 0
    times = [float(line.split(",")[0])
             for line in path.read_text().splitlines()[1:]]
    assert times == [1.0, 1.29, 1.67, 2.15, 2.78, 3.59, 4.64, 5.99, 7.74,
                     10.0]


def test_cli_reproduce_quick_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_main(capsys, "reproduce", "--profile", "quick",
                    "--out", str(d1))[0] == 0
    assert run_main(capsys, "reproduce", "--profile", "quick",
                    "--out", str(d2))[0] == 0
    for name in ("acceptance.jsonl", "acceptance.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    rows = [json.loads(line)
            for line in (d1 / "acceptance.jsonl").read_text().splitlines()]
    assert len(rows) == 11
    assert all(r["passed"] for r in rows)


def test_cli_preset_flag(capsys):
    assert run_main(capsys, "spherical", "roundtrip", "--preset",
                    "roundtrip-a1")[0] == 0


def _preset_command(path):
    """The subcommand a preset's first line names: `# lsg <command ...>`."""
    with open(path) as fh:
        words = fh.readline().split()
    assert words[:2] == ["#", "lsg"] and words[-2] == "--preset"
    return words[2:-2]


@pytest.mark.parametrize("name", sorted(
    f[:-4] for f in os.listdir(PRESETS) if f.endswith(".cfg")))
def test_cli_every_preset_runs_with_its_subcommand(name, capsys):
    command = _preset_command(os.path.join(PRESETS, f"{name}.cfg"))
    code, _, err = run_main(capsys, *command, "--preset", name)
    assert code == 0, err


def test_cli_spherical_transform_csv(tmp_path, capsys):
    path = tmp_path / "fhat.csv"
    code, _, _ = run_main(capsys, "spherical", "transform", "--group", "A1",
                          "--grid", "128,12", "--init", "gaussian:a=1",
                          "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "lam0,re,im,singular"
    assert len(lines) == 129


_GRID_COMMANDS = {"spherical", "evolve", "hardy-check", "decay-fit",
                  "strichartz"}


@pytest.mark.parametrize("argv", [
    ("strichartz", "--levels", "0"),
    ("strichartz", "--levels", "1"),
    ("strichartz", "--dyadic", "-3"),
    ("strichartz", "--dyadic", "0"),
    ("strichartz", "--tmax", "nan"),
    ("strichartz", "--tmax", "-1"),
    ("hardy-check", "--group", "euclid:1", "--t0", "-1"),
    ("hardy-check", "--group", "A1", "--t0", "nan"),
    ("rootsys", "info", "A2", "--normalization", "0"),
    ("rootsys", "info", "A2", "--normalization", "-1"),
    ("rootsys", "info", "A2", "--normalization", "nan"),
    # R^n is --group euclid:n; there is no --euclid flag
    ("hardy-check", "--euclid", "1", "--t0", "1"),
    # config keys that name no flag of the subcommand
    ("hardy-check", "--t0", "1", "--config", "seed = 42"),
    ("hardy-check", "--t0", "1", "--config", "output = x.json"),
    ("hardy-check", "--t0", "1", "--config", "tol.crit = 0.5"),
    ("evolve", "--config", "t0 = 1"),
    ("evolve", "--init", "gaussian:a=nan"),
    ("evolve", "--init", "gaussian:a=1,chirp=inf"),
    # the rate is spelled a= only
    ("evolve", "--init", "gaussian:rate=1"),
    ("reproduce", "--seed", "-1"),
    ("heisenberg", "geodesic", "--smax", "nan"),
    ("heisenberg", "geodesic", "--beta", "inf"),
    ("decay-fit", "--p", "nan"),
], ids=lambda argv: " ".join(argv))
def test_cli_bad_numbers_are_config_errors(argv, capsys, tmp_path):
    if "--config" in argv:       # the config text follows --config
        i = argv.index("--config") + 1
        path = tmp_path / "bad.cfg"
        path.write_text(argv[i] + "\n")
        argv = argv[:i] + (str(path),) + argv[i + 1:]
    if argv[0] in _GRID_COMMANDS:
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
def test_cli_heisenberg_bad_numbers_are_config_errors(args, capsys):
    code, _, err = run_main(capsys, "heisenberg", *args)
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


def _integrand_scalars(capsys, *args):
    code, out, _ = run_main(capsys, "heisenberg", "integrand", "--steps", "3",
                            *args)
    assert code == 0
    line, record = out.splitlines()[-2:]
    assert json.loads(record)["scalars"] == json.loads(line)
    return line, len(out.encode())


@pytest.mark.parametrize("t", ["1", "6"])
def test_cli_heisenberg_integrand_record_lists_few_singularities(t, capsys):
    # --lmax 8: k_max = 2 and 15, every value shown as before
    line, _ = _integrand_scalars(capsys, "--t", t)
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
def test_cli_heisenberg_integrand_lists_only_sampled_singularities(
        t, lmax, expected, capsys):
    line, _ = _integrand_scalars(capsys, "--t", t, "--lmax", lmax)
    assert line == json.dumps({"singularities": expected}, sort_keys=True)


@pytest.mark.parametrize("t", ["1e5", "1e12"])
def test_cli_heisenberg_integrand_record_is_bounded(t, capsys):
    line, size = _integrand_scalars(capsys, "--t", t)
    assert size < 4096
    scalars = json.loads(line)
    assert scalars["singularity_count"] == int(8.0 * float(t) / np.pi)
    assert scalars["singularities"] == [k * np.pi / float(t)
                                        for k in range(1, 17)]


def test_cli_heisenberg_integrand_overflow_is_config_error(capsys):
    code, _, err = run_main(capsys, "heisenberg", "integrand", "--t", "1e300",
                            "--lmax", "1e300", "--steps", "3")
    assert code == 2
    assert json.loads(err.strip())["error"] == "ConfigError"


# --- hostile values ------------------------------------------------------------

_HUGE = "99999999999999999999"
_HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", _HUGE,
            "-" + _HUGE)
# a count flag never gets _HUGE: it would ask for that many nodes or steps
_COUNT = tuple(v for v in _HOSTILE if v != _HUGE)
_GRID = (tuple(f"{v},12" for v in _COUNT) + tuple(f"64,{v}" for v in _HOSTILE))
_INIT = (tuple(f"gaussian:a={v}" for v in _HOSTILE)
         + tuple(f"gaussian:a=1,chirp={v}" for v in _HOSTILE))
_PROFILE_FLAGS = {"--grid": _GRID, "--init": _INIT, "--out": ("<missing>",)}

# each subcommand on a small grid, and the values its flags are tried with
_HOSTILE_RUNS = {
    "rootsys": (("rootsys", "info", "A2"),
                {"--normalization": _HOSTILE, "--out": ("<missing>",)}),
    "spherical eval": (
        ("spherical", "eval", "--group", "A2", "--grid", "32,8",
         "--lambda", "0.9,1.4"),
        {"--lambda": tuple(f"{v},1.4" for v in _HOSTILE), **_PROFILE_FLAGS}),
    "spherical transform": (
        ("spherical", "transform", "--grid", "256,12"),
        {"--spectral-grid": _GRID, **_PROFILE_FLAGS}),
    "spherical roundtrip": (
        ("spherical", "roundtrip", "--grid", "256,12",
         "--spectral-grid", "256,16"),
        {"--spectral-grid": _GRID, **_PROFILE_FLAGS}),
    "evolve": (("evolve", "--group", "A2", "--grid", "32,8"),
               {"--t": _HOSTILE, **_PROFILE_FLAGS}),
    "evolve fixed": (("evolve", "--grid", "64,12", "--mode", "fixed"),
                     {"--t": _HOSTILE, **_PROFILE_FLAGS}),
    "evolve spectral": (("evolve", "--grid", "96,10", "--method", "spectral"),
                        {"--t": _HOSTILE, **_PROFILE_FLAGS}),
    "hardy-check": (("hardy-check", "--grid", "128,12", "--t0", "1"),
                    {"--t0": _HOSTILE, "--tol-crit": _HOSTILE,
                     **_PROFILE_FLAGS}),
    "decay-fit": (("decay-fit", "--grid", "64,12"),
                  {"--p": _HOSTILE,
                   "--times": tuple(f"1,2,4,8,{v}" for v in _HOSTILE),
                   **_PROFILE_FLAGS}),
    "strichartz": (("strichartz", "--grid", "64,12", "--levels", "2",
                    "--dyadic", "2"),
                   {"--tmax": _HOSTILE, "--levels": _COUNT,
                    "--dyadic": _COUNT, **_PROFILE_FLAGS}),
    "heisenberg geodesic": (
        ("heisenberg", "geodesic", "--steps", "16"),
        {"--beta": _HOSTILE, "--tparam": _HOSTILE, "--smax": _HOSTILE,
         "--steps": _COUNT, "--out": ("<missing>",)}),
    "heisenberg integrand": (
        ("heisenberg", "integrand", "--steps", "16"),
        {"--t": _HOSTILE, "--x": _HOSTILE, "--u": _HOSTILE,
         "--lmax": _HOSTILE, "--steps": _COUNT, "--out": ("<missing>",)}),
    "heisenberg heat": (
        ("heisenberg", "heat",),
        {"--t": _HOSTILE, "--x": _HOSTILE, "--u": _HOSTILE, "--xi": _HOSTILE,
         "--tol": _HOSTILE}),
    "reproduce": (("reproduce", "--profile", "quick"), {"--seed": _HOSTILE}),
}


def _strict_json(text):
    """json.loads that refuses NaN and ±Infinity."""
    def refuse(name):
        raise AssertionError(f"non-finite {name} in {text!r}")
    return json.loads(text, parse_constant=refuse)


def _is_singular(argv, lam):
    """Whether λ is within 1e-9 of a singularity kπ/t of the integrand."""
    t = next((float(a[4:]) for a in argv if a.startswith("--t=")), 1.0)
    k = round(abs(lam) * t / np.pi)
    return k >= 1 and abs(abs(lam) - k * np.pi / t) < 1e-9


def _check_csv(path, argv, record):
    """Every cell is finite (not empty), except the documented ones: PLAIN
    values (u = uφ/φ, φ_λ) at chamber-wall nodes, and integrand values at
    a singularity kπ/t."""
    lines = open(path).read().splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    command, scalars = record["command"], record["scalars"]
    plain = {"evolve": {"abs_u"}, "spherical eval": {"re", "im"}}.get(
        command, set())
    if plain:
        rs = build_root_system(record["config"]["group"])
        n, box = record["config"]["grid"]
        if command == "evolve":
            box, n = scalars["out_half_width"], scalars["out_points"]
        wall = wall_mask(rs, RadialGrid(rs.rank, box, n)).ravel()
    for i, row in enumerate(rows):
        for name, cell in zip(header, row):
            assert cell or (name in plain and wall[i]) or (
                command == "heisenberg integrand"
                and _is_singular(argv, float(row[0]))), (name, row)


@given(st.data())
@settings(max_examples=40)
@pytest.mark.parametrize("run", sorted(_HOSTILE_RUNS))
def test_cli_hostile_values_exit_cleanly(run, data):
    base, flags = _HOSTILE_RUNS[run]
    flag = data.draw(st.sampled_from(sorted(flags)), label="flag")
    value = data.draw(st.sampled_from(flags[flag]), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "artifact")
        if value == "<missing>":
            value = os.path.join(tmp, "missing", "artifact")
        # --flag=value: a value such as -1e308 is not read as a flag
        argv = (*base, "--out", out, f"{flag}={value}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(list(argv))
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code != 0:
            assert _strict_json(err)["error"]
            return
        lines = stdout.getvalue().splitlines()
        record = _strict_json(lines[-1])
        for line in lines[:-1]:
            if line.startswith("{"):
                _strict_json(line)
        for path in record["artifacts"]:
            if path.endswith(".txt"):
                continue
            if path.endswith(".jsonl") or run in ("rootsys", "hardy-check"):
                for line in open(path).read().splitlines():
                    _strict_json(line)
            else:
                _check_csv(path, argv, record)


def _row_wise_csv(header, rows):
    """The per-value CSV formatter the column-wise writer replaces."""
    def cell(x):
        if isinstance(x, float) and not np.isfinite(x):
            return ""
        return "%.17g" % x
    return ",".join(header) + "\n" + "".join(
        ",".join(map(cell, row)) + "\n" for row in rows)


def test_field_csv_is_byte_identical_to_row_wise(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)   # rows span several blocks
    grid = RadialGrid(2, 3.0, 6)
    vals = np.exp(-grid.radius_sq()) * (1.0 + 0.3j) / 3.0
    vals[0, 1] = np.nan
    vals[2, 3] = complex(np.inf, -0.0)
    vals[4, 4] = complex(-0.0, -np.inf)
    mask = (grid.radius_sq() < 1.0).astype(int)
    header = ["h0", "h1", "re", "im", "singular"]
    path = tmp_path / "field.csv"
    cli._put_csv(str(path), header, cli._field_csv_rows(
        grid, vals.real, vals.imag, mask), blank=("re", "im"))
    nodes = grid_nodes(grid)
    rows = [(*map(float, nodes[i]), vals.real.ravel()[i],
             vals.imag.ravel()[i], int(mask.ravel()[i]))
            for i in range(len(nodes))]
    assert path.read_text() == _row_wise_csv(header, rows)
    # the stdout path writes the same text
    buf = io.StringIO()
    cli._emit_csv(buf, header, cli._field_csv_rows(
        grid, vals.real, vals.imag, mask), blank=("re", "im"))
    assert buf.getvalue() == path.read_text()
    # outside the `blank` columns a non-finite value is refused, and the
    # file is not left behind
    with pytest.raises(cli.NonFiniteValue, match="non-finite im value"):
        cli._put_csv(str(path), header, cli._field_csv_rows(
            grid, vals.real, vals.imag, mask), blank=("re",))
    assert not path.exists()
