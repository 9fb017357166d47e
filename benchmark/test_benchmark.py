"""Tests of the benchmark's own reference, checks and tracer.

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SYSTEMS = ("A1", "A2", "B2", "G2", "A1xA1")
# |W| and |ρ|² with long roots of squared length 2
TABLE = {"A1": (2, 0.5), "A2": (6, 2.0), "B2": (8, 2.5), "G2": (12, 14 / 3),
         "A1xA1": (4, 1.0)}


@pytest.mark.parametrize("name", SYSTEMS)
def test_rho_orbit_matches_table(name):
    orbit, signs = reference.rho_orbit(name)
    order, rho_sq = TABLE[name]
    assert len(orbit) == order
    assert np.allclose(np.einsum("ij,ij->i", orbit, orbit), rho_sq, rtol=1e-13)
    assert signs.sum() == 0 and set(signs) == {-1.0, 1.0}


@pytest.mark.parametrize("name", SYSTEMS)
def test_rho_orbit_uses_lsg_coordinates(name):
    """Same ρ images with the same det(s) as lsg, in any order."""
    from lsg.rootsystem import build_root_system
    rs = build_root_system(name)
    mine = {tuple(np.round(p, 9)): s for p, s in zip(*reference.rho_orbit(name))}
    theirs = {tuple(np.round(p, 9)): s
              for p, s in zip(rs.orbit(rs.rho), rs.weyl_signs())}
    assert mine == theirs


@pytest.mark.parametrize("name", SYSTEMS + ("euclid:1", "euclid:2"))
def test_reference_solves_schrodinger(name):
    """-i ∂_t v = (Δ - |ρ|²) v by central differences in t and in each H_i."""
    orbit, signs = workloads._orbit(name)
    rank = orbit.shape[1]
    rho_sq = float(orbit[0] @ orbit[0])
    rate, chirp, t, h, dt = 0.9, 0.2, 0.7, 1e-3, 1e-5
    rng = np.random.default_rng(7)
    for _ in range(3):
        x0 = rng.uniform(-1.5, 1.5, rank)
        axes = [x + h * np.array([-1.0, 0.0, 1.0]) for x in x0]
        v = reference.evolved_conjugated(orbit, signs, axes, rate, chirp, t)
        centre = (1,) * rank
        lap = 0.0
        for ax in range(rank):
            lo = tuple(0 if a == ax else 1 for a in range(rank))
            hi = tuple(2 if a == ax else 1 for a in range(rank))
            lap += (v[lo] + v[hi] - 2.0 * v[centre]) / h**2
        centre_axes = [np.array([x]) for x in x0]
        later, earlier = (reference.evolved_conjugated(
            orbit, signs, centre_axes, rate, chirp, t + s).ravel()[0]
            for s in (dt, -dt))
        lhs = -1j * (later - earlier) / (2.0 * dt)
        rhs = lap - rho_sq * v[centre]
        assert abs(lhs - rhs) <= 1e-5 * (abs(lap) + rho_sq * abs(v[centre])
                                         + abs(lhs))


@pytest.mark.parametrize("name", SYSTEMS + ("euclid:2",))
def test_reference_t0_limit_is_f_phi(name):
    orbit, signs = workloads._orbit(name)
    rank = orbit.shape[1]
    axis = np.linspace(-4.0, 4.0, 33)
    rate, chirp = 1.1, -0.2
    got = reference.evolved_conjugated(orbit, signs, [axis] * rank, rate,
                                       chirp, 1e-12)
    mesh = np.stack(np.meshgrid(*([axis] * rank), indexing="ij"), axis=-1)
    phi = np.exp(mesh @ orbit.T) @ signs
    f = np.exp(-(rate - 1j * chirp) * np.sum(mesh**2, axis=-1))
    assert reference.relative_l2(got, f * phi) <= 1e-10


def test_propagation_check_rejects_a_perturbed_result():
    from lsg.grids import GridMode, RadialGrid
    from lsg.propagator import gaussian_profile, group_propagate_closed_form
    from lsg.rootsystem import build_root_system
    rs = build_root_system("A2")
    f = gaussian_profile(RadialGrid(2, 9.0, 96), 1.0, 0.1)
    result = group_propagate_closed_form(rs, f, 0.5, GridMode.SCALED)
    check = workloads._propagation_check("A2", 1.0, 0.1, 0.5)
    assert check(result) is None
    bad = result.field.with_values(result.field.values * (1 + 1e-6))
    assert check(type(result)(bad, result.t, result.method,
                              result.output_grid_mode)) is not None


def test_tracer_counts_calls_through_rebound_names():
    """fourier_at is reached through propagator's and spherical's own names."""
    import lsg.grids
    import lsg.propagator
    import lsg.spherical
    from lsg.grids import GridMode, RadialGrid
    from lsg.rootsystem import build_root_system
    original = lsg.grids.fourier_at
    rs = build_root_system("A1")
    lsg.propagator.calibrate_constant(rs)      # set-up, outside the trace
    f = lsg.propagator.gaussian_profile(RadialGrid(1, 12.0, 256), 1.0)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        tr.phase = "batch"
        lsg.propagator.group_propagate_closed_form(rs, f, 1.0, GridMode.FIXED)
        lsg.spherical.spherical_transform(rs, f, RadialGrid(1, 16.0, 384))
    finally:
        tr.uninstall()
    stats = tr.summary()
    assert stats["batch.grids.fourier_at"]["calls"] == 2
    assert stats["batch.propagator.closed_fixed"]["calls"] == 1
    assert stats["batch.spherical.spherical_transform"]["calls"] == 1
    assert tr.counters["batch.grids.fourier_at.kernel_mb"] == pytest.approx(
        16 * (256 * 256 + 384 * 256) / 1e6)
    # self time excludes the wrapped children
    closed = stats["batch.propagator.closed_fixed"]
    assert closed["self_s"] < closed["total_s"]
    assert lsg.grids.fourier_at is original
    assert lsg.propagator.fourier_at is original


def test_tracer_reports_missing_names_as_zero_calls():
    import lsg.propagator
    original = lsg.propagator._chirp
    tr = tracer_mod.Tracer()
    tr.install(tracer_mod.TARGETS + (("propagator", "_gone"),
                                     ("no_such_module", "f")))
    try:
        assert lsg.propagator._chirp is not original
    finally:
        tr.uninstall()
    assert tr.missing == ["propagator._gone", "no_such_module.f"]
    assert "batch.propagator._gone" not in tr.summary()
    assert lsg.propagator._chirp is original


def test_setup_runs_without_calibrate_constant(monkeypatch):
    """A calibration a later change deletes is skipped in set-up and
    reported by the tracer with zero calls."""
    import worker
    lsg = worker._import_lsg()      # before the name goes, as its users would
    monkeypatch.delattr(lsg.propagator, "calibrate_constant")
    _, systems, tr, _, setup_s = worker.setup("reproduce-full",
                                              tracer_mod.Tracer)
    try:
        assert set(systems) == set(workloads.SETUP_SYSTEMS["reproduce-full"])
        assert setup_s > 0
        assert "propagator.calibrate_constant" in tr.missing
        layers = worker._layer_metrics(tr, 0, None, "setup")
        assert "setup.calibrate_constant.calls" not in layers
        assert layers["setup.plancherel_constant.calls"] == len(systems)
    finally:
        tr.uninstall()


def test_digest_check_compares_runs_of_the_same_sources(tmp_path):
    import run
    src = tmp_path / "lsg"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    before = run.source_hash(str(src))
    (src / "a.py").write_text("x = 2\n")
    after = run.source_hash(str(src))
    assert before != after
    path = str(tmp_path / "out" / "digests.json")
    rows = "seed 1: acceptance.c1"
    assert run.check_digest(f"lsg {before} {rows}", ["d1"], path) is None
    assert run.check_digest(f"lsg {before} {rows}", ["d1"], path) is None
    # other sources may round differently: no mismatch
    assert run.check_digest(f"lsg {after} {rows}", ["d2"], path) is None
    # the same sources must repeat their rows
    assert run.check_digest(f"lsg {before} {rows}", ["d2"], path) is not None
    assert run.check_digest(f"lsg {after} {rows}", ["d1"], path) is not None
    assert run.check_digest(f"lsg {before} {rows}", ["d1", "d2"],
                            path) is not None


def test_per_layer_names_are_ones_the_tracer_produces():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    labels = {f"{m}.{p}" for m, p in tracer_mod.TARGETS}
    labels.discard("propagator.group_propagate_closed_form")
    labels |= {"propagator.closed_scaled", "propagator.closed_fixed"}
    setup = {label.split(".")[-1] for label in labels}
    extra = {"import.s", "grids.fourier_at.kernel_mb",
             "propagator.scaled.out_nodes",
             "propagator.duhamel_solve.propagations", "trace.wall_s",
             "trace.overhead_s", "trace.missing"}
    extra |= {f"acceptance.c{i}.s" for i in range(1, 11)}
    fields = ("calls", "total_s", "self_s", "errors")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in extra:
            continue
        head, field = name.rsplit(".", 1)
        assert field in fields, name
        if head.startswith("setup."):
            assert head[len("setup."):] in setup, name
        else:
            assert head in labels, name


def test_run_fails_where_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "scaled-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
