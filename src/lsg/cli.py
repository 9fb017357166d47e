"""Command-line entry point.

Subcommands: rootsys, spherical, evolve, hardy-check, decay-fit,
strichartz, heisenberg, reproduce. Structured output is CSV or JSON-lines;
artifact files never contain wall-clock data, so identical config + seed
reproduces them byte-for-byte (durations go to stdout only).

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 paper-invariant
violation (failed acceptance row).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import acceptance
from .config import (InitData, RunConfig, euclidean_dim, load_preset,
                     parse_config, parse_floats, parse_grid, parse_init,
                     parse_times)
from .errors import ConfigError, LsgError
from .estimates import decay_exponent_fit, strichartz_norm, strichartz_pair
from .grids import GridMode, RadialGrid
from .hardy import uniqueness_experiment
from .heisenberg import (GeodesicParams, geodesic, heat_kernel,
                         schrodinger_integrand, singularities)
from .propagator import (euclidean_propagate, gaussian_profile,
                         group_propagate_closed_form,
                         group_propagate_spectral, plain_magnitude)
from .rootsystem import build_root_system
from .spherical import (roundtrip_error, spherical_function_field,
                        spherical_transform)

_FLOAT_FMT = "%.17g"


@dataclass
class ResultRecord:
    command: str
    config: dict
    scalars: dict
    artifacts: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    def emit(self) -> str:
        """stdout form; includes the wall clock, unlike file artifacts."""
        return json.dumps(
            {"command": self.command, "config": self.config,
             "scalars": self.scalars, "artifacts": self.artifacts,
             "duration_s": round(self.duration_s, 3)},
            sort_keys=True)


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return _FLOAT_FMT % x


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float))
                              else str(v) for v in row) + "\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    return cfg


def _resolve_grid(args, cfg: RunConfig) -> tuple[int, float]:
    if getattr(args, "grid", None):
        return parse_grid(args.grid, "--grid")
    return cfg.grid


def _resolve_init(args, cfg: RunConfig) -> InitData:
    if getattr(args, "init", None):
        return parse_init(args.init)
    return cfg.init


# --- subcommand handlers ----------------------------------------------------

def _cmd_rootsys(args) -> ResultRecord:
    rs = build_root_system(args.name, normalization=args.normalization)
    lines = [json.dumps({"name": rs.name, "rank": rs.rank,
                         "weyl_order": rs.weyl_order,
                         "rho": [float(v) for v in rs.rho]}, sort_keys=True)]
    for root in rs.roots:
        positive = any(np.allclose(root, p) for p in rs.positive_roots)
        lines.append(json.dumps({"root": [float(v) for v in root],
                                 "positive": bool(positive)}, sort_keys=True))
    text = "\n".join(lines) + "\n"
    artifacts = []
    if args.out:
        _write_text(args.out, text)
        artifacts.append(args.out)
    else:
        sys.stdout.write(text)
    return ResultRecord("rootsys", {"name": rs.name},
                        {"rank": rs.rank, "weyl_order": rs.weyl_order},
                        artifacts)


def _field_csv_rows(grid: RadialGrid, *columns):
    nodes = grid.nodes()
    cols = [np.asarray(c).ravel() for c in columns]
    for i in range(len(nodes)):
        yield [*(float(x) for x in nodes[i]), *(c[i] for c in cols)]


def _cmd_spherical(args) -> ResultRecord:
    cfg = _config_from(args)
    rs = build_root_system(args.group or cfg.group)
    n, box = _resolve_grid(args, cfg)
    grid = RadialGrid(rs.rank, box, n)
    scalars: dict = {}
    artifacts: list[str] = []

    if args.action == "eval":
        if not args.lam:
            raise ConfigError("spherical eval needs --lambda")
        lam = np.array(parse_floats(args.lam, "--lambda"))
        if lam.size != rs.rank:
            raise ConfigError(f"--lambda needs {rs.rank} components for "
                              f"{rs.name}, got {lam.size}")
        fld = spherical_function_field(rs, lam, grid)
        header = [f"h{i}" for i in range(rs.rank)] + ["re", "im"]
        rows = _field_csv_rows(grid, fld.values.real, fld.values.imag)
        scalars["lambda"] = [float(v) for v in lam]
    elif args.action == "transform":
        init = _resolve_init(args, cfg)
        f = gaussian_profile(grid, init.rate, init.chirp)
        ns, sbox = cfg.spectral_grid or (n, box)
        sgrid = RadialGrid(rs.rank, sbox, ns)
        spec = spherical_transform(rs, f, sgrid)
        header = [f"lam{i}" for i in range(rs.rank)] + ["re", "im", "singular"]
        rows = _field_csv_rows(sgrid, spec.values.real, spec.values.imag,
                               spec.singular_mask.astype(int))
        scalars["init_rate"] = init.rate
    else:  # roundtrip
        init = _resolve_init(args, cfg)
        f = gaussian_profile(grid, init.rate, init.chirp)
        ns, sbox = cfg.spectral_grid or (max(n, 512), max(box, 16.0))
        err = roundtrip_error(rs, f, RadialGrid(rs.rank, sbox, ns))
        scalars["roundtrip_relative_l2"] = float(err)
        rows, header = [], []

    if args.out and header:
        _write_csv(args.out, header, rows)
        artifacts.append(args.out)
    elif header:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    return ResultRecord(f"spherical {args.action}",
                        {"group": rs.name, "grid": [n, box]},
                        scalars, artifacts)


def _cmd_evolve(args) -> ResultRecord:
    cfg = _config_from(args)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    t = args.t if args.t is not None else cfg.times[0]
    if t <= 0:
        raise ConfigError(f"--t must be positive, got {t}")
    group = args.group or cfg.group
    mode = GridMode.SCALED if args.mode == "scaled" else GridMode.FIXED

    dim = euclidean_dim(group)
    if dim is not None:
        f = gaussian_profile(RadialGrid(dim, box, n), init.rate, init.chirp)
        result = euclidean_propagate(f, t, mode)
        mag = np.abs(result.field.values)
        uphi = result.field.values
        rank = dim
        name = group
    else:
        rs = build_root_system(group)
        f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
        if args.method == "closed":
            result = group_propagate_closed_form(rs, f, t, mode)
        else:
            result = group_propagate_spectral(
                rs, f, t, mode=mode)
        mag = plain_magnitude(rs, result)
        uphi = result.field.values
        rank = rs.rank
        name = rs.name

    out_grid = result.field.grid
    header = [f"h{i}" for i in range(rank)] + ["re_uphi", "im_uphi", "abs_u"]
    rows = _field_csv_rows(out_grid, uphi.real, uphi.imag, mag)
    artifacts = []
    if args.out:
        _write_csv(args.out, header, rows)
        artifacts.append(args.out)
    scalars = {"t": t, "method": result.method.value,
               "output_mode": result.output_grid_mode.value,
               "out_half_width": out_grid.half_width,
               "out_points": out_grid.points_per_axis}
    return ResultRecord("evolve",
                        {"group": name, "grid": [n, box],
                         "init": {"rate": init.rate, "chirp": init.chirp}},
                        scalars, artifacts)


def _cmd_hardy(args) -> ResultRecord:
    cfg = _config_from(args)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    tol_crit = args.tol_crit
    if args.euclid is not None:
        if args.euclid < 1:
            raise ConfigError(f"--euclid must be >= 1, got {args.euclid}")
        system = args.euclid
        name = f"euclid:{args.euclid}"
        rank = args.euclid
        mode = GridMode.SCALED
    else:
        system = build_root_system(args.group or cfg.group)
        name = system.name
        rank = system.rank
        mode = GridMode.FIXED
    f = gaussian_profile(RadialGrid(rank, box, n), init.rate, init.chirp)
    report = uniqueness_experiment(system, f, args.t0, tol_crit=tol_crit,
                                   mode=mode)
    payload = {
        "system": name, "t0": args.t0,
        "classification": report.classification_name,
        "product": None if report.degenerate else report.verdict.product,
        "rate_f": None if report.degenerate else report.envelope_f.rate,
        "rate_u": None if report.degenerate else report.envelope_u.rate,
        "residual_f": report.residual_f,
        "residual_u": report.residual_u,
        "sup_u": report.sup_u,
        "tol_crit": tol_crit,
    }
    line = json.dumps(payload, sort_keys=True)
    artifacts = []
    if args.out:
        _write_text(args.out, line + "\n")
        artifacts.append(args.out)
    else:
        sys.stdout.write(line + "\n")
    return ResultRecord("hardy-check", {"system": name, "grid": [n, box]},
                        {"classification": report.classification_name},
                        artifacts)


def _cmd_decay_fit(args) -> ResultRecord:
    cfg = _config_from(args)
    rs = build_root_system(args.group or cfg.group)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    if args.times:
        times = list(parse_times(args.times, "--times"))
    else:
        times = list(np.geomspace(1.0, 10.0, 8))
    f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
    slope, target, reports = decay_exponent_fit(rs, f, args.p, times)
    tol = cfg.tolerances.get("decay_slope", 0.05)
    passed = abs(slope - target) <= tol
    artifacts = []
    if args.out:
        _write_csv(args.out, ["t", "weighted_norm"],
                   [[r.t, r.weighted_norm] for r in reports])
        artifacts.append(args.out)
    summary = {"slope": float(slope), "target": float(target),
               "tolerance": tol, "passed": bool(passed), "p": args.p}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return ResultRecord("decay-fit", {"group": rs.name, "grid": [n, box]},
                        summary, artifacts)


def _cmd_strichartz(args) -> ResultRecord:
    cfg = _config_from(args)
    rs = build_root_system(args.group or cfg.group)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
    p_adm, q_adm = strichartz_pair(rs.rank)
    seq = strichartz_norm(rs, f, args.tmax, refinements=args.levels,
                          dyadic_levels=args.dyadic)
    cauchy = abs(seq[-1] - seq[-2]) / seq[-1] if seq[-1] else 0.0
    passed = cauchy <= 0.02
    artifacts = []
    if args.out:
        _write_csv(args.out, ["level", "spacetime_norm"],
                   [[i, v] for i, v in enumerate(seq)])
        artifacts.append(args.out)
    summary = {"p": f"{p_adm}", "q": f"{q_adm}", "levels": [float(v) for v in seq],
               "cauchy": float(cauchy), "passed": bool(passed)}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return ResultRecord("strichartz", {"group": rs.name, "grid": [n, box]},
                        summary, artifacts)


def _cmd_heisenberg(args) -> ResultRecord:
    scalars: dict = {}
    artifacts: list[str] = []
    if args.action == "geodesic":
        rows = []
        for s in np.linspace(0.0, args.smax, args.steps):
            p = geodesic(GeodesicParams(args.beta, args.tparam, float(s)))
            rows.append([float(s), p.x, p.u, p.xi])
        header = ["s", "x", "u", "xi"]
    elif args.action == "integrand":
        rows = []
        k_max = max(1, int(args.lmax * args.t / np.pi))
        for lam in np.linspace(-args.lmax, args.lmax, args.steps):
            try:
                v = schrodinger_integrand(float(lam), args.x, args.u, args.t)
                rows.append([float(lam), v.real, v.imag, abs(v)])
            except LsgError:
                rows.append([float(lam), np.nan, np.nan, np.nan])
        header = ["lambda", "re", "im", "abs"]
        scalars["singularities"] = singularities(args.t, k_max)
    else:  # heat
        v = heat_kernel(args.x, args.u, args.xi, args.t, args.tol)
        scalars.update({"re": float(v.real), "im": float(v.imag),
                        "tol": args.tol})
        rows, header = [], []
    if args.out and header:
        _write_csv(args.out, header, rows)
        artifacts.append(args.out)
    elif header:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    if scalars:
        sys.stdout.write(json.dumps(scalars, sort_keys=True) + "\n")
    return ResultRecord(f"heisenberg {args.action}", {}, scalars, artifacts)


def _cmd_reproduce(args) -> ResultRecord:
    rows = acceptance.run_all(seed=args.seed, profile=args.profile)
    table = acceptance.render_table(rows)
    jsonl = acceptance.serialize_rows(rows)
    artifacts = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        jl = os.path.join(args.out, "acceptance.jsonl")
        tx = os.path.join(args.out, "acceptance.txt")
        _write_text(jl, jsonl)
        _write_text(tx, table + "\n")
        artifacts += [jl, tx]
    sys.stdout.write(table + "\n")
    failed = [r.index for r in rows if not r.passed]
    if failed:
        raise _AcceptanceFailure(f"criteria failed: {failed}")
    return ResultRecord("reproduce", {"profile": args.profile,
                                      "seed": args.seed},
                        {"criteria": len(rows), "failed": 0}, artifacts)


class _AcceptanceFailure(LsgError):
    """Raised when a reproduce run has failing criteria (exit code 4)."""


def run(command: str, config: RunConfig, profile: str = "full") -> ResultRecord:
    """Programmatic dispatch of a CLI command from a RunConfig.

    Builds the equivalent argv and invokes the subcommand handler
    directly, so library callers get the same ResultRecord the CLI
    emits. `profile` only applies to `reproduce`.
    """
    n, box = config.grid
    init = f"gaussian:a={config.init.rate:g},chirp={config.init.chirp:g}"
    t0 = config.times[0]
    if command == "rootsys":
        argv = ["rootsys", "info", config.group]
    elif command == "spherical":
        argv = ["spherical", "roundtrip", "--group", config.group,
                "--grid", f"{n},{box:g}", "--init", init]
    elif command == "evolve":
        argv = ["evolve", "--group", config.group, "--grid", f"{n},{box:g}",
                "--init", init, "--t", f"{t0:g}"]
    elif command == "hardy-check":
        argv = ["hardy-check", "--grid", f"{n},{box:g}", "--init", init,
                "--t0", f"{t0:g}"]
        dim = config.euclidean_dim
        if dim is not None:
            argv += ["--euclid", str(dim)]
        else:
            argv += ["--group", config.group]
        if "crit" in config.tolerances:
            argv += ["--tol-crit", f"{config.tolerances['crit']:g}"]
    elif command == "decay-fit":
        argv = ["decay-fit", "--group", config.group, "--grid", f"{n},{box:g}"]
        if len(config.times) >= 5:
            argv += ["--times", ",".join(f"{t:g}" for t in config.times)]
    elif command == "strichartz":
        argv = ["strichartz", "--group", config.group, "--grid", f"{n},{box:g}"]
    elif command == "heisenberg":
        argv = ["heisenberg", "geodesic"]
    elif command == "reproduce":
        argv = ["reproduce", "--profile", profile, "--seed", str(config.seed)]
    else:
        raise ConfigError(f"unknown command {command!r}")
    if config.output:
        argv += ["--out", config.output]
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    record = args.func(args)
    record.duration_s = time.monotonic() - start
    return record


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lsg",
        description="Spherical transforms, exact Schrödinger propagators and "
                    "uniqueness certification on complex semi-simple groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", help="bundled preset name (e.g. lemma1)")
        p.add_argument("--grid", help="N,L override")
        p.add_argument("--init", help="gaussian:a=<a>[,chirp=<c>]")
        p.add_argument("--out", help="artifact output path")
        if group:
            p.add_argument("--group", help="root system (A1, A2, B2, G2, products)")

    p = sub.add_parser("rootsys", help="root-system info")
    p.add_argument("action", choices=["info"])
    p.add_argument("name")
    p.add_argument("--normalization", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rootsys)

    p = sub.add_parser("spherical", help="spherical functions and transforms")
    p.add_argument("action", choices=["eval", "transform", "roundtrip"])
    common(p)
    p.add_argument("--lambda", dest="lam", help="spectral vector, comma separated")
    p.set_defaults(func=_cmd_spherical)

    p = sub.add_parser("evolve", help="propagate bi-invariant initial data")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--method", choices=["closed", "spectral"], default="closed")
    p.add_argument("--mode", choices=["scaled", "fixed"], default="scaled")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("hardy-check", help="uniqueness-threshold certification")
    common(p)
    p.add_argument("--euclid", type=int, help="Euclidean dimension instead of a group")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tol-crit", type=float, default=0.02, dest="tol_crit")
    p.set_defaults(func=_cmd_hardy)

    p = sub.add_parser("decay-fit", help="dispersive decay exponent fit")
    common(p)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--times", help="comma-separated times (default geomspace 1..10)")
    p.set_defaults(func=_cmd_decay_fit)

    p = sub.add_parser("strichartz", help="space-time norm stabilization")
    common(p)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--dyadic", type=int, default=8)
    p.set_defaults(func=_cmd_strichartz)

    p = sub.add_parser("heisenberg", help="Heisenberg-group explorer")
    p.add_argument("action", choices=["geodesic", "integrand", "heat"])
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--tparam", type=float, default=1.0)
    p.add_argument("--smax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--lmax", type=float, default=8.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_heisenberg)

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--profile", choices=["full", "quick"], default="full")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="directory for acceptance artifacts")
    p.set_defaults(func=_cmd_reproduce)
    return ap


def _error_line(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        record = args.func(args)
    except ConfigError as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 2
    except _AcceptanceFailure as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 4
    except LsgError as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 3
    record.duration_s = time.monotonic() - start
    sys.stdout.write(record.emit() + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
