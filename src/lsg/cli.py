"""Command-line entry point.

Subcommands: rootsys, spherical, evolve, hardy-check, decay-fit,
strichartz, heisenberg, reproduce. Structured output is CSV or JSON-lines;
artifact files never contain wall-clock data, so identical config + seed
reproduces them byte-for-byte (durations go to stdout only).

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 paper-invariant
violation (failed acceptance row), 141 (128 + SIGPIPE, what a shell
reports for a process SIGPIPE ended) when the reader closes stdout early,
as in `lsg ... | head -1`; no traceback is printed.
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
from .config import (InitData, RunConfig, load_preset, parse_config,
                     parse_floats, parse_grid, parse_init, parse_times)
from .errors import ConfigError, LsgError
from .estimates import decay_exponent_fit, strichartz_norm, strichartz_pair
from .grids import GridMode, RadialGrid
from .hardy import uniqueness_experiment
from .heisenberg import (geodesic_coords, heat_kernel, schrodinger_integrand,
                         singularities)
from .propagator import (gaussian_profile, group_propagate_closed_form,
                         group_propagate_spectral, plain_magnitude)
from .rootsystem import build_root_system
from .spherical import (roundtrip_error, spherical_function_field,
                        spherical_transform)

_FLOAT_FMT = "%.17g"
_CSV_BLOCK = 1 << 16      # rows per block of column-wise CSV formatting
_SINGULARITIES_SHOWN = 16   # kπ/t values in a heisenberg integrand record


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


def _cells(column) -> list[str]:
    """A column's CSV cells: %.17g, empty for a non-finite value; an array
    of strings passes through as formatted already."""
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return column.tolist()
    cells = list(map(_FLOAT_FMT.__mod__, column.tolist()))
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)):
            cells[i] = ""
    return cells


def _emit_csv(stream, header: list[str], blocks) -> None:
    """The header line, then each block (a list of equal-length columns)
    formatted a column at a time and written as rows."""
    stream.write(",".join(header) + "\n")
    for block in blocks:
        cells = [_cells(c) for c in block]
        stream.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _write_csv(path: str, header: list[str], blocks) -> None:
    with open(path, "w", newline="") as fh:
        _emit_csv(fh, header, blocks)


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
    """CSV blocks of a field: the node coordinates, then `columns` raveled
    in C order, _CSV_BLOCK rows at a time. The axis is formatted once."""
    axis = np.array(_cells(grid.axis))
    cols = [np.asarray(c).ravel() for c in columns]
    size = grid.points_per_axis ** grid.rank
    for lo in range(0, size, _CSV_BLOCK):
        rows = np.arange(lo, min(lo + _CSV_BLOCK, size))
        yield ([axis[i] for i in np.unravel_index(rows, grid.shape)]
               + [c[rows] for c in cols])


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
        _emit_csv(sys.stdout, header, rows)
    return ResultRecord(f"spherical {args.action}",
                        {"group": rs.name, "grid": [n, box]},
                        scalars, artifacts)


def _cmd_evolve(args) -> ResultRecord:
    cfg = _config_from(args)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    t = args.t if args.t is not None else cfg.times[0]
    _require_positive(t, "--t")
    rs = build_root_system(args.group or cfg.group)
    mode = GridMode.SCALED if args.mode == "scaled" else GridMode.FIXED
    f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
    if args.method == "closed":
        result = group_propagate_closed_form(rs, f, t, mode)
    else:
        result = group_propagate_spectral(rs, f, t, mode=mode)

    uphi, out_grid = result.field.values, result.field.grid
    header = [f"h{i}" for i in range(rs.rank)] + ["re_uphi", "im_uphi",
                                                  "abs_u"]
    rows = _field_csv_rows(out_grid, uphi.real, uphi.imag,
                           plain_magnitude(rs, result))
    artifacts = []
    if args.out:
        _write_csv(args.out, header, rows)
        artifacts.append(args.out)
    scalars = {"t": t, "method": result.method.value,
               "output_mode": result.output_grid_mode.value,
               "out_half_width": out_grid.half_width,
               "out_points": out_grid.points_per_axis}
    return ResultRecord("evolve",
                        {"group": rs.name, "grid": [n, box],
                         "init": {"rate": init.rate, "chirp": init.chirp}},
                        scalars, artifacts)


def _cmd_hardy(args) -> ResultRecord:
    cfg = _config_from(args)
    n, box = _resolve_grid(args, cfg)
    init = _resolve_init(args, cfg)
    _require_positive(args.t0, "--t0")
    tol_crit = args.tol_crit
    if not (np.isfinite(tol_crit) and tol_crit >= 0):
        raise ConfigError(
            f"--tol-crit must be finite and >= 0, got {tol_crit}")
    rs = build_root_system(args.group or cfg.group)
    f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
    report = uniqueness_experiment(rs, f, args.t0, tol_crit=tol_crit,
                                   mode=GridMode.FIXED)
    payload = {
        "system": rs.name, "t0": args.t0,
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
    return ResultRecord("hardy-check", {"system": rs.name, "grid": [n, box]},
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
                   [([r.t for r in reports],
                     [r.weighted_norm for r in reports])])
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
    _require_positive(args.tmax, "--tmax")
    if args.levels < 2:
        raise ConfigError(f"--levels must be >= 2, got {args.levels}")
    if args.dyadic < 1:
        raise ConfigError(f"--dyadic must be >= 1, got {args.dyadic}")
    f = gaussian_profile(RadialGrid(rs.rank, box, n), init.rate, init.chirp)
    p_adm, q_adm = strichartz_pair(rs.rank)
    seq = strichartz_norm(rs, f, args.tmax, refinements=args.levels,
                          dyadic_levels=args.dyadic)
    cauchy = abs(seq[-1] - seq[-2]) / seq[-1] if seq[-1] else 0.0
    passed = cauchy <= 0.02
    artifacts = []
    if args.out:
        _write_csv(args.out, ["level", "spacetime_norm"],
                   [(np.arange(len(seq)), seq)])
        artifacts.append(args.out)
    summary = {"p": f"{p_adm}", "q": f"{q_adm}", "levels": [float(v) for v in seq],
               "cauchy": float(cauchy), "passed": bool(passed)}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return ResultRecord("strichartz", {"group": rs.name, "grid": [n, box]},
                        summary, artifacts)


def _require_positive(value: float, flag: str) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be positive and finite, got {value}")


def _cmd_heisenberg(args) -> ResultRecord:
    scalars: dict = {}
    artifacts: list[str] = []
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    if args.action != "geodesic":
        _require_positive(args.t, "--t")
    if args.action == "geodesic":
        if args.tparam == 0:
            raise ConfigError("--tparam must be nonzero")
        s = np.linspace(0.0, args.smax, args.steps)
        rows = [(s, *geodesic_coords(args.beta, args.tparam, s))]
        header = ["s", "x", "u", "xi"]
    elif args.action == "integrand":
        if not np.isfinite(args.lmax):
            raise ConfigError(f"--lmax must be finite, got {args.lmax}")
        reach = args.lmax * args.t / np.pi
        if not np.isfinite(reach):
            raise ConfigError(f"--lmax {args.lmax:g} times --t {args.t:g} "
                              "overflows")
        k_max = int(abs(reach))     # kπ/t within [-|λ_max|, |λ_max|]
        lams = np.linspace(-args.lmax, args.lmax, args.steps)
        vals = np.full(lams.shape, complex(np.nan, np.nan))
        for i, lam in enumerate(lams):
            try:
                vals[i] = schrodinger_integrand(float(lam), args.x, args.u,
                                                args.t)
            except LsgError:
                pass
        rows = [(lams, vals.real, vals.imag, [abs(v) for v in vals])]
        header = ["lambda", "re", "im", "abs"]
        # the first few kπ/t; past them only their count, never the list
        scalars["singularities"] = singularities(
            args.t, min(k_max, _SINGULARITIES_SHOWN)) if k_max else []
        if k_max > _SINGULARITIES_SHOWN:
            scalars["singularity_count"] = k_max
    else:  # heat
        _require_positive(args.tol, "--tol")
        v = heat_kernel(args.x, args.u, args.xi, args.t, args.tol)
        scalars.update({"re": float(v.real), "im": float(v.imag),
                        "tol": args.tol})
        rows, header = [], []
    if args.out and header:
        _write_csv(args.out, header, rows)
        artifacts.append(args.out)
    elif header:
        _emit_csv(sys.stdout, header, rows)
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
            p.add_argument("--group", help="root system (A1, A2, B2, G2, "
                                           "products) or euclid:n for R^n")

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
    p.add_argument("--euclid", dest="group", type="euclid:{}".format,
                   help="n: R^n, the same as --group euclid:n")
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
        record.duration_s = time.monotonic() - start
        sys.stdout.write(record.emit() + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered for stdout to
        # the null device, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, OSError) as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 2
    except _AcceptanceFailure as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 4
    except LsgError as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
