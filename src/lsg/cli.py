"""Command-line entry point.

Subcommands: rootsys, spherical, evolve, hardy-check, decay-fit,
strichartz, heisenberg, reproduce. Structured output is CSV or JSON-lines;
artifact files never contain wall-clock data, so identical config + seed
reproduces them byte-for-byte (durations go to stdout only).

argparse is the one parser of the inputs: each value flag's `type=` is a
parser from `config` (its ConfigError turned into argparse's usage error,
which names the flag), and `--preset` / `--config` files only supply
default flags (see `config`), checked by the same parsers. A value the
library itself rejects with ConfigError (`--group`, `--normalization`,
`--tol-crit`) is passed through unchecked.

Exit codes: 0 ok, 2 config error (a bad flag, key or value), 3 numerical
failure (an LsgError, or NonFiniteValue: what is written is checked, not
the float events of a computation), 4 paper-invariant violation
(failed acceptance row), 141 (128 + SIGPIPE, what a shell reports for a
process SIGPIPE ended) when the reader closes stdout early, as in
`lsg ... | head -1`; no traceback is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import acceptance
from .config import (InitData, config_args, finite, int_at_least, nonzero,
                     parse_floats, parse_grid, parse_init, parse_times,
                     positive, preset_text)
from .errors import (ConfigError, EvaluationAtSingularity, GridTooSmall,
                     LsgError)
from .estimates import (CAUCHY_TOL, DECAY_SLOPE_TOL, L2_SLOPE_TOL,
                        decay_exponent_fit, strichartz_norm, strichartz_pair)
from .grids import BiInvariantField, GridMode, RadialGrid
from .hardy import TOL_CRIT_DEFAULT, uniqueness_experiment
from .heisenberg import (geodesic_coords, heat_kernel, schrodinger_integrand,
                         singularities, singularity_count)
from .propagator import (gaussian_profile, group_propagate_closed_form,
                         group_propagate_spectral, plain_magnitude)
from .rootsystem import build_root_system
from .spherical import (conjugated_values, roundtrip_error,
                        spectral_to_plain, spherical_function_field,
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
        return _json({"command": self.command, "config": self.config,
                      "scalars": self.scalars, "artifacts": self.artifacts,
                      "duration_s": round(self.duration_s, 3)})


class NonFiniteValue(LsgError):
    """A value to be written is NaN or infinite (exit 3)."""


def _json(obj) -> str:
    """`obj` as sorted-key JSON; NonFiniteValue for a NaN or infinity."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteValue(f"non-finite value in {obj}") from None


def _cells(column, name: str, blank: bool = False) -> list[str]:
    """The CSV cells of column `name`, %.17g, strings passed through; a
    non-finite value is an empty cell if `blank`, else NonFiniteValue."""
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return column.tolist()
    cells = list(map(_FLOAT_FMT.__mod__, column.tolist()))
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)):
            if not blank:
                raise NonFiniteValue(f"non-finite {name} value {cells[i]}")
            cells[i] = ""
    return cells


def _emit_csv(stream, header: list[str], blocks, blank=()) -> None:
    """The header line, then each block (a list of equal-length columns)
    formatted a column at a time and written as rows. Only the `blank`
    columns may hold a non-finite value."""
    stream.write(",".join(header) + "\n")
    for block in blocks:
        cells = [_cells(c, name, name in blank)
                 for name, c in zip(header, block)]
        stream.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _put(out: str | None, write) -> list[str]:
    """write(stream) into the file `out`, or onto stdout without one; the
    artifacts written. A file that NonFiniteValue cut short is removed."""
    if not out:
        write(sys.stdout)
        return []
    try:
        with open(out, "w", newline="") as fh:
            write(fh)
    except NonFiniteValue:
        os.remove(out)
        raise
    return [out]


def _put_csv(out, header: list[str], blocks, blank=()) -> list[str]:
    """_emit_csv into the file `out`, or onto stdout; see _put."""
    return _put(out, lambda fh: _emit_csv(fh, header, blocks, blank))


def _profile(args, rs) -> BiInvariantField:
    """The --init Gaussian on the --grid box of `rs`; GridTooSmall when its
    conjugated samples f·φ vanish at every node or are not all finite."""
    n, box = args.grid
    f = gaussian_profile(RadialGrid(rs.rank, box, n), args.init.rate,
                         args.init.chirp)
    fphi = conjugated_values(rs, f)
    if not (fphi.any() and np.isfinite(fphi).all()):
        raise GridTooSmall(f"the {n},{box:g} grid does not resolve the data: "
                           "f·phi vanishes at every node or is not finite")
    return f


# --- subcommand handlers ----------------------------------------------------

def _cmd_rootsys(args) -> ResultRecord:
    rs = build_root_system(args.name, normalization=args.normalization)
    lines = [_json({"name": rs.name, "rank": rs.rank,
                    "weyl_order": rs.weyl_order,
                    "rho": [float(v) for v in rs.rho]})]
    for root in rs.roots:
        positive = any(np.allclose(root, p) for p in rs.positive_roots)
        lines.append(_json({"root": [float(v) for v in root],
                            "positive": bool(positive)}))
    text = "\n".join(lines) + "\n"
    artifacts = _put(args.out, lambda fh: fh.write(text))
    return ResultRecord("rootsys", {"name": rs.name},
                        {"rank": rs.rank, "weyl_order": rs.weyl_order},
                        artifacts)


def _field_csv_rows(grid: RadialGrid, *columns):
    """CSV blocks of a field: the node coordinates, then `columns` raveled
    in C order, _CSV_BLOCK rows at a time. The axis is formatted once."""
    axis = np.array(_cells(grid.axis, "node"))
    cols = [np.asarray(c).ravel() for c in columns]
    size = grid.points_per_axis ** grid.rank
    for lo in range(0, size, _CSV_BLOCK):
        rows = np.arange(lo, min(lo + _CSV_BLOCK, size))
        yield ([axis[i] for i in np.unravel_index(rows, grid.shape)]
               + [c[rows] for c in cols])


def _cmd_spherical(args) -> ResultRecord:
    rs = build_root_system(args.group)
    n, box = args.grid
    grid = RadialGrid(rs.rank, box, n)
    scalars: dict = {}
    blank = ()

    if args.action == "eval":
        if not args.lam:
            raise ConfigError("spherical eval needs --lambda")
        lam = np.array(args.lam)
        if lam.size != rs.rank:
            raise ConfigError(f"--lambda needs {rs.rank} components for "
                              f"{rs.name}, got {lam.size}")
        fld = spherical_function_field(rs, lam, grid)
        header = [f"h{i}" for i in range(rs.rank)] + ["re", "im"]
        rows = _field_csv_rows(grid, fld.values.real, fld.values.imag)
        blank = ("re", "im")      # φ_λ at chamber-wall nodes
        scalars["lambda"] = [float(v) for v in lam]
    elif args.action == "transform":
        f = _profile(args, rs)
        ns, sbox = args.spectral_grid or (n, box)
        sgrid = RadialGrid(rs.rank, sbox, ns)
        fhat, singular = spectral_to_plain(
            rs, spherical_transform(rs, f, sgrid))
        header = [f"lam{i}" for i in range(rs.rank)] + ["re", "im", "singular"]
        rows = _field_csv_rows(sgrid, fhat.real, fhat.imag,
                               singular.astype(int))
        scalars["init_rate"] = args.init.rate
    else:  # roundtrip
        f = _profile(args, rs)
        ns, sbox = args.spectral_grid or (max(n, 512), max(box, 16.0))
        err = roundtrip_error(rs, f, RadialGrid(rs.rank, sbox, ns))
        scalars["roundtrip_relative_l2"] = float(err)
        rows, header = [], []

    artifacts = _put_csv(args.out, header, rows, blank) if header else []
    return ResultRecord(f"spherical {args.action}",
                        {"group": rs.name, "grid": [n, box]},
                        scalars, artifacts)


def _cmd_evolve(args) -> ResultRecord:
    rs = build_root_system(args.group)
    mode = GridMode.SCALED if args.mode == "scaled" else GridMode.FIXED
    f = _profile(args, rs)
    if args.method == "closed":
        result = group_propagate_closed_form(rs, f, args.t, mode)
    else:
        result = group_propagate_spectral(rs, f, args.t, mode=mode)

    uphi, out_grid = result.field.values, result.field.grid
    header = [f"h{i}" for i in range(rs.rank)] + ["re_uphi", "im_uphi",
                                                  "abs_u"]
    rows = _field_csv_rows(out_grid, uphi.real, uphi.imag,
                           plain_magnitude(rs, result))
    # u = uφ/φ is NaN at chamber-wall nodes
    artifacts = (_put_csv(args.out, header, rows, blank=("abs_u",))
                 if args.out else [])
    scalars = {"t": args.t, "method": result.method.value,
               "output_mode": result.output_grid_mode.value,
               "out_half_width": out_grid.half_width,
               "out_points": out_grid.points_per_axis}
    return ResultRecord("evolve",
                        {"group": rs.name, "grid": list(args.grid),
                         "init": {"rate": args.init.rate,
                                  "chirp": args.init.chirp}},
                        scalars, artifacts)


def _cmd_hardy(args) -> ResultRecord:
    rs = build_root_system(args.group)
    report = uniqueness_experiment(rs, _profile(args, rs), args.t0,
                                   tol_crit=args.tol_crit)
    payload = {
        "system": rs.name, "t0": args.t0,
        "classification": report.classification_name,
        "product": None if report.degenerate else report.verdict.product,
        "rate_f": None if report.degenerate else report.envelope_f.rate,
        "rate_u": None if report.degenerate else report.envelope_u.rate,
        "residual_f": report.residual_f,
        "residual_u": report.residual_u,
        "sup_u": report.sup_u,
        "tol_crit": args.tol_crit,
    }
    line = _json(payload) + "\n"
    artifacts = _put(args.out, lambda fh: fh.write(line))
    return ResultRecord("hardy-check",
                        {"system": rs.name, "grid": list(args.grid)},
                        {"classification": report.classification_name},
                        artifacts)


def _cmd_decay_fit(args) -> ResultRecord:
    rs = build_root_system(args.group)
    times = list(args.times or np.geomspace(1.0, 10.0, 8))
    slope, target, reports = decay_exponent_fit(rs, _profile(args, rs),
                                                args.p, times)
    tol = L2_SLOPE_TOL if args.p == 2 else DECAY_SLOPE_TOL
    passed = abs(slope - target) <= tol
    artifacts = _put_csv(args.out, ["t", "weighted_norm"],
                         [([r.t for r in reports],
                           [r.weighted_norm for r in reports])]
                         ) if args.out else []
    summary = {"slope": float(slope), "target": float(target),
               "tolerance": tol, "passed": bool(passed),
               "p": args.p}
    sys.stdout.write(_json(summary) + "\n")
    return ResultRecord("decay-fit", {"group": rs.name,
                                      "grid": list(args.grid)},
                        summary, artifacts)


def _cmd_strichartz(args) -> ResultRecord:
    rs = build_root_system(args.group)
    p_adm, q_adm = strichartz_pair(rs.rank)
    seq = strichartz_norm(rs, _profile(args, rs), args.tmax,
                          refinements=args.levels,
                          dyadic_levels=args.dyadic)
    cauchy = abs(seq[-1] - seq[-2]) / seq[-1] if seq[-1] else 0.0
    passed = cauchy <= CAUCHY_TOL
    artifacts = _put_csv(args.out, ["level", "spacetime_norm"],
                         [(np.arange(len(seq)), seq)]) if args.out else []
    summary = {"p": f"{p_adm}", "q": f"{q_adm}", "levels": [float(v) for v in seq],
               "cauchy": float(cauchy), "passed": bool(passed)}
    sys.stdout.write(_json(summary) + "\n")
    return ResultRecord("strichartz", {"group": rs.name,
                                       "grid": list(args.grid)},
                        summary, artifacts)


def _cmd_heisenberg(args) -> ResultRecord:
    scalars: dict = {}
    if args.action == "geodesic":
        s = np.linspace(0.0, args.smax, args.steps)
        rows = [(s, *geodesic_coords(args.beta, args.tparam, s))]
        header = ["s", "x", "u", "xi"]
    elif args.action == "integrand":
        k_max = singularity_count(args.t, args.lmax)
        lams = np.linspace(-args.lmax, args.lmax, args.steps)
        vals = np.full(lams.shape, complex(np.nan, np.nan))
        for i, lam in enumerate(lams):
            try:
                vals[i] = schrodinger_integrand(float(lam), args.x, args.u,
                                                args.t)
            except EvaluationAtSingularity:
                continue        # an empty cell, the one kind allowed here
            if not np.isfinite(vals[i]):
                raise NonFiniteValue(f"integrand {vals[i]} at λ = {lam:g}")
        rows = [(lams, vals.real, vals.imag, [abs(v) for v in vals])]
        header = ["lambda", "re", "im", "abs"]
        # the first few kπ/t; past them only their count, never the list
        scalars["singularities"] = singularities(
            args.t, min(k_max, _SINGULARITIES_SHOWN)) if k_max else []
        if k_max > _SINGULARITIES_SHOWN:
            scalars["singularity_count"] = k_max
    else:  # heat
        v = heat_kernel(args.x, args.u, args.xi, args.t, args.tol)
        scalars.update({"re": float(v.real), "im": float(v.imag),
                        "tol": args.tol})
        rows, header = [], []
    # the integrand is NaN at its singularities kπ/t, and only there
    blank = header[1:] if args.action == "integrand" else ()
    artifacts = _put_csv(args.out, header, rows, blank) if header else []
    if scalars:
        sys.stdout.write(_json(scalars) + "\n")
    return ResultRecord(f"heisenberg {args.action}", {}, scalars, artifacts)


def _cmd_reproduce(args) -> ResultRecord:
    rows = acceptance.run_all(seed=args.seed, profile=args.profile)
    table = acceptance.render_table(rows)
    jsonl = acceptance.serialize_rows(rows)
    artifacts = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, text in (("acceptance.jsonl", jsonl),
                           ("acceptance.txt", table + "\n")):
            artifacts += _put(os.path.join(args.out, name),
                              lambda fh, text=text: fh.write(text))
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

class _Parser(argparse.ArgumentParser):
    """argparse raising ConfigError (exit 2); -1e-3 and -inf are values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise ConfigError(message)


def _arg(parse):
    """A `config` parser as an argparse `type=`: its ConfigError becomes
    argparse's usage error, which names the flag."""
    def typed(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lsg", allow_abbrev=False,
        description="Spherical transforms, exact Schrödinger propagators and "
                    "uniqueness certification on complex semi-simple groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def common(p):
        p.add_argument("--config", help="file of flag = value lines, taken "
                                        "as defaults of this subcommand")
        p.add_argument("--preset", help="bundled config by name (e.g. lemma1)")
        p.add_argument("--grid", type=_arg(parse_grid), default=(512, 12.0),
                       help="N,L (default 512,12)")
        p.add_argument("--init", type=_arg(parse_init), default=InitData(),
                       help="gaussian:a=<a>[,chirp=<c>]")
        p.add_argument("--out", help="artifact output path")
        p.add_argument("--group", default="A1",
                       help="root system (A1, A2, B2, G2, products) or "
                            "euclid:n for R^n")

    p = command("rootsys", "root-system info", _cmd_rootsys)
    p.add_argument("action", choices=["info"])
    p.add_argument("name")
    p.add_argument("--normalization", type=float, default=1.0)
    p.add_argument("--out")

    p = command("spherical", "spherical functions and transforms",
                _cmd_spherical)
    p.add_argument("action", choices=["eval", "transform", "roundtrip"])
    common(p)
    p.add_argument("--lambda", dest="lam", type=_arg(parse_floats),
                   help="spectral vector, comma separated")
    p.add_argument("--spectral-grid", type=_arg(parse_grid),
                   help="N,L of the spectral grid of transform and roundtrip")

    p = command("evolve", "propagate bi-invariant initial data", _cmd_evolve)
    common(p)
    p.add_argument("--t", type=_arg(positive), default=1.0)
    p.add_argument("--method", choices=["closed", "spectral"], default="closed")
    p.add_argument("--mode", choices=["scaled", "fixed"], default="scaled")

    p = command("hardy-check", "uniqueness-threshold certification", _cmd_hardy)
    common(p)
    p.add_argument("--t0", type=_arg(positive), required=True)
    p.add_argument("--tol-crit", type=float, default=TOL_CRIT_DEFAULT)

    p = command("decay-fit", "dispersive decay exponent fit", _cmd_decay_fit)
    common(p)
    p.add_argument("--p", type=_arg(finite), default=1.0)
    p.add_argument("--times", type=_arg(parse_times),
                   help="comma-separated times (default geomspace 1..10)")

    p = command("strichartz", "space-time norm stabilization", _cmd_strichartz)
    common(p)
    p.add_argument("--tmax", type=_arg(positive), default=2.0)
    p.add_argument("--levels", type=_arg(int_at_least(2)), default=4)
    p.add_argument("--dyadic", type=_arg(int_at_least(1)), default=8)

    p = command("heisenberg", "Heisenberg-group explorer", _cmd_heisenberg)
    p.add_argument("action", choices=["geodesic", "integrand", "heat"])
    p.add_argument("--beta", type=_arg(finite), default=0.0)
    p.add_argument("--tparam", type=_arg(nonzero), default=1.0)
    p.add_argument("--smax", type=_arg(finite), default=10.0)
    p.add_argument("--steps", type=_arg(int_at_least(0)), default=200)
    p.add_argument("--t", type=_arg(positive), default=1.0)
    for flag in ("--x", "--u", "--xi"):
        p.add_argument(flag, type=_arg(finite), default=0.0)
    p.add_argument("--lmax", type=_arg(finite), default=8.0)
    p.add_argument("--tol", type=_arg(positive), default=1e-10)
    p.add_argument("--out")

    p = command("reproduce", "run the acceptance suite", _cmd_reproduce)
    p.add_argument("--profile", choices=["full", "quick"], default="full")
    p.add_argument("--seed", type=_arg(int_at_least(0)), default=42)
    p.add_argument("--out", help="directory for acceptance artifacts")
    return ap


def _with_config(argv: list[str]) -> list[str]:
    """argv with the flags of its --preset, then of its --config, put just
    after the subcommand: argparse keeps the last value of a flag, so the
    user's own flags override them."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--preset")
    pre.add_argument("--config")
    given, _ = pre.parse_known_args(argv[1:])
    defaults = []
    if given.preset:
        defaults += config_args(preset_text(given.preset))
    if given.config:
        with open(given.config) as fh:
            defaults += config_args(fh.read())
    return argv[:1] + defaults + argv[1:]


# exit code by error type, the first match in this order
_EXIT_CODES = (((ConfigError, OSError), 2), (_AcceptanceFailure, 4),
               ((LsgError, ArithmeticError), 3))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        start = time.monotonic()
        # float events are no error: what is written is checked instead
        with np.errstate(all="ignore"):
            record = args.func(args)
        record.duration_s = time.monotonic() - start
        sys.stdout.write(record.emit() + "\n")
        sys.stdout.flush()
    except SystemExit as exc:       # --help
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # the reader is gone: send what is still buffered for stdout to
        # the null device, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (LsgError, OSError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
