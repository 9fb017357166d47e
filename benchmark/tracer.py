"""Span tracer installed around lsg module functions from outside.

Each wrapped function records one span per call: (name, start, end,
parent, error) with perf_counter_ns stamps, kept in memory and written out
when the run ends. A name is patched in every lsg module that binds the
same object, because `from .grids import fourier_at` gives `propagator`
and `spherical` their own reference. A wrapped name the code no longer
defines is reported with zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "lsg"
# (module, attribute path) of every wrapped function; a dotted attribute
# path names a method on a class
TARGETS = (
    ("grids", "fourier_at"),
    ("grids", "fourier_native"),
    ("grids", "RadialGrid.radius_sq"),
    ("rootsystem", "build_root_system"),
    ("propagator", "_refine_fft"),
    ("propagator", "_chirp"),
    ("propagator", "_chirp_sandwich"),
    ("propagator", "group_propagate_closed_form"),
    ("propagator", "euclidean_propagate"),
    ("propagator", "group_propagate_spectral"),
    ("propagator", "duhamel_solve"),
    ("propagator", "calibrate_constant"),
    ("spherical", "denominator_on_grid"),
    ("spherical", "spherical_transform"),
    ("spherical", "synthesize_conjugated"),
    ("spherical", "pi_product"),
    ("spherical", "_is_spectral_singular"),
    ("spherical", "plancherel_constant"),
    ("estimates", "decay_exponent_fit"),
    ("estimates", "strichartz_norm"),
    ("estimates", "strichartz_inhomogeneous_check"),
    ("hardy", "uniqueness_experiment"),
    ("hardy", "fit_envelope_report"),
    ("heisenberg", "projection_residual"),
)


def _closed_form_name(args, kwargs) -> str:
    """group_propagate_closed_form(rs, field, t, mode=SCALED, ...) by mode."""
    mode = args[3] if len(args) > 3 else kwargs.get("mode")
    fixed = mode is not None and getattr(mode, "value", None) == "fixed"
    return "propagator.closed_fixed" if fixed else "propagator.closed_scaled"


def _is_scaled(args, kwargs, index: int) -> bool:
    mode = args[index] if len(args) > index else kwargs.get("mode")
    return mode is None or getattr(mode, "value", None) == "scaled"


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, error]
        self.counters: dict[str, float] = {}
        self.phase = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._error_type = Exception

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([f"{self.phase}.{name}", time.perf_counter_ns(),
                           0, parent, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-level work, e.g. one acceptance criterion."""
        idx = self._open(name)
        error = False
        try:
            yield
        except self._error_type:
            error = True
            raise
        finally:
            self._close(idx, error)

    def count(self, name: str, amount: float) -> None:
        key = f"{self.phase}.{name}"
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, label: str, fn):
        closed_form = label == "propagator.group_propagate_closed_form"
        scaled_at = {"propagator.group_propagate_closed_form": 3,
                     "propagator.euclidean_propagate": 2}.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _closed_form_name(args, kwargs) if closed_form else label
            if label == "grids.fourier_at":
                self._count_kernel(args, kwargs)
            idx = self._open(name)
            error = False
            try:
                result = fn(*args, **kwargs)
            except self._error_type:
                error = True
                raise
            finally:
                self._close(idx, error)
            if scaled_at is not None and _is_scaled(args, kwargs, scaled_at):
                nodes = getattr(getattr(getattr(result, "field", None),
                                        "values", None), "size", 0)
                self.count("propagator.scaled.out_nodes", nodes)
            return result

        return wrapper

    def _count_kernel(self, args, kwargs) -> None:
        """Bytes of the dense M×N kernels fourier_at(values, grid, out_axes)
        builds, Σ 16·M·N over axes; skipped if the signature has changed."""
        try:
            n = args[1].points_per_axis
            axes = args[2] if len(args) > 2 else kwargs["out_axes"]
            mb = sum(16.0 * len(xi) * n for xi in axes) / 1e6
        except (AttributeError, IndexError, KeyError, TypeError):
            return
        self.count("grids.fourier_at.kernel_mb", mb)

    # --- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever an lsg module binds it."""
        self.missing = []
        errors = importlib.import_module(f"{PACKAGE}.errors")
        self._error_type = errors.LsgError
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for mod_name, path in targets:
            label = f"{mod_name}.{path}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(label)
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- aggregation -------------------------------------------------------

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """calls, total_s, self_s and errors per span name over spans[first:last].

        Self time is the span's duration minus the durations of its direct
        wrapped children; spans nest because there is one thread of control.
        """
        spans = self.spans[first:last]
        child_ns = [0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if 0 <= parent < len(spans):
                child_ns[parent] += span[2] - span[1]
        out: dict[str, dict] = {}
        for span, kids in zip(spans, child_ns):
            rec = out.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "errors": 0})
            dur = span[2] - span[1]
            rec["calls"] += 1
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - kids) / 1e9
            rec["errors"] += int(span[4])
        return out

    def nested_calls(self, name: str, ancestor: str,
                     first: int = 0, last: int | None = None) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        count = 0
        for span in self.spans[first:last]:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count
