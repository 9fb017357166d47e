"""Uniform box grids, sampled radial fields, and Fourier kernels.

Grid convention: per axis, N (even) nodes x_k = -L + k·(2L/N) on [-L, L),
so 0 is always a node. Quadrature is the trapezoid rule in the form it
takes for integrands that have already decayed below tolerance at the
boundary: spacing^rank times a pairwise sum.

Two transform paths share one convention  F(xi) = h^l * sum_k e^{sign*i<xi,x_k>} v_k:

* `fourier_native`  - FFT, sign -1, output on the dual grid
                      xi_j = (j - N/2)*2pi/(N h); no library path calls it:
                      the tests hold the SCALED sandwich's dual-grid sum to
                      it, and the benchmark's tracer wraps it
* `fourier_at`      - chirp-z (Bluestein), either sign, any uniform output
                      axis per axis, O((N+M) log(N+M)) per axis for M
                      output nodes

Both apply their 1-D factors per axis and run their FFTs in place;
`fourier_at` streams the rows of each axis through one work buffer of at
most _BLOCK_VALUES complex values (or one row), so beside its input and
result it holds no array of the FFT length times the number of rows.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall

_UNIFORM_RTOL = 1e-12     # node drift allowed on a "uniform" fourier_at axis
TAIL_TOL = 1e-12          # boundary tail allowed, relative to the peak
_BLOCK_VALUES = 2**14     # complex values per chirp-z work buffer, or one row


class Representation(enum.Enum):
    """Whether a field stores u itself or the conjugated profile u·φ."""
    PLAIN = "plain"
    CONJUGATED = "conjugated"


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    SPECTRAL = "spectral"


class GridMode(enum.Enum):
    SCALED = "scaled"
    FIXED = "fixed"


@dataclass(frozen=True)
class RadialGrid:
    """Uniform Cartesian lattice on [-half_width, half_width)^rank."""

    rank: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer))
                   for v in (self.rank, self.points_per_axis)):
            raise ValueError("rank and points_per_axis must be integers")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not 0 < 2.0 * self.half_width < np.inf:   # else the axis is NaN
            raise ValueError(f"half_width {self.half_width} is not positive "
                             "with a finite width")
        n = self.points_per_axis
        if n < 2 or n % 2 != 0:
            raise ValueError("points_per_axis must be even and >= 2")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.rank

    @property
    def axis(self) -> np.ndarray:
        """1-D node coordinates (shared by every axis)."""
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    def broadcast_axes(self) -> list[np.ndarray]:
        """The axis once per dimension, the d-th shaped to vary along axis
        d only; sums and products of them broadcast to the grid's shape."""
        return [self.axis.reshape((-1,) + (1,) * (self.rank - 1 - d))
                for d in range(self.rank)]

    def radius_sq(self) -> np.ndarray:
        """|x|^2 at every node, shape = self.shape."""
        out = np.zeros(self.shape)
        for x in self.broadcast_axes():
            out += x * x
        return out

    def cell_volume(self) -> float:
        return self.spacing ** self.rank

    def dual(self) -> "RadialGrid":
        """The FFT-native frequency grid (same N, half-width pi/spacing)."""
        return RadialGrid(self.rank, np.pi / self.spacing, self.points_per_axis)

    def scaled(self, factor: float) -> "RadialGrid":
        half = self.half_width * factor
        if not 2.0 * half < np.inf:     # a computed box, so not a ValueError
            raise GridTooSmall(f"box {self.half_width:g} x {factor:g} overflows")
        return RadialGrid(self.rank, half, self.points_per_axis)


@dataclass(frozen=True)
class BiInvariantField:
    """Complex samples of a radial profile on a RadialGrid.

    `representation` records whether values are u (PLAIN, Weyl-invariant)
    or u·φ (CONJUGATED, Weyl-antisymmetric). PLAIN fields recovered by
    dividing by φ carry NaN at wall nodes.

    A CONJUGATED field holds g = u·φ, and it resolves itself: `tail`,
    `y_sup` and `xi_sup` are worked out on first use and kept with the
    field, as three floats, so one field propagated to many times, boxed
    and gridded is measured once. `xi_sup` costs an FFT, run only when a
    caller reads it. The record relies on `values` being read-only, which
    __post_init__ makes them; writing through another view of the same
    memory would leave it stale. A PLAIN field keeps nothing: callers
    conjugate it once per call (`spherical.conjugated`).
    """

    grid: RadialGrid
    values: np.ndarray
    representation: Representation

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.grid.shape}")
        self.values.setflags(write=False)

    def with_values(self, values: np.ndarray,
                    representation: Representation | None = None) -> "BiInvariantField":
        return BiInvariantField(self.grid, np.ascontiguousarray(values),
                                representation or self.representation)

    def _resolution(self) -> dict:
        """The kept scalars, in the instance dict, which the frozen
        dataclass's fields, equality and repr do not see; the tail and
        y_sup come together, from one |g|."""
        if self.representation is not Representation.CONJUGATED:
            raise ValueError("only a CONJUGATED field keeps its resolution")
        kept = self.__dict__.get("_record")
        if kept is None:
            mag = np.abs(self.values)
            kept = {"tail": _tail_of(mag), "y_sup": _support_of(mag, self.grid)}
            self.__dict__["_record"] = kept
        return kept

    @property
    def tail(self) -> float:
        """`boundary_tail` of g: NaN if g is not finite."""
        return self._resolution()["tail"]

    @property
    def y_sup(self) -> float:
        """g's spatial support edge, `_support_of` of |g|."""
        return self._resolution()["y_sup"]

    @property
    def xi_sup(self) -> float:
        """g's Fourier support edge, read from fftn(g) by `_xi_sup`."""
        return self.fourier_edge(lambda: np.fft.fftn(self.values))

    def fourier_edge(self, spectrum: Callable[[], np.ndarray]) -> float:
        """`xi_sup`, on first use read from spectrum(), which returns
        fftn(g): a caller that needs that spectrum anyway saves the FFT."""
        kept = self._resolution()
        if "xi_sup" not in kept:
            kept["xi_sup"] = _xi_sup(spectrum(), self.grid)
        return kept["xi_sup"]


@dataclass(frozen=True)
class SpectralField:
    """The conjugated spectrum G(λ) = π(λ)·f̂(λ) on a spectral-side RadialGrid,
    the twin of a CONJUGATED field's u·φ: |W|·π(ρ)·i^m times the Fourier
    transform of f·φ, smooth across the Weyl walls, where f̂ is undefined.
    `spherical.spectral_to_plain` recovers f̂."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError("values shape does not match grid")
        self.values.setflags(write=False)


# --- quadrature and norms ---------------------------------------------------

def simpson_weights(panels: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, …, 4, 1 (times step/3) over
    `panels` panels; ValueError unless `panels` is an even integer >= 2."""
    if not (isinstance(panels, (int, np.integer)) and panels >= 2
            and panels % 2 == 0):
        raise ValueError(f"need an even integer >= 2 panels, got {panels!r}")
    w = np.where(np.arange(panels + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    return w


def lq_power(values: np.ndarray, grid: RadialGrid, q: float) -> float:
    """h^l·Σ|v|^q, the q-th power of the L^q(dH) norm."""
    return float((np.abs(values) ** q).sum() * grid.cell_volume())


def lq_norm(values: np.ndarray, grid: RadialGrid, q: float) -> float:
    """L^q(dH) norm over the grid; q = inf gives the nodewise sup."""
    if np.isinf(q):
        return float(np.abs(values).max())
    return lq_power(values, grid, q) ** (1.0 / q)


def l2_norm(values: np.ndarray, grid: RadialGrid) -> float:
    return lq_norm(values, grid, 2.0)


def relative_l2(a: np.ndarray, b: np.ndarray, grid: RadialGrid) -> float:
    """Relative L² distance ||a-b|| / ||b||."""
    return l2_norm(a - b, grid) / l2_norm(b, grid)


def boundary_tail(values: np.ndarray) -> float:
    """max |values| over the outermost node shells, relative to the peak;
    NaN where the peak is not finite."""
    return _tail_of(np.abs(values))


def _tail_of(a: np.ndarray) -> float:
    """`boundary_tail` of the magnitudes `a`."""
    peak = a.max()
    if peak == 0:
        return 0.0
    worst = max(max(a.take(0, axis=ax).max(), a.take(-1, axis=ax).max())
                for ax in range(a.ndim))
    return float(worst / peak) if peak < np.inf else np.nan


def require_tail(values: np.ndarray, tol: float = TAIL_TOL,
                 what: str = "field") -> None:
    check_tail(boundary_tail(values), tol, what)


def check_tail(tail: float, tol: float, what: str) -> None:
    """GridTooSmall unless a measured boundary tail is finite and <= tol."""
    if not np.isfinite(tail):
        raise GridTooSmall(f"{what} is not finite")
    if tail > tol:
        raise GridTooSmall(
            f"{what} boundary tail {tail:.2e} exceeds {tol:.0e}; "
            "enlarge the box")


def _support_of(a: np.ndarray, grid: RadialGrid) -> float:
    """Support radius of the magnitudes `a`: the largest node |x|_inf where
    `a` still exceeds 1e-12·peak, and at least the grid spacing, so a
    support is never narrower than one cell."""
    peak = a.max()
    if not 0 < peak < np.inf:
        return grid.spacing
    mask = a > 1e-12 * peak
    ax = np.abs(grid.axis)
    out = grid.spacing
    for d in range(a.ndim):
        keep = mask.any(axis=tuple(i for i in range(a.ndim) if i != d))
        out = max(out, float(ax[keep].max()))
    return out


def _xi_sup(spec: np.ndarray, grid: RadialGrid) -> float:
    """Fourier support edge of data on `grid`, read from its fftn `spec` on
    the dual grid (the Fourier sum's other factors are unimodular)."""
    return _support_of(np.fft.fftshift(np.abs(spec)), grid.dual())


# --- Fourier kernels --------------------------------------------------------

def _times_axes(values: np.ndarray, factor: np.ndarray, scale: complex = 1.0,
                out: np.ndarray | None = None) -> np.ndarray:
    """values·scale·f(x_1)·…·f(x_l) into `out` (new if None), one axis at a
    time: a grid-sized outer product costs more to allocate than to fill."""
    rank = values.ndim
    first = np.reshape(scale * factor, (-1,) + (1,) * (rank - 1))
    out = np.multiply(values, first, out=out)
    for d in range(1, rank):
        out *= factor.reshape((-1,) + (1,) * (rank - 1 - d))
    return out


def fourier_native(values: np.ndarray, grid: RadialGrid
                   ) -> tuple[RadialGrid, np.ndarray]:
    """FFT evaluation of h^l Σ_k e^{-i⟨ξ,x⟩} v_k on the dual grid.

    With x_k = -L + k h and ξ_j = (j - N/2)·2π/(N h), the kernel factors
    per axis into the standard DFT between (-1)^k and the boundary phase
    e^{iξ_jL} = (-1)^{j-N/2}.
    """
    n = grid.points_per_axis
    alt = (-1.0) ** np.arange(n)
    out = _times_axes(np.asarray(values, dtype=complex), alt)
    np.fft.fftn(out, out=out)
    return grid.dual(), _times_axes(out, (-1.0) ** (n // 2) * alt,
                                    grid.spacing ** grid.rank, out=out)


def _fast_fft_length(n: int) -> int:
    """Smallest 5-smooth length 2^a·3^b·5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _uniform_step(xi: np.ndarray) -> float:
    """Node spacing of a uniform axis (0 for one node); ValueError otherwise."""
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("fourier_at output axes must be non-empty 1-D arrays")
    if xi.size == 1:
        return 0.0
    step = (xi[-1] - xi[0]) / (xi.size - 1)
    drift = np.abs(xi - (xi[0] + step * np.arange(xi.size))).max()
    if drift > _UNIFORM_RTOL * np.abs(xi).max():
        raise ValueError(
            f"fourier_at needs uniform output axes; node drift {drift:.2e}")
    return step


def _chirp_z_kernel(n: int, m: int, half_w: float, shift: int) -> np.ndarray:
    """FFT of e^{-i·half_w·(k + shift)²} for the lags -n < k < m, wrapped
    onto a 5-smooth length >= n + m - 1: the chirp-z plan's kernel."""
    size = _fast_fft_length(n + m - 1)
    lag = np.arange(size)
    lag = np.where(lag < m, lag, lag - size) + shift
    return np.fft.fft(np.exp(-1j * half_w * lag * lag))


def _chirp_z_plan(grid: RadialGrid, xi: np.ndarray, step: float, sign: int,
                  weight: np.ndarray | float = 1.0) -> tuple:
    """Pre-chirp (times `weight`), kernel spectrum and post-chirp per axis.

    With x = x_c + q·h and ξ = ξ_c + p·d, pq = (p² + q² - (p-q)²)/2 turns
    the sum into a convolution in p - q. The indices count from mid-axis,
    so the chirp angles stay small where the data live.
    """
    n, m, h = grid.points_per_axis, xi.size, grid.spacing
    kc, jc = n // 2, m // 2
    x_c = -grid.half_width + kc * h
    xi_c = xi[0] + jc * step
    q, p = np.arange(n) - kc, np.arange(m) - jc
    half_w = 0.5 * sign * step * h
    kernel_hat = _chirp_z_kernel(n, m, half_w, kc - jc)
    pre = weight * np.exp(1j * (sign * xi_c * h * q + half_w * q * q))
    post = h * np.exp(1j * (sign * (xi_c * x_c + step * x_c * p)
                            + half_w * p * p))
    return pre, kernel_hat, post


def _chirp_z_axis(values: np.ndarray, ax: int, *plans: tuple) -> np.ndarray:
    """fourier_at along axis `ax` alone, by one `_chirp_z_plan` or by
    several in turn, each taking the last one's output nodes as its input.

    The rows along `ax` pass through one work buffer, a block at a time:
    at most _BLOCK_VALUES complex values, or one row where a row is
    longer. A block is whole rows of the axes after `ax` for one or more
    indices of the axes before it, or part of them for one index. Every
    plan runs on a block before the next block starts, and the last
    post-chirp writes the block into the C-ordered result.
    """
    shape = values.shape
    outer, inner = math.prod(shape[:ax]), math.prod(shape[ax + 1:])
    src = values.reshape(outer, shape[ax], inner)
    m = plans[-1][2].size
    result = np.empty(shape[:ax] + (m,) + shape[ax + 1:], dtype=complex)
    dst = result.reshape(outer, m, inner)
    width = max(kernel_hat.size for _, kernel_hat, _ in plans)
    per_block = max(1, _BLOCK_VALUES // width)
    step_i = min(inner, per_block)
    step_o = min(outer, max(1, per_block // inner))
    buf = np.empty((step_o * step_i, width), dtype=complex)
    for o in range(0, outer, step_o):
        for i in range(0, inner, step_i):
            block = (slice(o, o + step_o), slice(None), slice(i, i + step_i))
            rows = src[block].transpose(0, 2, 1)
            work = buf[:rows.shape[0] * rows.shape[1]].reshape(
                rows.shape[:2] + (width,))
            for k, (pre, kernel_hat, post) in enumerate(plans, 1):
                row = work[..., :kernel_hat.size]
                np.multiply(rows, pre, out=row[..., :pre.size])
                row[..., pre.size:] = 0.0
                # numpy.fft takes out= from NumPy 2.0 on (pyproject's floor)
                np.fft.fft(row, axis=-1, out=row)
                row *= kernel_hat
                np.fft.ifft(row, axis=-1, out=row)
                rows = row[..., :post.size]
                np.multiply(rows, post, out=rows if k < len(plans)
                            else dst[block].transpose(0, 2, 1))
    return result


def fourier_at(values: np.ndarray, grid: RadialGrid,
               out_axes: list[np.ndarray], sign: int = -1) -> np.ndarray:
    """The same sum, with either sign, on caller-chosen uniform output
    axes, by chirp-z.

    `out_axes` holds one uniform 1-D node array per axis (a single node
    counts as uniform); any other axis raises ValueError. Each axis costs
    three FFTs of a 5-smooth length >= N + M - 1 (Bluestein's chirp-z
    algorithm), O((N+M) log(N+M)); axes with equal (length, first, last)
    share one plan.

    Axis layout: the rows along an axis go through one work buffer, a
    block of rows at a time (`_chirp_z_axis`), at most _BLOCK_VALUES
    complex values, or one row where a row is longer. The pre-chirp
    multiply writes a block, with the transformed axis last, into the
    buffer zero-padded to the FFT length; both FFTs transform it in place
    along contiguous memory; the post-chirp multiply writes the block
    straight into the C-ordered result, which the next axis reads. No
    (rows, FFT length) array and no post-chirp copy is allocated. The
    result is C-contiguous and the same to the bit as transforming each
    axis along its own stride, whatever the block size.
    """
    out = np.asarray(values, dtype=complex)
    plans: dict[tuple[int, float, float], tuple] = {}
    for ax, xi in enumerate(out_axes):
        xi = np.asarray(xi, dtype=float)
        step = _uniform_step(xi)
        key = (xi.size, float(xi[0]), float(xi[-1]))
        if key not in plans:
            plans[key] = _chirp_z_plan(grid, xi, step, sign)
        out = _chirp_z_axis(out, ax, plans[key])
    return out


# --- lattice-compatible Weyl symmetry checks --------------------------------

def _weyl_lattice_maps(grid: RadialGrid, matrices: np.ndarray,
                       signs: np.ndarray) -> list[tuple]:
    """(det s, source index arrays, valid-node mask) for each Weyl element
    s that maps the lattice onto itself.

    v[src] is v(sH) on the valid nodes; a signed permutation matrix is
    lattice-compatible, except that a reflected axis loses its node -L.
    Elements whose matrices move nodes off the lattice are skipped, and so
    is the identity, whose residual is exactly 0; every supported system
    keeps at least one nontrivial element (e.g. -1 on a rank-1 factor)
    lattice-compatible.
    """
    n = grid.points_per_axis
    grids_idx = np.meshgrid(*([np.arange(n)] * grid.rank), indexing="ij")
    maps = []
    for mat, sgn in zip(matrices, signs):
        rounded = np.round(mat)
        if (np.abs(mat - rounded).max() > 1e-12
                or np.array_equal(rounded, np.eye(grid.rank))):
            continue
        if not np.all(np.isin(rounded, (-1.0, 0.0, 1.0))):
            continue
        ok = np.ones(grid.shape, dtype=bool)
        src = []
        for out_ax in range(grid.rank):
            nz = np.nonzero(rounded[out_ax])[0]
            if len(nz) != 1:
                ok = None
                break
            src_ax = int(nz[0])
            if rounded[out_ax, src_ax] > 0:
                idx = grids_idx[src_ax]
            else:
                idx = (n - grids_idx[src_ax]) % n
                ok &= grids_idx[src_ax] != 0
            src.append(idx)
        if ok is not None:
            maps.append((sgn, tuple(src), ok))
    return maps


def _mapped_residual(values: np.ndarray, maps, odd: bool) -> float:
    """Max |v(sH) - (det s)^k v(H)| relative to max |v|, over the maps
    built by `_weyl_lattice_maps`: k = 1 for antisymmetric (odd=True)
    fields, 0 for invariant ones."""
    scale = np.abs(values).max()
    if scale == 0:
        return 0.0
    worst = 0.0
    for sgn, src, ok in maps:
        mapped = values[src]
        target = (sgn if odd else 1.0) * values
        diff = np.abs(mapped - target)[ok]
        if diff.size:
            worst = max(worst, float(diff.max() / scale))
    return worst

