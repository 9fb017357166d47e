"""Exact free Schrödinger evolution, Euclidean and group-radial.

Equation convention: -i u_t = Δu, so u(t) = e^{itΔ}f and a Euclidean
Gaussian e^{-a|x|²} evolves to (1+4iat)^{-n/2} e^{-a|x|²/(1+4iat)}.

On a complex semi-simple group the conjugated profile does all the work:
g = f·φ evolves by the Euclidean propagator, times the phase e^{-it|ρ|²};
on euclid:n (no roots: φ ≡ 1, ρ = 0) that is Euclidean evolution itself.
With R(y) = e^{i|y|²/4t} g(y) that is the chirp–Fourier–chirp sandwich

    u(H,t)·φ(H) = C · t^{-l/2} · e^{-i(t|ρ|² - |H|²/4t)} · R̂(H/2t),

with the Euclidean constant C = (4πi)^{-l/2}; there is nothing to fit.
The spectral-synthesis oracle checks it (acceptance criterion 4), axis by
axis, since its transform and synthesis constants cancel to (2π)^{-l}.

Output grids: SCALED runs the sandwich where the input grid resolves the
chirp on the data support (h·y_sup/t ≤ π), with nodes at H = 2t·ξ on the
FFT dual grid, tracking dispersive spreading; at smaller t it applies the
multiplier e^{itΔ}g = ifft(e^{-it|ξ|²}·fft(g)) on the input grid,
zero-padded to hold u(t) (at most about 3× the box per axis). Either is
one FFT pass between 1-D factors, applied in place axis by axis, that
carry every chirp, DFT sign and constant (h^l, t^{-l/2}, C, e^{-it|ρ|²}).
FIXED always runs the sandwich, evaluated at the caller's uniform output
grid by chirp-z, O((N+M) log(N+M)) per axis, grid-aligned for time series.

Every regime, guard and box reads the same few numbers of g: its boundary
tail, its support edge y_sup and its Fourier edge ξ_sup. A CONJUGATED
field works them out on first use and keeps them (`BiInvariantField`),
so a caller that evolves one profile to many times conjugates it once
(`spherical.conjugated`) and passes that on; a PLAIN input is conjugated
once per call. `_scaled_evolutions` evolves one field to many SCALED times
in one pass, sharing the multiplier's spectra and stacking the sandwich's
FFTs.

Duhamel's formula u(t) = S(t)f + i∫₀ᵗ S(t-s)ψ(s) ds needs S(τ) only on
the input grid, where it is the multiplier e^{-iτ(|ξ|²+|ρ|²)} on a box
zero-padded to the reach of the data and of every forcing sample. The
S(t - s) of one output time's Simpson nodes are powers of one step
S(t/steps), so `duhamel_solve` sums them in Horner form on the samples'
spectra: one FFT of the stacked samples per call, one inverse FFT per
time, and nothing kept between calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (ForcingNotAntisymmetrizable, GridTooSmall, InvalidTime,
                     UnderResolvedPhase)
from .grids import (TAIL_TOL, BiInvariantField, GridMode, Method,
                    RadialGrid, Representation, _chirp_z_axis,
                    _chirp_z_plan, _fast_fft_length, _mapped_residual,
                    _support_of, _tail_of, _times_axes, _weyl_lattice_maps,
                    _xi_sup, check_tail, fourier_at, simpson_weights)
from .rootsystem import RootSystemSpec, build_root_system
from .spherical import (conjugated, conjugated_with, denominator_on_grid,
                        spectral_input, to_plain)

_MAX_FFT_NODES = 2**24          # guard, in complex values, on the padded
                                # multiplier grid and on the rows × FFT
                                # length one spectral-oracle axis runs through
_STACK_VALUES = 2**16           # complex values per stack of SCALED FFTs
_ANTISYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class PropagationResult:
    """Evolved profile u·φ (CONJUGATED); on euclid:n, where φ ≡ 1, u."""

    field: BiInvariantField
    t: float
    method: Method
    output_grid_mode: GridMode


def gaussian_profile(grid: RadialGrid, rate: float,
                     chirp: float = 0.0) -> BiInvariantField:
    """PLAIN profile e^{-a|H|² + ic|H|²}; radial, hence Weyl-invariant."""
    if not (0 < rate < math.inf and math.isfinite(chirp)):
        raise ValueError("gaussian rate must be positive and finite, the "
                         f"chirp finite; got {rate}, {chirp}")
    vals = -(rate - 1j * chirp) * grid.radius_sq()
    return BiInvariantField(grid, np.exp(vals, out=vals), Representation.PLAIN)


def _chirp(axis: np.ndarray, t: float) -> np.ndarray:
    """e^{ix²/4t} on a 1-D axis, the angle reduced mod 2π beforehand."""
    return np.exp(1j * np.mod(axis**2 / (4.0 * t), 2.0 * np.pi))


def _chirp_sandwich(values: np.ndarray, grid: RadialGrid, t: float,
                    out_grid: RadialGrid | None,
                    scale: complex) -> tuple[RadialGrid, np.ndarray]:
    """scale·t^{-l/2}·e^{i|H'|²/4t}·R̂(H'/2t) with R = e^{i|y|²/4t}·values,
    R̂ evaluated at `out_grid` (default: `grid`) by chirp-z: the FIXED
    sandwich."""
    rank = grid.rank
    out = out_grid or grid
    rhat = fourier_at(_times_axes(values, _chirp(grid.axis, t)), grid,
                      [out.axis / (2.0 * t)] * rank, sign=-1)
    return out, _times_axes(rhat, _chirp(out.axis, t),
                            scale * t ** (-rank / 2.0), out=rhat)


def _scaled_sandwiches(values: np.ndarray, grid: RadialGrid, jobs
                       ) -> Iterator[tuple[float, RadialGrid, np.ndarray]]:
    """(t, H' grid, sandwich) for each (t, scale) job: `_chirp_sandwich`
    with H' = 2t·ξ on the dual grid, where R̂ is, per axis,
    h·(-1)^{j-N/2}·DFT((-1)^k·R)_j (see fourier_native).

    The input chirp and (-1)^k make the pre-factor, the sign, the output
    chirp and every constant the post-factor, around one in-place FFT.
    The FFTs of several times run as one, over a stack of at most
    _STACK_VALUES complex values (or of one time); each yielded array is a
    row of that stack.
    """
    n, rank = grid.points_per_axis, grid.rank
    alt = np.where(np.arange(n) % 2, -1.0, 1.0)    # (-1)^k, without pow
    post_sign = (-1.0) ** (n // 2) * alt
    dual = grid.dual()
    per_stack = max(1, _STACK_VALUES // values.size)
    for first in range(0, len(jobs), per_stack):
        chunk = jobs[first:first + per_stack]
        stack = np.empty((len(chunk),) + grid.shape, dtype=complex)
        for row, (t, _) in zip(stack, chunk):
            pre = _chirp(grid.axis, t)
            pre *= alt
            _times_axes(values, pre, out=row)
        np.fft.fftn(stack, axes=tuple(range(1, rank + 1)), out=stack)
        for row, (t, scale) in zip(stack, chunk):
            out = dual.scaled(2.0 * t)
            yield t, out, _times_axes(
                row, post_sign * _chirp(out.axis, t),
                scale * t ** (-rank / 2.0) * grid.spacing ** rank, out=row)


def _multiplier(field: BiInvariantField, jobs
                ) -> Iterator[tuple[float, RadialGrid, np.ndarray]]:
    """(t, padded grid, scale·e^{itΔ}g) for each (t, scale) job, g the
    values of the CONJUGATED `field`, by the Fourier multiplier e^{-it|ξ|²}.

    u(t) stays within reach = y_sup + 2t·ξ_sup of the origin (as in
    `reach_box`), so on the box zero-padded to reach the periodic
    evolution does not wrap around. That box is the output grid. Times
    with one padding share one spectrum of the padded data. Where ξ_sup
    is not yet known it is read from the unpadded spectrum, which then
    serves padding 0. Each time is one `_multiplier_step`, in place on
    the spectrum for its padding's last time.
    """
    grid = field.grid
    spectra: dict[int, np.ndarray] = {}     # by padding

    def unpadded() -> np.ndarray:
        spectra[0] = _padded_spectrum(field.values, 0)
        return spectra[0]

    groups: dict[int, list] = {}
    for t, scale in jobs:
        pad = _padding(field, t, field.fourier_edge(unpadded))
        groups.setdefault(pad, []).append((t, scale))
    for pad, group in sorted(groups.items()):
        spec = spectra.pop(pad, None)
        spectra.clear()
        if spec is None:
            spec = _padded_spectrum(field.values, pad)
        n = grid.points_per_axis + 2 * pad
        out = RadialGrid(grid.rank, grid.half_width + pad * grid.spacing, n)
        xi = 2.0 * np.pi * np.fft.fftfreq(n, grid.spacing)
        for k, (t, scale) in enumerate(group):
            last = k == len(group) - 1
            yield t, out, _multiplier_step(spec, xi, t, scale,
                                           spec if last else None)


def _multiplier_step(spec: np.ndarray, xi: np.ndarray, t: float,
                     scale: complex, out: np.ndarray | None) -> np.ndarray:
    """scale·e^{itΔ} from a padded spectrum on the frequencies ξ of each
    axis: e^{-it|ξ|²} and the scale per axis into `out` (new if None),
    then one in-place ifftn."""
    vals = _times_axes(spec, np.exp(-1j * np.mod(t * xi**2, 2.0 * np.pi)),
                       scale, out=out)
    return np.fft.ifftn(vals, out=vals)


_refine_fft = _multiplier_step  # the benchmark traces it by the upsampler's name


def _padding(field: BiInvariantField, t: float, xi_sup: float) -> int:
    """Nodes added per side so the box holds reach = y_sup + 2t·ξ_sup,
    rounded up so that N + 2·pad is an even 5-smooth FFT length;
    GridTooSmall where the padded grid passes _MAX_FFT_NODES."""
    grid = field.grid
    half = grid.points_per_axis // 2
    reach = field.y_sup + 2.0 * t * xi_sup
    pad = max(0, math.ceil((reach - grid.half_width) / grid.spacing))
    n = 2 * _fast_fft_length(half + pad)
    if n ** grid.rank > _MAX_FFT_NODES:
        raise GridTooSmall(f"SCALED multiplier needs {n} nodes/axis at t={t:g}")
    return n // 2 - half


def _padded_spectrum(values: np.ndarray, pad: int) -> np.ndarray:
    """fftn of the values zero-padded by `pad` nodes per side, in place."""
    spec = (np.pad(np.asarray(values, dtype=complex), pad) if pad
            else np.array(values, dtype=complex))
    return np.fft.fftn(spec, out=spec)


def reach_box(rs: RootSystemSpec, field: BiInvariantField, t: float) -> float:
    """Half-width max(L, y_sup + 2t·ξ_sup) of a box that holds u(t)·φ:
    free evolution moves g = f·φ, within y_sup of the origin, by at most
    2t·ξ_sup, ξ_sup its Fourier support edge. L is the field's half-width;
    GridTooSmall where twice the box overflows a float."""
    g = conjugated(rs, field)
    box = max(g.grid.half_width, g.y_sup + 2.0 * t * g.xi_sup)
    if not 2.0 * box < math.inf:
        raise GridTooSmall(f"t = {t:g} needs a box wider than floats")
    return box


def _fixed_chirp_guard(grid: RadialGrid, y_sup: float, t: float) -> None:
    """GridTooSmall where h·y_sup/t > 2π: the FIXED sandwich's chirp is not
    resolved on data supported within y_sup."""
    if grid.spacing * y_sup / t > 2.0 * np.pi:
        raise GridTooSmall(
            f"grid spacing {grid.spacing:.3g} cannot resolve the t={t:g} "
            "chirp on the data support; use SCALED mode or refine")


def _free_constant(rank: int) -> complex:
    """(4πi)^{-l/2}, the constant of the free kernel on R^l."""
    return (4.0 * np.pi * 1j) ** (-rank / 2.0)


# --- group propagator: closed form ----------------------------------------------

def calibrate_constant(rs: RootSystemSpec) -> complex:
    """(4πi)^{-l/2}, l the rank of rs: the closed form's constant, unfitted."""
    return _free_constant(rs.rank)


def group_propagate_closed_form(rs: RootSystemSpec, field: BiInvariantField,
                                t: float, mode: GridMode = GridMode.SCALED,
                                out_grid: RadialGrid | None = None
                                ) -> PropagationResult:
    """Closed-form evolution of bi-invariant data; returns u·φ, the
    Euclidean evolution of g = f·φ times e^{-it|ρ|²}, for 0 < t < ∞. With
    y_sup read from |g|, h·y_sup/t (twice the chirp's phase step per node
    at the data's edge) picks the regime: SCALED runs the sandwich up to
    π, the multiplier beyond; FIXED refuses beyond 2π. A CONJUGATED
    `field` keeps y_sup and its other resolution scalars between calls."""
    if not 0 < t < math.inf:
        raise InvalidTime(f"closed-form propagation needs 0 < t < inf, got {t}")
    if mode is GridMode.SCALED:
        _, out, vals = next(_scaled_evolutions(rs, field, [t]))
    else:
        g = _resolved(rs, field)
        _fixed_chirp_guard(g.grid, g.y_sup, t)
        scale = np.exp(-1j * t * float(rs.rho @ rs.rho))
        out, vals = _chirp_sandwich(g.values, g.grid, t, out_grid,
                                    scale * _free_constant(rs.rank))
    result = BiInvariantField(out, vals, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.CLOSED_FORM, mode)


def _resolved(rs: RootSystemSpec,
              field: BiInvariantField) -> BiInvariantField:
    """The field as g = f·φ (`conjugated`), its boundary tail checked."""
    g = conjugated(rs, field)
    check_tail(g.tail, TAIL_TOL, "conjugated profile")
    return g


def _scaled_evolutions(rs: RootSystemSpec, field: BiInvariantField, times
                       ) -> Iterator[tuple[float, RadialGrid, np.ndarray]]:
    """(t, grid, u·φ) of the SCALED closed form at each of `times`
    (0 < t < ∞), multiplier times first: one field to many times, where
    the multiplier shares spectra between times of one padding and the
    sandwich stacks its FFTs."""
    g = _resolved(rs, field)
    rho_sq = float(rs.rho @ rs.rho)
    edge = g.grid.spacing * g.y_sup
    wide = [(t, np.exp(-1j * t * rho_sq)) for t in times if edge / t > np.pi]
    near = [(t, np.exp(-1j * t * rho_sq) * _free_constant(rs.rank))
            for t in times if not edge / t > np.pi]
    yield from _multiplier(g, wide)
    yield from _scaled_sandwiches(g.values, g.grid, near)


def euclidean_propagate(field: BiInvariantField, t: float,
                        mode: GridMode = GridMode.SCALED,
                        out_grid: RadialGrid | None = None) -> PropagationResult:
    """Free evolution e^{itΔ}f on R^n: the closed form on euclid:n."""
    rs = build_root_system(f"euclid:{field.grid.rank}")
    return group_propagate_closed_form(rs, field, t, mode, out_grid)


# --- group propagator: spectral oracle -------------------------------------------

def suggest_spectral_grid(rs: RootSystemSpec, field: BiInvariantField,
                          t: float,
                          out_grid: RadialGrid | None = None) -> RadialGrid:
    """Spectral grid sized for the data's bandwidth and the t-chirp.

    Half-width λ_max = ξ_sup, the Fourier support edge of g = f·φ (as in
    `reach_box`); spacing obeys Δλ·(L_out + 2t·λ_max) ≤ π/2, L_out the
    half-width of `out_grid` (default: the field's grid), which implies
    the documented precondition Δλ ≤ π/(4 t λ_max). The oracle transforms
    one axis at a time through a bounded work buffer (`fourier_at`), so
    it holds no array of M spectral nodes per row; with n = max(N, N_out)
    nodes per axis in and out, the FFTs of one axis still run over about
    n^{l-1}·(M + n) complex values, and GridTooSmall when that passes
    _MAX_FFT_NODES bounds the work of a call.
    """
    half = conjugated(rs, field).xi_sup
    out_grid = out_grid or field.grid
    dl = np.pi / (2.0 * (out_grid.half_width + 2.0 * max(t, 0.0) * half))
    nodes = 2.0 * half / dl if dl > 0 else math.inf
    wide = max(field.grid.points_per_axis, out_grid.points_per_axis)
    buffer = wide ** (rs.rank - 1) * (nodes + wide)
    if buffer > _MAX_FFT_NODES:
        raise GridTooSmall(f"spectral oracle needs {nodes:.3g} nodes/axis "
                           f"at t={t:g}, a buffer of {buffer:.3g} values")
    n = int(np.ceil(nodes))
    n += n % 2
    return RadialGrid(rs.rank, half, max(n, 16))


def group_propagate_spectral(rs: RootSystemSpec, field: BiInvariantField,
                             t: float,
                             spectral_grid: RadialGrid | None = None,
                             out_grid: RadialGrid | None = None,
                             mode: GridMode = GridMode.FIXED
                             ) -> PropagationResult:
    """Spectral-synthesis evolution ∫ e^{-it(|λ|²+|ρ|²)} φ_λ f̂(λ)|c|⁻² dλ.

    The oracle the closed form is checked against: `spherical_transform`,
    the weight e^{-it(|λ|²+|ρ|²)}, then `synthesize_conjugated`, their
    constants cancelled to (2π)^{-l}; per axis a chirp-z onto the spectral
    axis, e^{-itλ_d²} folded into the inverse plan's pre-chirp, and a
    chirp-z onto the output axis, both plans on one block of rows before
    the next: no M^l spectral grid, and no N_out × M array for an axis.
    t = 0 is plain synthesis of f̂. UnderResolvedPhase if the spectral
    spacing misses the chirp. The data is conjugated once, for the grid
    and the transform alike.
    """
    if not 0 <= t < math.inf:
        raise InvalidTime(f"spectral propagation needs 0 <= t < inf, got {t}")
    field = conjugated(rs, field)
    if out_grid is None:
        scaled = mode is GridMode.SCALED and t > 0
        out_grid = field.grid.dual().scaled(2.0 * t) if scaled else field.grid
    if spectral_grid is None:
        spectral_grid = suggest_spectral_grid(rs, field, t, out_grid)
    limit = np.pi / (4.0 * t * spectral_grid.half_width) if t else np.inf
    if spectral_grid.spacing > limit * (1.0 + 1e-12):
        raise UnderResolvedPhase(
            f"spectral spacing {spectral_grid.spacing:.3g} exceeds "
            f"pi/(4 t lambda_max) = {limit:.3g}")
    uphi = spectral_input(rs, field, spectral_grid)
    lam = spectral_grid.axis
    fwd = _chirp_z_plan(field.grid, lam, spectral_grid.spacing, -1)
    inv = _chirp_z_plan(spectral_grid, out_grid.axis, out_grid.spacing, +1,
                        np.exp(-1j * t * lam**2))
    for ax in range(rs.rank):
        uphi = _chirp_z_axis(uphi, ax, fwd, inv)
    uphi *= (2.0 * np.pi) ** -rs.rank * np.exp(-1j * t * float(rs.rho @ rs.rho))
    result = BiInvariantField(out_grid, uphi, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.SPECTRAL, mode)


# --- forced equation (Duhamel) -----------------------------------------------------

def duhamel_solve(rs: RootSystemSpec, field: BiInvariantField, forcing,
                  t, steps: int) -> list[PropagationResult]:
    """Solve -i u_t - Δu = ψ via u(t) = S(t)f + i ∫₀ᵗ S(t-s) ψ(s) ds.

    `forcing` maps a time s to a BiInvariantField on the initial grid, and
    is called once per distinct s. `t` is a non-empty 1-D sequence of
    times, and the result one PropagationResult per time, in order. Each
    time's s-integral is its own composite Simpson rule, `steps` even
    panels (≥ 8) on np.linspace(0, t, steps + 1), whose last node is
    exactly t, where S(0) is the identity. Fourth-order in the time step.

    S(τ) is the multiplier e^{-iτ(|ξ|²+|ρ|²)} on the conjugated profile,
    as in SCALED. The data g = f·φ and each distinct sample ψ(s)·φ make
    one stack, measured once: each row's magnitude over its own peak, the
    maximum over rows, gives the boundary tail (checked against TAIL_TOL,
    so non-finite input is refused), y_sup and, from one unpadded FFT,
    ξ_sup. Every row then stays within reach = y_sup + 2·t_max·ξ_sup of
    the origin up to the largest time t_max (as in `reach_box`), so on P
    ≥ (L + reach)/h nodes per axis, zero-padded past the box [-L, L), the
    periodic evolution does not wrap back into the box. The padded stack,
    one FFT, holds rows·P^l complex values, rows being one plus the
    number of distinct s; GridTooSmall where that passes _MAX_FFT_NODES.
    Each output time t, with δ = t/steps and E = e^{-iδ(|ξ|²+|ρ|²)}, sums
    its nodes in Horner form, A ← E·A + w_j·ψ̂_j from A = ĝ + w_0·ψ̂_0,
    then takes one inverse FFT of E·A, cropped to the box, and adds the
    node s = t in space. φ and the Weyl lattice maps are built once per
    call; each sample is checked for antisymmetry.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t must be a non-empty 1-D sequence of times")
    times = [float(x) for x in times]
    for tk in times:
        if not 0 < tk < math.inf:
            raise InvalidTime(f"duhamel_solve needs 0 < t < inf, got {tk}")
    if not isinstance(steps, (int, np.integer)) or steps < 8 or steps % 2:
        raise ValueError("steps must be an even integer >= 8")
    grid = field.grid
    rank, n = grid.rank, grid.points_per_axis
    axes = tuple(range(1, rank + 1))
    phi = denominator_on_grid(rs, grid)
    maps = _weyl_lattice_maps(grid, rs.weyl_matrices(), rs.weyl_signs())
    nodes = [np.linspace(0.0, tk, steps + 1).tolist() for tk in times]
    row_of = {s: k + 1 for k, s in
              enumerate(sorted({s for row in nodes for s in row}))}
    rows, t_max = 1 + len(row_of), max(times)

    def guard(size: int) -> None:
        if rows * size ** rank > _MAX_FFT_NODES:
            raise GridTooSmall(
                f"duhamel_solve needs {rows} rows of {size} nodes/axis at "
                f"t={t_max:g}; take fewer steps or times")

    guard(n)
    stack = np.empty((rows,) + grid.shape, dtype=complex)
    stack[0] = conjugated_with(field, phi)
    for s, k in row_of.items():
        stack[k] = _checked_forcing(forcing, s, grid, phi, maps)

    def relative_max(a: np.ndarray) -> np.ndarray:
        """max over rows of |row| over its own peak (zero rows stay 0)."""
        mag = np.abs(a)
        peak = mag.max(axis=axes, keepdims=True)
        return (mag / np.where((0 < peak) & (peak < np.inf), peak, 1.0)
                ).max(axis=0)

    mag = relative_max(stack)
    check_tail(_tail_of(mag), TAIL_TOL, "Duhamel data and forcing")
    reach = (_support_of(mag, grid) + 2.0 * t_max
             * _xi_sup(relative_max(np.fft.fftn(stack, axes=axes)), grid))
    need = (grid.half_width + reach) / grid.spacing
    size = _fast_fft_length(max(n, math.ceil(min(need, _MAX_FFT_NODES))))
    guard(size)
    spec = np.fft.fftn(stack, s=(size,) * rank, axes=axes)
    xi_sq = (2.0 * np.pi * np.fft.fftfreq(size, grid.spacing)) ** 2
    rho_sq = float(rs.rho @ rs.rho)
    box = (slice(0, n),) * rank
    weights = simpson_weights(steps)
    results = []
    for tk, row in zip(times, nodes):
        delta = tk / steps
        step = np.exp(-1j * np.mod(delta * xi_sq, 2.0 * np.pi))
        rho_phase = np.exp(-1j * delta * rho_sq)
        w = 1j * weights * delta / 3.0
        acc = spec[0] + w[0] * spec[row_of[row[0]]]
        for wj, s in zip(w[1:-1], row[1:-1]):
            _times_axes(acc, step, rho_phase, out=acc)
            acc += wj * spec[row_of[s]]
        _times_axes(acc, step, rho_phase, out=acc)
        total = np.fft.ifftn(acc, out=acc)[box] + w[-1] * stack[row_of[tk]]
        out = BiInvariantField(grid, total, Representation.CONJUGATED)
        results.append(PropagationResult(out, tk, Method.CLOSED_FORM,
                                         GridMode.FIXED))
    return results


def _checked_forcing(forcing, s: float, grid: RadialGrid, phi: np.ndarray,
                     maps) -> np.ndarray:
    """ψ(s)·φ, after checking its grid and its Weyl antisymmetry."""
    psi = forcing(s)
    if psi.grid != grid:
        raise ValueError("forcing grid must match the initial grid")
    psi_phi = conjugated_with(psi, phi)
    resid = _mapped_residual(psi_phi, maps, odd=True)
    if resid > _ANTISYMMETRY_TOL:
        raise ForcingNotAntisymmetrizable(
            f"forcing at s={s:g}: conjugated antisymmetry residual "
            f"{resid:.2e}")
    return psi_phi


def plain_magnitude(rs: RootSystemSpec, result: PropagationResult) -> np.ndarray:
    """|u| on the result grid (NaN at wall nodes), for reporting and fits."""
    return np.abs(to_plain(rs, result.field).values)
