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

Duhamel's formula u(t) = S(t)f + i∫₀ᵗ S(t-s)ψ(s) ds needs S(τ) only on
the input grid. There the FIXED sandwich's chirps multiply out,
e^{i|x_j|²/4τ}·e^{-i⟨x_j,x_k⟩/2τ}·e^{i|x_k|²/4τ} = e^{i|x_j - x_k|²/4τ},
so S(τ) convolves with the FIXED sandwich's chirp-z kernel onto the input
axis, angles unreduced mod 2π as there. Linear, it sums each output
time's Simpson nodes in the frequency domain (`duhamel_solve`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (ForcingNotAntisymmetrizable, GridTooSmall, InvalidTime,
                     UnderResolvedPhase)
from .grids import (BiInvariantField, GridMode, Method, RadialGrid,
                    Representation, _chirp_z_axis, _chirp_z_kernel,
                    _chirp_z_plan, _fast_fft_length, _mapped_residual,
                    _times_axes, _weyl_lattice_maps, fourier_at,
                    require_tail, simpson_weights, support_radius)
from .rootsystem import RootSystemSpec, build_root_system
from .spherical import (conjugated_values, conjugated_with,
                        denominator_on_grid, spectral_input, to_plain)

_MAX_FFT_NODES = 2**24          # memory guard, in complex values, on the
                                # padded multiplier grid and on the spectral
                                # oracle's largest per-axis chirp-z buffer
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
    rsq = grid.radius_sq()
    vals = np.exp(-(rate - 1j * chirp) * rsq)
    return BiInvariantField(grid, vals.astype(complex), Representation.PLAIN)


def _chirp(axis: np.ndarray, t: float) -> np.ndarray:
    """e^{ix²/4t} on a 1-D axis, the angle reduced mod 2π beforehand."""
    return np.exp(1j * np.mod(axis**2 / (4.0 * t), 2.0 * np.pi))


def _chirp_sandwich(values: np.ndarray, grid: RadialGrid, t: float,
                    mode: GridMode, out_grid: RadialGrid | None,
                    scale: complex) -> tuple[RadialGrid, np.ndarray]:
    """scale·t^{-l/2}·e^{i|H'|²/4t}·R̂(H'/2t) with R = e^{i|y|²/4t}·values.

    SCALED puts H' = 2t·ξ on the dual grid, where R̂ is, per axis,
    h·(-1)^{j-N/2}·DFT((-1)^k·R)_j (see fourier_native): the input chirp
    and (-1)^k make the pre-factor, the sign, the output chirp and every
    constant the post-factor, around one in-place fftn. FIXED evaluates R̂
    at `out_grid` by chirp-z between the same chirps and constants.
    """
    rank, n = grid.rank, grid.points_per_axis
    scale = scale * t ** (-rank / 2.0)
    pre, post_sign = _chirp(grid.axis, t), 1.0
    if mode is GridMode.SCALED:
        out = grid.dual().scaled(2.0 * t)
        alt = (-1.0) ** np.arange(n)
        pre *= alt
        post_sign = (-1.0) ** (n // 2) * alt
        scale *= grid.spacing ** rank
        rhat = _times_axes(values, pre)
        np.fft.fftn(rhat, out=rhat)
    else:
        out = out_grid or grid
        rhat = fourier_at(_times_axes(values, pre), grid,
                          [out.axis / (2.0 * t)] * rank, sign=-1)
    return out, _times_axes(rhat, post_sign * _chirp(out.axis, t), scale,
                            out=rhat)


def _multiplier(values: np.ndarray, grid: RadialGrid, t: float,
                y_sup: float, scale: complex
                ) -> tuple[RadialGrid, np.ndarray]:
    """scale·e^{itΔ} as the Fourier multiplier e^{-it|ξ|²}.

    u(t) stays within reach = y_sup + 2t·ξ_sup of the origin (as in
    `reach_box`), so on the box zero-padded to reach the periodic
    evolution does not wrap around. That box is the output grid. ξ_sup is
    read from the spectrum fftn(values), which is reused when nothing is
    padded. The phase and scale multiply it in place, per axis, before one
    in-place ifftn.
    """
    spec = np.array(values, dtype=complex)
    np.fft.fftn(spec, out=spec)
    reach = y_sup + 2.0 * t * _xi_sup(spec, grid)
    pad = max(0, math.ceil((reach - grid.half_width) / grid.spacing))
    n = grid.points_per_axis + 2 * pad
    if n ** grid.rank > _MAX_FFT_NODES:
        raise GridTooSmall(f"SCALED multiplier needs {n} nodes/axis at t={t:g}")
    if pad:
        spec = np.pad(np.asarray(values, dtype=complex), pad)
        np.fft.fftn(spec, out=spec)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, grid.spacing)
    _times_axes(spec, np.exp(-1j * np.mod(t * xi**2, 2.0 * np.pi)), scale,
                out=spec)
    out = RadialGrid(grid.rank, grid.half_width + pad * grid.spacing, n)
    return out, np.fft.ifftn(spec, out=spec)


_refine_fft = _multiplier   # the benchmark traces it by the upsampler's name


def _xi_sup(spec: np.ndarray, grid: RadialGrid) -> float:
    """Fourier support edge of data on `grid`, read from its fftn `spec` on
    the dual grid (the Fourier sum's other factors are unimodular)."""
    return support_radius(np.fft.fftshift(np.abs(spec)), grid.dual())


def reach_box(rs: RootSystemSpec, field: BiInvariantField, t: float) -> float:
    """Half-width max(L, y_sup + 2t·ξ_sup) of a box that holds u(t)·φ:
    free evolution moves g = f·φ, within y_sup of the origin, by at most
    2t·ξ_sup, ξ_sup its Fourier support edge. L is the field's half-width;
    GridTooSmall where twice the box overflows a float."""
    grid = field.grid
    g = conjugated_values(rs, field)
    box = max(grid.half_width, support_radius(g, grid)
              + 2.0 * t * _xi_sup(np.fft.fftn(g), grid))
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
    π, the multiplier beyond; FIXED refuses beyond 2π."""
    if not 0 < t < math.inf:
        raise InvalidTime(f"closed-form propagation needs 0 < t < inf, got {t}")
    grid = field.grid
    values = conjugated_values(rs, field)
    mag = np.abs(values)
    require_tail(mag, what="conjugated profile")
    y_sup = support_radius(mag, grid)
    scale = np.exp(-1j * t * float(rs.rho @ rs.rho))
    if mode is GridMode.SCALED and grid.spacing * y_sup / t > np.pi:
        out, vals = _multiplier(values, grid, t, y_sup, scale)
    else:
        if mode is GridMode.FIXED:
            _fixed_chirp_guard(grid, y_sup, t)
        out, vals = _chirp_sandwich(values, grid, t, mode, out_grid,
                                    scale * _free_constant(grid.rank))
    result = BiInvariantField(out, vals, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.CLOSED_FORM, mode)


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
    one axis at a time, so with M spectral nodes and n = max(N, N_out)
    nodes per axis in and out its largest buffer holds about
    n^{l-1}·(M + n) complex values; GridTooSmall when that passes
    _MAX_FFT_NODES.
    """
    half = _xi_sup(np.fft.fftn(conjugated_values(rs, field)), field.grid)
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
    chirp-z onto the output axis: no M^l spectral grid. t = 0 is plain synthesis
    of f̂. UnderResolvedPhase if the spectral spacing misses the chirp.
    """
    if not 0 <= t < math.inf:
        raise InvalidTime(f"spectral propagation needs 0 <= t < inf, got {t}")
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
        uphi = _chirp_z_axis(_chirp_z_axis(uphi, ax, *fwd), ax, *inv)
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

    On its own input grid the FIXED closed form of S(τ) is the trapezoid
    sum τ^{-l/2}·h^l·e^{-iτ|ρ|²}·(4πi)^{-l/2}·Σ_k e^{i|x_j - x_k|²/4τ}·g_k,
    the sandwich with its chirps multiplied out: a linear convolution with
    the sandwich's chirp-z kernel onto ξ = x/2τ, separable per axis. With
    samples zero-padded per axis to that kernel's length ≥ 2N − 1, each
    time is one loop in the frequency domain, S(t) of the data plus the
    weighted S(t - s) of each node's sample, then one inverse FFT; the
    node s = t is added in space. A sample (ψ(s)·φ, its support radius and
    padded spectrum) is built at its first node and dropped after its
    last: one forward FFT per distinct s, one kernel spectrum per distinct
    τ. φ and the Weyl lattice maps are built once per call. Each sample is
    checked for antisymmetry, each (sample, τ) by the FIXED chirp guard.
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
    phi = denominator_on_grid(rs, grid)
    maps = _weyl_lattice_maps(grid, rs.weyl_matrices(), rs.weyl_signs())
    n = grid.points_per_axis
    size = _fast_fft_length(2 * n - 1)      # as _chirp_z_kernel's
    padded, axes = (size,) * grid.rank, tuple(range(grid.rank))
    rho_sq = float(rs.rho @ rs.rho)
    free = _free_constant(grid.rank) * grid.cell_volume()
    kernels: dict[float, np.ndarray] = {}

    def evolved(spec: np.ndarray, y_sup: float, tau: float,
                w: complex) -> np.ndarray:
        """w·S(τ) of a padded sample spectrum, after the chirp guard."""
        _fixed_chirp_guard(grid, y_sup, tau)
        if tau not in kernels:   # the plan's onto ξ = x/2τ, sign -1
            half_w = -0.5 * (grid.spacing / (2.0 * tau)) * grid.spacing
            kernels[tau] = _chirp_z_kernel(n, n, half_w, 0)
        coef = w * free * tau ** (-grid.rank / 2.0) * np.exp(-1j * tau * rho_sq)
        return _times_axes(spec, kernels[tau], coef)

    g = conjugated_with(field, phi)
    g_sup = support_radius(g, grid)
    g_spec = np.fft.fftn(g, s=padded, axes=axes)
    nodes = [np.linspace(0.0, tk, steps + 1).tolist() for tk in times]
    pending = Counter(s for row in nodes for s in row)
    samples: dict[float, tuple[np.ndarray, float, np.ndarray]] = {}
    results = []
    for tk, row in zip(times, nodes):
        acc = evolved(g_spec, g_sup, tk, 1.0)
        for w, s in zip(simpson_weights(steps), row):
            if s not in samples:
                psi_phi = _checked_forcing(forcing, s, grid, phi, maps)
                samples[s] = (psi_phi, support_radius(psi_phi, grid),
                              np.fft.fftn(psi_phi, s=padded, axes=axes))
            pending[s] -= 1
            psi_phi, y_sup, spec = samples[s] if pending[s] else samples.pop(s)
            w = 1j * w * (tk / steps) / 3.0
            if s == tk:
                end = w * psi_phi
            else:
                acc += evolved(spec, y_sup, tk - s, w)
        total = np.fft.ifftn(acc)[(slice(0, n),) * grid.rank] + end
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
