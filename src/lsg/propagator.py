"""Exact free Schrödinger evolution, Euclidean and group-radial.

Equation convention: -i u_t = Δu, so u(t) = e^{itΔ}f and a Euclidean
Gaussian e^{-a|x|²} evolves to (1+4iat)^{-n/2} e^{-a|x|²/(1+4iat)}.

On a complex semi-simple group the conjugated profile does all the work:
g = f·φ evolves by the Euclidean propagator, times the phase e^{-it|ρ|²}.
With R(y) = e^{i|y|²/4t} g(y) that is the chirp–Fourier–chirp sandwich

    u(H,t)·φ(H) = C · t^{-l/2} · e^{-i(t|ρ|² - |H|²/4t)} · R̂(H/2t),

with the Euclidean constant C = (4πi)^{-l/2}; there is nothing to fit.
The spectral-synthesis oracle checks it (acceptance criterion 4).

Output grids: SCALED runs the sandwich where the input grid resolves the
chirp on the data support (h·y_sup/t ≤ π), with nodes at H = 2t·ξ on the
FFT dual grid, tracking dispersive spreading; at smaller t it applies the
multiplier e^{itΔ}g = ifft(e^{-it|ξ|²}·fft(g)) on the input grid,
zero-padded to hold u(t) (at most about 3× the box per axis). FIXED always
runs the sandwich, evaluated at the caller's uniform output grid by
chirp-z, O((N+M) log(N+M)) per axis, grid-aligned for time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ForcingNotAntisymmetrizable, GridTooSmall, InvalidTime,
                     UnderResolvedPhase)
from .grids import (BiInvariantField, GridMode, Method, RadialGrid,
                    Representation, fourier_at, fourier_native,
                    require_tail, support_radius, weyl_symmetry_residual)
from .rootsystem import RootSystemSpec
from .spherical import (conjugated_values, spherical_transform,
                        synthesize_conjugated, to_plain)

_MAX_FFT_NODES = 2**24          # memory guard on the padded multiplier grid
_ANTISYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class PropagationResult:
    """Evolved profile: CONJUGATED u·φ on groups, PLAIN u in Euclidean mode."""

    field: BiInvariantField
    t: float
    method: Method
    output_grid_mode: GridMode


def gaussian_profile(grid: RadialGrid, rate: float,
                     chirp: float = 0.0) -> BiInvariantField:
    """PLAIN profile e^{-a|H|² + ic|H|²}; radial, hence Weyl-invariant."""
    if rate <= 0:
        raise ValueError("gaussian rate must be positive")
    rsq = grid.radius_sq()
    vals = np.exp(-(rate - 1j * chirp) * rsq)
    return BiInvariantField(grid, vals.astype(complex), Representation.PLAIN)


def _chirp(grid: RadialGrid, t: float, sign: int = +1) -> np.ndarray:
    """e^{±i|H|²/4t} on the grid, the outer product of rank 1-D chirps.

    The per-axis angle x²/4t is reduced mod 2π before exponentiation.
    """
    axis = np.exp(sign * 1j * np.mod(grid.axis**2 / (4.0 * t), 2.0 * np.pi))
    out = axis
    for _ in range(grid.rank - 1):
        out = np.multiply.outer(out, axis)
    return out


def _chirp_sandwich(values: np.ndarray, grid: RadialGrid, t: float,
                    mode: GridMode, out_grid: RadialGrid | None
                    ) -> tuple[RadialGrid, np.ndarray]:
    """t^{-l/2} e^{i|H'|²/4t} R̂(H'/2t) with R = e^{i|y|²/4t}·values.

    The unnormalised core of the large-t regime: SCALED places H' = 2t·ξ
    on the FFT dual grid, FIXED evaluates R̂ at `out_grid` by chirp-z. The
    caller supplies the constant and any outer phase.
    """
    r = _chirp(grid, t) * values
    if mode is GridMode.SCALED:
        dual, rhat = fourier_native(r, grid, sign=-1)
        out = dual.scaled(2.0 * t)
    else:
        out = out_grid or grid
        rhat = fourier_at(r, grid, [out.axis / (2.0 * t)] * grid.rank, sign=-1)
    vals = t ** (-grid.rank / 2.0) * _chirp(out, t) * rhat
    return out, vals


def _multiplier(values: np.ndarray, grid: RadialGrid, t: float,
                y_sup: float) -> tuple[RadialGrid, np.ndarray]:
    """e^{itΔ} as the Fourier multiplier e^{-it|ξ|²}, one axis at a time.

    u(t) stays within reach = y_sup + 2t·ξ_sup of the origin, ξ_sup the
    Fourier support of the data, so on the box zero-padded to reach the
    periodic evolution does not wrap around. That box is the output grid.
    """
    dual, spec = fourier_native(values, grid, sign=-1)
    reach = y_sup + 2.0 * t * support_radius(spec, dual)
    pad = max(0, math.ceil((reach - grid.half_width) / grid.spacing))
    n = grid.points_per_axis + 2 * pad
    if n ** grid.rank > _MAX_FFT_NODES:
        raise GridTooSmall(f"SCALED multiplier needs {n} nodes/axis at t={t:g}")
    xi = 2.0 * np.pi * np.fft.fftfreq(n, grid.spacing)
    phase = np.exp(-1j * np.mod(t * xi**2, 2.0 * np.pi))
    out = np.pad(np.asarray(values, dtype=complex), pad)
    for ax in range(grid.rank):
        axis_phase = phase.reshape((n,) + (1,) * (grid.rank - 1 - ax))
        out = np.fft.ifft(np.fft.fft(out, axis=ax) * axis_phase, axis=ax)
    return RadialGrid(grid.rank, grid.half_width + pad * grid.spacing, n), out


_refine_fft = _multiplier   # the benchmark traces it by the upsampler's name


def _free_evolution(values: np.ndarray, grid: RadialGrid, t: float,
                    mode: GridMode, out_grid: RadialGrid | None
                    ) -> tuple[RadialGrid, np.ndarray]:
    """e^{itΔ}·values. h·y_sup/t, twice the chirp's phase step per node at
    the data's edge, picks the regime: SCALED runs the sandwich up to π and
    the multiplier beyond it; FIXED refuses beyond 2π."""
    y_sup = max(support_radius(values, grid), grid.spacing)
    step = grid.spacing * y_sup / t
    if mode is GridMode.SCALED and step > np.pi:
        return _multiplier(values, grid, t, y_sup)
    if mode is GridMode.FIXED and step > 2.0 * np.pi:
        raise GridTooSmall(
            f"grid spacing {grid.spacing:.3g} cannot resolve the t={t:g} "
            "chirp on the data support; use SCALED mode or refine")
    out, core = _chirp_sandwich(values, grid, t, mode, out_grid)
    return out, _free_constant(grid.rank) * core


# --- Euclidean propagator -----------------------------------------------------

def _free_constant(rank: int) -> complex:
    """(4πi)^{-l/2}, the constant of the free kernel on R^l."""
    return (4.0 * np.pi * 1j) ** (-rank / 2.0)


def euclidean_propagate(field: BiInvariantField, t: float,
                        mode: GridMode = GridMode.SCALED,
                        out_grid: RadialGrid | None = None) -> PropagationResult:
    """Free evolution u(·,t) = e^{itΔ}f on R^n.

    u(x,t) = (4πit)^{-n/2} e^{i|x|²/4t} ĥ(x/2t) with h(y) = e^{i|y|²/4t}f(y);
    the constant makes u → f as t → 0⁺ (validated against the Gaussian
    closed form in the test suite).
    """
    if t <= 0:
        raise InvalidTime(f"euclidean propagation needs t > 0, got {t}")
    require_tail(field.values, what="initial profile")
    out, vals = _free_evolution(field.values, field.grid, t, mode, out_grid)
    result = BiInvariantField(out, vals, Representation.PLAIN)
    return PropagationResult(result, t, Method.CLOSED_FORM, mode)


# --- group propagator: closed form ----------------------------------------------

def _group_evolution(rs: RootSystemSpec, g: np.ndarray, grid: RadialGrid,
                     t: float, mode: GridMode, out_grid: RadialGrid | None
                     ) -> tuple[RadialGrid, np.ndarray]:
    """e^{-it|ρ|²} times the Euclidean evolution of the conjugated values g."""
    out, vals = _free_evolution(g, grid, t, mode, out_grid)
    return out, np.exp(-1j * t * float(rs.rho @ rs.rho)) * vals


def calibrate_constant(rs: RootSystemSpec) -> complex:
    """The group closed form's constant: (4πi)^{-l/2}, l the rank of rs.

    Nothing is fitted. The name stays for callers of the earlier
    calibrated constant; the benchmark's set-up still times it.
    """
    return _free_constant(rs.rank)


def group_propagate_closed_form(rs: RootSystemSpec, field: BiInvariantField,
                                t: float, mode: GridMode = GridMode.SCALED,
                                out_grid: RadialGrid | None = None
                                ) -> PropagationResult:
    """Closed-form evolution of bi-invariant data; returns u·φ."""
    if t <= 0:
        raise InvalidTime(f"closed-form propagation needs t > 0, got {t}")
    g = conjugated_values(rs, field)
    require_tail(g, what="conjugated profile")
    out, vals = _group_evolution(rs, g, field.grid, t, mode, out_grid)
    result = BiInvariantField(out, vals, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.CLOSED_FORM, mode)


# --- group propagator: spectral oracle -------------------------------------------

def data_bandwidth(rs: RootSystemSpec, field: BiInvariantField,
                   rel: float = 1e-13) -> float:
    """Fourier support edge of the conjugated profile (rel·peak cutoff)."""
    g = conjugated_values(rs, field)
    dual, ghat = fourier_native(g, field.grid, sign=-1)
    return max(4.0, support_radius(ghat, dual, rel=rel))


def suggest_spectral_grid(rs: RootSystemSpec, field: BiInvariantField,
                          t: float,
                          out_half_width: float | None = None) -> RadialGrid:
    """Spectral grid sized for the data's bandwidth and the t-chirp.

    Half-width covers the conjugated profile's Fourier support (1e-13
    relative); spacing obeys Δλ·(L_out + 2t·λ_max) ≤ π/2, which implies
    the documented precondition Δλ ≤ π/(4 t λ_max).
    """
    half = 1.1 * data_bandwidth(rs, field)
    l_out = out_half_width if out_half_width is not None else field.grid.half_width
    dl = np.pi / (2.0 * (l_out + 2.0 * max(t, 0.0) * half))
    n = int(np.ceil(2.0 * half / dl))
    n += n % 2
    return RadialGrid(rs.rank, half, max(n, 16))


def group_propagate_spectral(rs: RootSystemSpec, field: BiInvariantField,
                             t: float,
                             spectral_grid: RadialGrid | None = None,
                             out_grid: RadialGrid | None = None,
                             mode: GridMode = GridMode.FIXED
                             ) -> PropagationResult:
    """Spectral-synthesis evolution ∫ e^{-it(|λ|²+|ρ|²)} φ_λ f̂(λ)|c|⁻² dλ.

    The oracle the closed form is checked against. t = 0 reproduces plain
    synthesis of f̂. Raises UnderResolvedPhase when the spectral spacing
    cannot track the evolution chirp.
    """
    if t < 0:
        raise InvalidTime(f"spectral propagation needs t >= 0, got {t}")
    if out_grid is None:
        if mode is GridMode.SCALED and t > 0:
            out_grid = RadialGrid(rs.rank,
                                  2.0 * t * field.grid.dual().half_width,
                                  field.grid.points_per_axis)
        else:
            out_grid = field.grid
    if spectral_grid is None:
        spectral_grid = suggest_spectral_grid(rs, field, t,
                                              out_grid.half_width)
    if t > 0:
        limit = np.pi / (4.0 * t * spectral_grid.half_width)
        if spectral_grid.spacing > limit * (1.0 + 1e-12):
            raise UnderResolvedPhase(
                f"spectral spacing {spectral_grid.spacing:.3g} exceeds "
                f"pi/(4 t lambda_max) = {limit:.3g}")
    spec = spherical_transform(rs, field, spectral_grid)
    rho_sq = float(rs.rho @ rs.rho)
    lam_sq = spectral_grid.radius_sq()
    phase = np.exp(-1j * t * (lam_sq + rho_sq))
    uphi = synthesize_conjugated(rs, spec, [out_grid.axis] * rs.rank,
                                 extra_phase=phase)
    result = BiInvariantField(out_grid, uphi, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.SPECTRAL, mode)


# --- forced equation (Duhamel) -----------------------------------------------------

def duhamel_solve(rs: RootSystemSpec, field: BiInvariantField,
                  forcing, t: float, steps: int) -> PropagationResult:
    """Solve -i u_t - Δu = ψ via u(t) = S(t)f + i ∫₀ᵗ S(t-s) ψ(s) ds.

    `forcing` maps a time s to a BiInvariantField on the initial grid.
    The s-integral is composite Simpson (`steps` even panels, ≥ 8), each
    S(t-s) evaluated by the closed form on the fixed grid; S(0) is the
    identity. Fourth-order in the time step.
    """
    if t <= 0:
        raise InvalidTime(f"duhamel_solve needs t > 0, got {t}")
    if steps < 8 or steps % 2 != 0:
        raise ValueError("steps must be an even integer >= 8")
    grid = field.grid
    mats, sgn = rs.weyl_matrices(), rs.weyl_signs()

    def conjugated_forcing(s: float) -> np.ndarray:
        psi = forcing(s)
        if psi.grid != grid:
            raise ValueError("forcing grid must match the initial grid")
        psi_phi = conjugated_values(rs, psi)
        resid = weyl_symmetry_residual(psi_phi, grid, mats, sgn, odd=True)
        if resid > _ANTISYMMETRY_TOL:
            raise ForcingNotAntisymmetrizable(
                f"forcing at s={s:g}: conjugated antisymmetry residual "
                f"{resid:.2e}")
        return psi_phi

    def propagate(values: np.ndarray, tau: float) -> np.ndarray:
        if tau == 0.0:
            return values
        return _group_evolution(rs, values, grid, tau, GridMode.FIXED, None)[1]

    homogeneous = propagate(conjugated_values(rs, field), t)
    ds = t / steps
    acc = np.zeros(grid.shape, dtype=complex)
    for i in range(steps + 1):
        s = i * ds
        w = 1.0 if i in (0, steps) else (4.0 if i % 2 == 1 else 2.0)
        acc += w * propagate(conjugated_forcing(s), t - s)
    integral = acc * (ds / 3.0)
    total = homogeneous + 1j * integral
    result = BiInvariantField(grid, total, Representation.CONJUGATED)
    return PropagationResult(result, t, Method.CLOSED_FORM, GridMode.FIXED)


def plain_magnitude(rs: RootSystemSpec, result: PropagationResult) -> np.ndarray:
    """|u| on the result grid (NaN at wall nodes), for reporting and fits."""
    if result.field.representation is Representation.PLAIN:
        return np.abs(result.field.values)
    return np.abs(to_plain(rs, result.field).values)
