"""Exact free Schrödinger evolution, Euclidean and group-radial.

Equation convention: -i u_t = Δu, so u(t) = e^{itΔ}f and a Euclidean
Gaussian e^{-a|x|²} evolves to (1+4iat)^{-n/2} e^{-a|x|²/(1+4iat)}.

On a complex semi-simple group the conjugated profile does all the work:
with g = f·φ and R(y) = e^{i|y|²/4t} g(y),

    u(H,t)·φ(H) = C · t^{-l/2} · e^{-i(t|ρ|² - |H|²/4t)} · R̂(H/2t),

a chirp–Fourier–chirp sandwich. The constant C (the paper-side c_l|W|²
with all measure conventions folded in) is calibrated once per root system
against the spectral-synthesis oracle and cross-checked against the
Fresnel value κ|W|²(π/i)^{l/2}.

Output grids: SCALED places nodes at H = 2t·ξ with ξ the FFT-native dual
frequencies (fast path, tracks dispersive spreading, auto-upsamples when
the input grid cannot resolve the chirp); FIXED evaluates the transform
at the caller's uniform output grid by chirp-z, O((N+M) log(N+M)) per axis
for N input and M output nodes, grid-aligned for time series. Both build
the chirps e^{±i|H|²/4t} per axis, as the outer product of rank 1-D chirps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CalibrationFailure, ForcingNotAntisymmetrizable,
                     GridTooSmall, InvalidTime, UnderResolvedPhase)
from .grids import (BiInvariantField, GridMode, Method, RadialGrid,
                    Representation, fourier_at, fourier_native, l2_norm,
                    require_tail, support_radius, weyl_symmetry_residual)
from .rootsystem import RootSystemSpec
from .spherical import (conjugated_values, plancherel_constant,
                        spherical_transform, synthesize_conjugated, to_plain)

_MAX_FFT_NODES = 2**24          # upsampling cap for the SCALED fast path
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


def _refine_fft(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric upsampling by an integer factor (zero-pad the spectrum).

    Exact on the original nodes; spectrally accurate between them for
    profiles that satisfy the boundary-tail check.
    """
    out = np.asarray(values, dtype=complex)
    for ax in range(out.ndim):
        n = out.shape[ax]
        spec = np.fft.fft(out, axis=ax)
        shape = list(out.shape)
        shape[ax] = n * factor
        padded = np.zeros(shape, dtype=complex)
        head = [slice(None)] * out.ndim
        head[ax] = slice(0, n // 2)
        padded[tuple(head)] = spec[tuple(head)]
        tail_src = [slice(None)] * out.ndim
        tail_src[ax] = slice(n // 2 + 1, n)
        tail_dst = [slice(None)] * out.ndim
        tail_dst[ax] = slice(n * factor - (n - n // 2 - 1), n * factor)
        padded[tuple(tail_dst)] = spec[tuple(tail_src)]
        ny_src = [slice(None)] * out.ndim
        ny_src[ax] = slice(n // 2, n // 2 + 1)
        for dst_idx in (n // 2, n * factor - n // 2):
            ny_dst = [slice(None)] * out.ndim
            ny_dst[ax] = slice(dst_idx, dst_idx + 1)
            padded[tuple(ny_dst)] += 0.5 * spec[tuple(ny_src)]
        out = np.fft.ifft(padded, axis=ax) * factor
    return out


def _chirp_sandwich(values: np.ndarray, grid: RadialGrid, t: float,
                    mode: GridMode, out_grid: RadialGrid | None
                    ) -> tuple[RadialGrid, np.ndarray]:
    """t^{-l/2} e^{i|H'|²/4t} R̂(H'/2t) with R = e^{i|y|²/4t}·values.

    The core both propagators share; the caller supplies its constant and
    any outer phase.
    """
    y_sup = max(support_radius(values, grid), grid.spacing)
    if mode is GridMode.SCALED:
        # resolve the input chirp: h' · y_sup / (2t) <= pi/2
        h_needed = np.pi * t / y_sup
        factor = max(1, math.ceil(grid.spacing / h_needed))
        n_new = grid.points_per_axis * factor
        if n_new ** grid.rank > _MAX_FFT_NODES:
            raise GridTooSmall(
                f"SCALED path would need {n_new} points per axis at t={t:g}")
        work = _refine_fft(values, factor) if factor > 1 else values
        wgrid = RadialGrid(grid.rank, grid.half_width, n_new)
        r = _chirp(wgrid, t) * work
        dual, rhat = fourier_native(r, wgrid, sign=-1)
        out = RadialGrid(grid.rank, 2.0 * t * dual.half_width, n_new)
        vals = t ** (-grid.rank / 2.0) * _chirp(out, t) * rhat
        return out, vals
    # FIXED: chirp-z evaluation at the requested nodes
    out = out_grid or grid
    if grid.spacing * y_sup / (2.0 * t) > np.pi:
        raise GridTooSmall(
            f"grid spacing {grid.spacing:.3g} cannot resolve the t={t:g} "
            "chirp on the data support; use SCALED mode or refine")
    r = _chirp(grid, t) * values
    rhat = fourier_at(r, grid, [out.axis / (2.0 * t)] * grid.rank, sign=-1)
    vals = t ** (-grid.rank / 2.0) * _chirp(out, t) * rhat
    return out, vals


# --- Euclidean propagator -----------------------------------------------------

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
    n = field.grid.rank
    out, core = _chirp_sandwich(field.values, field.grid, t, mode, out_grid)
    const = (4.0 * np.pi * 1j) ** (-n / 2.0)
    result = BiInvariantField(out, const * core, Representation.PLAIN)
    return PropagationResult(result, t, Method.CLOSED_FORM, mode)


# --- group propagator: closed form ----------------------------------------------

_CONSTANT_CACHE: dict[tuple[str, float], complex] = {}

_REFERENCE_GRIDS = {
    1: (512, 12.0),
    2: (96, 9.0),
    3: (48, 8.0),
    4: (32, 7.0),
}


def group_propagate_closed_form(rs: RootSystemSpec, field: BiInvariantField,
                                t: float, mode: GridMode = GridMode.SCALED,
                                out_grid: RadialGrid | None = None
                                ) -> PropagationResult:
    """Closed-form evolution of bi-invariant data; returns u·φ."""
    if t <= 0:
        raise InvalidTime(f"closed-form propagation needs t > 0, got {t}")
    g = conjugated_values(rs, field)
    require_tail(g, what="conjugated profile")
    const = calibrate_constant(rs)
    out, core = _chirp_sandwich(g, field.grid, t, mode, out_grid)
    rho_sq = float(rs.rho @ rs.rho)
    vals = const * np.exp(-1j * t * rho_sq) * core
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


def calibrate_constant(rs: RootSystemSpec,
                       field: BiInvariantField | None = None,
                       t: float = 1.0) -> complex:
    """The closed-form constant, fit against the spectral oracle and cached.

    Least-squares complex scalar matching the unnormalized chirp sandwich
    to the synthesis oracle on a reference Gaussian. Two cross-checks are
    enforced: fit residual ≤ 1e-6, and agreement to 1e-8 with the Fresnel
    candidate κ·|W|²·(π/i)^{l/2} built from the Plancherel constant.
    """
    key = (rs.name, rs.normalization)
    canonical = field is None and t == 1.0
    if canonical and key in _CONSTANT_CACHE:
        return _CONSTANT_CACHE[key]
    if field is None:
        if rs.rank not in _REFERENCE_GRIDS:
            raise CalibrationFailure(f"no reference grid for rank {rs.rank}")
        n, box = _REFERENCE_GRIDS[rs.rank]
        field = gaussian_profile(RadialGrid(rs.rank, box, n), rate=1.0)
    if t <= 0:
        raise InvalidTime("calibration needs t > 0")

    g = conjugated_values(rs, field)
    require_tail(g, what="calibration profile")
    out, core = _chirp_sandwich(g, field.grid, t, GridMode.FIXED, None)
    rho_sq = float(rs.rho @ rs.rho)
    unnormalized = np.exp(-1j * t * rho_sq) * core
    oracle = group_propagate_spectral(rs, field, t, out_grid=out)
    target = oracle.field.values
    const = complex(np.vdot(unnormalized, target)
                    / np.vdot(unnormalized, unnormalized))
    residual = l2_norm(const * unnormalized - target, out) / l2_norm(target, out)
    if residual > 1e-6:
        raise CalibrationFailure(
            f"closed-form/spectral residual {residual:.2e} after calibration")
    kappa = plancherel_constant(rs)
    candidate = (kappa * rs.weyl_order**2
                 * (np.pi ** (rs.rank / 2.0))
                 * np.exp(-1j * np.pi * rs.rank / 4.0))
    if abs(const - candidate) > 1e-8 * abs(candidate):
        raise CalibrationFailure(
            f"calibrated constant {const} disagrees with Fresnel candidate "
            f"{candidate}")
    if canonical:
        _CONSTANT_CACHE[key] = const
    return const


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
        out, core = _chirp_sandwich(values, grid, tau, GridMode.FIXED, None)
        rho_sq = float(rs.rho @ rs.rho)
        return calibrate_constant(rs) * np.exp(-1j * tau * rho_sq) * core

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
