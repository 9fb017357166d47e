"""Weyl denominator, c-function, spherical functions and transforms.

On a complex semi-simple group everything radial reduces to the Cartan
subalgebra: the Haar density is the squared Weyl denominator

    φ(H) = Σ_{s∈W} (det s) e^{⟨sρ, H⟩},      dx = φ(H)² dH,

the elementary spherical functions are φ_λ = c(λ)·Σ_s (det s)e^{i⟨sλ,H⟩}/φ(H)
with c(λ) = π(ρ)/π(iλ), π(μ) = Π_{α>0}⟨μ,α⟩, normalized so φ_λ(0) = 1, and
the spherical transform of a Weyl-invariant profile f collapses to an
ordinary Fourier transform of the antisymmetric conjugate g = f·φ:

    f̂(λ) = |W| · c(-λ) · ĝ(λ).

Synthesis against the Plancherel density |c(λ)|⁻² dλ likewise collapses,
with the global constant κ = (2π)^{-l}/|W|² of the Euclidean inverse
Fourier transform on the rank-l Cartan subalgebra.
"""

from __future__ import annotations

import numpy as np

from .errors import (ChamberWallEvaluation, GridTooSmall,
                     SingularSpectralParameter)
from .grids import (BiInvariantField, RadialGrid, Representation,
                    SpectralField, fourier_at, l2_norm, require_tail)
from .rootsystem import RootSystemSpec

WALL_RTOL = 1e-8          # |φ| below this fraction of its scale counts as wall
_SPECTRAL_WALL_TOL = 1e-9


# --- denominator and density -------------------------------------------------

def _rho_orbit(rs: RootSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    return rs.orbit(rs.rho), rs.weyl_signs()


def weyl_denominator(rs: RootSystemSpec, h) -> np.ndarray | float:
    """φ(H) = Σ_s (det s) e^{⟨sρ,H⟩}; Weyl-antisymmetric, zero on walls.

    Accepts a single vector (rank,) or a stack (..., rank).
    """
    h = np.asarray(h, dtype=float)
    phi, m, _ = _scaled_denominator(rs, h)
    val = phi * np.exp(m)
    return float(val) if h.ndim == 1 else val


def density(rs: RootSystemSpec, h) -> np.ndarray | float:
    """Radial Haar density φ(H)² ≥ 0."""
    phi = weyl_denominator(rs, h)
    return phi * phi


def denominator_on_grid(rs: RootSystemSpec, grid: RadialGrid) -> np.ndarray:
    return np.asarray(
        weyl_denominator(rs, grid.nodes())).reshape(grid.shape)


def _scaled_denominator(rs: RootSystemSpec, h
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^{-m}·φ(H), m, wall) for stacked H (..., rank), m = max_s ⟨sρ,H⟩.

    The scaled sum never overflows. `wall` is the chamber-wall rule:
    |φ(H)| < 1e-8 · Σ_s e^{⟨sρ,H⟩}, where the sum's cancellation eats more
    than ~8 digits and division by φ is unsafe.
    """
    orbit, signs = _rho_orbit(rs)
    expo = np.asarray(h, dtype=float) @ orbit.T
    m = expo.max(axis=-1)
    terms = np.exp(expo - m[..., None])
    phi = terms @ signs
    return phi, m, np.abs(phi) < WALL_RTOL * terms.sum(axis=-1)


def wall_mask(rs: RootSystemSpec, grid: RadialGrid) -> np.ndarray:
    """Grid nodes on the chamber-wall band (see _scaled_denominator)."""
    return _scaled_denominator(rs, grid.nodes())[2].reshape(grid.shape)


# --- c-function ---------------------------------------------------------------

def pi_product(rs: RootSystemSpec, mu) -> np.ndarray | float:
    """π(μ) = Π_{α∈Σ₊} ⟨μ, α⟩, vectorized over stacked μ."""
    mu = np.asarray(mu, dtype=float)
    scalar = mu.ndim == 1
    val = np.prod(mu @ rs.positive_roots.T, axis=-1)
    return float(val) if scalar else val


def _is_spectral_singular(rs: RootSystemSpec, lam: np.ndarray) -> np.ndarray:
    """True where some ⟨λ,α⟩ vanishes to tolerance (λ on a Weyl wall)."""
    lam = np.asarray(lam, dtype=float)
    pair = lam @ rs.positive_roots.T                      # (..., m)
    scale = np.maximum(
        1.0, np.linalg.norm(lam, axis=-1, keepdims=True)
        * np.linalg.norm(rs.positive_roots, axis=-1))
    return np.any(np.abs(pair) < _SPECTRAL_WALL_TOL * scale, axis=-1)


def c_function(rs: RootSystemSpec, lam) -> complex:
    """Harish-Chandra c-function c(λ) = π(ρ)/π(iλ), pinned by φ_λ(0) = 1."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (rs.rank,):
        raise SingularSpectralParameter(
            f"expected spectral vector of length {rs.rank}")
    if _is_spectral_singular(rs, lam):
        raise SingularSpectralParameter(
            f"lambda {lam.tolist()} lies on a Weyl wall")
    m = rs.n_positive
    return complex(pi_product(rs, rs.rho) * (-1j) ** m / pi_product(rs, lam))


def plancherel_density(rs: RootSystemSpec, lam) -> np.ndarray | float:
    """|c(λ)|⁻² = π(λ)²/π(ρ)²; vanishes quadratically on the walls."""
    p = pi_product(rs, lam)
    return p * p / pi_product(rs, rs.rho) ** 2


# --- spherical functions -------------------------------------------------------

def spherical_numerator(rs: RootSystemSpec, lam, h) -> np.ndarray | complex:
    """A_λ(H) = Σ_s (det s) e^{i⟨sλ,H⟩}; antisymmetric in both arguments."""
    orbit = rs.orbit(np.asarray(lam, dtype=float))
    signs = rs.weyl_signs()
    h = np.asarray(h, dtype=float)
    scalar = h.ndim == 1
    val = np.exp(1j * (h @ orbit.T)) @ signs.astype(complex)
    return complex(val) if scalar else val


def spherical_function(rs: RootSystemSpec, lam, h) -> np.ndarray | complex:
    """φ_λ(H), with φ_λ(0) = 1 by the analytic limit.

    Raises ChamberWallEvaluation when a nonzero H sits so close to a
    chamber wall that the quotient's cancellation would eat more than
    ~8 digits (|φ(H)| below 1e-8 times the local term scale).
    """
    c = c_function(rs, lam)
    h = np.asarray(h, dtype=float)
    scalar = h.ndim == 1
    hh = h[None, :] if scalar else h
    phi, m, wall = _scaled_denominator(rs, hh)
    at_origin = np.einsum("...i,...i->...", hh, hh) < 1e-28
    if np.any(wall & ~at_origin):
        raise ChamberWallEvaluation(
            "H within the chamber-wall band; no stable quotient there")
    num = np.asarray(spherical_numerator(rs, lam, hh))
    out = np.ones(hh.shape[:-1], dtype=complex)
    ok = ~at_origin
    out[ok] = c * num[ok] * np.exp(-m[ok]) / phi[ok]
    return complex(out[0]) if scalar else out


# --- PLAIN <-> CONJUGATED ------------------------------------------------------

def to_conjugated(rs: RootSystemSpec, field: BiInvariantField) -> BiInvariantField:
    """Multiply by φ. NaNs in the input (wall-recovered fields) propagate."""
    if field.representation is Representation.CONJUGATED:
        return field
    phi = denominator_on_grid(rs, field.grid)
    return field.with_values(field.values * phi, Representation.CONJUGATED)


def to_plain(rs: RootSystemSpec, field: BiInvariantField) -> BiInvariantField:
    """Divide by φ, as e^{-m}·(u·φ) over e^{-m}·φ; wall nodes become NaN."""
    if field.representation is Representation.PLAIN:
        return field
    phi, m, wall = (a.reshape(field.grid.shape)
                    for a in _scaled_denominator(rs, field.grid.nodes()))
    keep = ~wall
    vals = np.full(field.grid.shape, np.nan, dtype=complex)
    vals[keep] = field.values[keep] * np.exp(-m[keep]) / phi[keep]
    return field.with_values(vals, Representation.PLAIN)


def conjugated_values(rs: RootSystemSpec, field: BiInvariantField) -> np.ndarray:
    if field.representation is Representation.CONJUGATED:
        return field.values
    return field.values * denominator_on_grid(rs, field.grid)


# --- spherical transform --------------------------------------------------------

def _check_oscillation(space: RadialGrid, lam_max: float) -> None:
    # separable kernel: the per-axis phase step is spacing * lam_max
    if space.spacing * lam_max > np.pi:
        raise GridTooSmall(
            f"space grid spacing {space.spacing:.3g} cannot resolve "
            f"e^(-i lambda H) up to |lambda| = {lam_max:.3g} per axis")


def spherical_transform(rs: RootSystemSpec, field: BiInvariantField,
                        spectral_grid: RadialGrid) -> SpectralField:
    """f̂(λ) = ∫ φ_{-λ}(H) f(H) φ²(H) dH over the full box.

    Computed through the conjugate profile: f̂ = |W|·c(-λ)·ĝ(λ) with
    g = f·φ antisymmetrically extended, which is the same trapezoid sum
    with the Weyl terms collapsed. Wall nodes of the spectral grid get
    value 0 and a singular_mask entry (the Plancherel weight is 0 there).
    """
    if spectral_grid.rank != rs.rank:
        raise GridTooSmall("spectral grid rank does not match root system")
    g = conjugated_values(rs, field)
    require_tail(g, what="conjugated profile")
    _check_oscillation(field.grid, spectral_grid.half_width)

    ghat = fourier_at(g, field.grid, [spectral_grid.axis] * rs.rank, sign=-1)
    lam_nodes = spectral_grid.nodes()
    singular = _is_spectral_singular(rs, lam_nodes).reshape(spectral_grid.shape)
    pi_vals = np.asarray(pi_product(rs, lam_nodes)).reshape(spectral_grid.shape)
    m = rs.n_positive
    # c(-λ) = π(ρ)·i^m / π(λ) for real λ
    coef = np.zeros(spectral_grid.shape, dtype=complex)
    coef[~singular] = (pi_product(rs, rs.rho) * (1j) ** m) / pi_vals[~singular]
    values = rs.weyl_order * coef * ghat
    values[singular] = 0.0
    return SpectralField(spectral_grid, values, singular)


def spherical_transform_direct(rs: RootSystemSpec, field: BiInvariantField,
                               lams: np.ndarray) -> np.ndarray:
    """Direct-quadrature oracle for f̂ at arbitrary regular λ points.

    Sums the pointwise integrand c(-λ)·A_{-λ}(H)·f(H)·φ(H) node by node
    (the quotient and the density combined before any division, so wall
    nodes cost nothing). Slow; used to cross-check the collapsed path.
    """
    g = conjugated_values(rs, field)
    nodes = field.grid.nodes()
    w = field.grid.cell_volume()
    out = np.empty(len(lams), dtype=complex)
    for i, lam in enumerate(np.atleast_2d(lams)):
        c_neg = c_function(rs, -np.asarray(lam, dtype=float))
        a_neg = spherical_numerator(rs, -np.asarray(lam, dtype=float), nodes)
        out[i] = c_neg * np.sum(a_neg.reshape(field.grid.shape) * g) * w
    return out


# --- synthesis -------------------------------------------------------------------

def synthesize_conjugated(rs: RootSystemSpec, spectral: SpectralField,
                          out_axes: list[np.ndarray],
                          extra_phase: np.ndarray | None = None) -> np.ndarray:
    """u·φ from spectral data: κ·∫ A_λ(H)·c(λ)|c(λ)|⁻²·F(λ) dλ, collapsed.

    With G(λ) = π(λ)F(λ) (antisymmetric for Weyl-invariant F) the Weyl sum
    collapses to κ·(-i)^m·|W|/π(ρ) times a single inverse-kernel Fourier
    sum. `extra_phase` multiplies F nodewise (used for evolution factors).
    """
    kappa = plancherel_constant(rs)
    m = rs.n_positive
    pi_vals = np.asarray(
        pi_product(rs, spectral.grid.nodes())).reshape(spectral.grid.shape)
    integrand = pi_vals * spectral.values
    if extra_phase is not None:
        integrand = integrand * extra_phase
    ft = fourier_at(integrand, spectral.grid, out_axes, sign=+1)
    pref = kappa * (-1j) ** m * rs.weyl_order / pi_product(rs, rs.rho)
    return pref * ft


def inverse_spherical_transform(rs: RootSystemSpec, spectral: SpectralField,
                                space_grid: RadialGrid) -> BiInvariantField:
    """Spectral synthesis back to a PLAIN profile (NaN at wall nodes)."""
    require_tail(spectral.values, what="spectral field")
    if spectral.grid.spacing * space_grid.half_width > np.pi:
        raise GridTooSmall(
            "spectral spacing too coarse for the requested output extent")
    uphi = synthesize_conjugated(rs, spectral, [space_grid.axis] * rs.rank)
    conj = BiInvariantField(space_grid, uphi, Representation.CONJUGATED)
    return to_plain(rs, conj)


def plancherel_constant(rs: RootSystemSpec) -> float:
    """Global synthesis constant κ = (2π)^{-l}/|W|²."""
    return (2.0 * np.pi) ** (-rs.rank) / rs.weyl_order ** 2


def roundtrip_error(rs: RootSystemSpec, field: BiInvariantField,
                    spectral_grid: RadialGrid) -> float:
    """Relative L²(φ²dH) error of inverse(transform(f)) against f.

    Evaluated on conjugated profiles, which is the identical integral
    ∫|u-f|²φ²dH = ∫|uφ-fφ|²dH without dividing at wall nodes.
    """
    g = conjugated_values(rs, field)
    spec = spherical_transform(rs, field, spectral_grid)
    uphi = synthesize_conjugated(rs, spec, [field.grid.axis] * rs.rank)
    return l2_norm(uphi - g, field.grid) / l2_norm(g, field.grid)


# --- radial Laplacian -------------------------------------------------------------

def radial_laplacian(rs: RootSystemSpec, field: BiInvariantField,
                     spacing: float | None = None) -> BiInvariantField:
    """Δ_rad f through the conjugation identity φ⁻¹(Δ_euclid - |ρ|²)(φf).

    Second-order centered differences on the conjugated profile; the
    one-node border and wall nodes come back NaN (not-a-value), everything
    else is defined at interior regular nodes. g is differenced in units of
    e^{m(H)} at each node, so φ = e^m·(e^{-m}φ) is never formed whole.
    """
    if field.representation is not Representation.PLAIN:
        raise ValueError("radial_laplacian expects a PLAIN field")
    h = field.grid.spacing if spacing is None else spacing
    if abs(h - field.grid.spacing) > 1e-15 * field.grid.spacing:
        raise ValueError("spacing override does not match the field's grid")
    if field.grid.points_per_axis < 5:
        raise ValueError("need at least 3 interior points per axis")
    phi, m, wall = (a.reshape(field.grid.shape)
                    for a in _scaled_denominator(rs, field.grid.nodes()))
    g = field.values * phi
    lap = np.full(field.grid.shape, np.nan, dtype=complex)
    core = (slice(1, -1),) * rs.rank
    acc = np.zeros(g[core].shape, dtype=complex)
    for ax in range(rs.rank):
        lo = tuple(slice(0, -2) if a == ax else slice(1, -1)
                   for a in range(rs.rank))
        hi = tuple(slice(2, None) if a == ax else slice(1, -1)
                   for a in range(rs.rank))
        acc += (g[lo] * np.exp(m[lo] - m[core])
                + g[hi] * np.exp(m[hi] - m[core]) - 2.0 * g[core])
    lap[core] = acc / (h * h)
    rho_sq = float(rs.rho @ rs.rho)
    out = np.full(field.grid.shape, np.nan, dtype=complex)
    keep = ~wall
    out[keep] = lap[keep] / phi[keep] - rho_sq * field.values[keep]
    return field.with_values(out, Representation.PLAIN)


def spherical_function_field(rs: RootSystemSpec, lam: np.ndarray,
                             grid: RadialGrid) -> BiInvariantField:
    """φ_λ sampled on a grid (PLAIN, NaN at wall nodes).

    Materialized through the conjugated closed form c(λ)·A_λ, so only the
    final division is grid-sensitive.
    """
    lam = np.asarray(lam, dtype=float)
    c = c_function(rs, lam)
    num = np.asarray(
        spherical_numerator(rs, lam, grid.nodes())).reshape(grid.shape)
    return to_plain(rs, BiInvariantField(grid, c * num,
                                         Representation.CONJUGATED))


def eigen_residual_field(rs: RootSystemSpec, lam: np.ndarray,
                         grid: RadialGrid) -> np.ndarray:
    """|Δ_rad φ_λ + (|λ|²+|ρ|²) φ_λ| nodewise (NaN at border/wall nodes).

    The eigenfunction is exact up to rounding; the residual isolates the
    O(h²) finite-difference error of the radial Laplacian.
    """
    lam = np.asarray(lam, dtype=float)
    field = spherical_function_field(rs, lam, grid)
    lap = radial_laplacian(rs, field)
    eig = float(lam @ lam) + float(rs.rho @ rs.rho)
    return np.abs(lap.values + eig * field.values)


def eigen_residual(rs: RootSystemSpec, lam: np.ndarray, grid: RadialGrid,
                   node_mask: np.ndarray | None = None) -> float:
    """Max interior residual of the eigen-relation on the grid."""
    resid = eigen_residual_field(rs, lam, grid)
    if node_mask is not None:
        resid = np.where(node_mask, resid, np.nan)
    return float(np.nanmax(resid))
