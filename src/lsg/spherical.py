"""Weyl denominator, c-function, spherical functions and transforms.

On a complex semi-simple group everything radial reduces to the Cartan
subalgebra: the Haar density is the squared Weyl denominator

    φ(H) = Σ_{s∈W} (det s) e^{⟨sρ, H⟩},      dx = φ(H)² dH,

the elementary spherical functions are φ_λ = c(λ)·Σ_s (det s)e^{i⟨sλ,H⟩}/φ(H)
with c(λ) = π(ρ)/π(iλ), π(μ) = Π_{α>0}⟨μ,α⟩, normalized so φ_λ(0) = 1, and
the spherical transform of a Weyl-invariant profile f collapses to an
ordinary Fourier transform of the antisymmetric conjugate g = f·φ:

    f̂(λ) = |W| · c(-λ) · ĝ(λ),   c(-λ) = π(ρ)·i^m/π(λ),  m = |Σ₊|.

Synthesis against the Plancherel density |c(λ)|⁻² dλ reads f̂ only through
π(λ)·f̂(λ), so the spectral side stores the conjugated spectrum

    G(λ) = π(λ)·f̂(λ) = |W|·π(ρ)·i^m·ĝ(λ),

as the space side stores u·φ. The transform is one Euclidean Fourier
transform times a constant and synthesis one inverse transform times
κ·(-i)^m·|W|/π(ρ), with κ = (2π)^{-l}/|W|² the Euclidean constant on the
rank-l Cartan subalgebra. Neither divides by π(λ) nor looks at a Weyl
wall; `spectral_to_plain` does that when f̂ itself is wanted. Schrödinger
evolution multiplies G by e^{-it|λ|²} = Π_d e^{-itλ_d²}, a 1-D factor per
axis, and by the constant e^{-it|ρ|²}.

Weyl's denominator identity turns the |W| sum into a product over the
positive roots,

    φ(H) = Π_{α>0} 2·sinh(α(H)/2),

so φ, π(λ) and both wall masks (chamber walls in H, Weyl walls in λ) come
from the root pairings ⟨α,H⟩ alone; on a grid each pairing is a sum of
1-D axes. Only the numerator A_λ of φ_λ keeps the Weyl sum: it has no
product form, but on a grid each of its terms is an outer product of 1-D
exponentials. The tests keep the sum as the oracle for φ.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import (ChamberWallEvaluation, GridTooSmall,
                     SingularSpectralParameter)
from .grids import (BiInvariantField, RadialGrid, Representation,
                    SpectralField, fourier_at, l2_norm, require_tail)
from .rootsystem import RootSystemSpec

WALL_RTOL = 1e-8          # |φ| below this fraction of its scale e^m is wall
_SPECTRAL_WALL_TOL = 1e-9


# --- root pairings: φ, π and both wall masks ----------------------------------

def _root_pairings(rs: RootSystemSpec, h) -> Iterator[np.ndarray]:
    """⟨α, H⟩ for each positive root α in turn, at stacked H (..., rank) or
    at every node of a RadialGrid.

    On a grid each pairing is Σ_d α_d·x_d over the axes α touches, 1-D
    axes broadcast against each other, so a product system's roots touch
    only their own factor's axes and nothing grows to N^l × |Σ₊|. The
    pairings are formed one root at a time, as the consumer draws them.
    """
    if isinstance(h, RadialGrid):
        axes = h.broadcast_axes()
        return (sum(a[d] * axes[d] for d in np.flatnonzero(a))
                for a in rs.positive_roots)
    h = np.asarray(h, dtype=float)
    return (h @ a for a in rs.positive_roots)


def _pi_and_spectral_wall(rs: RootSystemSpec, pairs: Iterable[np.ndarray],
                          lam_norm: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(π(λ), wall) in one pass over the pairings ⟨λ,α⟩: their product,
    and True where some |⟨λ,α⟩| < 1e-9·max(1, |λ||α|)."""
    norms = np.linalg.norm(rs.positive_roots, axis=-1)
    pi_vals = np.ones(np.shape(lam_norm))
    wall = np.zeros(np.shape(lam_norm), dtype=bool)
    for pair, r in zip(pairs, norms):
        pi_vals *= pair
        scale = np.maximum(1.0, lam_norm * r)
        wall |= np.abs(pair) < _SPECTRAL_WALL_TOL * scale
    return pi_vals, wall


def _scaled_denominator(rs: RootSystemSpec, h
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^{-m}·φ(H), m, wall) at stacked H (..., rank) or on a RadialGrid.

    Weyl's denominator identity φ(H) = Π_{α>0} 2·sinh(α(H)/2) gives, with
    m = ½·Σ_{α>0}|α(H)| = max_s ⟨sρ,H⟩,

        e^{-m}·φ(H) = Π_{α>0} sgn(α(H))·(1 − e^{−|α(H)|}),

    which neither cancels nor overflows. `wall` is the chamber-wall rule
    |e^{-m}·φ(H)| < 1e-8: there the Weyl sum's cancellation eats more
    than ~8 digits of its scale e^m, and division by φ is unsafe.
    """
    shape = h.shape if isinstance(h, RadialGrid) else np.shape(h)[:-1]
    phi, m = np.ones(shape), np.zeros(shape)
    for pair in _root_pairings(rs, h):
        size = np.abs(pair)
        m += size
        phi *= -np.expm1(-size) * np.sign(pair)
    m *= 0.5
    return phi, m, np.abs(phi) < WALL_RTOL


def weyl_denominator(rs: RootSystemSpec, h) -> np.ndarray | float:
    """φ(H) = Σ_s (det s) e^{⟨sρ,H⟩} as Weyl's Π_{α>0} 2·sinh(α(H)/2), at
    a vector (rank,), a stack (..., rank) or every node of a RadialGrid.

    Exactly 0 where a pairing is 0; ±inf, or NaN at a wall node, only
    where a factor or the product leaves the float range.
    """
    shape = h.shape if isinstance(h, RadialGrid) else np.shape(h)[:-1]
    out = np.full(shape, 2.0 ** rs.n_positive)
    for pair in _root_pairings(rs, h):
        out *= np.sinh(0.5 * pair)
    return float(out) if out.ndim == 0 else out


def density(rs: RootSystemSpec, h) -> np.ndarray | float:
    """Radial Haar density φ(H)² ≥ 0."""
    phi = weyl_denominator(rs, h)
    return phi * phi


def denominator_on_grid(rs: RootSystemSpec, grid: RadialGrid) -> np.ndarray:
    """φ at every node of the grid."""
    return weyl_denominator(rs, grid)


def wall_mask(rs: RootSystemSpec, grid: RadialGrid) -> np.ndarray:
    """Grid nodes on the chamber-wall band (see _scaled_denominator)."""
    return _scaled_denominator(rs, grid)[2]


# --- c-function ---------------------------------------------------------------

def pi_product(rs: RootSystemSpec, mu) -> np.ndarray | float:
    """π(μ) = Π_{α∈Σ₊} ⟨μ, α⟩, vectorized over stacked μ."""
    mu = np.asarray(mu, dtype=float)
    val = np.ones(mu.shape[:-1])
    for pair in _root_pairings(rs, mu):
        val *= pair
    return float(val) if mu.ndim == 1 else val


def _is_spectral_singular(rs: RootSystemSpec, lam: np.ndarray) -> np.ndarray:
    """True where some ⟨λ,α⟩ vanishes to tolerance (λ on a Weyl wall)."""
    lam = np.asarray(lam, dtype=float)
    return _pi_and_spectral_wall(rs, _root_pairings(rs, lam),
                                 np.linalg.norm(lam, axis=-1))[1]


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


# --- spherical functions -------------------------------------------------------

def spherical_numerator(rs: RootSystemSpec, lam, h) -> np.ndarray | complex:
    """A_λ(H) = Σ_s (det s) e^{i⟨sλ,H⟩}, antisymmetric in both arguments,
    at stacked H (..., rank) or, term by term ⊗_d e^{i(sλ)_d x_d}, on a grid."""
    orbit = rs.orbit(np.asarray(lam, dtype=float))
    signs = rs.weyl_signs()
    if isinstance(h, RadialGrid):
        out = np.zeros(h.shape, dtype=complex)
        for mu, sign in zip(orbit, signs):
            term = sign * np.exp(1j * mu[0] * h.axis)
            for m in mu[1:]:
                term = np.multiply.outer(term, np.exp(1j * m * h.axis))
            out += term
        return out
    h = np.asarray(h, dtype=float)
    scalar = h.ndim == 1
    val = np.exp(1j * (h @ orbit.T)) @ signs.astype(complex)
    return complex(val) if scalar else val


def spherical_function(rs: RootSystemSpec, lam, h) -> np.ndarray | complex:
    """φ_λ(H), with φ_λ(0) = 1 by the analytic limit.

    Raises ChamberWallEvaluation when a nonzero H sits so close to a
    chamber wall that the quotient's cancellation would eat more than
    ~8 digits (|φ(H)| below 1e-8·e^m, m = max_s ⟨sρ,H⟩).
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

def to_plain(rs: RootSystemSpec, field: BiInvariantField) -> BiInvariantField:
    """Divide by φ, as e^{-m}·(u·φ) over e^{-m}·φ; wall nodes become NaN."""
    if field.representation is Representation.PLAIN:
        return field
    phi, m, wall = _scaled_denominator(rs, field.grid)
    phi[wall] = 1.0
    vals = field.values * np.exp(-m)
    vals /= phi
    vals[wall] = np.nan
    return field.with_values(vals, Representation.PLAIN)


def conjugated_values(rs: RootSystemSpec, field: BiInvariantField) -> np.ndarray:
    if field.representation is Representation.CONJUGATED:
        return field.values
    return field.values * denominator_on_grid(rs, field.grid)


def conjugated_with(field: BiInvariantField, phi: np.ndarray) -> np.ndarray:
    """conjugated_values with φ = denominator_on_grid(rs, field.grid) given,
    so that many fields on one grid share one φ."""
    if field.representation is Representation.CONJUGATED:
        return field.values
    return field.values * phi


# --- spherical transform --------------------------------------------------------

def spectral_input(rs: RootSystemSpec, field: BiInvariantField,
                   spectral_grid: RadialGrid) -> np.ndarray:
    """g = f·φ, checked for a sum onto `spectral_grid`: h·λ_max ≤ π."""
    if spectral_grid.rank != rs.rank:
        raise GridTooSmall("spectral grid rank does not match root system")
    g = conjugated_values(rs, field)
    require_tail(g, what="conjugated profile")
    h, lam_max = field.grid.spacing, spectral_grid.half_width
    if h * lam_max > np.pi:
        raise GridTooSmall(
            f"space grid spacing {h:.3g} cannot resolve "
            f"e^(-i lambda H) up to |lambda| = {lam_max:.3g} per axis")
    return g


def spherical_transform(rs: RootSystemSpec, field: BiInvariantField,
                        spectral_grid: RadialGrid) -> SpectralField:
    """G(λ) = π(λ)·f̂(λ), f̂(λ) = ∫ φ_{-λ}(H) f(H) φ²(H) dH over the full box.

    Computed through the conjugate profile: G = |W|·π(ρ)·i^m·ĝ(λ) with
    g = f·φ antisymmetrically extended, which is the same trapezoid sum
    with the Weyl terms collapsed and c(-λ)'s 1/π(λ) left out.
    """
    g = spectral_input(rs, field, spectral_grid)
    values = fourier_at(g, field.grid, [spectral_grid.axis] * rs.rank, sign=-1)
    values *= rs.weyl_order * pi_product(rs, rs.rho) * 1j ** rs.n_positive
    return SpectralField(spectral_grid, values)


def spectral_to_plain(rs: RootSystemSpec, spectral: SpectralField
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(f̂, singular): f̂ = G/π(λ), set to 0 on the Weyl-wall nodes that
    `singular` flags, where π(λ) vanishes and so does the Plancherel weight."""
    grid = spectral.grid
    pi_vals, singular = _pi_and_spectral_wall(
        rs, _root_pairings(rs, grid), np.sqrt(grid.radius_sq()))
    fhat = np.zeros(grid.shape, dtype=complex)
    np.divide(spectral.values, pi_vals, out=fhat, where=~singular)
    return fhat, singular


def spherical_transform_direct(rs: RootSystemSpec, field: BiInvariantField,
                               lams: np.ndarray) -> np.ndarray:
    """Direct-quadrature oracle for f̂ at arbitrary regular λ points.

    Sums the pointwise integrand c(-λ)·A_{-λ}(H)·f(H)·φ(H) node by node
    (the quotient and the density combined before any division, so wall
    nodes cost nothing). Slow; used to cross-check the collapsed path.
    """
    g = conjugated_values(rs, field)
    w = field.grid.cell_volume()
    out = np.empty(len(lams), dtype=complex)
    for i, lam in enumerate(np.atleast_2d(lams)):
        neg = -np.asarray(lam, dtype=float)
        c_neg = c_function(rs, neg)
        a_neg = spherical_numerator(rs, neg, field.grid)
        out[i] = c_neg * np.sum(a_neg * g) * w
    return out


# --- synthesis -------------------------------------------------------------------

def synthesize_conjugated(rs: RootSystemSpec, spectral: SpectralField,
                          out_axes: list[np.ndarray],
                          t: float = 0.0) -> np.ndarray:
    """u·φ from spectral data: κ·∫ A_λ(H)·c(λ)|c(λ)|⁻²·f̂(λ) dλ, collapsed,
    after Schrödinger evolution for time t.

    The Weyl sum collapses to κ·(-i)^m·|W|/π(ρ) times a single inverse
    Fourier sum of G = π·f̂. At t ≠ 0 the evolution factor
    e^{-it(|λ|²+|ρ|²)} enters as the 1-D weight e^{-itλ_d²} of that sum and
    the constant e^{-it|ρ|²} of the prefactor.
    """
    grid = spectral.grid
    weight = np.exp(-1j * t * grid.axis**2) if t else 1.0
    ft = fourier_at(spectral.values, grid, out_axes, sign=+1, weight=weight)
    pref = (plancherel_constant(rs) * (-1j) ** rs.n_positive * rs.weyl_order
            / pi_product(rs, rs.rho) * np.exp(-1j * t * float(rs.rho @ rs.rho)))
    return np.multiply(pref, ft, out=ft)


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

def radial_laplacian(rs: RootSystemSpec,
                     field: BiInvariantField) -> BiInvariantField:
    """Δ_rad f through the conjugation identity φ⁻¹(Δ_euclid - |ρ|²)(φf).

    Second-order centered differences on the conjugated profile; the
    one-node border and wall nodes come back NaN (not-a-value), everything
    else is defined at interior regular nodes. g is differenced in units of
    e^{m(H)} at each node, so φ = e^m·(e^{-m}φ) is never formed whole.
    """
    if field.representation is not Representation.PLAIN:
        raise ValueError("radial_laplacian expects a PLAIN field")
    if field.grid.points_per_axis < 5:
        raise ValueError("need at least 3 interior points per axis")
    phi, m, wall = _scaled_denominator(rs, field.grid)
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
    h = field.grid.spacing
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
    conj = c_function(rs, lam) * spherical_numerator(rs, lam, grid)
    return to_plain(rs, BiInvariantField(grid, conj, Representation.CONJUGATED))


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
