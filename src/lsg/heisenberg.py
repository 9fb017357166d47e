"""Heisenberg-group computations: heat integrand, continued integrand,
geodesics, circle projections, cut-locus.

The group is viewed as R³ with points (x, u, ξ). The heat-kernel integrand
is smooth (removable singularity at λ = 0), but its analytic continuation
t → -it — the would-be Schrödinger kernel — is singular at λ = kπ/t, the
same distances kπ/t at which geodesics through the origin hit their
cut-locus along circles of radius 1/t in the contact plane. Because of
that, no λ-integration of the continued integrand is offered: the module
exposes the integrand and its singular set, nothing more.

Evaluation here deliberately does not reuse the semi-simple machinery:
the sub-Laplacian setting has no Weyl denominator to conjugate with.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, EvaluationAtSingularity, QuadratureFailure

_SERIES_CUTOFF = 1e-4       # |λt| below this uses the removable-limit series
_SINGULARITY_GUARD = 1e-9
_MAX_DOUBLINGS = 14


def _lam_over_sinh(lam: float, t: float) -> float:
    """λ/sinh(λt), series branch near the removable point λt = 0."""
    z = lam * t
    if abs(z) < _SERIES_CUTOFF:
        # 1/sinh(z) = (1/z)(1 - z²/6 + 7z⁴/360 + ...)
        return (1.0 - z * z / 6.0 + 7.0 * z**4 / 360.0) / t
    # 1/sinh(z) = 2e^{-z}/(1 - e^{-2z}) at z > 0: no overflow at large |z|
    a = abs(z)
    return np.sign(z) * 2.0 * lam * np.exp(-a) / -np.expm1(-2.0 * a)


def _lam_coth(lam: float, t: float) -> float:
    """λ·coth(λt) with the same series treatment."""
    z = lam * t
    if abs(z) < _SERIES_CUTOFF:
        # coth(z) = 1/z + z/3 - z³/45 + ...
        return 1.0 / t + lam * lam * t / 3.0 - lam**4 * t**3 / 45.0
    return lam / np.tanh(z)


def _lam_over_sin(lam: float, t: float) -> float:
    z = lam * t
    if abs(z) < _SERIES_CUTOFF:
        # 1/sin(z) = (1/z)(1 + z²/6 + 7z⁴/360 + ...)
        return (1.0 + z * z / 6.0 + 7.0 * z**4 / 360.0) / t
    return lam / np.sin(z)


def _lam_cot(lam: float, t: float) -> float:
    z = lam * t
    if abs(z) < _SERIES_CUTOFF:
        # cot(z) = 1/z - z/3 - z³/45 - ...
        return 1.0 / t - lam * lam * t / 3.0 - lam**4 * t**3 / 45.0
    return lam / np.tan(z)


def heat_integrand(lam: float, x: float, u: float, xi: float,
                   t: float) -> complex:
    """e^{-iλξ} e^{-tλ²} (λ/sinh λt) e^{-¼ λ coth(λt)(x²+u²)}, t > 0."""
    if t <= 0:
        raise ValueError("heat integrand needs t > 0")
    radial = x * x + u * u
    return (np.exp(-1j * lam * xi) * np.exp(-t * lam * lam)
            * _lam_over_sinh(lam, t)
            * np.exp(-0.25 * _lam_coth(lam, t) * radial))


def heat_kernel(x: float, u: float, xi: float, t: float,
                tol: float = 1e-10) -> complex:
    """Unnormalized heat kernel: adaptive Gauss–Legendre over λ.

    The λ-range is truncated where the Gaussian factor e^{-tλ²} drops
    below tol relative to its peak; composite panels double, at most 14
    times, until two successive estimates agree to tol (relative). It
    gives up after the first doubling when even the finest panel would
    hold fewer than two Gauss nodes per wavelength of e^{-iλξ}, and once
    the change stalls at rounding, 100·eps·Σ|terms|. Its normalization is
    not pinned down here.
    """
    if t <= 0 or tol <= 0:
        raise ValueError("heat_kernel needs t > 0 and tol > 0")
    lam_max = np.sqrt(max(np.log(1.0 / tol), 1.0) / t) + 2.0 / np.sqrt(t)

    base_nodes, base_weights = np.polynomial.legendre.leggauss(16)
    # fewer than 2 Gauss nodes per wavelength 2π/|ξ| on the finest panel
    finest = 2.0 * lam_max / 2 ** (_MAX_DOUBLINGS + 1)
    unresolved = abs(xi) * finest > np.pi * base_nodes.size

    def composite(panels: int) -> tuple[complex, float]:
        edges = np.linspace(-lam_max, lam_max, panels + 1)
        total, size = 0.0 + 0.0j, 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for node, weight in zip(base_nodes, base_weights):
                term = half * weight * heat_integrand(
                    mid + half * node, x, u, xi, t)
                total += term
                size += abs(term)
        return total, size

    prev, change = composite(2)[0], np.inf
    for k in range(1, _MAX_DOUBLINGS + 1):
        cur, size = composite(2 ** (k + 1))
        step = abs(cur - prev)
        if step <= tol * max(abs(cur), 1e-300):
            return cur
        stalled = change <= step <= 100.0 * np.finfo(float).eps * size
        if not np.isfinite(cur) or unresolved or stalled:
            break           # none of these ever converges
        prev, change = cur, step
    raise QuadratureFailure(
        f"heat kernel quadrature did not converge to {tol:g}")


def singularities(t: float, k_max: int) -> list[float]:
    """The continued integrand's singular set {kπ/t : k = 1..k_max}."""
    if t <= 0 or k_max < 1:
        raise ValueError("need t > 0 and k_max >= 1")
    return [k * np.pi / t for k in range(1, k_max + 1)]


def singularity_count(t: float, lam_max: float) -> int:
    """How many kπ/t lie in (0, |λ_max|]; ConfigError when |λ_max|·t or
    the width 2|λ_max| of the range overflows."""
    reach = abs(lam_max) * t / np.pi
    if not np.isfinite(reach) or not np.isfinite(2.0 * lam_max):
        raise ConfigError(f"lambda range ±{abs(lam_max):g} at t {t:g} overflows")
    return int(reach)


def schrodinger_integrand(lam: float, x: float, u: float, t: float) -> complex:
    """(λ/sin λt) e^{-(i/4) λ cot(λt)(x²+u²)}: the t → -it continuation.

    Pointwise evaluation only; no λ-integration is offered because the
    putative solution operator is singular at every λ = kπ/t (and blows
    up toward a Dirac delta there at x = u = 0). Evaluation within 1e-9
    of a singularity raises.
    """
    if t <= 0:
        raise ValueError("needs t > 0")
    k_near = round(abs(lam) * t / np.pi)
    if k_near >= 1 and abs(abs(lam) - k_near * np.pi / t) < _SINGULARITY_GUARD:
        raise EvaluationAtSingularity(
            f"lambda = {lam:g} within {_SINGULARITY_GUARD:g} of "
            f"{k_near}·pi/t")
    radial = x * x + u * u
    return (_lam_over_sin(lam, t)
            * np.exp(-0.25j * _lam_cot(lam, t) * radial))


def geodesic_coords(beta: float, t_param: float, s):
    """(x, u, ξ) of the displayed geodesic through the origin at angle β
    and arc parameter s, a scalar or an array; the formula evaluated
    literally. t_param ≠ 0 is its curvature t, not an evolution time."""
    if t_param == 0:
        raise ValueError("t_param must be nonzero")
    t = t_param
    ts = t * np.asarray(s, dtype=float)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    x = (cos_b * (1.0 - np.cos(ts)) + sin_b * np.sin(ts)) / t
    u = (-sin_b * (1.0 - np.cos(ts)) + cos_b * np.sin(ts)) / t
    xi = 2.0 * (ts - np.sin(ts)) / (t * t)
    return x, u, xi


def projection_residual(beta: float, t_param: float,
                        s_samples: np.ndarray) -> float:
    """Max deviation of the contact-plane projection from its circle.

    The projection satisfies (x - cosβ/t)² + (u + sinβ/t)² = 1/t²
    identically; the residual is pure floating-point noise. The whole
    s sweep is one array evaluation of `geodesic_coords`.
    """
    x, u, _ = geodesic_coords(beta, t_param, s_samples)
    t = t_param
    lhs = (x - np.cos(beta) / t) ** 2 + (u + np.sin(beta) / t) ** 2
    return float(np.abs(lhs - 1.0 / (t * t)).max(initial=0.0))


def cutlocus_distance(k: int, t_param: float) -> float:
    """Cut-locus distance kπ/t along the radius-1/t circle.

    Coincides with singularities(t, ·) of the continued integrand — the
    central observation this module exists to exhibit.
    """
    if not (1 <= k < np.inf and int(k) == k):
        raise ValueError("k must be a positive integer")
    if not 0 < t_param < np.inf:
        raise ValueError("t_param must be positive and finite")
    return k * np.pi / t_param
