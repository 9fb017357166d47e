"""Gaussian-envelope fitting and the Hardy-type uniqueness certifier.

The classical uncertainty threshold is 4ab > 1 for a function with
|f| ≤ Ae^{-a|x|²} and |f̂| ≤ Be^{-b|ξ|²}; transplanted to Schrödinger
evolution it becomes 16·a·b·t₀² > 1, where b bounds |u(·,t₀)|. Above the
threshold no nonzero solution exists, so a measured product beyond it
certifies (numerically) that the data must vanish. The free Gaussian
saturates the threshold exactly when the focusing chirp refocuses at t₀,
which is the built-in sharpness regression case.

The certifier reports evidence, not proof: MUST_VANISH means "the
hypotheses of the uniqueness theorem are numerically satisfied".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDecaySamples, NotGaussianDecay
from .grids import BiInvariantField, RadialGrid, Representation
from .propagator import group_propagate_closed_form
from .rootsystem import RootSystemSpec
from .spherical import conjugated

TOL_CRIT_DEFAULT = 0.02
NOISE_FLOOR = 1e-13


class Classification(enum.Enum):
    MUST_VANISH = "must_vanish"
    CRITICAL = "critical"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GaussianEnvelope:
    """The Gaussian amplitude·e^{-rate·|H|²} whose logarithm is the
    least-squares line through log|f| on the fitted nodes.

    Not a bound: sampled values lie on both sides of it. `EnvelopeFit`
    reports how far they scatter about it.
    """

    amplitude: float
    rate: float

    def __post_init__(self):
        if not (0 < self.amplitude < math.inf and 0 < self.rate < math.inf):
            raise NotGaussianDecay(
                f"envelope needs finite positive amplitude and rate, got "
                f"({self.amplitude}, {self.rate})")


@dataclass(frozen=True)
class EnvelopeFit:
    envelope: GaussianEnvelope
    residual_rms: float     # rms of log|v| about the fitted line
    n_samples: int


@dataclass(frozen=True)
class HardyVerdict:
    product: float          # 16·a·b·t₀²
    classification: Classification
    t0: float


def fit_envelope_report(field: BiInvariantField,
                        floor: float = 1e-10) -> EnvelopeFit:
    """Least-squares Gaussian envelope over the annulus
    floor·peak ≤ |v| ≤ 1e-2·peak.

    Fits log|v| against -|H|² on the selected nodes. The annulus skips the
    peak region (where a Gaussian *bound* need not be tight) and the
    sub-1e-10 tail (quadrature noise). NaN nodes (wall-recovered values)
    are ignored.
    """
    mag = np.abs(field.values).ravel()
    rsq = field.grid.radius_sq().ravel()
    usable = np.isfinite(mag) & (mag > 0)
    if not usable.any():
        raise InsufficientDecaySamples("field has no finite nonzero samples")
    peak = mag[usable].max()
    sel = usable & (mag >= floor * peak) & (mag <= 1e-2 * peak)
    if sel.sum() < 16:
        raise InsufficientDecaySamples(
            f"only {int(sel.sum())} nodes in the decay annulus (need 16)")
    x = rsq[sel]
    y = np.log(mag[sel])
    # least squares in closed form, about the centroid of the samples
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float((dx * (y - y_mean)).sum() / (dx * dx).sum())
    intercept = y_mean - slope * x_mean
    rate = -slope
    if rate <= 0:
        raise NotGaussianDecay(f"fitted rate {rate:.3e} is not positive")
    resid = y - (slope * x + intercept)
    return EnvelopeFit(
        envelope=GaussianEnvelope(amplitude=float(np.exp(intercept)), rate=rate),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_samples=int(sel.sum()),
    )


def hardy_product(env_f: GaussianEnvelope, env_u: GaussianEnvelope, t0: float,
                  tol_crit: float = TOL_CRIT_DEFAULT) -> HardyVerdict:
    """Verdict for the evolution threshold 16·a·b·t₀² against 1."""
    if not 0 < t0 < math.inf:
        raise ValueError(f"t0 must be positive and finite, got {t0}")
    product = 16.0 * env_f.rate * env_u.rate * t0 * t0
    if abs(product - 1.0) <= tol_crit:
        verdict = Classification.CRITICAL
    elif product > 1.0 + tol_crit:
        verdict = Classification.MUST_VANISH
    else:
        verdict = Classification.INCONCLUSIVE
    return HardyVerdict(product, verdict, t0)


@dataclass(frozen=True)
class UniquenessReport:
    """End-to-end certification: propagate, fit both envelopes, classify."""

    verdict: HardyVerdict | None
    envelope_f: GaussianEnvelope | None
    envelope_u: GaussianEnvelope | None
    residual_f: float
    residual_u: float
    sup_u: float
    degenerate: bool

    @property
    def classification_name(self) -> str:
        if self.degenerate:
            return "DEGENERATE"
        return self.verdict.classification.name


def _tail_magnitudes(grid: RadialGrid, values: np.ndarray) -> BiInvariantField:
    """|values| with everything inside the peak radius masked out.

    The Gaussian bound is a tail statement; for antisymmetric conjugated
    profiles the magnitude also passes through small values near the
    origin, and those nodes would contaminate a log-linear tail fit. A
    magnitude that peaks at the origin keeps every node.
    """
    mag = np.abs(values)
    rsq = grid.radius_sq()
    peak_rsq = float(rsq.ravel()[int(np.nanargmax(mag))])
    mag = np.where(rsq >= peak_rsq, mag, np.nan)
    return BiInvariantField(grid, mag.astype(complex), Representation.PLAIN)


def uniqueness_experiment(system: RootSystemSpec,
                          field: BiInvariantField, t0: float,
                          tol_crit: float = TOL_CRIT_DEFAULT
                          ) -> UniquenessReport:
    """Propagate to t₀ by the SCALED closed form; certify the decay hypotheses.

    Envelopes are measured on the conjugated magnitudes |fφ|, |uφ| against
    the Cartan norm: that is the level at which the uniqueness argument
    actually runs, and a Gaussian rate certified for u·φ certifies the
    same rate for u (the φ factors move only the amplitude). On R^n
    ("euclid:<n>", no roots) φ ≡ 1 and these are |f| and |u|. u·φ comes
    on a grid that holds it: the input box padded to y_sup + 2t₀·ξ_sup,
    or the 2t₀-scaled dual grid. Fits are restricted to radii beyond the
    magnitude peak. A propagated field below the noise floor everywhere
    reports DEGENERATE rather than a verdict.
    ConfigError unless 0 ≤ tol_crit < ∞.
    """
    if not 0 <= tol_crit < math.inf:
        raise ConfigError(f"tol_crit must be finite and >= 0, got {tol_crit}")
    peak0 = float(np.abs(field.values).max())
    if peak0 <= NOISE_FLOOR:
        return UniquenessReport(None, None, None, 0.0, 0.0, 0.0, True)

    g = conjugated(system, field)
    result = group_propagate_closed_form(system, g, t0)
    sample_f = _tail_magnitudes(field.grid, g.values)
    sample_u = _tail_magnitudes(result.field.grid, result.field.values)

    sup_u = float(np.nanmax(np.abs(result.field.values)))
    if sup_u <= NOISE_FLOOR * max(peak0, 1.0):
        return UniquenessReport(None, None, None, 0.0, 0.0, sup_u, True)

    fit_f = fit_envelope_report(sample_f)
    fit_u = fit_envelope_report(sample_u)
    verdict = hardy_product(fit_f.envelope, fit_u.envelope, t0, tol_crit)
    return UniquenessReport(
        verdict=verdict,
        envelope_f=fit_f.envelope,
        envelope_u=fit_u.envelope,
        residual_f=fit_f.residual_rms,
        residual_u=fit_u.residual_rms,
        sup_u=sup_u,
        degenerate=False,
    )
