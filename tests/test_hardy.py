import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsg.errors import (DimensionError, InsufficientDecaySamples,
                        NotGaussianDecay)
from lsg.grids import BiInvariantField, GridMode, RadialGrid, Representation
from lsg.hardy import (Classification, GaussianEnvelope, fit_envelope_report,
                       hardy_product, uniqueness_experiment)
from lsg.heisenberg import cutlocus_distance
from lsg.propagator import gaussian_profile
from lsg.rootsystem import build_root_system, dominant_representative


def magnitude_field(grid, values):
    return BiInvariantField(grid, np.asarray(values, dtype=complex),
                            Representation.PLAIN)


# --- envelope fitting -------------------------------------------------------

def test_fit_recovers_exact_gaussian():
    grid = RadialGrid(1, 12.0, 1024)
    amp, rate = 2.5, 0.8
    f = magnitude_field(grid, amp * np.exp(-rate * grid.axis**2))
    fit = fit_envelope_report(f)
    assert fit.envelope.rate == pytest.approx(rate, abs=1e-10)
    assert fit.envelope.amplitude == pytest.approx(amp, rel=1e-10)
    assert fit.residual_rms <= 1e-10


def test_fit_lemma1_rate():
    from lsg.propagator import euclidean_propagate
    grid = RadialGrid(1, 12.0, 2048)
    f = gaussian_profile(grid, 1.0, chirp=-0.25)
    out = euclidean_propagate(f, 1.0, GridMode.FIXED)
    fit = fit_envelope_report(magnitude_field(grid, np.abs(out.field.values)))
    assert abs(fit.envelope.rate - 1.0 / 16.0) <= 1e-6


def test_fit_flags_exponential_decay():
    grid = RadialGrid(1, 12.0, 1024)
    f = magnitude_field(grid, np.exp(-np.abs(grid.axis)))
    fit = fit_envelope_report(f)
    # decaying but not Gaussian: the fit succeeds with a large residual flag
    assert fit.residual_rms > 0.1


def test_fit_insufficient_samples():
    grid = RadialGrid(1, 2.0, 16)
    f = magnitude_field(grid, np.exp(-grid.axis**2))
    with pytest.raises(InsufficientDecaySamples):
        fit_envelope_report(f)


def test_fit_rejects_growth():
    grid = RadialGrid(1, 4.0, 256)
    f = magnitude_field(grid, np.exp(+0.3 * grid.axis**2))
    with pytest.raises(NotGaussianDecay):
        fit_envelope_report(f)


@given(st.floats(0.1, 10.0))
def test_fit_scale_equivariance(scale):
    grid = RadialGrid(1, 12.0, 512)
    base = magnitude_field(grid, np.exp(-0.7 * grid.axis**2))
    scaled = magnitude_field(grid, scale * np.exp(-0.7 * grid.axis**2))
    e0 = fit_envelope_report(base).envelope
    e1 = fit_envelope_report(scaled).envelope
    assert abs(e1.rate - e0.rate) <= 1e-12
    assert e1.amplitude == pytest.approx(scale * e0.amplitude, rel=1e-10)


def test_fit_line_matches_polyfit():
    """The centred closed-form least squares is polyfit's line, to rounding."""
    grid = RadialGrid(1, 12.0, 2048)
    rng = np.random.default_rng(3)
    x = grid.axis
    for values in (2.0 * np.exp(-0.7 * x**2),
                   np.exp(-0.3 * x**2) * (1.0 + 0.1 * np.cos(5.0 * x)),
                   np.exp(-np.abs(x)) * rng.uniform(0.5, 1.5, x.size)):
        fit = fit_envelope_report(magnitude_field(grid, values))
        mag = np.abs(values)
        sel = (mag >= 1e-10 * mag.max()) & (mag <= 1e-2 * mag.max())
        slope, intercept = np.polyfit(x[sel]**2, np.log(mag[sel]), 1)
        assert fit.envelope.rate == pytest.approx(-slope, rel=1e-12)
        assert fit.envelope.amplitude == pytest.approx(np.exp(intercept),
                                                       rel=1e-10)


# --- products and classification ---------------------------------------------

def test_hardy_product_examples():
    one = GaussianEnvelope(1.0, 1.0)
    sixteenth = GaussianEnvelope(1.0, 1.0 / 16.0)
    v = hardy_product(one, one, 1.0)
    assert v.product == pytest.approx(16.0)
    assert v.classification is Classification.MUST_VANISH
    v = hardy_product(one, sixteenth, 1.0)
    assert v.product == pytest.approx(1.0)
    assert v.classification is Classification.CRITICAL
    # free Gaussian evolution stays strictly below threshold for every t
    a = 1.3
    for t in (0.3, 1.0, 2.7):
        b = a / (1.0 + 16.0 * a * a * t * t)
        v = hardy_product(GaussianEnvelope(1.0, a), GaussianEnvelope(1.0, b), t)
        assert v.product < 1.0
        assert v.classification in (Classification.INCONCLUSIVE,
                                    Classification.CRITICAL)


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.floats(0.1, 2.0), st.floats(0.1, 2.0))
def test_product_monotone_in_t0(a, b, t_lo, t_hi):
    env_a, env_b = GaussianEnvelope(1.0, a), GaussianEnvelope(1.0, b)
    lo, hi = sorted((t_lo, t_hi))
    if hi - lo < 1e-9:
        return
    p_lo = hardy_product(env_a, env_b, lo).product
    p_hi = hardy_product(env_a, env_b, hi).product
    assert p_hi > p_lo


@given(st.floats(0.3, 1.7))
def test_classification_bands(product_target):
    # engineer envelopes with an exact product, then check the band logic
    env = GaussianEnvelope(1.0, 1.0)
    t0 = 1.0
    other = GaussianEnvelope(1.0, product_target / 16.0)
    v = hardy_product(env, other, t0, tol_crit=0.02)
    if v.product > 1.02:
        assert v.classification is Classification.MUST_VANISH
    elif v.product >= 0.98:
        assert v.classification is Classification.CRITICAL
    else:
        assert v.classification is Classification.INCONCLUSIVE


# --- end-to-end experiments ------------------------------------------------------

def test_experiment_lemma1_critical():
    grid = RadialGrid(1, 12.0, 2048)
    f = gaussian_profile(grid, 1.0, chirp=-0.25)
    rep = uniqueness_experiment(build_root_system("euclid:1"), f, 1.0,
                                mode=GridMode.FIXED)
    assert rep.verdict.classification is Classification.CRITICAL
    assert abs(rep.verdict.product - 1.0) <= 1e-3
    assert abs(rep.envelope_u.rate - 1.0 / 16.0) <= 1e-6


def test_experiment_group_gaussian_inconclusive(a1):
    grid = RadialGrid(1, 12.0, 2048)
    f = gaussian_profile(grid, 1.0)
    rep = uniqueness_experiment(a1, f, 1.0, mode=GridMode.FIXED)
    assert not rep.degenerate
    assert rep.verdict.product < 1.0
    assert rep.verdict.classification is Classification.INCONCLUSIVE


def test_experiment_zero_data_degenerate(a1):
    grid = RadialGrid(1, 12.0, 512)
    f = BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                         Representation.PLAIN)
    rep = uniqueness_experiment(a1, f, 1.0)
    assert rep.degenerate
    assert rep.classification_name == "DEGENERATE"


def test_contrapositive_mini_suite(a1):
    """No genuine nonzero solution may measure past the threshold."""
    rng = np.random.default_rng(7)
    r1 = build_root_system("euclid:1")
    egrid = RadialGrid(1, 12.0, 2048)
    ggrid = RadialGrid(1, 12.0, 1024)
    for _ in range(8):
        a = rng.uniform(0.4, 1.8)
        c = rng.uniform(-0.5, 0.5)
        t0 = rng.uniform(0.5, 1.4)
        rep = uniqueness_experiment(r1, gaussian_profile(egrid, a, c),
                                    float(t0), mode=GridMode.SCALED)
        assert rep.verdict.classification is not Classification.MUST_VANISH
    for _ in range(4):
        a = rng.uniform(0.6, 1.1)
        c = rng.uniform(0.0, 0.2)
        t0 = rng.uniform(0.6, 1.1)
        rep = uniqueness_experiment(a1, gaussian_profile(ggrid, a, c),
                                    float(t0), mode=GridMode.FIXED)
        assert rep.verdict.classification is not Classification.MUST_VANISH


def test_euclid_product_curve_formula():
    """Measured 16 a b(t) t^2 against a^2/(...) pointwise."""
    a = 1.0
    r1 = build_root_system("euclid:1")
    grid = RadialGrid(1, 12.0, 2048)
    f = gaussian_profile(grid, a)
    for t in (0.4, 1.0, 1.8):
        rep = uniqueness_experiment(r1, f, t, mode=GridMode.SCALED)
        expected = 16 * a * a * t * t / (1.0 + 16 * a * a * t * t)
        assert rep.verdict.product == pytest.approx(expected, abs=1e-6)


# --- non-finite numbers -----------------------------------------------------

_UNIT = GaussianEnvelope(1.0, 1.0)
_A2 = build_root_system("A2")


@pytest.mark.parametrize("call, error, match", [
    (lambda: hardy_product(_UNIT, _UNIT, np.inf), ValueError, "t0"),
    (lambda: hardy_product(_UNIT, _UNIT, np.nan), ValueError, "t0"),
    (lambda: GaussianEnvelope(np.nan, 1.0), NotGaussianDecay, "finite"),
    (lambda: GaussianEnvelope(1.0, np.inf), NotGaussianDecay, "finite"),
    (lambda: dominant_representative(_A2, [np.nan, 1.0]), DimensionError,
     "finite"),
    (lambda: dominant_representative(_A2, [1.0, -np.inf]), DimensionError,
     "finite"),
    (lambda: cutlocus_distance(np.nan, 1.0), ValueError, "k must"),
    (lambda: cutlocus_distance(np.inf, 1.0), ValueError, "k must"),
    (lambda: cutlocus_distance(1, np.nan), ValueError, "t_param"),
    (lambda: cutlocus_distance(1, np.inf), ValueError, "t_param"),
], ids=["hardy-t0-inf", "hardy-t0-nan", "envelope-amplitude-nan",
        "envelope-rate-inf", "dominant-nan", "dominant-inf", "cutlocus-k-nan",
        "cutlocus-k-inf", "cutlocus-t-nan", "cutlocus-t-inf"])
def test_entry_points_refuse_non_finite_numbers(call, error, match):
    """Each refuses as it does an out-of-range value, not with a false
    verdict, a NaN, an int() error or an assertion; the tier-1 warning
    filters make any RuntimeWarning on the way an error too."""
    with pytest.raises(error, match=match):
        call()
