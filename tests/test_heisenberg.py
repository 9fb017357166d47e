import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lsg import heisenberg
from lsg.errors import EvaluationAtSingularity, QuadratureFailure
from lsg.heisenberg import (GeodesicParams, cutlocus_distance, geodesic,
                            geodesic_coords, heat_integrand, heat_kernel,
                            projection_residual, schrodinger_integrand,
                            singularities)


# --- heat integrand -----------------------------------------------------------

def test_heat_integrand_at_lambda_zero():
    x, u, xi = 0.7, -0.4, 1.1
    got = heat_integrand(0.0, x, u, xi, 1.0)
    assert got == pytest.approx(np.exp(-(x * x + u * u) / 4.0))
    got2 = heat_integrand(0.0, x, u, xi, 2.0)
    assert got2 == pytest.approx(0.5 * np.exp(-(x * x + u * u) / 8.0))


def test_heat_integrand_conjugate_symmetry():
    for lam in (0.3, 1.7, 4.0):
        a = heat_integrand(lam, 0.5, 0.2, 0.9, 1.2)
        b = heat_integrand(-lam, 0.5, 0.2, 0.9, 1.2)
        assert b == pytest.approx(np.conj(a))


def test_heat_integrand_large_lambda_envelope():
    t = 0.8
    for lam in np.geomspace(2.0, 30.0, 12):
        val = abs(heat_integrand(lam, 0.4, 0.1, 0.0, t))
        bound = 2.0 * lam * np.exp(-t * lam * lam)
        assert val <= bound


@pytest.mark.parametrize("lam", [-1.0, 1.0, 1e3])
def test_heat_integrand_past_sinh_overflow(lam):
    # sinh(λt) overflows at λt = ±1e3, 1e6; λ/sinh(λt), and with it the
    # integrand, is 0 there, not a RuntimeWarning (an error in this suite)
    assert heat_integrand(lam, 0.0, 0.0, 0.0, 1e3) == 0.0


@pytest.mark.parametrize("lam", [-0.1, 0.01, 0.3])
def test_heat_integrand_matches_sinh_below_overflow(lam):
    t = 1e3     # λt up to 300, where sinh is finite
    want = np.exp(-t * lam * lam) * lam / np.sinh(lam * t)
    got = heat_integrand(lam, 0.0, 0.0, 0.0, t)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@given(st.floats(1e-6, 9e-5))
def test_heat_integrand_series_branch_continuity(eps):
    # series branch at |lambda t| < 1e-4 agrees with the limit to O(eps^2)
    t = 1.0
    base = heat_integrand(0.0, 0.3, 0.4, 0.2, t)
    val = heat_integrand(eps, 0.3, 0.4, 0.2, t)
    assert abs(val - base) <= 10.0 * eps


def test_heat_kernel_real_positive_at_zero_xi():
    for (x, u) in ((0.0, 0.0), (0.6, 0.3), (1.5, -0.5)):
        v = heat_kernel(x, u, 0.0, 1.0, tol=1e-10)
        assert abs(v.imag) <= 1e-10 * abs(v.real)
        assert v.real > 0


def test_heat_kernel_monotone_decay_on_ray():
    vals = [heat_kernel(r, 0.0, 0.0, 1.0, tol=1e-10).real
            for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_heat_kernel_truncation_insensitive():
    a = heat_kernel(0.5, 0.2, 0.3, 1.0, tol=1e-8)
    b = heat_kernel(0.5, 0.2, 0.3, 1.0, tol=1e-12)
    assert abs(a - b) <= 1e-7 * abs(b)


def test_heat_kernel_gives_up_on_a_nan_estimate_at_once(monkeypatch):
    # λξ overflows at ξ = 1e308, so every estimate is NaN: one doubling,
    # 16·(2 + 4) integrand calls, not all 14 doublings
    calls = []

    def counted(*args):
        calls.append(args)
        return heat_integrand(*args)
    monkeypatch.setattr(heisenberg, "heat_integrand", counted)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(QuadratureFailure):
        heat_kernel(0.0, 0.0, 1e308, 1.0)
    assert len(calls) == 16 * (2 + 4)


def test_heat_kernel_gives_up_at_once_on_an_unresolvable_phase(monkeypatch):
    # e^{-iλξ} at ξ = 1e20 turns ~1e12 times inside the finest of the 2^15
    # panels: one doubling, then QuadratureFailure
    calls = []

    def counted(*args):
        calls.append(args)
        return heat_integrand(*args)
    monkeypatch.setattr(heisenberg, "heat_integrand", counted)
    with pytest.raises(QuadratureFailure):
        heat_kernel(0.5, 0.2, 1e20, 1.0)
    assert len(calls) == 16 * (2 + 4)


def test_heat_kernel_gives_up_once_the_estimate_stalls(monkeypatch):
    # at ξ = 10 the kernel (~1.6e-8) sits far below the integrand's scale,
    # so rounding holds the change between estimates near 1e-16, short of
    # tol = 1e-10: it stops shrinking at the 6th doubling, not the 14th
    calls = []

    def counted(*args):
        calls.append(args)
        return heat_integrand(*args)
    monkeypatch.setattr(heisenberg, "heat_integrand", counted)
    with pytest.raises(QuadratureFailure):
        heat_kernel(0.5, 0.2, 10.0, 1.0)
    assert len(calls) == 16 * sum(2 ** k for k in range(1, 8))


# --- continued integrand ---------------------------------------------------------

def test_schrodinger_integrand_lambda_zero_limit():
    x, u, t = 0.5, 0.3, 1.3
    got = schrodinger_integrand(0.0, x, u, t)
    expected = (1.0 / t) * np.exp(-0.25j * (x * x + u * u) / t)
    assert got == pytest.approx(expected)


def test_schrodinger_integrand_blows_up_monotonically():
    t = 1.0
    target = np.pi / t
    mods = [abs(schrodinger_integrand(target - d, 0.0, 0.0, t))
            for d in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(b > a for a, b in zip(mods, mods[1:]))
    assert mods[-1] > 1e6
    assert abs(schrodinger_integrand(target - 2e-6, 0.0, 0.0, t)) > 1e6


def test_schrodinger_integrand_pure_blowup_at_origin():
    # at x = u = 0 the exponential factor is 1: no phase cancellation
    t = 1.0
    val = schrodinger_integrand(np.pi / t - 1e-6, 0.0, 0.0, t)
    assert abs(val.imag) / abs(val) < 1e-4 or val.real > 0
    assert abs(val) == pytest.approx(abs(_lam_over_sin_ref(np.pi - 1e-6)),
                                     rel=1e-9)


def _lam_over_sin_ref(lam):
    return lam / np.sin(lam)


def test_schrodinger_integrand_guard():
    with pytest.raises(EvaluationAtSingularity):
        schrodinger_integrand(np.pi + 1e-10, 0.0, 0.0, 1.0)


def test_singularities_arithmetic():
    assert singularities(np.pi, 3) == pytest.approx([1.0, 2.0, 3.0])
    sing = singularities(1.0, 4)
    assert sing == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi, 4 * np.pi])
    gaps = np.diff(singularities(0.7, 6))
    assert np.allclose(gaps, np.pi / 0.7)


# --- geodesics ----------------------------------------------------------------------

def test_geodesic_starts_at_origin():
    p = geodesic(GeodesicParams(beta=0.8, t_param=1.3, s=0.0))
    assert (p.x, p.u, p.xi) == (0.0, 0.0, 0.0)


def test_geodesic_vertical_coordinate_nondecreasing():
    t = 1.1
    xs = np.linspace(0.0, 12.0, 400)
    xi = [geodesic(GeodesicParams(0.3, t, float(s))).xi for s in xs]
    assert all(b >= a - 1e-12 for a, b in zip(xi, xi[1:]))


def test_geodesic_beta_rotates_contact_projection():
    t, s = 0.9, 2.3
    radii = []
    xis = []
    for beta in np.linspace(0, 2 * np.pi, 9):
        p = geodesic(GeodesicParams(float(beta), t, s))
        radii.append(np.hypot(p.x, p.u))
        xis.append(p.xi)
    assert np.ptp(radii) <= 1e-12
    assert np.ptp(xis) <= 1e-12


@given(st.floats(0, 2 * np.pi), st.floats(0.2, 4.0), st.booleans())
def test_projection_circle_identity(beta, t_mag, flip):
    t_param = -t_mag if flip else t_mag
    s = np.linspace(0.0, 10.0, 200)
    assert projection_residual(beta, t_param, s) <= 1e-12


def test_projection_radius_is_inverse_t():
    # max distance from the circle center equals the radius 1/|t|
    beta, t = 0.4, 2.0
    s = np.linspace(0, 2 * np.pi / t, 500)
    pts = [geodesic(GeodesicParams(beta, t, float(v))) for v in s]
    center = (np.cos(beta) / t, -np.sin(beta) / t)
    dists = [np.hypot(p.x - center[0], p.u - center[1]) for p in pts]
    assert np.ptp(dists) <= 1e-12
    assert dists[0] == pytest.approx(1.0 / t)


def _scalar_loop_residual(beta, t, s_samples, square):
    """The circle residual from one scalar `geodesic` call per sample."""
    worst = 0.0
    for s in s_samples:
        p = geodesic(GeodesicParams(beta, t, float(s)))
        lhs = (square(p.x - np.cos(beta) / t)
               + square(p.u + np.sin(beta) / t))
        worst = max(worst, abs(lhs - 1.0 / (t * t)))
    return float(worst)


@given(st.floats(0, 2 * np.pi), st.floats(0.2, 4.0), st.booleans())
@example(0.9, 1e6, False)        # the large-t conditioning case
@example(0.9, 1e6, True)
def test_projection_residual_matches_scalar_loop(beta, t_mag, flip):
    t = -t_mag if flip else t_mag
    s = np.linspace(0.0, 10.0, 200)
    got = projection_residual(beta, t, s)
    assert got == _scalar_loop_residual(beta, t, s, lambda v: v * v)
    # a scalar loop squaring by pow(v, 2) may differ from v*v in the
    # last bit of a square, so by at most a few ulp of 1/t²
    by_pow = _scalar_loop_residual(beta, t, s, lambda v: v ** 2)
    assert abs(got - by_pow) <= 4.0 * np.finfo(float).eps / (t * t)


def test_geodesic_coords_match_scalar_geodesic():
    s = np.linspace(-3.0, 12.0, 301)
    for beta, t in ((0.0, 1.0), (2.2, -0.7), (5.9, 1e6), (1.1, 1e-3)):
        x, u, xi = geodesic_coords(beta, t, s)
        for i, si in enumerate(s):
            p = geodesic(GeodesicParams(beta, t, float(si)))
            assert (p.x, p.u, p.xi) == (x[i], u[i], xi[i])
    with pytest.raises(ValueError):
        geodesic_coords(0.3, 0.0, s)


def test_projection_conditioning_at_large_t():
    res = projection_residual(0.9, 1e6, np.linspace(0, 10, 200))
    radius_sq = 1e-12
    assert res <= 1e-12 * radius_sq


def test_cutlocus_matches_singularities():
    assert cutlocus_distance(1, np.pi) == pytest.approx(1.0)
    assert cutlocus_distance(2, 1.0) == pytest.approx(2 * np.pi)
    for t in (0.37, 1.0, 2.9):
        sing = singularities(t, 5)
        cuts = [cutlocus_distance(k, t) for k in range(1, 6)]
        assert sing == cuts  # identical floats, same arithmetic


def test_cutlocus_validation():
    with pytest.raises(ValueError):
        cutlocus_distance(0, 1.0)
    with pytest.raises(ValueError):
        cutlocus_distance(1, -2.0)
