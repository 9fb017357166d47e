import functools

import numpy as np
import pytest

from lsg.errors import (ForcingNotAntisymmetrizable, GridTooSmall,
                        InvalidTime, UnderResolvedPhase)
from lsg.grids import (BiInvariantField, GridMode, RadialGrid, Representation,
                       SpectralField, _chirp_z_axis, _chirp_z_plan,
                       _fast_fft_length, _times_axes, _uniform_step,
                       boundary_tail, fourier_native, l2_norm, relative_l2,
                       simpson_weights)
from lsg.propagator import (_chirp, _chirp_sandwich, duhamel_solve,
                            euclidean_propagate, gaussian_profile,
                            group_propagate_closed_form,
                            group_propagate_spectral, plain_magnitude,
                            reach_box, suggest_spectral_grid)
from lsg.rootsystem import build_root_system
from lsg.spherical import (conjugated_values, denominator_on_grid,
                           spherical_transform, synthesize_conjugated)

from grid_helpers import grid_nodes, support_radius, weyl_symmetry_residual


def gaussian_exact_evolution(x, a, c, t):
    """Closed-form free evolution of e^{-(a - ic)|x|^2} in one dimension.

    Complex-width calculus: w = a - ic evolves to w/(1+4iwt) with amplitude
    (1+4iwt)^{-1/2}; verified independently below by quadrature and by
    finite-difference substitution into the equation.
    """
    w = a - 1j * c
    den = 1.0 + 4j * w * t
    return den ** -0.5 * np.exp(-w * x**2 / den)


def gaussian_chirp_conjugated(rs, axis, a, c, t):
    """Exact u·φ at time t for f = e^{-(a - ic)|H|^2}, on the tensor grid of axis.

    Each Weyl term of f·φ = Σ_s det(s) e^{|ρ|²/4w} e^{-w|H - sρ/2w|²},
    w = a - ic, is a shifted complex Gaussian: it evolves like the one above,
    one factor per axis, and the whole sum picks up e^{-it|ρ|²}.
    """
    w = a - 1j * c
    den = 1.0 + 4j * w * t
    rho_sq = float(rs.rho @ rs.rho)
    total = 0.0
    for s_rho, sign in zip(rs.orbit(rs.rho), rs.weyl_signs()):
        term = sign * np.exp(rho_sq / (4.0 * w))
        for centre in s_rho / (2.0 * w):
            term = np.multiply.outer(term, np.exp(-w * (axis - centre)**2 / den))
        total = total + term
    return np.exp(-1j * t * rho_sq) * den ** (-rs.rank / 2.0) * total


# --- Euclidean propagator ----------------------------------------------------

def test_euclidean_gaussian_matches_quadrature_oracle():
    """Brute-force oscillatory quadrature of the kernel integral."""
    a, t = 1.0, 0.5
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, a)
    got = euclidean_propagate(f, t, GridMode.FIXED)

    y = np.linspace(-20.0, 20.0, 400001)
    dy = y[1] - y[0]
    const = (4j * np.pi * t) ** -0.5
    for x_target in (0.0, 0.75, 2.5):
        idx = int(np.argmin(np.abs(grid.axis - x_target)))
        x = grid.axis[idx]
        kernel = np.exp(1j * (x - y) ** 2 / (4 * t)) * np.exp(-a * y**2)
        oracle = const * kernel.sum() * dy
        assert abs(got.field.values[idx] - oracle) <= 1e-8 * abs(oracle)


def test_gaussian_formula_satisfies_equation():
    """FD substitution: the reference formula solves u_t = i u_xx."""
    a, c, t = 0.8, 0.3, 0.7
    x = np.linspace(-3, 3, 601)
    h = x[1] - x[0]
    dt = 1e-5
    u0 = gaussian_exact_evolution(x, a, c, t)
    du_dt = (gaussian_exact_evolution(x, a, c, t + dt)
             - gaussian_exact_evolution(x, a, c, t - dt)) / (2 * dt)
    lap = (u0[2:] + u0[:-2] - 2 * u0[1:-1]) / (h * h)
    resid = du_dt[1:-1] - 1j * lap
    assert np.abs(resid).max() <= 1e-4 * np.abs(u0).max()


@pytest.mark.parametrize("a,t", [(1.0, 0.25), (0.5, 1.0), (2.0, 0.5)])
def test_euclidean_matches_gaussian_closed_form(a, t):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, a)
    got = euclidean_propagate(f, t, GridMode.FIXED)
    expected = gaussian_exact_evolution(grid.axis, a, 0.0, t)
    assert np.abs(got.field.values - expected).max() <= 1e-8


def test_euclidean_zero_data(a1_grid):
    f = BiInvariantField(a1_grid, np.zeros(a1_grid.shape, dtype=complex),
                         Representation.PLAIN)
    out = euclidean_propagate(f, 1.0, GridMode.FIXED)
    assert np.abs(out.field.values).max() == 0.0


def test_lemma1_modulus_profile():
    # focusing chirp: |u(x,1)| = const * e^{-x^2/16}
    grid = RadialGrid(1, 12.0, 2048)
    f = gaussian_profile(grid, 1.0, chirp=-0.25)
    out = euclidean_propagate(f, 1.0, GridMode.FIXED)
    mag = np.abs(out.field.values)
    expected = 0.5 * np.exp(-grid.axis**2 / 16.0)
    assert np.abs(mag - expected).max() <= 1e-10


def test_euclidean_invalid_time(a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    with pytest.raises(InvalidTime):
        euclidean_propagate(f, 0.0)
    with pytest.raises(InvalidTime):
        euclidean_propagate(f, -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_refused_before_any_work(a1, a1_grid, t):
    f = gaussian_profile(a1_grid, 1.0)
    for mode in GridMode:
        with pytest.raises(InvalidTime):
            euclidean_propagate(f, t, mode)
        with pytest.raises(InvalidTime):
            group_propagate_closed_form(a1, f, t, mode)
        with pytest.raises(InvalidTime, match="0 <= t < inf"):
            group_propagate_spectral(a1, f, t, mode=mode)


@pytest.mark.parametrize("rate,chirp", [(np.nan, 0.0), (np.inf, 0.0),
                                        (1.0, np.nan), (1.0, np.inf),
                                        (1.0, -np.inf)])
def test_gaussian_profile_refuses_non_finite_rate_or_chirp(a1_grid, rate,
                                                           chirp):
    # a NaN profile would propagate to all-NaN values without an error
    with pytest.raises(ValueError, match="gaussian rate"):
        gaussian_profile(a1_grid, rate, chirp)


def test_euclidean_tail_guard():
    grid = RadialGrid(1, 3.0, 64)
    f = gaussian_profile(grid, 0.3)
    with pytest.raises(GridTooSmall):
        euclidean_propagate(f, 1.0)


@pytest.mark.parametrize("n,points,box", [(1, 256, 12.0), (2, 64, 9.0),
                                          (3, 64, 8.0)])
def test_no_root_closed_form_is_the_euclidean_propagator(n, points, box):
    """On euclid:n, φ ≡ 1 and ρ = 0: the group closed form is the exact
    Euclidean evolution, the per-axis product of the 1-D Gaussian's, and
    |u·φ| is |u|."""
    rs = build_root_system(f"euclid:{n}")
    a, c = 1.0, -0.25
    f = gaussian_profile(RadialGrid(n, box, points), a, c)
    for mode, times in ((GridMode.SCALED, (0.01, 0.5, 2.0)),
                        (GridMode.FIXED, (0.5, 2.0))):
        for t in times:
            got = group_propagate_closed_form(rs, f, t, mode)
            out = got.field.grid
            one = gaussian_exact_evolution(out.axis, a, c, t)
            want = functools.reduce(np.multiply.outer, [one] * n)
            assert relative_l2(got.field.values, want, out) <= 1e-12
            assert np.array_equal(plain_magnitude(rs, got),
                                  np.abs(got.field.values))


@pytest.mark.parametrize("n,points,box,times", [(1, 256, 12.0, (0.5, 2.0)),
                                                (2, 96, 9.0, (0.5, 2.0))])
def test_no_root_spectral_oracle_matches_closed_form(n, points, box, times):
    rs = build_root_system(f"euclid:{n}")
    f = gaussian_profile(RadialGrid(n, box, points), 1.0)
    for t in times:
        out = RadialGrid(n, reach_box(rs, f, t), points)
        closed = group_propagate_closed_form(rs, f, t, GridMode.FIXED, out)
        oracle = group_propagate_spectral(rs, f, t, out_grid=out)
        assert relative_l2(closed.field.values, oracle.field.values,
                           out) <= 1e-12


def test_scaled_mode_small_t_recovers_initial_data(a1):
    """The t -> 0+ limit through SCALED's Fourier-multiplier regime.

    The residual against the initial data is the genuine first-order
    deviation t*||(lap - |rho|^2) g|| (constant ~ 4 for the rate-1
    Gaussian), so the path itself is additionally pinned against the
    spectral oracle at the same tiny t.
    """
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, 1.0)
    res = group_propagate_closed_form(a1, f, 1e-3, GridMode.SCALED)
    out_grid = res.field.grid
    target = (np.exp(-out_grid.axis**2)
              * denominator_on_grid(a1, out_grid))
    err = relative_l2(res.field.values, target.astype(complex), out_grid)
    assert err <= 5e-3
    oracle = group_propagate_spectral(a1, f, 1e-3, out_grid=out_grid)
    assert relative_l2(res.field.values, oracle.field.values,
                       out_grid) <= 1e-9

    tiny = group_propagate_closed_form(a1, f, 2e-4, GridMode.SCALED)
    tg = tiny.field.grid
    target = np.exp(-tg.axis**2) * denominator_on_grid(a1, tg)
    assert relative_l2(tiny.field.values, target.astype(complex), tg) <= 1e-3


@pytest.mark.parametrize("name,n,box", [
    ("A1", 512, 12.0), ("A1", 2048, 12.0), ("A2", 96, 9.0), ("B2", 96, 9.0),
    ("G2", 96, 9.0), ("A1xA1", 96, 9.0), ("A2", 128, 10.0)])
def test_scaled_closed_form_matches_exact_evolution_across_regimes(name, n,
                                                                   box):
    """41 times spanning both SCALED regimes, around t* = h·L/2π."""
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    t_star = grid.spacing * box / (2.0 * np.pi)
    for a, c in [(1.0, 0.0), (0.8, 0.25), (1.2, -0.25)]:
        f = gaussian_profile(grid, a, c)
        for t in np.geomspace(t_star / 30.0, 30.0 * t_star, 41):
            res = group_propagate_closed_form(rs, f, t, GridMode.SCALED)
            out = res.field.grid
            want = gaussian_chirp_conjugated(rs, out.axis, a, c, t)
            assert relative_l2(res.field.values, want, out) <= 1e-10
            if out.points_per_axis != n:   # the padded multiplier grid
                assert out.spacing == pytest.approx(grid.spacing, rel=1e-12)
                assert out.half_width <= 3.0 * box


def scaled_grid_by_native_rule(values, grid, t):
    """(regime, output grid) of a SCALED step by the rule that reads ξ_sup
    from support_radius of fourier_native: "sandwich" where h·y_sup/t ≤ π,
    else the multiplier, "pad" or "no pad" by its zero padding, which
    rounds N + 2·pad up to an even 5-smooth length."""
    y_sup = support_radius(values, grid)
    if grid.spacing * y_sup / t <= np.pi:
        return "sandwich", grid.dual().scaled(2.0 * t)
    dual, spec = fourier_native(values, grid)
    reach = y_sup + 2.0 * t * support_radius(spec, dual)
    pad = max(0, int(np.ceil((reach - grid.half_width) / grid.spacing)))
    half = grid.points_per_axis // 2
    pad = _fast_fft_length(half + pad) - half
    return ("pad" if pad else "no pad"), RadialGrid(
        grid.rank, grid.half_width + pad * grid.spacing,
        grid.points_per_axis + 2 * pad)


@pytest.mark.parametrize("name,n,box,tol", [
    ("A1", 128, 12.0, 1e-10), ("A2", 96, 9.0, 1e-10), ("B2", 96, 9.0, 1e-10),
    ("G2", 96, 9.0, 1e-10), ("A1xA1", 96, 9.0, 1e-10),
    ("A1xA2", 48, 8.0, 1e-6), ("euclid:1", 128, 10.0, 1e-10),
    ("euclid:2", 96, 9.0, 1e-10)])
def test_scaled_step_keeps_the_native_grid_rule_in_every_regime(name, n, box,
                                                                tol):
    """Sandwich and multiplier, padded or not: exact values, and the output
    grid the dual-grid rule gives."""
    euclid = name.startswith("euclid:")
    rank = int(name.split(":")[1]) if euclid else build_root_system(name).rank
    grid = RadialGrid(rank, box, n)
    t_star = grid.spacing * box / (2.0 * np.pi)
    seen = set()
    for a, c in [(1.0, 0.0), (0.8, 0.25), (1.2, -0.25)]:
        f = gaussian_profile(grid, a, c)
        for t in np.geomspace(t_star / 30.0, 30.0 * t_star, 13):
            if euclid:
                res = euclidean_propagate(f, t, GridMode.SCALED)
                regime, want_grid = scaled_grid_by_native_rule(f.values,
                                                               grid, t)
                want = _times_axes(np.ones(want_grid.shape),
                                   gaussian_exact_evolution(
                                       want_grid.axis, a, c, t))
            else:
                rs = build_root_system(name)
                res = group_propagate_closed_form(rs, f, t, GridMode.SCALED)
                regime, want_grid = scaled_grid_by_native_rule(
                    conjugated_values(rs, f), grid, t)
                want = gaussian_chirp_conjugated(rs, res.field.grid.axis,
                                                 a, c, t)
            seen.add(regime)
            assert res.field.grid == want_grid
            assert relative_l2(res.field.values, want, want_grid) <= tol
    assert seen == {"sandwich", "pad", "no pad"}


@pytest.mark.parametrize("name,n,box,times,tol", [
    ("A1xA2", 48, 8.0, np.geomspace(0.014, 13.0, 9), 1e-6),
    ("A1xA1xA1", 48, 8.0, np.geomspace(0.014, 13.0, 9), 1e-6),
    # 32 nodes on [-7, 7) resolve the spectrum only to about 1e-6
    ("A1xA1xA1xA1", 32, 7.0, [0.1], 1e-4)], ids=["A1xA2", "A1xA1xA1",
                                                "A1xA1xA1xA1"])
def test_scaled_products_match_exact_evolution(name, n, box, times, tol):
    rs = build_root_system(name)
    f = gaussian_profile(RadialGrid(rs.rank, box, n), 0.8, 0.25)
    for t in times:
        res = group_propagate_closed_form(rs, f, t, GridMode.SCALED)
        out = res.field.grid
        want = gaussian_chirp_conjugated(rs, out.axis, 0.8, 0.25, t)
        assert relative_l2(res.field.values, want, out) <= tol


def test_scaled_multiplier_grid_is_memory_guarded(a2, monkeypatch):
    from lsg import propagator
    f = gaussian_profile(RadialGrid(2, 9.0, 96), 1.0)
    monkeypatch.setattr(propagator, "_MAX_FFT_NODES", 96 * 96)
    with pytest.raises(GridTooSmall):
        group_propagate_closed_form(a2, f, 0.2, GridMode.SCALED)


@pytest.mark.parametrize("grid, t", [(RadialGrid(1, 12.0, 512), 0.7),
                                     (RadialGrid(2, 9.0, 96), 1.3)])
def test_separable_chirp_matches_full_grid_phase(grid, t):
    expected = np.exp(1j * np.mod(grid.radius_sq() / (4.0 * t), 2.0 * np.pi))
    got = _times_axes(np.ones(grid.shape), _chirp(grid.axis, t))
    assert got.shape == grid.shape
    assert np.abs(got - expected).max() <= 1e-13


# --- group propagator ---------------------------------------------------------

@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_closed_form_matches_spectral_a1(a1, t):
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, 1.0)
    out = RadialGrid(1, reach_box(a1, f, t), 1024)
    closed = group_propagate_closed_form(a1, f, t, GridMode.FIXED, out)
    oracle = group_propagate_spectral(a1, f, t, out_grid=out)
    assert relative_l2(closed.field.values, oracle.field.values, out) <= 1e-6


def test_closed_form_matches_spectral_a2(a2):
    grid = RadialGrid(2, 10.0, 128)
    f = gaussian_profile(grid, 1.0)
    out = RadialGrid(2, 26.0, 160)
    closed = group_propagate_closed_form(a2, f, 1.0, GridMode.FIXED, out)
    oracle = group_propagate_spectral(a2, f, 1.0, out_grid=out)
    assert relative_l2(closed.field.values, oracle.field.values, out) <= 1e-4


_REACH_SYSTEMS = (("A1", 512, 12.0), ("euclid:1", 512, 12.0),
                  ("A2", 128, 10.0), ("B2", 128, 10.0), ("G2", 128, 10.0),
                  ("A1xA1", 128, 10.0), ("euclid:2", 128, 10.0))


def test_fixed_evolution_on_the_reach_box_is_exact():
    """u(t)·φ lies within y_sup + 2t·ξ_sup of the origin, so FIXED on
    reach_box with N nodes keeps the exact u·φ, tail included. Cases that
    break the support-sum rule L_out + y_sup + 2t·ξ_sup ≤ 4πt/h alias in
    the trapezoid sum, which no box mends; they are counted, not run."""
    from lsg.grids import _xi_sup
    ran = skipped = 0
    worst_tail = worst_err = 0.0
    for name, n, box in _REACH_SYSTEMS:
        rs = build_root_system(name)
        grid = RadialGrid(rs.rank, box, n)
        for a in (0.5, 1.0, 2.0):
            for c in (-0.25, 0.0, 0.25):
                f = gaussian_profile(grid, a, c)
                g = conjugated_values(rs, f)
                y_sup = support_radius(g, grid)
                xi_sup = _xi_sup(np.fft.fftn(g), grid)
                for t in (0.25, 0.5, 1.0, 4.0):
                    out = RadialGrid(rs.rank, reach_box(rs, f, t), n)
                    assert out.half_width == max(box, y_sup + 2 * t * xi_sup)
                    if (out.half_width + y_sup + 2 * t * xi_sup
                            > 4 * np.pi * t / grid.spacing):
                        skipped += 1
                        continue
                    ran += 1
                    got = group_propagate_closed_form(rs, f, t,
                                                      GridMode.FIXED, out)
                    want = gaussian_chirp_conjugated(rs, out.axis, a, c, t)
                    peak = np.abs(want).max()
                    worst_tail = max(worst_tail, boundary_tail(want))
                    worst_err = max(worst_err, np.abs(got.field.values
                                                      - want).max() / peak)
    assert (ran, skipped) == (202, 50)
    assert worst_tail <= 1e-11
    assert worst_err <= 1e-11


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_closed_form_matches_spectral_rank3(t):
    # the oracle runs one axis at a time, so the guard bounds the values
    # one axis's FFTs run through, not an M^3 grid: 400 spectral nodes per
    # axis here, where 2^24 values of M^3 would allow 256
    rs = build_root_system("A1xA2")
    f = gaussian_profile(RadialGrid(3, 8.0, 64), 1.0)
    closed = group_propagate_closed_form(rs, f, t, GridMode.FIXED)
    oracle = group_propagate_spectral(rs, f, t)
    assert suggest_spectral_grid(rs, f, t).points_per_axis > 256
    assert relative_l2(closed.field.values, oracle.field.values,
                       f.grid) <= 1e-12


def test_spectral_t_zero_is_plain_synthesis(a1):
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, 1.0)
    res = group_propagate_spectral(a1, f, 0.0)
    sgrid = suggest_spectral_grid(a1, f, 0.0)
    spec = spherical_transform(a1, f, sgrid)
    direct = synthesize_conjugated(a1, spec, [grid.axis])
    assert np.abs(res.field.values - direct).max() \
        <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("t", [1e20, 1e308])
def test_spectral_grid_past_the_node_cap_is_grid_too_small(a1, t):
    # ~1e23 nodes per axis at t = 1e20; at t = 1e308 the spacing is 0
    f = gaussian_profile(RadialGrid(1, 10.0, 96), 1.0)
    with pytest.raises(GridTooSmall, match="spectral oracle"):
        suggest_spectral_grid(a1, f, t)


@pytest.mark.parametrize("name, n, box, spectral", [
    ("A1", 256, 10.0, None), ("A2", 96, 9.0, None), ("B2", 96, 9.0, None),
    ("G2", 96, 9.0, None), ("A1xA1", 96, 9.0, None),
    # at N = 32 the suggested grid reaches past π/h; any resolved one will do
    ("A1xA2", 32, 7.0, (7.0, 64))],
    ids=["A1", "A2", "B2", "G2", "A1xA1", "A1xA2"])
def test_spectral_propagation_is_the_public_composition(name, n, box,
                                                        spectral):
    """group_propagate_spectral, run axis by axis, agrees with the
    transform, the evolution weight e^{-it(|λ|²+|ρ|²)} applied on the full
    spectral grid, then synthesis, up to rounding."""
    rs = build_root_system(name)
    f = gaussian_profile(RadialGrid(rs.rank, box, n), 1.0, 0.1)
    out = RadialGrid(rs.rank, box + 5.0, n)
    t = 0.4
    sgrid = (suggest_spectral_grid(rs, f, t, out) if spectral is None
             else RadialGrid(rs.rank, *spectral))
    res = group_propagate_spectral(rs, f, t, spectral_grid=sgrid, out_grid=out)
    spec = spherical_transform(rs, f, sgrid)
    weight = np.exp(-1j * t * (sgrid.radius_sq() + float(rs.rho @ rs.rho)))
    evolved = SpectralField(sgrid, spec.values * weight)
    composed = synthesize_conjugated(rs, evolved, [out.axis] * rs.rank)
    assert np.linalg.norm(res.field.values - composed) \
        <= 1e-13 * np.linalg.norm(composed)


def test_oracle_two_plan_pass_is_the_same_to_the_bit_one_row_per_block(
        monkeypatch):
    """Criterion 4's A2 oracle (128² → 192² through the suggested spectral
    grid) runs its forward and inverse plans per block of rows; one row
    per block gives the default blocks' result to the bit."""
    from lsg import grids
    rs = build_root_system("A2")
    f = gaussian_profile(RadialGrid(2, 10.0, 128), 1.0)
    out = RadialGrid(2, reach_box(rs, f, 1.0), 192)
    blocked = group_propagate_spectral(rs, f, 1.0, out_grid=out).field.values
    monkeypatch.setattr(grids, "_BLOCK_VALUES", 1)
    one_row = group_propagate_spectral(rs, f, 1.0, out_grid=out).field.values
    assert np.array_equal(one_row, blocked)


def test_single_mode_phase_factor(a1):
    """Evolution of a single-mode spectrum, a spike pair in f̂ stored as
    G = π·f̂, is a global phase: the oracle's inverse chirp-z plan with its
    weight e^{-it·lam^2} folded in is e^{-it·lam0^2} times the unweighted
    plan."""
    from lsg.spherical import pi_product
    sgrid = RadialGrid(1, 10.0, 128)
    out_axis = np.linspace(-6, 6, 201)
    k = 90
    lam0 = sgrid.axis[k]
    k_neg = int(np.argmin(np.abs(sgrid.axis + lam0)))
    vals = np.zeros(sgrid.shape, dtype=complex)
    vals[k] = pi_product(a1, np.array([lam0]))
    vals[k_neg] = pi_product(a1, np.array([-lam0]))
    t = 0.8
    step = _uniform_step(out_axis)
    weight = np.exp(-1j * t * sgrid.axis**2)
    full = _chirp_z_axis(vals, 0, _chirp_z_plan(sgrid, out_axis, step, +1,
                                                  weight))
    base = _chirp_z_axis(vals, 0, _chirp_z_plan(sgrid, out_axis, step, +1))
    assert np.abs(full - np.exp(-1j * t * lam0**2) * base).max() \
        <= 1e-12 * np.abs(base).max()


def test_under_resolved_phase_guard(a1):
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, 1.0)
    coarse_spectral = RadialGrid(1, 12.0, 64)
    with pytest.raises(UnderResolvedPhase):
        group_propagate_spectral(a1, f, 4.0, spectral_grid=coarse_spectral)


def test_fixed_mode_chirp_guard(a1):
    grid = RadialGrid(1, 12.0, 128)   # too coarse for t this small
    f = gaussian_profile(grid, 1.0)
    with pytest.raises(GridTooSmall):
        group_propagate_closed_form(a1, f, 0.01, GridMode.FIXED)


def test_mass_conservation_and_antisymmetry(a1):
    grid = RadialGrid(1, 12.0, 512)
    f = gaussian_profile(grid, 1.0)
    base = l2_norm(conjugated_values(a1, f), grid)
    mats, signs = a1.weyl_matrices(), a1.weyl_signs()
    for t in (0.5, 2.0):
        out = RadialGrid(1, reach_box(a1, f, t), 1024)
        for result, tol in (
                (group_propagate_closed_form(a1, f, t, GridMode.FIXED, out), 1e-8),
                (group_propagate_spectral(a1, f, t, out_grid=out), 1e-10)):
            drift = abs(l2_norm(result.field.values, out) - base) / base
            assert drift <= tol
            assert weyl_symmetry_residual(result.field.values, out,
                                          mats, signs, odd=True) <= 1e-8


def test_group_law(a1):
    grid = RadialGrid(1, 24.0, 1024)
    f = gaussian_profile(grid, 1.0)
    t1, t2 = 0.3, 0.45
    one = group_propagate_spectral(a1, f, t1)
    two = group_propagate_spectral(a1, one.field, t2)
    direct = group_propagate_spectral(a1, f, t1 + t2)
    assert relative_l2(two.field.values, direct.field.values, grid) <= 1e-6


def test_time_reversal(a1):
    grid = RadialGrid(1, 24.0, 1024)
    f = gaussian_profile(grid, 1.0)
    g = conjugated_values(a1, f)
    t = 0.5
    fwd = group_propagate_spectral(a1, f, t)
    conj_field = BiInvariantField(grid, np.conj(fwd.field.values),
                                  Representation.CONJUGATED)
    back = group_propagate_spectral(a1, conj_field, t)
    assert relative_l2(np.conj(back.field.values), g, grid) <= 1e-6


# --- the closed form's constant, fitted against the spectral oracle ---------------

_FIT_GRIDS = {1: (512, 12.0), 2: (96, 9.0)}


def oracle_fitted_constant(rs, t=1.0):
    """Least-squares scalar taking the constant-free closed form onto the
    spectral-synthesis oracle, for e^{-|H|^2} on a reference grid."""
    n, box = _FIT_GRIDS[rs.rank]
    f = gaussian_profile(RadialGrid(rs.rank, box, n), 1.0)
    g = conjugated_values(rs, f)
    out, core = _chirp_sandwich(g, f.grid, t, None, 1.0)
    unnormalized = np.exp(-1j * t * float(rs.rho @ rs.rho)) * core
    target = group_propagate_spectral(rs, f, t, out_grid=out).field.values
    const = complex(np.vdot(unnormalized, target)
                    / np.vdot(unnormalized, unnormalized))
    assert relative_l2(const * unnormalized, target, out) <= 1e-6
    return const


@pytest.mark.parametrize("name,normalization", [
    ("A1", 1.0), ("A2", 1.0), ("A1xA1", 1.0), ("A1", 0.5), ("A1", 2.0)])
def test_oracle_fit_reproduces_free_constant(name, normalization):
    rs = build_root_system(name, normalization=normalization)
    free = (4.0 * np.pi * 1j) ** (-rs.rank / 2.0)
    assert abs(oracle_fitted_constant(rs) - free) <= 1e-8 * abs(free)


def test_calibration_t_independence(a1):
    c1 = oracle_fitted_constant(a1, t=0.5)
    c2 = oracle_fitted_constant(a1, t=2.0)
    assert abs(c1 - c2) <= 1e-8 * abs(c1)


def test_calibration_fresnel_modulus(a1):
    from lsg.spherical import plancherel_constant
    c = oracle_fitted_constant(a1)
    kappa = plancherel_constant(a1)
    assert abs(c) == pytest.approx(kappa * 4 * np.sqrt(np.pi), rel=1e-8)


def test_calibration_tensorizes_on_products():
    c1 = oracle_fitted_constant(build_root_system("A1"))
    c11 = oracle_fitted_constant(build_root_system("A1xA1"))
    assert abs(c11 - c1 * c1) <= 1e-8 * abs(c11)


# --- rank-3 products: the closed form tensorizes -----------------------------------

@pytest.mark.parametrize("mode", [GridMode.FIXED, GridMode.SCALED],
                         ids=["fixed", "scaled"])
@pytest.mark.parametrize("name", ["A1xA1xA1", "A1xA2"])
def test_closed_form_tensorizes_on_rank3_products(name, mode):
    def evolve(group):
        rs = build_root_system(group)
        f = gaussian_profile(RadialGrid(rs.rank, 8.0, 48), 1.0)
        return group_propagate_closed_form(rs, f, 1.0, mode).field
    product = evolve(name)
    parts = [evolve(factor) for factor in name.split("x")]
    expected = parts[0].values
    for part in parts[1:]:
        expected = np.multiply.outer(expected, part.values)
    assert product.grid.half_width == parts[0].grid.half_width
    assert product.values.shape == expected.shape
    err = np.abs(product.values - expected).max() / np.abs(expected).max()
    assert err <= 1e-12


# --- Duhamel ---------------------------------------------------------------------

def _mms_pieces(rs, grid, a):
    """Manufactured solution v = m(t) e^{-a|H|^2} with analytic forcing.

    The conjugated forcing is assembled per Weyl term, so no grid
    Laplacian enters: psi*phi = -i m'(s) e^{-a|H|^2} phi
                                 - m(s) * sum_s det(s)(|s rho - 2aH|^2
                                   - 2a l - |rho|^2) e^{<s rho, H>-a|H|^2}.
    """
    orbit = rs.orbit(rs.rho)
    signs = rs.weyl_signs()
    nodes = grid_nodes(grid)
    rsq = grid.radius_sq()
    rho_sq = float(rs.rho @ rs.rho)
    gauss = np.exp(-a * rsq)
    phi = denominator_on_grid(rs, grid)
    lap_term = np.zeros(grid.shape)
    for vec, sgn in zip(orbit, signs):
        shift = np.einsum("ij,j->i", nodes, vec).reshape(grid.shape)
        dist_sq = (vec @ vec - 4.0 * a * shift
                   + 4.0 * a * a * rsq)
        lap_term += sgn * (dist_sq - 2.0 * a * rs.rank - rho_sq) * np.exp(shift)
    lap_term = lap_term * gauss

    def m(t):
        return 1.0 + 0.5 * np.sin(1.3 * t)

    def m_dot(t):
        return 0.65 * np.cos(1.3 * t)

    def forcing(s):
        vals = -1j * m_dot(s) * gauss * phi - m(s) * lap_term
        return BiInvariantField(grid, vals, Representation.CONJUGATED)

    def exact_conjugated(t):
        return m(t) * gauss * phi

    f0 = BiInvariantField(grid, (m(0.0) * gauss).astype(complex),
                          Representation.PLAIN)
    return f0, forcing, exact_conjugated


def test_duhamel_zero_forcing_matches_closed_form(a1):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)

    def zero(s):
        return BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                                Representation.CONJUGATED)

    [duh] = duhamel_solve(a1, f, zero, [1.0], steps=8)
    closed = group_propagate_closed_form(a1, f, 1.0, GridMode.FIXED)
    assert relative_l2(duh.field.values, closed.field.values, grid) <= 1e-13


def test_duhamel_manufactured_solution_fourth_order(a1):
    grid = RadialGrid(1, 12.0, 2048)
    f0, forcing, exact = _mms_pieces(a1, grid, a=0.5)
    t = 1.0
    target = exact(t)
    errs = [relative_l2(duhamel_solve(a1, f0, forcing, [t], steps=steps)[0]
                        .field.values, target, grid)
            for steps in (8, 16, 32, 64, 128)]
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    # order 3.8-4.2 per doubling of the Simpson panels
    assert np.all((14.0 <= ratios) & (ratios <= 18.4)), ratios


def _peak_error(got, ref):
    """max |got - ref| relative to the peak of |ref|."""
    return np.abs(got - ref).max() / np.abs(ref).max()


def _duhamel_exact_per_term(data_at, forcing_at, t, steps):
    """duhamel_solve's composite Simpson rule on its linspace nodes, each
    term evolved in closed form: data_at(τ) is S(τ)(f·φ) and
    forcing_at(s, τ) is S(τ)(ψ(s)·φ)."""
    w = simpson_weights(steps) * (t / steps) / 3.0
    return data_at(t) + 1j * sum(
        wj * forcing_at(s, t - s)
        for wj, s in zip(w, np.linspace(0.0, t, steps + 1)))


def _gaussian_duhamel_case(rs, grid):
    """Data e^{-1.2|H|²} and forcing 0.8·e^{0.9is}·e^{-(2 - 0.3i)|H|²}, with
    their exact evolutions for `_duhamel_exact_per_term`."""
    f = gaussian_profile(grid, 1.2)
    base = gaussian_profile(grid, 2.0, 0.3)

    def forcing(s):
        return base.with_values(0.8 * np.exp(0.9j * s) * base.values)

    def data_at(tau):
        return gaussian_chirp_conjugated(rs, grid.axis, 1.2, 0.0, tau)

    def forcing_at(s, tau):
        return 0.8 * np.exp(0.9j * s) * gaussian_chirp_conjugated(
            rs, grid.axis, 2.0, 0.3, tau)
    return f, forcing, data_at, forcing_at


@pytest.mark.parametrize("name,n,box", [("A1", 256, 8.0), ("A2", 96, 8.0)])
def test_duhamel_equals_per_propagation_conjugation(name, n, box):
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    f, forcing, data_at, forcing_at = _gaussian_duhamel_case(rs, grid)
    got = duhamel_solve(rs, f, forcing, [1.0], steps=8)[0].field.values
    ref = _duhamel_exact_per_term(data_at, forcing_at, 1.0, 8)
    # the same Simpson sum: only the evolution of each term differs
    assert _peak_error(got, ref) <= 1e-12


@pytest.mark.parametrize("name,n,box,times", [
    ("A1", 256, 8.0, (0.5, 1.0, 1.5, 2.0)),
    ("G2", 96, 8.0, (1.5, 2.0)),
    ("A1xA1", 64, 6.0, (1.0, 2.0)),
])
def test_duhamel_multi_time_matches_oracle_and_single_calls(name, n, box,
                                                            times):
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    f, forcing, data_at, forcing_at = _gaussian_duhamel_case(rs, grid)
    results = duhamel_solve(rs, f, forcing, list(times), steps=8)
    assert [r.t for r in results] == list(times)
    for t, result in zip(times, results):
        single = duhamel_solve(rs, f, forcing, [t], steps=8)[0].field.values
        ref = _duhamel_exact_per_term(data_at, forcing_at, t, 8)
        assert relative_l2(result.field.values, single, grid) <= 1e-14
        assert _peak_error(result.field.values, ref) <= 1e-12


def _forced_by_evolution(rs, grid, omega=0.7):
    """ψ(s) = e^{iωs}·S(s)f for f = e^{-|H|²}: the forcing and the exact
    solution u(t) = S(t)f·(1 + (e^{iωt} - 1)/ω), both conjugated."""
    def forcing(s):
        vals = np.exp(1j * omega * s) * gaussian_chirp_conjugated(
            rs, grid.axis, 1.0, 0.0, s)
        return BiInvariantField(grid, vals, Representation.CONJUGATED)

    def exact(t):
        return (gaussian_chirp_conjugated(rs, grid.axis, 1.0, 0.0, t)
                * (1.0 + (np.exp(1j * omega * t) - 1.0) / omega))
    return gaussian_profile(grid, 1.0), forcing, exact


@pytest.mark.parametrize("name,n,box", [("euclid:1", 2048, 16.0),
                                        ("A1", 1920, 24.0)])
def test_duhamel_forced_solution_is_fourth_order_down_to_rounding(name, n,
                                                                  box):
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    f, forcing, exact = _forced_by_evolution(rs, grid)
    errs = np.array([_peak_error(duhamel_solve(
        rs, f, forcing, [0.5], steps=steps)[0].field.values, exact(0.5))
        for steps in (8, 16, 32, 64, 128)])
    ratios = errs[:-1] / errs[1:]
    assert np.all((14.0 <= ratios) & (ratios <= 18.4)), errs
    assert errs[-1] <= 1e-12


def test_duhamel_zero_forcing_evolves_exactly_where_fixed_aliases():
    # FIXED on this grid at t = 0.1 aliases, 18 % off the peak
    rs = build_root_system("euclid:1")
    grid = RadialGrid(1, 12.0, 256)
    f = gaussian_profile(grid, 1.0)
    zero = BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                            Representation.CONJUGATED)
    [got] = duhamel_solve(rs, f, lambda s: zero, [0.1], steps=8)
    exact = gaussian_chirp_conjugated(rs, grid.axis, 1.0, 0.0, 0.1)
    assert _peak_error(got.field.values, exact) <= 1e-14


def test_duhamel_calls_forcing_once_per_distinct_time(a1):
    grid = RadialGrid(1, 8.0, 256)
    f = gaussian_profile(grid, 1.0)
    calls: dict[float, int] = {}

    def forcing(s):
        calls[s] = calls.get(s, 0) + 1
        return f

    times = (0.5, 1.0, 1.5)
    duhamel_solve(a1, f, forcing, times, steps=8)
    expected = {i * (t / 8) for t in times for i in range(9)}
    assert set(calls) == expected
    assert set(calls.values()) == {1}
    assert len(expected) < 27     # the three rules share nodes


def test_duhamel_calls_forcing_at_the_linspace_nodes_up_to_t(a1):
    # at steps=14, 14·(0.9/14) = 0.9000000000000001 lies past t = 0.9
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)
    calls = []
    duhamel_solve(a1, f, lambda s: calls.append(s) or f, (0.45, 0.9),
                  steps=14)
    expected = {s for t in (0.45, 0.9) for s in np.linspace(0.0, t, 15)}
    assert sorted(calls) == sorted(expected)
    assert max(calls) == 0.9


@pytest.mark.parametrize("steps", [10, 14])
def test_duhamel_rule_ends_exactly_at_t(a1, steps):
    # i·(t/steps) at i = steps misses t = 0.45 by an ulp: the last node
    # then met the chirp guard at τ = 5.6e-17 (steps=10), or the kernel
    # at τ < 0 (steps=14), a result 4e5 away from steps=16
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)
    ref = duhamel_solve(a1, f, lambda s: f, [0.45], steps=16)[0].field.values
    got = duhamel_solve(a1, f, lambda s: f, [0.45],
                        steps=steps)[0].field.values
    assert relative_l2(got, ref, grid) <= 1e-4


def _widening_forcing(grid):
    """Conjugated forcing x·e^{-rx²}, r = 4/(1 + 1.5s)², whose support
    grows with s, so that late samples meet the FIXED chirp guard at small
    τ; and its exact evolution x·(1+4irτ)^{-3/2}·e^{-rx²/(1+4irτ)}·e^{-iτ|ρ|²}
    on A1."""
    rho = build_root_system("A1").rho
    rho_sq = float(rho @ rho)

    def rate(s):
        return 4.0 / (1.0 + 1.5 * s) ** 2

    def forcing(s):
        vals = grid.axis * np.exp(-rate(s) * grid.axis ** 2)
        return BiInvariantField(grid, vals.astype(complex),
                                Representation.CONJUGATED)

    def forcing_at(s, tau):
        den = 1.0 + 4j * rate(s) * tau
        return (grid.axis * den ** -1.5 * np.exp(-rate(s) * grid.axis ** 2
                                                 / den)
                * np.exp(-1j * tau * rho_sq))
    return forcing, forcing_at


# Per-propagation FIXED refuses 7 of these sets at its chirp guard; the
# solver evolves each by the multiplier and is exact on all of them
@pytest.mark.parametrize("times", [(0.1,), (0.3,), (0.8,), (1.2,), (3.0,),
                                   (0.3, 0.6, 1.2), (1.2, 0.3),
                                   (2.0, 0.8, 0.4), (1.75, 0.8, 0.25),
                                   (1.2, 2.0, 3.0)])
def test_duhamel_chirp_guard_raises_where_per_propagation_does(a1, times):
    grid = RadialGrid(1, 16.0, 256)
    f = gaussian_profile(grid, 4.0)
    forcing, forcing_at = _widening_forcing(grid)
    results = duhamel_solve(a1, f, forcing, times, steps=8)
    for t, result in zip(times, results):
        ref = _duhamel_exact_per_term(
            lambda tau: gaussian_chirp_conjugated(a1, grid.axis, 4.0, 0.0,
                                                  tau),
            forcing_at, t, 8)
        assert _peak_error(result.field.values, ref) <= 1e-12


def test_duhamel_builds_phi_and_lattice_maps_once(a1, monkeypatch):
    import lsg.propagator as prop
    calls = {"phi": 0, "maps": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(prop, "denominator_on_grid",
                        counted("phi", prop.denominator_on_grid))
    monkeypatch.setattr(prop, "_weyl_lattice_maps",
                        counted("maps", prop._weyl_lattice_maps))
    grid = RadialGrid(1, 8.0, 256)
    f = gaussian_profile(grid, 1.0)
    duhamel_solve(a1, f, lambda s: f, [1.0], steps=16)
    assert calls == {"phi": 1, "maps": 1}
    duhamel_solve(a1, f, lambda s: f, [1.0, 1.5, 2.0], steps=16)
    assert calls == {"phi": 2, "maps": 2}


def test_duhamel_rejects_non_antisymmetrizable_forcing(a1):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)

    def lopsided(s):
        vals = np.exp(-(grid.axis - 1.0) ** 2).astype(complex)
        return BiInvariantField(grid, vals, Representation.CONJUGATED)

    with pytest.raises(ForcingNotAntisymmetrizable):
        duhamel_solve(a1, f, lopsided, [1.0], steps=8)


def test_duhamel_rejects_forcing_on_another_grid(a1):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)
    other = gaussian_profile(RadialGrid(1, 12.0, 512), 1.0)
    with pytest.raises(ValueError, match="forcing grid"):
        duhamel_solve(a1, f, lambda s: other, [1.0, 2.0], steps=8)


def test_duhamel_step_validation(a1):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)
    with pytest.raises(ValueError, match="steps"):
        duhamel_solve(a1, f, lambda s: f, [1.0], steps=4)
    with pytest.raises(InvalidTime):
        duhamel_solve(a1, f, lambda s: f, [-1.0], steps=8)
    with pytest.raises(InvalidTime):
        duhamel_solve(a1, f, lambda s: f, [np.inf], steps=8)
    with pytest.raises(InvalidTime):
        duhamel_solve(a1, f, lambda s: f, [1.0, 0.0], steps=8)
    for bad in (1.0, [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            duhamel_solve(a1, f, lambda s: f, bad, steps=8)


# --- the resolution record: one field, measured once -------------------------------

_RECORD_CASES = [("A1", 256, 10.0), ("A2", 64, 8.0), ("G2", 64, 8.0),
                 ("A1xA1", 64, 8.0), ("euclid:2", 64, 8.0)]


def _fresh(field):
    """A copy of a CONJUGATED field that has measured nothing yet."""
    return BiInvariantField(field.grid, field.values.copy(),
                            Representation.CONJUGATED)


@pytest.mark.parametrize("name,n,box", _RECORD_CASES)
def test_a_resolved_field_propagates_as_a_fresh_copy_does(name, n, box):
    """One conjugated field taken to many times, boxes and oracle grids
    gives, bit for bit, what a fresh copy gives at each: SCALED on both
    sides of h·y_sup/t = π, FIXED on the reach box, the spectral grid."""
    from lsg.spherical import conjugated
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    plain = gaussian_profile(grid, 1.0, 0.2)
    g = conjugated(rs, plain)
    edge = grid.spacing * g.y_sup
    # the multiplier at k > 1, the sandwich (on the dual grid) below
    for k in (3.0, 1.5, 0.7, 0.2):
        t = edge / (np.pi * k)
        kept = group_propagate_closed_form(rs, g, t).field
        assert (kept.grid == grid.dual().scaled(2.0 * t)) == (k < 1.0)
        for other in (_fresh(g), plain):
            again = group_propagate_closed_form(rs, other, t).field
            assert kept.grid == again.grid
            assert np.array_equal(kept.values, again.values)
    for t in (edge / np.pi, 0.5, 2.0):
        box_t = reach_box(rs, g, t)
        assert box_t == reach_box(rs, _fresh(g), t)
        out = RadialGrid(rs.rank, box_t, n)
        kept = group_propagate_closed_form(rs, g, t, GridMode.FIXED, out)
        again = group_propagate_closed_form(rs, _fresh(g), t,
                                            GridMode.FIXED, out)
        assert np.array_equal(kept.field.values, again.field.values)
        assert (suggest_spectral_grid(rs, g, t, out)
                == suggest_spectral_grid(rs, _fresh(g), t, out))
    assert set(g.__dict__["_record"]) == {"tail", "y_sup", "xi_sup"}
    assert "_record" not in plain.__dict__


def test_only_a_conjugated_field_keeps_a_resolution(a1, a1_grid):
    plain = gaussian_profile(a1_grid, 1.0)
    with pytest.raises(ValueError, match="CONJUGATED"):
        plain.y_sup
    group_propagate_closed_form(a1, plain, 0.5)
    reach_box(a1, plain, 0.5)
    assert "_record" not in plain.__dict__


@pytest.mark.parametrize("name,n,box", [("A1", 256, 10.0), ("A2", 64, 8.0)])
def test_scaled_evolutions_match_single_propagations(name, n, box,
                                                     monkeypatch):
    """The one-pass series, with stacks of a few times and spectra shared
    between times of one padding, equals one closed-form call per time."""
    from lsg import propagator
    from lsg.spherical import conjugated
    rs = build_root_system(name)
    g = conjugated(rs, gaussian_profile(RadialGrid(rs.rank, box, n), 1.0))
    edge = g.grid.spacing * g.y_sup
    times = sorted({edge / (np.pi * k) for k in (8.0, 4.0, 2.0, 1.2)}
                   | {edge / np.pi * (1 + 1e-9)} | {0.3, 0.7, 1.1, 3.0, 9.0})
    monkeypatch.setattr(propagator, "_STACK_VALUES", 3 * g.values.size)
    seen = []
    for t, out, vals in propagator._scaled_evolutions(rs, g, times):
        single = group_propagate_closed_form(rs, _fresh(g), t).field
        assert out == single.grid
        assert np.array_equal(vals, single.values)
        seen.append(t)
    assert sorted(seen) == times


def _count_fftn(monkeypatch):
    calls = []
    real = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fftn", counted)
    return calls


def test_plain_input_runs_no_more_ffts_than_before(a1, monkeypatch):
    """Per call on PLAIN data: the sandwich and the unpadded multiplier one
    fftn (the multiplier reads ξ_sup off the spectrum it then evolves),
    the padded multiplier two, FIXED none, reach_box, the oracle grid and
    the oracle one each. A kept ξ_sup saves the padded multiplier's first."""
    from lsg.spherical import conjugated
    wide = gaussian_profile(RadialGrid(1, 12.0, 512), 1.0)
    tight = gaussian_profile(RadialGrid(1, 6.0, 256), 1.0)
    calls = _count_fftn(monkeypatch)

    def count(run):
        calls.clear()
        result = run()
        return len(calls), result

    n, out = count(lambda: group_propagate_closed_form(a1, wide, 2.0))
    assert n == 1
    n, out = count(lambda: group_propagate_closed_form(a1, wide, 0.01))
    assert n == 1 and out.field.grid == wide.grid
    n, out = count(lambda: group_propagate_closed_form(a1, tight, 0.05))
    assert n == 2 and out.field.grid.half_width > tight.grid.half_width
    assert count(lambda: group_propagate_closed_form(
        a1, wide, 2.0, GridMode.FIXED))[0] == 0
    assert count(lambda: reach_box(a1, wide, 1.0))[0] == 1
    assert count(lambda: suggest_spectral_grid(a1, wide, 1.0))[0] == 1
    assert count(lambda: group_propagate_spectral(a1, wide, 1.0))[0] == 1
    g = conjugated(a1, tight)
    assert count(lambda: group_propagate_closed_form(a1, g, 0.05))[0] == 2
    assert count(lambda: group_propagate_closed_form(a1, g, 0.05))[0] == 1


def test_duhamel_refusal_names_its_own_remedies(a1, monkeypatch):
    from lsg import propagator
    grid = RadialGrid(1, 16.0, 256)
    f = gaussian_profile(grid, 4.0)
    forcing, _ = _widening_forcing(grid)
    # the data and 9 samples fit unpadded; padded to the reach they do not
    monkeypatch.setattr(propagator, "_MAX_FFT_NODES", 10 * 256)
    with pytest.raises(GridTooSmall, match=r"needs 10 rows of \d+ nodes/axis "
                       r"at t=0.4; take fewer steps or times$"):
        duhamel_solve(a1, f, forcing, [0.4], steps=8)
