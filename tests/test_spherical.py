import numpy as np
import pytest

from lsg.errors import (ChamberWallEvaluation, GridTooSmall,
                        SingularSpectralParameter)
from lsg.grids import (BiInvariantField, RadialGrid, Representation,
                       SpectralField)
from lsg.propagator import gaussian_profile
from lsg.spherical import (c_function, conjugated_values,
                           denominator_on_grid, density,
                           eigen_residual_field, inverse_spherical_transform,
                           pi_product, plancherel_constant,
                           plancherel_density, radial_laplacian,
                           roundtrip_error, spherical_function,
                           spherical_function_field, spherical_numerator,
                           spherical_transform, spherical_transform_direct,
                           synthesize_conjugated, to_plain, wall_mask,
                           weyl_denominator)

RHO1 = np.sqrt(2.0) / 2.0   # A1 rho as a number


# --- Weyl denominator --------------------------------------------------------

def test_denominator_a1_is_twice_sinh(a1, rng):
    for h in rng.uniform(-4, 4, 8):
        assert weyl_denominator(a1, np.array([h])) == pytest.approx(
            2.0 * np.sinh(RHO1 * h), rel=1e-13)


def test_denominator_vanishes_at_origin(a2, g2):
    assert weyl_denominator(a2, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
    assert weyl_denominator(g2, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_denominator_product_formula_a2(a2, rng):
    # sum over W equals prod_{alpha>0} 2 sinh(alpha(H)/2), checked pointwise
    for _ in range(6):
        h = rng.uniform(0.05, 1.5, 2) + a2.rho  # random dominant-ish point
        lhs = weyl_denominator(a2, h)
        rhs = np.prod([2.0 * np.sinh(0.5 * float(alpha @ h))
                       for alpha in a2.positive_roots])
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_denominator_antisymmetry(b2, rng):
    h = rng.uniform(-2, 2, 2)
    base = weyl_denominator(b2, h)
    scale = max(1.0, abs(base))
    for w in b2.weyl_group:
        assert abs(weyl_denominator(b2, w.apply(h)) - w.sign * base) \
            <= 1e-12 * scale * np.exp(2.0)


def test_density_nonnegative_and_invariant(a2, rng):
    h = rng.uniform(-2, 2, 2)
    d = density(a2, h)
    assert d >= 0
    for w in a2.weyl_group:
        assert density(a2, w.apply(h)) == pytest.approx(d, rel=1e-11)
    assert density(a2, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


# --- c-function ---------------------------------------------------------------

def test_c_function_a1_formula(a1, rng):
    alpha = a1.positive_roots[0]
    for lam in rng.uniform(0.3, 3.0, 5):
        lv = np.array([lam])
        expected = float(a1.rho @ alpha) / (1j * float(lv @ alpha))
        assert c_function(a1, lv) == pytest.approx(expected, rel=1e-13)


def test_c_function_singular_raises(a2):
    with pytest.raises(SingularSpectralParameter):
        c_function(a2, np.zeros(2))
    # the first simple root's wall is the lattice line lam_x = 0
    with pytest.raises(SingularSpectralParameter):
        c_function(a2, np.array([0.0, 1.3]))


def test_plancherel_density_even_and_vanishing(a2, rng):
    lam = rng.uniform(0.2, 2.0, 2)
    base = plancherel_density(a2, lam)
    for w in a2.weyl_group:
        assert plancherel_density(a2, w.apply(lam)) == pytest.approx(
            base, rel=1e-11)
    tiny = plancherel_density(a2, 1e-6 * lam)
    assert tiny < 1e-12 * base


# --- spherical functions --------------------------------------------------------

def test_spherical_function_normalized_at_origin(a1, a2, rng):
    for rs in (a1, a2):
        lam = rng.uniform(0.4, 2.0, rs.rank)
        val = spherical_function(rs, lam, np.zeros(rs.rank))
        assert abs(val - 1.0) <= 1e-10


def test_spherical_function_a1_sine_formula(a1, rng):
    alpha = a1.positive_roots[0]
    for _ in range(5):
        lam = rng.uniform(0.3, 2.5)
        h = rng.uniform(0.2, 3.0)
        got = spherical_function(a1, np.array([lam]), np.array([h]))
        coeff = float(a1.rho @ alpha) / (lam * np.sqrt(2.0))
        expected = coeff * np.sin(lam * h) / np.sinh(RHO1 * h)
        assert got == pytest.approx(expected, rel=1e-12)


def test_spherical_function_small_lambda_limit(a1):
    # phi_0(H) = rho(H)/sinh(rho(H)), approached via small regular lambda
    h = np.array([1.3])
    target = (RHO1 * 1.3) / np.sinh(RHO1 * 1.3)
    val = spherical_function(a1, np.array([1e-5]), h)
    assert val == pytest.approx(target, rel=1e-8)


def test_spherical_function_weyl_invariance(a2, rng):
    lam = rng.uniform(0.3, 2.0, 2)
    h = rng.uniform(0.3, 1.5, 2)
    base = spherical_function(a2, lam, h)
    for w in a2.weyl_group:
        assert spherical_function(a2, w.apply(lam), h) == pytest.approx(
            base, rel=1e-10)
        assert spherical_function(a2, lam, w.apply(h)) == pytest.approx(
            base, rel=1e-10)


def test_spherical_function_wall_rejection(a2):
    # nonzero H on the wall of the first simple root (lattice direction)
    with pytest.raises(ChamberWallEvaluation):
        spherical_function(a2, np.array([0.7, 1.1]), np.array([0.0, 2.0]))


# --- spherical transform ----------------------------------------------------------

def test_transform_of_zero_is_zero(a1, a1_grid):
    f = BiInvariantField(a1_grid, np.zeros(a1_grid.shape, dtype=complex),
                         Representation.PLAIN)
    spec = spherical_transform(a1, f, RadialGrid(1, 12.0, 256))
    assert np.abs(spec.values).max() == 0.0


def test_transform_reality_symmetry(a1, a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    spec = spherical_transform(a1, f, RadialGrid(1, 12.0, 256))
    # lambda -> -lambda maps node j to node (N - j) % N on [-L, L)
    flipped = np.roll(spec.values[::-1], 1)
    mask_flipped = np.roll(spec.singular_mask[::-1], 1)
    sel = ~spec.singular_mask & ~mask_flipped
    sel[0] = False  # -L has no mirror node
    assert np.abs(flipped[sel] - np.conj(spec.values[sel])).max() \
        <= 1e-12 * np.abs(spec.values).max()


def test_transform_direct_quadrature_oracle(a1, a1_grid, rng):
    """Collapsed Fourier path against the nodewise Weyl-sum quadrature."""
    f = gaussian_profile(a1_grid, 1.0)
    sgrid = RadialGrid(1, 12.0, 256)
    spec = spherical_transform(a1, f, sgrid)
    idx = [17, 60, 128 + 31, 200]
    lams = np.array([[sgrid.axis[i]] for i in idx])
    oracle = spherical_transform_direct(a1, f, lams)
    got = np.array([spec.values[i] for i in idx])
    assert np.abs(got - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_transform_direct_quadrature_oracle_a2(a2, a2_grid, rng):
    f = gaussian_profile(a2_grid, 1.0)
    sgrid = RadialGrid(2, 10.0, 64)
    spec = spherical_transform(a2, f, sgrid)
    picks = [(40, 51), (20, 33), (47, 12)]
    lams = np.array([[sgrid.axis[i], sgrid.axis[j]] for i, j in picks])
    oracle = spherical_transform_direct(a2, f, lams)
    got = np.array([spec.values[i, j] for i, j in picks])
    assert np.abs(got - oracle).max() <= 1e-8 * np.abs(spec.values).max()


def test_transform_a1_against_hand_integral(a1, a1_grid):
    """The conjugated Gaussian transform has a closed form by completing
    the square: ghat(lam) = -2i sqrt(pi/a) e^{(rho^2-lam^2)/4a} sin(rho lam/2a),
    and f_hat = |W| c(-lam) ghat."""
    a = 1.0
    f = gaussian_profile(a1_grid, a)
    sgrid = RadialGrid(1, 12.0, 256)
    spec = spherical_transform(a1, f, sgrid)
    lam = sgrid.axis
    ghat = -2j * np.sqrt(np.pi / a) * np.exp(
        (RHO1**2 - lam**2) / (4 * a)) * np.sin(RHO1 * lam / (2 * a))
    safe = np.where(np.abs(lam) > 1e-12, lam, 1.0)
    c_neg = np.where(np.abs(lam) > 1e-12, RHO1 * 1j / safe, 0.0)
    expected = 2.0 * c_neg * ghat
    sel = ~spec.singular_mask
    assert np.abs(spec.values[sel] - expected[sel]).max() \
        <= 1e-10 * np.abs(expected).max()


def test_transform_tail_guard(a1):
    tight = RadialGrid(1, 2.0, 64)
    f = gaussian_profile(tight, 0.5)
    with pytest.raises(GridTooSmall):
        spherical_transform(a1, f, RadialGrid(1, 8.0, 64))


# --- synthesis ---------------------------------------------------------------------

def test_inverse_of_zero(a1, a1_grid):
    sgrid = RadialGrid(1, 10.0, 128)
    spec = SpectralField(sgrid, np.zeros(sgrid.shape, dtype=complex))
    out = inverse_spherical_transform(a1, spec, a1_grid)
    assert np.nanmax(np.abs(out.values)) == 0.0


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_roundtrip_a1(a1, a1_grid, rate):
    err = roundtrip_error(a1, gaussian_profile(a1_grid, rate),
                          RadialGrid(1, 16.0, 768))
    assert err <= 1e-6


def test_roundtrip_a2(a2):
    grid = RadialGrid(2, 10.0, 128)
    err = roundtrip_error(a2, gaussian_profile(grid, 1.0),
                          RadialGrid(2, 12.0, 160))
    assert err <= 1e-4


def test_roundtrip_b2(b2):
    grid = RadialGrid(2, 9.0, 96)
    err = roundtrip_error(b2, gaussian_profile(grid, 1.0),
                          RadialGrid(2, 12.0, 128))
    assert err <= 1e-4


def test_roundtrip_recovers_plain_values(a1, a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    spec = spherical_transform(a1, f, RadialGrid(1, 16.0, 768))
    back = inverse_spherical_transform(a1, spec, a1_grid)
    assert back.representation is Representation.PLAIN
    mask = wall_mask(a1, a1_grid)
    assert np.all(np.isnan(back.values[mask]))
    good = ~mask
    assert np.abs(back.values[good] - f.values[good]).max() <= 1e-8


def test_single_mode_synthesis_matches_spherical_function(a1, a1_grid):
    """A symmetric spike pair in the spectrum synthesizes to (a multiple of)
    the spherical function's conjugated form."""
    sgrid = RadialGrid(1, 10.0, 128)
    k = 96                      # node strictly right of the origin
    lam0 = sgrid.axis[k]
    k_neg = np.argmin(np.abs(sgrid.axis + lam0))
    vals = np.zeros(sgrid.shape, dtype=complex)
    vals[k] = 1.0
    vals[k_neg] = 1.0
    spec = SpectralField(sgrid, vals)
    uphi = synthesize_conjugated(a1, spec, [a1_grid.axis])
    target = (c_function(a1, np.array([lam0]))
              * np.asarray(spherical_numerator(
                  a1, np.array([lam0]), a1_grid.nodes())).reshape(-1))
    # proportional: compare after scaling by the leading coefficient
    scale = np.vdot(target, uphi) / np.vdot(target, target)
    assert np.abs(uphi - scale * target).max() <= 1e-10 * np.abs(uphi).max()


def fitted_plancherel_constant(rs):
    """κ fitted from the round trip of a Gaussian, blind to the closed form."""
    n, box, ns, sbox = {1: (512, 12.0, 512, 12.0),
                        2: (96, 9.0, 128, 10.0)}[rs.rank]
    grid = RadialGrid(rs.rank, box, n)
    f = gaussian_profile(grid, 1.0)
    spec = spherical_transform(rs, f, RadialGrid(rs.rank, sbox, ns))
    # synthesis with unit constant
    raw = (synthesize_conjugated(rs, spec, [grid.axis] * rs.rank)
           / plancherel_constant(rs))
    g = conjugated_values(rs, f)
    kappa = np.vdot(raw, g) / np.vdot(raw, raw)
    assert np.linalg.norm(kappa * raw - g) <= 1e-8 * np.linalg.norm(g)
    assert abs(kappa.imag) <= 1e-10 * abs(kappa.real)
    return kappa.real


@pytest.mark.parametrize("name,expected_l", [("A1", 1), ("A2", 2),
                                             ("A1xA1", 2)])
def test_plancherel_constant_matches_theory(name, expected_l):
    from lsg.rootsystem import build_root_system
    rs = build_root_system(name)
    theory = (2.0 * np.pi) ** (-expected_l) / rs.weyl_order**2
    assert fitted_plancherel_constant(rs) == pytest.approx(theory, rel=1e-10)
    assert plancherel_constant(rs) == pytest.approx(theory, rel=1e-15)


@pytest.mark.parametrize("normalization", [0.5, 2.0])
def test_plancherel_constant_ignores_normalization(normalization):
    from lsg.rootsystem import build_root_system
    rs = build_root_system("A1", normalization=normalization)
    assert fitted_plancherel_constant(rs) == pytest.approx(
        plancherel_constant(rs), rel=1e-10)


# --- radial Laplacian ------------------------------------------------------------

def test_laplacian_annihilates_constants(a1, a1_grid):
    # the radial Laplacian of a constant vanishes (phi itself satisfies
    # the Euclidean relation (Delta - |rho|^2) phi = 0 on complex groups)
    ones = BiInvariantField(a1_grid, np.ones(a1_grid.shape, dtype=complex),
                            Representation.PLAIN)
    lap = radial_laplacian(a1, ones)
    good = np.isfinite(lap.values)
    assert good.sum() > 400
    h = a1_grid.spacing
    assert np.abs(lap.values[good]).max() <= h * h


def test_eigen_relation_near_lambda_zero(a1, a1_grid):
    # the lambda -> 0 spherical function has eigenvalue -|rho|^2
    from lsg.spherical import spherical_function_field
    lam = np.array([1e-4])
    field = spherical_function_field(a1, lam, a1_grid)
    lap = radial_laplacian(a1, field)
    rho_sq = float(a1.rho @ a1.rho)
    resid = lap.values + rho_sq * field.values
    good = np.isfinite(resid)
    assert np.abs(resid[good]).max() <= 1e-4


def test_laplacian_flags_border_and_wall(a1, a1_grid):
    ones = BiInvariantField(a1_grid, np.ones(a1_grid.shape, dtype=complex),
                            Representation.PLAIN)
    lap = radial_laplacian(a1, ones)
    assert np.isnan(lap.values[0]) and np.isnan(lap.values[-1])
    origin = a1_grid.points_per_axis // 2
    assert np.isnan(lap.values[origin])


def test_laplacian_does_not_overflow_on_wide_grids(a1):
    """φ overflows past |H| ≈ 1000; the differences never form it."""
    grid = RadialGrid(1, 2000.0, 64)
    h = grid.spacing
    interior = np.ones(grid.shape, dtype=bool)
    interior[[0, -1]] = False
    # φ_λ is NaN on the wall H = 0, so its two neighbours are too
    off_wall = interior & (np.abs(grid.axis) > 1.5 * h)
    resid = eigen_residual_field(a1, np.array([1.0]), grid)
    assert np.isfinite(resid[off_wall]).all()
    # Δ_rad 1 = (2cosh(ρh) - 2)/h² - ρ² exactly on the two-term φ of A1
    ones = BiInvariantField(grid, np.ones(grid.shape, dtype=complex),
                            Representation.PLAIN)
    lap = radial_laplacian(a1, ones).values
    expected = (2.0 * np.cosh(RHO1 * h) - 2.0) / (h * h) - RHO1**2
    interior[grid.axis == 0.0] = False
    assert np.allclose(lap[interior], expected, rtol=1e-12, atol=0.0)


def test_eigen_residual_second_order(a1, rng):
    lam = np.array([1.7])
    coarse = RadialGrid(1, 12.0, 512)
    fine = RadialGrid(1, 12.0, 1024)
    rc = eigen_residual_field(a1, lam, coarse)
    rf = eigen_residual_field(a1, lam, fine)[::2]
    valid = np.isfinite(rc) & np.isfinite(rf)
    ratio = rc[valid].max() / rf[valid].max()
    assert 3.6 <= ratio <= 4.4


def test_eigen_residual_second_order_a2(a2):
    lam = np.array([0.9, 1.4])
    coarse = RadialGrid(2, 10.0, 64)
    fine = RadialGrid(2, 10.0, 128)
    rc = eigen_residual_field(a2, lam, coarse)
    rf = eigen_residual_field(a2, lam, fine)[::2, ::2]
    valid = np.isfinite(rc) & np.isfinite(rf)
    ratio = rc[valid].max() / rf[valid].max()
    assert 3.5 <= ratio <= 4.5


def test_pi_product_vectorized(a2, rng):
    lams = rng.uniform(-2, 2, (7, 2))
    vec = pi_product(a2, lams)
    for i, lam in enumerate(lams):
        assert vec[i] == pytest.approx(
            np.prod([lam @ a for a in a2.positive_roots]))


def test_denominator_grid_consistency(a2, a2_grid):
    phi = denominator_on_grid(a2, a2_grid)
    assert phi.shape == a2_grid.shape
    mask = wall_mask(a2, a2_grid)
    assert mask.any() and not mask.all()


def test_wall_mask_uses_the_local_scale(g2):
    """|φ| < 1e-8·Σ_s e^{⟨sρ,H⟩} node by node, not 1e-8 of the grid max."""
    grid = RadialGrid(2, 9.0, 96)
    nodes = grid.nodes()
    scale = np.exp(nodes @ g2.orbit(g2.rho).T).sum(axis=-1)
    phi = np.abs(np.asarray(weyl_denominator(g2, nodes)))
    mask = wall_mask(g2, grid)
    assert np.array_equal(mask.ravel(), phi < 1e-8 * scale)
    assert mask.mean() < 0.05        # the grid-max rule blanked 23%


def test_to_plain_does_not_overflow_on_wide_grids(a1):
    """φ ~ e^{|ρ||H|} overflows past |H| ≈ 1000; u·φ/φ stays finite."""
    grid = RadialGrid(1, 2000.0, 64)
    h = grid.axis
    u = np.exp(-1e-3 * h * h)
    # u·2sinh(ρh) with each exponent summed first, so no factor overflows
    uphi = np.exp(-1e-3 * h * h + RHO1 * h) - np.exp(-1e-3 * h * h - RHO1 * h)
    field = BiInvariantField(grid, uphi.astype(complex),
                             Representation.CONJUGATED)
    plain = to_plain(a1, field).values
    assert np.isnan(plain[h == 0.0]).all()
    assert np.allclose(plain[h != 0.0], u[h != 0.0], rtol=1e-12, atol=0.0)
    # φ_λ on the same grid divides through to_plain as well
    phi_lam = spherical_function_field(a1, np.array([1.0]), grid).values
    assert np.isfinite(phi_lam[h != 0.0]).all()
