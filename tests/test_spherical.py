import warnings

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
                           pi_product, plancherel_constant, radial_laplacian,
                           roundtrip_error, spectral_to_plain,
                           spherical_function, spherical_function_field,
                           spherical_numerator,
                           spherical_transform, synthesize_conjugated,
                           to_plain, weyl_denominator)

from grid_helpers import grid_nodes, wall_mask

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
        assert abs(weyl_denominator(b2, w.matrix @ h) - w.sign * base) \
            <= 1e-12 * scale * np.exp(2.0)


def test_density_nonnegative_and_invariant(a2, rng):
    h = rng.uniform(-2, 2, 2)
    d = density(a2, h)
    assert d >= 0
    for w in a2.weyl_group:
        assert density(a2, w.matrix @ h) == pytest.approx(d, rel=1e-11)
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
    def density_at(lam):    # |c(λ)|⁻²
        return abs(c_function(a2, lam)) ** -2

    lam = rng.uniform(0.2, 2.0, 2)
    base = density_at(lam)
    for w in a2.weyl_group:
        assert density_at(w.matrix @ lam) == pytest.approx(base, rel=1e-11)
    tiny = density_at(1e-6 * lam)
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
        assert spherical_function(a2, w.matrix @ lam, h) == pytest.approx(
            base, rel=1e-10)
        assert spherical_function(a2, lam, w.matrix @ h) == pytest.approx(
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
    fhat, singular = spectral_to_plain(
        a1, spherical_transform(a1, f, RadialGrid(1, 12.0, 256)))
    # lambda -> -lambda maps node j to node (N - j) % N on [-L, L)
    flipped = np.roll(fhat[::-1], 1)
    mask_flipped = np.roll(singular[::-1], 1)
    sel = ~singular & ~mask_flipped
    sel[0] = False  # -L has no mirror node
    assert np.abs(flipped[sel] - np.conj(fhat[sel])).max() \
        <= 1e-12 * np.abs(fhat).max()


def spherical_transform_direct(rs, field, lams):
    """Direct-quadrature oracle for f̂ at arbitrary regular λ points.

    Sums the pointwise integrand c(-λ)·A_{-λ}(H)·f(H)·φ(H) node by node
    (the quotient and the density combined before any division, so wall
    nodes cost nothing). Slow; it cross-checks the collapsed path.
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


def test_transform_direct_quadrature_oracle(a1, a1_grid, rng):
    """Collapsed Fourier path against the nodewise Weyl-sum quadrature."""
    f = gaussian_profile(a1_grid, 1.0)
    sgrid = RadialGrid(1, 12.0, 256)
    fhat, _ = spectral_to_plain(a1, spherical_transform(a1, f, sgrid))
    idx = [17, 60, 128 + 31, 200]
    lams = np.array([[sgrid.axis[i]] for i in idx])
    oracle = spherical_transform_direct(a1, f, lams)
    got = np.array([fhat[i] for i in idx])
    assert np.abs(got - oracle).max() <= 1e-8 * np.abs(oracle).max()


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A1xA1"])
def test_transform_direct_quadrature_oracle_rank2(name, a2_grid):
    from lsg.rootsystem import build_root_system
    rs = build_root_system(name)
    f = gaussian_profile(a2_grid, 1.0)
    sgrid = RadialGrid(2, 10.0, 64)
    fhat, singular = spectral_to_plain(rs, spherical_transform(rs, f, sgrid))
    picks = [(40, 51), (20, 33), (47, 12), (35, 38)]
    assert not any(singular[p] for p in picks)
    lams = np.array([[sgrid.axis[i], sgrid.axis[j]] for i, j in picks])
    oracle = spherical_transform_direct(rs, f, lams)
    got = np.array([fhat[p] for p in picks])
    assert np.abs(got - oracle).max() <= 1e-8 * np.abs(fhat).max()


def test_transform_a1_against_hand_integral(a1, a1_grid):
    """The conjugated Gaussian transform has a closed form by completing
    the square: ghat(lam) = -2i sqrt(pi/a) e^{(rho^2-lam^2)/4a} sin(rho lam/2a),
    and f_hat = |W| c(-lam) ghat."""
    a = 1.0
    f = gaussian_profile(a1_grid, a)
    sgrid = RadialGrid(1, 12.0, 256)
    fhat, singular = spectral_to_plain(a1, spherical_transform(a1, f, sgrid))
    lam = sgrid.axis
    ghat = -2j * np.sqrt(np.pi / a) * np.exp(
        (RHO1**2 - lam**2) / (4 * a)) * np.sin(RHO1 * lam / (2 * a))
    safe = np.where(np.abs(lam) > 1e-12, lam, 1.0)
    c_neg = np.where(np.abs(lam) > 1e-12, RHO1 * 1j / safe, 0.0)
    expected = 2.0 * c_neg * ghat
    sel = ~singular
    assert np.abs(fhat[sel] - expected[sel]).max() \
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


def test_roundtrip_of_zero_data_is_exact(a1, a2):
    """Both passes are linear: zero data comes back as 0, error 0."""
    for rs, grid, sgrid in ((a1, RadialGrid(1, 12.0, 256),
                             RadialGrid(1, 16.0, 384)),
                            (a2, RadialGrid(2, 8.0, 64),
                             RadialGrid(2, 6.0, 48))):
        zero = BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                                Representation.PLAIN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert roundtrip_error(rs, zero, sgrid) == 0.0


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
    """A symmetric spike pair in f̂, stored as G = π·f̂, synthesizes to (a
    multiple of) the spherical function's conjugated form."""
    sgrid = RadialGrid(1, 10.0, 128)
    k = 96                      # node strictly right of the origin
    lam0 = sgrid.axis[k]
    k_neg = np.argmin(np.abs(sgrid.axis + lam0))
    vals = np.zeros(sgrid.shape, dtype=complex)
    vals[k] = pi_product(a1, np.array([lam0]))
    vals[k_neg] = pi_product(a1, np.array([-lam0]))
    spec = SpectralField(sgrid, vals)
    uphi = synthesize_conjugated(a1, spec, [a1_grid.axis])
    target = (c_function(a1, np.array([lam0]))
              * np.asarray(spherical_numerator(
                  a1, np.array([lam0]), grid_nodes(a1_grid))).reshape(-1))
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
    nodes = grid_nodes(grid)
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


# --- product form of φ and π against the Weyl sums ----------------------------

def weyl_sum_scaled(rs, nodes):
    """Test-side oracle: (Σ_s det(s)e^{⟨sρ,H⟩−M}, Σ_s e^{⟨sρ,H⟩−M}, M) with
    M = max_s⟨sρ,H⟩, the |W| sum the product form replaces."""
    expo = nodes @ rs.orbit(rs.rho).T
    top = expo.max(axis=-1)
    terms = np.exp(expo - top[:, None])
    return terms @ rs.weyl_signs(), terms.sum(axis=-1), top


def sum_rule_wall(rs, grid, chunk=1 << 15):
    """The sum-based chamber-wall rule |φ| < 1e-8·Σ_s e^{⟨sρ,H⟩}, node by
    node, in chunks so the N^l × |W| terms stay small."""
    nodes = grid_nodes(grid)
    out = np.empty(len(nodes), dtype=bool)
    for lo in range(0, len(nodes), chunk):
        phi, scale, _ = weyl_sum_scaled(rs, nodes[lo:lo + chunk])
        out[lo:lo + chunk] = np.abs(phi) < 1e-8 * scale
    return out.reshape(grid.shape)


PRODUCT_SYSTEMS = ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A2xA2",
                   "A1xA1xA1"]


@pytest.mark.parametrize("normalization", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", PRODUCT_SYSTEMS)
def test_product_denominator_matches_weyl_sum(name, normalization):
    from lsg.rootsystem import build_root_system
    from lsg.spherical import _scaled_denominator
    rs = build_root_system(name, normalization=normalization)
    rng = np.random.default_rng(7)
    nodes = rng.uniform(-4.0, 4.0, (400, rs.rank))
    phi_sum, scale, top = weyl_sum_scaled(rs, nodes)
    phi, m, _ = _scaled_denominator(rs, nodes)
    assert np.abs(m - top).max() <= 1e-13 * max(1.0, np.abs(top).max())
    assert np.all(np.abs(phi * np.exp(m - top) - phi_sum) <= 1e-13 * scale)
    # the unscaled value and the grid path agree with the same sum
    plain = np.asarray(weyl_denominator(rs, nodes))
    assert np.all(np.abs(plain * np.exp(-top) - phi_sum) <= 1e-13 * scale)
    grid = RadialGrid(rs.rank, 3.0, 8 if rs.rank > 2 else 24)
    phi_sum, scale, top = weyl_sum_scaled(rs, grid_nodes(grid))
    on_grid = denominator_on_grid(rs, grid).ravel()
    assert np.all(np.abs(on_grid * np.exp(-top) - phi_sum) <= 1e-13 * scale)


WALL_GRIDS = [
    ("A1", 512, 12.0), ("A1", 2048, 12.0), ("A1", 4096, 12.0),
    ("A2", 128, 10.0), ("A2", 256, 10.0), ("B2", 96, 9.0), ("G2", 96, 9.0),
    ("G2", 192, 9.0), ("A1xA1", 128, 10.0), ("A1xA2", 48, 8.0),
    ("A2xA2", 32, 7.0)]


@pytest.mark.parametrize("name,n,box", WALL_GRIDS)
def test_wall_mask_equals_the_sum_rule(name, n, box):
    from lsg.rootsystem import build_root_system
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    mask = wall_mask(rs, grid)
    assert mask.shape == grid.shape
    assert np.array_equal(mask, sum_rule_wall(rs, grid))
    # every wall node on these lattices is an exact zero of φ
    assert np.all(denominator_on_grid(rs, grid)[mask] == 0.0)


@pytest.mark.parametrize("name,n,box", WALL_GRIDS)
def test_denominator_on_grid_is_the_scaled_form_times_its_scale(name, n, box):
    """The sinh product against e^m·(e^{-m}φ): the two round differently,
    by about m ulps of exp, so the bound is relative."""
    from lsg.rootsystem import build_root_system
    from lsg.spherical import _scaled_denominator
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    scaled, m, _ = _scaled_denominator(rs, grid)
    want = scaled * np.exp(m)
    got = denominator_on_grid(rs, grid)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("name,n,box", [("A2", 128, 10.0), ("G2", 96, 9.0),
                                        ("A1xA2", 48, 8.0)])
def test_numerator_on_a_grid_matches_the_stacked_sum(name, n, box):
    """The |W| outer products of 1-D exponentials against the stacked
    (N^l × |W|) exponential; |A_λ| ≤ |W|, so the bound is absolute."""
    from lsg.rootsystem import build_root_system
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    rng = np.random.default_rng(5)
    for _ in range(3):
        lam = rng.uniform(-8.0, 8.0, rs.rank)
        got = spherical_numerator(rs, lam, grid)
        want = np.asarray(spherical_numerator(rs, lam, grid_nodes(grid)))
        assert got.shape == grid.shape
        assert np.abs(got - want.reshape(grid.shape)).max() <= 1e-13


@pytest.mark.parametrize("name, n, half", [
    pytest.param("A1", 512, 10.0, id="A1"),
    pytest.param("A2", 96, 10.0, id="A2"),
    pytest.param("B2", 96, 10.0, id="B2"),
    pytest.param("G2", 96, 10.0, id="G2"),
    pytest.param("A1xA1", 96, 10.0, id="A1xA1"),
    pytest.param("A1xA2", 48, 10.0, id="A1xA2"),
    # oracle-sized spectral grids: for 96² data on box 9 the oracles draw
    # a few hundred nodes per axis at half-widths 10.5-11.2
    pytest.param("G2", 564, 13.06, id="G2-564"),
    pytest.param("A2", 808, 12.44, id="A2-808")])
def test_separable_pi_and_spectral_mask_match_stacked(name, n, half):
    from lsg.rootsystem import build_root_system
    from lsg.spherical import (_is_spectral_singular, _pi_and_spectral_wall,
                               _root_pairings)
    rs = build_root_system(name)
    sgrid = RadialGrid(rs.rank, half, n)
    nodes = grid_nodes(sgrid)
    separable, singular = _pi_and_spectral_wall(
        rs, _root_pairings(rs, sgrid), np.sqrt(sgrid.radius_sq()))
    stacked = np.asarray(pi_product(rs, nodes)).reshape(sgrid.shape)
    bound = np.prod(np.linalg.norm(rs.positive_roots, axis=-1)) \
        * (np.sqrt(sgrid.radius_sq()) + 1.0) ** rs.n_positive
    assert np.all(np.abs(separable - stacked) <= 1e-14 * bound)
    expected = _is_spectral_singular(rs, nodes).reshape(sgrid.shape)
    assert singular.any() and np.array_equal(singular, expected)
    # spectral_to_plain flags the same separable mask and divides G by π
    # everywhere else
    field = gaussian_profile(
        RadialGrid(rs.rank, 9.0, {1: 512, 2: 96, 3: 40}[rs.rank]), 1.0)
    spec = spherical_transform(rs, field, RadialGrid(rs.rank, 5.0, 32))
    fhat, singular = spectral_to_plain(rs, spec)
    assert np.array_equal(
        singular,
        _is_spectral_singular(rs, grid_nodes(spec.grid)).reshape(spec.grid.shape))
    pi_vals = np.asarray(pi_product(rs, grid_nodes(spec.grid))).reshape(
        spec.grid.shape)
    assert np.all(fhat[singular] == 0)
    assert np.allclose(fhat[~singular] * pi_vals[~singular],
                       spec.values[~singular], rtol=1e-13, atol=0)


def test_phi_paths_keep_memory_per_node_small():
    """φ, the wall mask and to_plain on A2xA2 never hold N^l × |W| (36) or
    N^l × |Σ₊| (6) arrays: their peak stays a few complex fields."""
    import tracemalloc
    from lsg.rootsystem import build_root_system
    rs = build_root_system("A2xA2")
    grid = RadialGrid(4, 7.0, 20)
    field_bytes = 16 * 20**4
    uphi = BiInvariantField(grid, np.ones(grid.shape, dtype=complex),
                            Representation.CONJUGATED)
    tracemalloc.start()
    try:
        for run in (lambda: denominator_on_grid(rs, grid),
                    lambda: wall_mask(rs, grid),
                    lambda: to_plain(rs, uphi)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 3.5 * field_bytes, (run, peak / field_bytes)
    finally:
        tracemalloc.stop()


def test_spectral_pair_keeps_memory_per_node_small(a2, g2):
    """The G2 transform 96² → 564² peaks a little above its 564² result,
    and synthesis 564² → 96² below a third of one complex 564² field: the
    chirp-z passes stream their rows through one bounded work buffer into
    the result. The oracle, run axis by axis with both plans per block,
    never builds a 564² grid, nor N_out × M for an axis; criterion 4's A2
    oracle (128² onto SCALED's 128² output through 872 spectral nodes)
    peaks below 2.5 MB."""
    import tracemalloc
    from lsg.propagator import (group_propagate_closed_form,
                                group_propagate_spectral)
    field = gaussian_profile(RadialGrid(2, 9.0, 96), 1.0, 0.1)
    sgrid = RadialGrid(2, 13.06, 564)
    field_bytes = 16 * 564**2
    spec = spherical_transform(g2, field, sgrid)
    f4 = gaussian_profile(RadialGrid(2, 10.0, 128), 1.0)
    out4 = group_propagate_closed_form(a2, f4, 1.0).field.grid
    tracemalloc.start()
    try:
        for run, bound in (
                (lambda: spherical_transform(g2, field, sgrid),
                 1.5 * field_bytes),
                (lambda: synthesize_conjugated(g2, spec,
                                               [field.grid.axis] * 2),
                 0.5 * field_bytes),
                (lambda: group_propagate_spectral(g2, field, 0.4,
                                                  spectral_grid=sgrid),
                 0.3 * field_bytes),
                (lambda: group_propagate_spectral(a2, f4, 1.0,
                                                  out_grid=out4),
                 2.5e6)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= bound, (run, peak / bound)
    finally:
        tracemalloc.stop()
