import numpy as np
import pytest

from lsg.errors import GridTooSmall
from lsg.grids import (BiInvariantField, GridMode, RadialGrid, Representation,
                       _chirp_z_axis, _chirp_z_plan, _mapped_residual,
                       _uniform_step, _weyl_lattice_maps, boundary_tail,
                       fourier_at, fourier_native, lq_norm, require_tail,
                       simpson_weights)
from lsg.rootsystem import build_root_system
from lsg.spherical import conjugated_values

from grid_helpers import (grid_meshes, grid_nodes, support_radius,
                          weyl_symmetry_residual)


def test_grid_basic_properties():
    g = RadialGrid(2, 10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.shape == (64, 64)
    assert 0.0 in g.axis
    assert grid_nodes(g).shape == (64 * 64, 2)


def test_grid_rejects_odd_or_bad_sizes():
    with pytest.raises(ValueError):
        RadialGrid(1, 10.0, 15)
    with pytest.raises(ValueError):
        RadialGrid(1, -1.0, 16)


@pytest.mark.parametrize("rank, n, ok", [
    (1, 64.0, False), (1.0, 64, False), (1, 64.5, False), (1, "64", False),
    (np.int64(1), np.int64(64), True)])
def test_grid_takes_integer_sizes_only(rank, n, ok):
    if ok:
        assert RadialGrid(rank, 10.0, n) == RadialGrid(1, 10.0, 64)
    else:
        with pytest.raises(ValueError, match="integers"):
            RadialGrid(rank, 10.0, n)


@pytest.mark.parametrize("half_width", [0.0, np.inf, np.nan, 1e308])
def test_grid_rejects_half_width_without_a_finite_axis(half_width):
    # each of these once built an axis of NaN (1e308: the width 2L overflows)
    with pytest.raises(ValueError, match="half_width"):
        RadialGrid(1, half_width, 8)


def test_scaled_grid_past_the_float_range_is_grid_too_small(a1):
    from lsg.propagator import gaussian_profile, group_propagate_closed_form
    with pytest.raises(GridTooSmall, match="overflows"):
        RadialGrid(1, 12.0, 8).scaled(1e308)
    # the SCALED output box 2t·π/h of a huge t once came out as a NaN axis
    f = gaussian_profile(RadialGrid(1, 12.0, 64), 1.0)
    with pytest.raises(GridTooSmall, match="overflows"):
        group_propagate_closed_form(a1, f, 1e308, GridMode.SCALED)


def test_fourier_native_matches_direct(rng):
    g = RadialGrid(1, 8.0, 128)
    vals = np.exp(-g.axis**2) * (1 + 0.3j)
    dual, fast = fourier_native(vals, g)
    direct = fourier_at(vals, g, [dual.axis], sign=-1)
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()


def test_fourier_native_matches_direct_2d(rng):
    g = RadialGrid(2, 6.0, 32)
    r2 = g.radius_sq()
    vals = np.exp(-r2) * (grid_meshes(g)[0] + 0.2j)
    dual, fast = fourier_native(vals, g)
    direct = fourier_at(vals, g, [dual.axis, dual.axis], sign=-1)
    assert np.abs(fast - direct).max() <= 1e-11 * np.abs(direct).max()


def dense_fourier(values, grid, out_axes, sign):
    """Oracle for fourier_at: the sum as one dense M×N kernel per axis."""
    x = grid.axis
    out = np.asarray(values, dtype=complex)
    for ax, xi in enumerate(out_axes):
        kernel = np.exp(sign * 1j * np.outer(np.asarray(xi, dtype=float), x))
        kernel *= grid.spacing
        out = np.moveaxis(np.tensordot(kernel, out, axes=([1], [ax])), 0, ax)
    return out


def _rank1_case(n, box, out_axis, sign, centre=0.7, freq=1.3):
    """Gaussian bump off the origin, modulated so its transform peaks
    at ±freq, whichever side the sign puts inside the output axis."""
    g = RadialGrid(1, box, n)
    vals = np.exp(-0.8 * (g.axis - centre)**2 - sign * 1j * freq * g.axis)
    return vals, g, [out_axis]


@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("label, out_axis, freq", [
    ("M > N", np.linspace(-9.0, 7.0, 700), 1.3),
    ("M < N, odd M", np.linspace(-6.0, 6.0, 201), 1.3),
    ("M = 1", np.array([0.37]), 0.5),
    ("off-centre", np.linspace(20.0, 31.0, 300), 25.0),
])
def test_fourier_at_matches_dense_rank1(sign, label, out_axis, freq):
    vals, g, axes = _rank1_case(256, 10.0, out_axis, sign, freq=freq)
    expected = dense_fourier(vals, g, axes, sign)
    got = fourier_at(vals, g, axes, sign)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("sign", [-1, +1])
def test_fourier_at_matches_dense_native_4096(sign):
    dual = RadialGrid(1, 12.0, 4096).dual()
    vals, g, axes = _rank1_case(4096, 12.0, dual.axis, sign)
    expected = dense_fourier(vals, g, axes, sign)
    got = fourier_at(vals, g, axes, sign)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("sign", [-1, +1])
def test_fourier_at_matches_dense_rank2(sign):
    g = RadialGrid(2, 9.0, 96)
    x, y = grid_meshes(g)
    vals = np.exp(-(x - 0.3)**2 - 0.7 * (y + 0.2)**2) * (x + 0.5j)
    for axes in ([np.linspace(-5.0, 5.0, 530)] * 2,
                 [np.linspace(-5.0, 5.0, 530), np.linspace(-3.0, 8.0, 211)]):
        expected = dense_fourier(vals, g, axes, sign)
        got = fourier_at(vals, g, axes, sign)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("sign", [-1, +1])
def test_fourier_at_matches_dense_rank3(sign):
    g = RadialGrid(3, 7.0, 24)
    x, y, z = grid_meshes(g)
    vals = (np.exp(-(x - 0.4)**2 - 0.6 * y**2 - 1.3 * (z + 0.3)**2)
            * (1.0 + 0.4j * y - 0.2 * x * z))
    # M != N on every axis; the middle axis is off-centre, odd and longer
    axes = [np.linspace(-3.0, 3.0, 17), np.linspace(-1.5, 4.0, 41),
            np.linspace(-2.0, 2.0, 30)]
    expected = dense_fourier(vals, g, axes, sign)
    got = fourier_at(vals, g, axes, sign)
    assert got.shape == expected.shape == (17, 41, 30)
    assert got.flags.c_contiguous
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def strided_fourier_at(values, grid, out_axes, sign):
    """Reference for fourier_at's axis layout: every axis transformed in
    place along its own, possibly strided, axis."""
    out = np.asarray(values, dtype=complex)
    for ax, xi in enumerate(out_axes):
        xi = np.asarray(xi, dtype=float)
        pre, kernel_hat, post = _chirp_z_plan(grid, xi, _uniform_step(xi),
                                              sign)
        shape = [1] * out.ndim
        shape[ax] = -1
        spec = np.fft.fft(out * pre.reshape(shape), n=kernel_hat.size, axis=ax)
        conv = np.fft.ifft(spec * kernel_hat.reshape(shape), axis=ax)
        head = (slice(None),) * ax + (slice(0, xi.size),)
        out = conv[head] * post.reshape(shape)
    return out


@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("rank, n, sizes", [
    (1, 256, (700,)), (1, 256, (201,)), (2, 96, (530, 211)),
    (2, 96, (564, 564)), (3, 24, (17, 41, 30))])
def test_fourier_at_equals_strided_axis_loop(sign, rank, n, sizes):
    rng = np.random.default_rng(rank * 1000 + n)
    g = RadialGrid(rank, 8.0, n)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    axes = [np.linspace(-5.0 + d, 6.0 - 0.5 * d, m)
            for d, m in enumerate(sizes)]
    assert np.array_equal(fourier_at(vals, g, axes, sign),
                          strided_fourier_at(vals, g, axes, sign))
    # real input goes through the same complex arithmetic
    assert np.array_equal(fourier_at(vals.real, g, axes, sign),
                          strided_fourier_at(vals.real, g, axes, sign))


@pytest.mark.parametrize("rank, n, sizes", [
    (1, 256, (700,)), (2, 96, (530, 211)), (3, 24, (17, 41, 30))])
def test_fourier_at_is_the_same_to_the_bit_one_row_per_block(rank, n, sizes,
                                                            monkeypatch):
    """The work buffer's bound only groups rows: one row per block gives
    the default blocks' result to the bit (on rank 3 those blocks take
    part of a row set, several whole row sets, and rows along the last
    axis)."""
    from lsg import grids
    rng = np.random.default_rng(rank)
    g = RadialGrid(rank, 8.0, n)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    axes = [np.linspace(-5.0 + d, 6.0 - 0.5 * d, m)
            for d, m in enumerate(sizes)]
    blocked = fourier_at(vals, g, axes)
    monkeypatch.setattr(grids, "_BLOCK_VALUES", 1)
    assert np.array_equal(fourier_at(vals, g, axes), blocked)


@pytest.mark.parametrize("sign", [-1, +1])
def test_fourier_at_weight_is_an_input_outer_product(sign):
    """A weight folded into each axis's chirp-z pre-chirp, as the spectral
    oracle folds e^{-itλ_d²}, multiplies the input by w(x_1)·…·w(x_l)."""
    g = RadialGrid(2, 8.0, 96)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    w = np.exp(-0.3j * g.axis**2) * (1.0 + 0.1 * g.axis)
    axes = [np.linspace(-5.0, 6.0, 530), np.linspace(-4.0, 4.0, 211)]
    expected = fourier_at(vals * np.multiply.outer(w, w), g, axes, sign)
    got = vals
    for ax, xi in enumerate(axes):
        plan = _chirp_z_plan(g, xi, _uniform_step(xi), sign, w)
        got = _chirp_z_axis(got, ax, plan)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_fourier_at_rejects_non_uniform_axis():
    g = RadialGrid(1, 8.0, 64)
    vals = np.exp(-g.axis**2).astype(complex)
    with pytest.raises(ValueError, match="uniform"):
        fourier_at(vals, g, [np.array([0.0, 1.0, 3.0])])


def test_fourier_gaussian_reference():
    # FT of e^{-a x^2} is sqrt(pi/a) e^{-xi^2/4a} in this convention
    g = RadialGrid(1, 12.0, 512)
    a = 0.7
    vals = np.exp(-a * g.axis**2).astype(complex)
    dual, hat = fourier_native(vals, g)
    expected = np.sqrt(np.pi / a) * np.exp(-dual.axis**2 / (4 * a))
    sel = np.abs(dual.axis) < 10.0
    assert np.abs(hat[sel] - expected[sel]).max() <= 1e-12 * expected.max()


def test_fourier_roundtrip(rng):
    g = RadialGrid(1, 10.0, 256)
    vals = np.exp(-g.axis**2) * np.cos(g.axis) * (1 + 0.5j)
    dual, hat = fourier_native(vals, g)
    back = fourier_at(hat, dual, [g.axis], sign=+1) / (2.0 * np.pi)
    assert np.abs(back - vals).max() <= 1e-12 * np.abs(vals).max()


def test_tail_checks():
    g = RadialGrid(1, 3.0, 64)
    wide = np.exp(-0.1 * g.axis**2)
    assert boundary_tail(wide) > 1e-12
    with pytest.raises(GridTooSmall):
        require_tail(wide)
    narrow = np.exp(-10.0 * g.axis**2)
    require_tail(narrow)
    # a NaN tail compares False with any tolerance
    for bad in (np.nan, np.inf):
        with pytest.raises(GridTooSmall, match="not finite"):
            require_tail(np.where(g.axis == 0.0, bad, narrow))


def test_support_radius():
    g = RadialGrid(1, 10.0, 256)
    vals = np.where(np.abs(g.axis) <= 2.0, 1.0, 0.0)
    r = support_radius(vals, g)
    assert 1.9 <= r <= 2.1


def test_lq_norm_inf_and_two():
    g = RadialGrid(1, 5.0, 64)
    vals = np.exp(-g.axis**2)
    assert lq_norm(vals, g, np.inf) == pytest.approx(1.0)
    ref = np.sqrt((vals**2).sum() * g.spacing)
    assert lq_norm(vals, g, 2.0) == pytest.approx(ref)


def test_simpson_weights_accept_numpy_integers():
    assert simpson_weights(2).tolist() == [1.0, 4.0, 1.0]
    assert simpson_weights(np.int64(6)).tolist() == [1.0, 4.0, 2.0, 4.0,
                                                     2.0, 4.0, 1.0]


def test_weyl_symmetry_residual_flags_asymmetry(a1, a1_grid):
    mats, signs = a1.weyl_matrices(), a1.weyl_signs()
    odd = np.sinh(a1_grid.axis) * np.exp(-a1_grid.axis**2)
    assert weyl_symmetry_residual(odd, a1_grid, mats, signs, odd=True) <= 1e-14
    # an even profile is maximally non-antisymmetric
    even = np.exp(-a1_grid.axis**2)
    assert weyl_symmetry_residual(even, a1_grid, mats, signs, odd=True) > 0.5
    assert weyl_symmetry_residual(even, a1_grid, mats, signs, odd=False) <= 1e-14


def test_weyl_symmetry_residual_b2(b2):
    grid = RadialGrid(2, 6.0, 32)
    x, y = grid_meshes(grid)
    env = np.exp(-(x**2 + y**2))
    invariant = env * (np.cosh(x) + np.cosh(y))
    mats, signs = b2.weyl_matrices(), b2.weyl_signs()
    assert weyl_symmetry_residual(invariant, grid, mats, signs,
                                  odd=False) <= 1e-13


def _residual_by_node_lookup(values, grid, matrices, signs, odd):
    """Oracle for weyl_symmetry_residual: map every node H to sH, keep the
    elements that send all nodes onto the lattice, look v(sH) up by index."""
    n, h, half = grid.points_per_axis, grid.spacing, grid.half_width
    nodes = grid_nodes(grid)
    flat = values.ravel()
    scale = np.abs(flat).max()
    worst = 0.0
    for mat, sgn in zip(matrices, signs):
        k = (nodes @ mat.T + half) / h
        idx = np.rint(k)
        if np.abs(k - idx).max() > 1e-9:
            continue
        inside = np.all((idx >= 0) & (idx < n), axis=1)
        mapped = values[tuple(idx[inside].astype(int).T)]
        target = (sgn if odd else 1.0) * flat[inside]
        worst = max(worst, float(np.abs(mapped - target).max() / scale))
    return worst


@pytest.mark.parametrize("name,n,box", [("A1", 64, 8.0), ("A2", 48, 7.0),
                                        ("B2", 48, 7.0), ("A1xA1", 32, 6.0)])
def test_lattice_maps_leave_out_the_identity(name, n, box):
    """The identity's residual is exactly 0, so the maps skip it, and the
    residual is the same to the bit as with the identity's map put back."""
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    maps = _weyl_lattice_maps(grid, rs.weyl_matrices(), rs.weyl_signs())
    same = tuple(np.meshgrid(*([np.arange(n)] * rs.rank), indexing="ij"))
    assert maps
    assert not any(all(np.array_equal(a, b) for a, b in zip(src, same))
                   for _, src, _ in maps)
    identity = (1.0, same, np.ones(grid.shape, dtype=bool))
    rng = np.random.default_rng(7)
    plain = BiInvariantField(grid, np.exp(-grid.radius_sq()).astype(complex),
                             Representation.PLAIN)
    fields = [plain.values, conjugated_values(rs, plain),
              rng.standard_normal(grid.shape)
              + 1j * rng.standard_normal(grid.shape),
              np.zeros(grid.shape)]
    for values in fields:
        for odd in (False, True):
            assert (_mapped_residual(values, maps, odd)
                    == _mapped_residual(values, [identity] + maps, odd))


@pytest.mark.parametrize("name,n,box", [("A1", 64, 8.0), ("A2", 48, 7.0),
                                        ("B2", 48, 7.0), ("G2", 48, 7.0),
                                        ("A1xA1", 32, 6.0)])
def test_weyl_symmetry_residual_prebuilt_maps_match_fresh(name, n, box):
    rs = build_root_system(name)
    grid = RadialGrid(rs.rank, box, n)
    mats, signs = rs.weyl_matrices(), rs.weyl_signs()
    maps = _weyl_lattice_maps(grid, mats, signs)
    assert len(maps) >= 1           # a nontrivial element (no identity)
    rsq = grid.radius_sq()
    even = np.exp(-rsq).astype(complex)
    odd = conjugated_values(
        rs, BiInvariantField(grid, even, Representation.PLAIN))
    shifted = np.exp(-sum((m - 0.7) ** 2 for m in grid_meshes(grid)))
    residuals = {}
    for label, v in (("even", even), ("odd", odd), ("shifted", shifted)):
        for parity in (False, True):
            fresh = weyl_symmetry_residual(v, grid, mats, signs, odd=parity)
            assert _mapped_residual(v, maps, parity) == fresh
            assert fresh == _residual_by_node_lookup(v, grid, mats, signs,
                                                     parity)
            residuals[label, parity] = fresh
    assert residuals["even", False] <= 1e-13
    assert residuals["odd", True] <= 1e-13
    assert residuals["even", True] > 0.5 and residuals["odd", False] > 0.5
    assert min(residuals["shifted", False], residuals["shifted", True]) > 0.1
