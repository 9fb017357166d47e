import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsg.errors import ClosureOverflow, ConfigError, UnsupportedRootSystem
from lsg.grids import RadialGrid
from lsg.rootsystem import (build_root_system, dominant_representative,
                            generate_weyl_group, is_dominant)
from lsg.spherical import c_function, weyl_denominator

SYSTEMS = ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2"]
ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A1xA1": 4, "A1xA2": 12}


@pytest.mark.parametrize("name", SYSTEMS)
def test_weyl_orders(name):
    assert build_root_system(name).weyl_order == ORDERS[name]


@pytest.mark.parametrize("name", SYSTEMS)
def test_root_set_structure(name):
    rs = build_root_system(name)
    keys = {tuple(np.round(r, 9)) for r in rs.roots}
    assert len(keys) == len(rs.roots)
    for r in rs.roots:
        assert tuple(np.round(-r, 9)) in keys
    pos = {tuple(np.round(r, 9)) for r in rs.positive_roots}
    neg = {tuple(np.round(-r, 9)) for r in rs.positive_roots}
    assert pos | neg == keys and not pos & neg


@pytest.mark.parametrize("name", SYSTEMS)
def test_rho_is_half_sum_and_dominant(name):
    rs = build_root_system(name)
    assert np.allclose(rs.rho, 0.5 * rs.positive_roots.sum(axis=0))
    assert np.all(rs.positive_roots @ rs.rho > 0)


@pytest.mark.parametrize("name", SYSTEMS)
def test_weyl_elements_orthogonal_and_permute_roots(name):
    rs = build_root_system(name)
    keys = {tuple(np.round(r, 9)) for r in rs.roots}
    for w in rs.weyl_group:
        assert np.abs(w.matrix.T @ w.matrix - np.eye(rs.rank)).max() <= 1e-12
        assert w.sign == pytest.approx(np.linalg.det(w.matrix))
        for r in rs.roots:
            assert tuple(np.round(w.matrix @ r, 9)) in keys


def test_long_roots_have_squared_length_two():
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(name)
        lengths = np.einsum("ij,ij->i", rs.roots, rs.roots)
        assert max(lengths) == pytest.approx(2.0, abs=1e-12)


def test_normalization_scales_roots():
    rs = build_root_system("A1", normalization=2.0)
    assert np.einsum("ij,ij->i", rs.roots, rs.roots).max() == pytest.approx(8.0)


def test_unknown_name_rejected():
    with pytest.raises(UnsupportedRootSystem):
        build_root_system("E8")
    with pytest.raises(UnsupportedRootSystem):
        build_root_system("A1xZ9")


@pytest.mark.parametrize("normalization", [0.0, -1.0, np.nan, np.inf])
def test_normalization_must_be_positive_and_finite(normalization):
    with pytest.raises(ConfigError):
        build_root_system("A2", normalization=normalization)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_euclidean_space_is_the_system_with_no_roots(n):
    rs = build_root_system(f"euclid:{n}")
    assert rs.name == f"euclid:{n}" and rs.rank == n
    for roots in (rs.roots, rs.positive_roots, rs.simple_roots):
        assert roots.shape == (0, n)
    assert rs.weyl_order == 1
    assert np.array_equal(rs.weyl_group[0].matrix, np.eye(n))
    assert rs.weyl_group[0].sign == 1.0
    assert np.array_equal(rs.rho, np.zeros(n))
    grid = RadialGrid(n, 6.0, 16)
    assert np.array_equal(weyl_denominator(rs, grid), np.ones(grid.shape))
    assert c_function(rs, np.linspace(-1.3, 0.7, n)) == 1.0


@pytest.mark.parametrize("name", ["euclid:x", "euclid:0", "euclid:-2",
                                  "euclid:1.5", "euclid:"])
def test_malformed_euclidean_dimension_is_a_config_error(name):
    with pytest.raises(ConfigError, match="dimension"):
        build_root_system(name)


def test_closure_overflow_on_noncrystallographic_angle():
    # reflections at an irrational angle generate an infinite dihedral group
    theta = 1.0
    simple = np.array([[1.0, 0.0],
                       [np.cos(theta), np.sin(theta)]])
    with pytest.raises(ClosureOverflow, match="10000 elements"):
        generate_weyl_group(simple)


def test_g2_order_against_independent_enumeration(g2):
    """Count orthogonal maps sending the simple pair to root pairs while
    preserving the Gram data and the root set; that count is the group
    order, obtained without any reflection closure."""
    roots = g2.roots
    a1, a2 = g2.simple_roots
    gram = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]])
    keys = {tuple(np.round(r, 9)) for r in roots}
    count = 0
    for r1 in roots:
        for r2 in roots:
            cand = np.array([[r1 @ r1, r1 @ r2], [r1 @ r2, r2 @ r2]])
            if np.abs(cand - gram).max() > 1e-9:
                continue
            basis = np.stack([a1, a2], axis=1)
            target = np.stack([r1, r2], axis=1)
            m = target @ np.linalg.inv(basis)
            if np.abs(m.T @ m - np.eye(2)).max() > 1e-9:
                continue
            if all(tuple(np.round(m @ r, 9)) in keys for r in roots):
                count += 1
    assert count == 12 == g2.weyl_order


def test_signs_sum_to_zero():
    for name in SYSTEMS:
        rs = build_root_system(name)
        assert np.sum(rs.weyl_signs()) == pytest.approx(0.0)


# --- pairing: the Killing form is the dot product in these coordinates ----

def test_pairing_zero_and_dominance(a2):
    zero = np.zeros(2)
    assert zero @ zero == 0.0
    for alpha in a2.positive_roots:
        assert a2.rho @ alpha > 0


def test_pairing_a1_rho_norm(a1):
    # with <alpha,alpha> = 2 and rho = alpha/2: <rho,rho> = 1/2
    assert a1.rho @ a1.rho == pytest.approx(0.5, abs=1e-14)


# --- dominant representative -----------------------------------------------

def test_dominant_representative_identity_on_chamber(a2):
    h = 2.0 * a2.rho  # strictly dominant
    h_plus, w = dominant_representative(a2, h)
    assert np.allclose(h_plus, h)
    assert np.allclose(w.matrix, np.eye(2))


def test_dominant_representative_a1_reflection(a1):
    alpha = a1.positive_roots[0]
    h_plus, w = dominant_representative(a1, -0.7 * alpha)
    assert np.allclose(h_plus, 0.7 * alpha)
    assert w.sign == -1.0


@given(st.lists(st.floats(-4, 4), min_size=2, max_size=2))
def test_dominant_representative_properties(coords):
    rs = build_root_system("A2")
    h = np.array(coords)
    h_plus, w = dominant_representative(rs, h)
    assert np.allclose(w.matrix @ h, h_plus)
    assert is_dominant(rs, h_plus)
    again, w2 = dominant_representative(rs, h_plus)
    assert np.allclose(again, h_plus)
    assert np.allclose(w2.matrix, np.eye(2))


def test_orbit_of_strictly_dominant_point_is_free(g2, rng):
    h = g2.rho + np.array([0.05, 0.02])
    orbit = g2.orbit(h)
    keys = {tuple(np.round(p, 9)) for p in orbit}
    assert len(keys) == g2.weyl_order


def test_weyl_group_accessor_identity_first(b2):
    grp = b2.weyl_group
    assert len(grp) == 8
    assert np.allclose(grp[0].matrix, np.eye(2))
