"""What only the tests need of a grid: its nodes as coordinates, the
support radius of a field, the Weyl-symmetry and wall-band checks built
from the library's own support rule, lattice maps and scaled denominator,
and the exact evolution of Gaussian data to compare with."""

import numpy as np

from lsg.grids import _mapped_residual, _support_of, _weyl_lattice_maps
from lsg.spherical import _scaled_denominator


def grid_meshes(grid):
    """Each axis's coordinate at every node, one grid-shaped array per axis."""
    return np.meshgrid(*([grid.axis] * grid.rank), indexing="ij")


def grid_nodes(grid):
    """All nodes as an (N^rank, rank) array, C-ordered."""
    return np.stack([m.ravel() for m in grid_meshes(grid)], axis=-1)


def support_radius(values, grid):
    """Largest node |x|_inf where |values| still exceeds 1e-12·peak, and at
    least the grid spacing (`lsg.grids._support_of` of |values|)."""
    return _support_of(np.abs(values), grid)


def weyl_symmetry_residual(values, grid, matrices, signs, odd):
    """Max |v(sH) - (det s)^k v(H)| over the lattice-compatible Weyl
    elements, relative to max |v|; k = 1 for antisymmetric (odd=True)
    fields, 0 for invariant ones."""
    return _mapped_residual(
        values, _weyl_lattice_maps(grid, matrices, signs), odd)


def wall_mask(rs, grid):
    """Grid nodes on the chamber-wall band (see `_scaled_denominator`)."""
    return _scaled_denominator(rs, grid)[2]


def gaussian_chirp_conjugated(rs, axis, a, c, t):
    """Exact u·φ at time t for f = e^{-(a - ic)|H|^2}, on the tensor grid of axis.

    Each Weyl term of f·φ = Σ_s det(s) e^{|ρ|²/4w} e^{-w|H - sρ/2w|²},
    w = a - ic, is a shifted complex Gaussian: per axis e^{-w x²} evolves to
    (1+4iwt)^{-1/2} e^{-w x²/(1+4iwt)}, and the whole sum picks up
    e^{-it|ρ|²}.
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
