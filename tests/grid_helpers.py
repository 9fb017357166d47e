"""What only the tests need of a grid: its nodes as coordinates, the
support radius of a field, and the Weyl-symmetry and wall-band checks
built from the library's own support rule, lattice maps and scaled
denominator."""

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
