"""Finite root systems and Weyl groups for the supported low-rank families.

Supported systems: A1, A2, B2, G2 and direct products thereof ("A1xA1",
"A1xA2", ...), and Euclidean R^n as "euclid:<n>", the rank-n system with
no roots: ρ = 0, W = {1}, so φ ≡ 1 and c ≡ 1, and every group formula
reduces to its Euclidean form. Roots live in a fixed orthonormal basis of
the Cartan subalgebra, so the restriction of the Killing form is the
plain dot product and Weyl elements are orthogonal matrices. The default
scale puts long roots at squared length 2; `normalization` multiplies all
root vectors (the form itself is never rescaled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ClosureOverflow, ConfigError, DimensionError,
                     UnsupportedRootSystem)

_CLOSURE_CAP = 10_000
_S2 = np.sqrt(2.0)

# family: (simple roots, long roots at squared length 2; positive roots as
# simple-root coefficients; |W|)
_FAMILIES = {
    "A1": (np.array([[_S2]]), [(1,)], 2),
    "A2": (np.array([[_S2, 0.0], [-_S2 / 2, np.sqrt(6.0) / 2]]),
           [(1, 0), (0, 1), (1, 1)], 6),
    # long root (1,-1), short root (0,1)
    "B2": (np.array([[1.0, -1.0], [0.0, 1.0]]),
           [(1, 0), (0, 1), (1, 1), (1, 2)], 8),
    # short root first, |a1|^2 = 2/3; long second, |a2|^2 = 2, angle 150 deg
    "G2": (np.array([[np.sqrt(2.0 / 3.0), 0.0],
                     [-np.sqrt(6.0) / 2, _S2 / 2]]),
           [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)], 12),
}


@dataclass(frozen=True)
class WeylElement:
    """One Weyl-group element: an orthogonal matrix and its determinant sign."""

    matrix: np.ndarray
    sign: float

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class RootSystemSpec:
    """Immutable description of a (possibly reducible) root system.

    Coordinates are orthonormal for the Killing-form restriction, so every
    pairing is the plain dot product.
    """

    name: str
    rank: int
    roots: np.ndarray            # (n_roots, rank)
    positive_roots: np.ndarray   # (n_roots // 2, rank)
    simple_roots: np.ndarray     # (rank, rank); (0, rank) for euclid:<rank>
    rho: np.ndarray              # (rank,)
    weyl_group: tuple[WeylElement, ...] = field(repr=False)

    def __post_init__(self):
        for arr in (self.roots, self.positive_roots, self.simple_roots,
                    self.rho):
            arr.setflags(write=False)

    @property
    def weyl_order(self) -> int:
        return len(self.weyl_group)

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    def weyl_matrices(self) -> np.ndarray:
        """Stacked (|W|, rank, rank) array of the group's matrices."""
        return np.stack([w.matrix for w in self.weyl_group])

    def weyl_signs(self) -> np.ndarray:
        return np.array([w.sign for w in self.weyl_group])

    def orbit(self, v: np.ndarray) -> np.ndarray:
        """All Weyl images of v, shape (|W|, rank), in group order."""
        return self.weyl_matrices() @ np.asarray(v, dtype=float)


def reflection_matrix(root: np.ndarray) -> np.ndarray:
    """Orthogonal reflection in the hyperplane perpendicular to `root`."""
    root = np.asarray(root, dtype=float)
    return np.eye(len(root)) - 2.0 * np.outer(root, root) / (root @ root)


def generate_weyl_group(simple_roots: np.ndarray) -> list[WeylElement]:
    """Breadth-first closure of the simple-root reflections.

    The identity comes first, then elements in discovery order. Matrices
    are deduplicated by rounding to 1e-9. Raises ClosureOverflow past
    _CLOSURE_CAP elements, which signals a non-crystallographic root set.
    """
    rank = simple_roots.shape[1]
    gens = [reflection_matrix(a) for a in simple_roots]
    ident = np.eye(rank)

    def key(m: np.ndarray):
        return tuple(np.round(m, 9).ravel())

    seen = {key(ident)}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = g @ m
                k = key(p)
                if k not in seen:
                    if len(elems) >= _CLOSURE_CAP:
                        raise ClosureOverflow(
                            f"Weyl closure exceeded {_CLOSURE_CAP} elements")
                    seen.add(k)
                    elems.append(p)
                    nxt.append(p)
        frontier = nxt
    out = []
    for m in elems:
        det = float(np.linalg.det(m))
        out.append(WeylElement(matrix=m, sign=1.0 if det > 0 else -1.0))
    return out


def _embed(vectors: np.ndarray, offset: int, total: int) -> np.ndarray:
    out = np.zeros((len(vectors), total))
    out[:, offset:offset + vectors.shape[1]] = vectors
    return out


def _parse_name(name: str) -> tuple[str, list[str], int]:
    """(canonical name, irreducible factors, rank) of a system name."""
    text = str(name).strip()
    kind, colon, dim = text.partition(":")
    if colon and kind.lower() == "euclid":
        try:
            rank = int(dim)
        except ValueError as exc:
            raise ConfigError(
                f"group {text!r}: dimension must be an integer") from exc
        if rank < 1:
            raise ConfigError(f"group {text!r}: dimension must be >= 1")
        return f"euclid:{rank}", [], rank
    factors = [f.strip().upper() for f in text.replace("×", "x").split("x")]
    if any(f not in _FAMILIES for f in factors):
        raise UnsupportedRootSystem(f"unsupported root system {name!r}")
    rank = sum(1 if f == "A1" else 2 for f in factors)
    return "x".join(factors), factors, rank


def build_root_system(name: str, normalization: float = 1.0) -> RootSystemSpec:
    """Construct a supported root system, optionally rescaling root lengths.

    `name` is one of A1, A2, B2, G2, an x-separated product such as
    "A1xA1", or "euclid:<n>" (n ≥ 1) for R^n, the system with no roots.
    Raises UnsupportedRootSystem for any other root-system name, and
    ConfigError for a malformed dimension or unless 0 < normalization < ∞.
    """
    if not 0 < normalization < math.inf:
        raise ConfigError(
            f"normalization must be positive and finite, got {normalization}")
    canonical, factors, rank = _parse_name(name)
    simple_blocks = [np.zeros((0, rank))]
    positive_blocks = [np.zeros((0, rank))]
    offset = 0
    for f in factors:
        simple = _FAMILIES[f][0] * normalization
        positive = np.array([sum(c * simple[i] for i, c in enumerate(co))
                             for co in _FAMILIES[f][1]])
        simple_blocks.append(_embed(simple, offset, rank))
        positive_blocks.append(_embed(positive, offset, rank))
        offset += simple.shape[1]
    simple_all = np.vstack(simple_blocks)
    positive_all = np.vstack(positive_blocks)
    roots = np.vstack([positive_all, -positive_all])
    rho = 0.5 * positive_all.sum(axis=0)

    group = generate_weyl_group(simple_all)
    expected = int(np.prod([_FAMILIES[f][2] for f in factors]))
    if len(group) != expected:
        raise ClosureOverflow(
            f"closure produced {len(group)} elements for {canonical}, "
            f"expected {expected}")

    rs = RootSystemSpec(
        name=canonical,
        rank=rank,
        roots=roots,
        positive_roots=positive_all,
        simple_roots=simple_all,
        rho=rho,
        weyl_group=tuple(group),
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystemSpec) -> None:
    """Invariant checks at construction time; cheap for the supported ranks."""
    root_keys = {tuple(np.round(r, 9)) for r in rs.roots}
    for r in rs.roots:
        if tuple(np.round(-r, 9)) not in root_keys:
            raise ClosureOverflow("root set not closed under negation")
    for w in rs.weyl_group:
        residual = np.abs(w.matrix.T @ w.matrix - np.eye(rs.rank)).max()
        if residual > 1e-12:
            raise ClosureOverflow(f"non-orthogonal Weyl matrix ({residual:.2e})")
        for r in rs.roots:
            if tuple(np.round(w.matrix @ r, 9)) not in root_keys:
                raise ClosureOverflow("Weyl element does not permute the roots")
    if not np.all(rs.positive_roots @ rs.rho > 0):
        raise ClosureOverflow("rho is not strictly dominant")


def is_dominant(rs: RootSystemSpec, h: np.ndarray) -> bool:
    """Closed positive chamber membership, tested against the simple roots
    to 1e-12."""
    h = np.asarray(h, dtype=float)
    return bool(np.all(rs.simple_roots @ h >= -1e-12))


def dominant_representative(
        rs: RootSystemSpec, h: np.ndarray) -> tuple[np.ndarray, WeylElement]:
    """The Weyl image of h in the closed positive chamber.

    Returns (h_plus, s) with h_plus = s·h. Scans the group with the
    identity first, so a point already in the chamber maps to itself and
    the operation is idempotent.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (rs.rank,) or not np.isfinite(h).all():
        raise DimensionError(f"expected a finite vector of length {rs.rank}")
    for w in rs.weyl_group:
        image = w.matrix @ h
        if is_dominant(rs, image):
            return image, w
    raise AssertionError("Weyl orbit missed the closed chamber")  # unreachable
