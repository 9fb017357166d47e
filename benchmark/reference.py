"""Exact free evolution of Gaussian-chirp data, written apart from lsg.

For f = e^{-α|H|²} with α = a - ic the conjugated profile u·φ evolves as

    u·φ(H,t) = e^{-it|ρ|²} (1+4iαt)^{-l/2}
               Σ_{s∈W} det(s) e^{|sρ|²/4α} exp(-α|H - sρ/2α|²/(1+4iαt)),

which solves -i∂_t v = (Δ - |ρ|²)v and equals f·φ at t = 0. The Euclidean
case is the single term with ρ = 0. Nothing here reads lsg's calibrated
constants: the root data are tabulated below in lsg's coordinates (long
roots of squared length 2), ρ is solved from ⟨ρ, α_i^∨⟩ = 1 and the orbit
of ρ is generated by simple reflections.
"""

from __future__ import annotations

import numpy as np

_S2 = np.sqrt(2.0)
SIMPLE_ROOTS = {
    "A1": np.array([[_S2]]),
    "A2": np.array([[_S2, 0.0], [-_S2 / 2, np.sqrt(6.0) / 2]]),
    "B2": np.array([[1.0, -1.0], [0.0, 1.0]]),
    "G2": np.array([[np.sqrt(2.0 / 3.0), 0.0], [-np.sqrt(6.0) / 2, _S2 / 2]]),
}


def simple_roots(name: str) -> np.ndarray:
    """Simple roots of an irreducible family or an x-separated product."""
    blocks = [SIMPLE_ROOTS[f] for f in name.split("x")]
    rank = sum(b.shape[1] for b in blocks)
    out = np.zeros((rank, rank))
    at = 0
    for b in blocks:
        k = b.shape[1]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def rho_orbit(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The Weyl orbit of ρ, shape (|W|, rank), and det(s) for each image.

    ρ is regular, so each image sρ belongs to exactly one s, and det(s) is
    the parity of the number of simple reflections that reach it.
    """
    simple = simple_roots(name)
    # ⟨ρ, α_i^∨⟩ = 2⟨ρ, α_i⟩/|α_i|² = 1 for every simple root
    rho = np.linalg.solve(simple, 0.5 * np.einsum("ij,ij->i", simple, simple))
    points, signs = [rho], [1.0]
    seen = {tuple(np.round(rho, 9))}
    frontier = [(rho, 1.0)]
    while frontier:
        nxt = []
        for v, sgn in frontier:
            for a in simple:
                w = v - 2.0 * (v @ a) / (a @ a) * a
                key = tuple(np.round(w, 9))
                if key not in seen:
                    seen.add(key)
                    points.append(w)
                    signs.append(-sgn)
                    nxt.append((w, -sgn))
        frontier = nxt
    return np.array(points), np.array(signs)


def evolved_conjugated(orbit: np.ndarray, signs: np.ndarray,
                       axes: list[np.ndarray], rate: float, chirp: float,
                       t: float) -> np.ndarray:
    """u·φ at time t ≥ 0 on the tensor grid spanned by `axes`.

    Pass orbit = zeros((1, n)) and signs = [1] for Euclidean evolution of
    u itself. Each Weyl term is a product of one-axis Gaussians, so the
    cost is |W| outer products.
    """
    alpha = complex(rate, -chirp)
    width = 1.0 + 4j * alpha * t
    beta = alpha / width
    rank = len(axes)
    rho_sq = float(orbit[0] @ orbit[0])
    out = np.zeros(tuple(len(x) for x in axes), dtype=complex)
    for mu, sgn in zip(orbit, signs):
        centre = mu / (2.0 * alpha)
        term = sgn * np.exp(rho_sq / (4.0 * alpha))
        for ax, x in enumerate(axes):
            shape = [1] * rank
            shape[ax] = len(x)
            term = term * np.exp(-beta * (x - centre[ax]) ** 2).reshape(shape)
        out += term
    return np.exp(-1j * t * rho_sq) * width ** (-rank / 2.0) * out


def relative_l2(got: np.ndarray, want: np.ndarray) -> float:
    """||got - want|| / ||want|| on one uniform grid (the cell volume cancels)."""
    return float(np.linalg.norm((got - want).ravel())
                 / np.linalg.norm(want.ravel()))
