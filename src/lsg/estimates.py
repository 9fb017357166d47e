"""Numerical verification of dispersive decay and Strichartz bounds.

The weighted group norms reduce to Euclidean norms of the conjugated
profile: the group integrand |u|^q |φ|^{q-2} against the radial density φ²
is pointwise |u·φ|^q, so ‖u|φ|^{1-2/q}‖_{L^q(G)} = ‖uφ‖_{L^q(dH)}. Decay
fits therefore measure the conjugated profile on SCALED output grids,
which track the dispersive spreading instead of losing it off a fixed box.

Admissible space-time pair: p = 2(l+2)/(l+4), q = 2(l+2)/l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (GridTooSmall, InsufficientTimes, InvalidTime,
                     UnsupportedExponent, ZeroData)
from .grids import (BiInvariantField, Representation, lq_norm, lq_power,
                    simpson_weights)
from .propagator import _scaled_evolutions, duhamel_solve
from .rootsystem import RootSystemSpec
from .spherical import (conjugated, conjugated_values, conjugated_with,
                        denominator_on_grid)

# pass/fail bounds of the CLI and the acceptance suite alike
DECAY_SLOPE_TOL = 0.05      # |fitted slope - target slope|
L2_SLOPE_TOL = 0.02         # the same at p = 2, where the L² norm is conserved
CAUCHY_TOL = 0.02           # |N_r - N_{r-1}| / N_r, last two refinements

# criterion 9's quadratures of the inhomogeneous check
_DUHAMEL_STEPS = 8          # Simpson panels of each Duhamel s-integral
_TIME_PANELS = 4            # Simpson panels of the space-time norms


@dataclass(frozen=True)
class NormReport:
    t: float
    weighted_norm: float


def weighted_norm(rs: RootSystemSpec, field: BiInvariantField,
                  q: float) -> float:
    """‖u|φ|^{1-2/q}‖_{L^q(G)} = L^q(dH) norm of the conjugated profile.

    q must be ≥ 2 (q = inf gives the nodewise sup; NaN is refused).
    """
    if not q >= 2:
        raise UnsupportedExponent(f"weighted norm needs q >= 2, got {q}")
    return lq_norm(conjugated_values(rs, field), field.grid, q)


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    return p / (p - 1.0)


def decay_exponent_fit(rs: RootSystemSpec, field: BiInvariantField, p: float,
                       times: list[float]) -> tuple[float, float, list[NormReport]]:
    """Fitted log-log slope of the weighted norm against the target -l(1/p - 1/2).

    Needs at least five times spanning a decade, all in the asymptotic
    regime (t ≥ 1 by default convention). Returns (slope, target, reports),
    the reports in order of t. The data is conjugated once and evolved to
    every time in one pass (`_scaled_evolutions`, as in `strichartz_norm`),
    so no time rebuilds φ or remeasures the data (see BiInvariantField).
    ZeroData where a norm is 0 (zero data), whose logarithm the fit cannot
    take.
    """
    times = sorted(float(t) for t in times)
    if len(times) < 5 or times[-1] < 10.0 * times[0]:
        raise InsufficientTimes(
            "need >= 5 times spanning at least one decade")
    if not 1 <= p <= 2:
        raise UnsupportedExponent(f"decay estimate covers 1 <= p <= 2, got {p}")
    if not all(0 < t < math.inf for t in times):
        raise InvalidTime(f"decay fit needs 0 < t < inf, got {times}")
    q = conjugate_exponent(p)
    reports = sorted((NormReport(t, lq_norm(vals, grid, q)) for t, grid, vals
                      in _scaled_evolutions(rs, conjugated(rs, field), times)),
                     key=lambda r: r.t)
    if not all(r.weighted_norm > 0 for r in reports):
        raise ZeroData("decay fit needs nonzero norms; the data is zero")
    slope = float(np.polyfit(np.log([r.t for r in reports]),
                             np.log([r.weighted_norm for r in reports]), 1)[0])
    target = rs.rank * (0.5 - 1.0 / p)
    return slope, target, reports


def strichartz_pair(rank: int) -> tuple[Fraction, Fraction]:
    """The admissible (p, q) = (2(l+2)/(l+4), 2(l+2)/l), exact."""
    if rank < 1:
        raise UnsupportedExponent("rank must be >= 1")
    return (Fraction(2 * (rank + 2), rank + 4),
            Fraction(2 * (rank + 2), rank))


def strichartz_norm(rs: RootSystemSpec, field: BiInvariantField, t_max: float,
                    refinements: int = 4, dyadic_levels: int = 8
                    ) -> list[float]:
    """Homogeneous space-time norm (∫₀ᵀ ‖uφ(t)‖_q^q dt)^{1/q} per refinement.

    Time quadrature: dyadic subintervals toward t = 0 (the integrand turns
    over from ‖gφ...‖ to the decay regime there), the first of them
    [0, t_max/2^dyadic_levels]; composite Simpson with 2^{r+1} panels per
    subinterval at refinement level r, so the whole of [0, t_max] refines
    with r. The initial data is normalized to unit L²(G) mass first. The
    returned sequence must stabilize; the caller checks Cauchy agreement of
    the last two levels (ValueError unless refinements ≥ 2 and
    dyadic_levels ≥ 1, integers; InvalidTime unless 0 < t_max < inf).

    φ is built once per call, for the mass and the unit-mass data. The
    integrand is evaluated at the rules' distinct nodes in one pass, which
    evolves that data, conjugated, to every node (`_scaled_evolutions`).
    """
    if not 0 < t_max < math.inf:
        raise InvalidTime(f"Strichartz norm needs 0 < t_max < inf, got {t_max}")
    integer = (int, np.integer)
    if not (isinstance(refinements, integer) and refinements >= 2
            and isinstance(dyadic_levels, integer) and dyadic_levels >= 1):
        raise ValueError("need integers refinements >= 2, dyadic_levels >= 1")
    _, q_frac = strichartz_pair(rs.rank)
    q = float(q_frac)
    phi = denominator_on_grid(rs, field.grid)
    g = conjugated_with(field, phi)
    mass = lq_norm(g, field.grid, 2.0)
    if mass == 0.0:
        return [0.0] * refinements
    if not mass < math.inf:
        raise GridTooSmall("Strichartz data is not finite")
    unit = field.with_values(
        conjugated_with(field.with_values(field.values / mass), phi),
        Representation.CONJUGATED)

    edges = [0.0] + [t_max / 2.0**j for j in range(dyadic_levels + 1)][::-1]
    # Simpson with 2^{r+1} panels on each interval, per level r
    levels = [[(a, b, np.linspace(a, b, 2 ** (r + 1) + 1).tolist())
               for a, b in zip(edges[:-1], edges[1:])]
              for r in range(refinements)]
    nodes = set().union(*(xs for level in levels for _, _, xs in level))
    power = {0.0: lq_power(g / mass, field.grid, q)}
    power.update((t, lq_power(vals, grid, q)) for t, grid, vals
                 in _scaled_evolutions(rs, unit, sorted(nodes - {0.0})))

    def simpson(a: float, b: float, xs: list[float]) -> float:
        panels = len(xs) - 1
        ys = np.array([power[x] for x in xs])
        return float((b - a) / panels / 3.0
                     * (simpson_weights(panels) * ys).sum())

    return [sum(simpson(*rule) for rule in level) ** (1.0 / q)
            for level in levels]


def strichartz_inhomogeneous_check(rs: RootSystemSpec,
                                   field: BiInvariantField, forcing,
                                   t_max: float) -> dict:
    """Ratio of the forced solution's space-time norm to the data norm.

    LHS: (∫₀ᵀ ‖uφ(t)‖_q^q dt)^{1/q}, composite Simpson over _TIME_PANELS
    panels, with u at every nonzero node from one multi-time call of the
    Duhamel solver (each node keeps its own _DUHAMEL_STEPS-panel
    s-integral).
    RHS: ‖f‖_{L²(G)} + (∫₀ᵀ ‖ψφ(s)‖_p^p ds)^{1/p}.
    The constant in the bound is not pinned down; across a seeded family
    only uniform boundedness of the ratio is meaningful. InvalidTime
    unless 0 < t_max < inf. ψ at the panel times is the solver's own
    sample, since each panel time ends its Simpson rule and 0 starts
    every rule, so the forcing is called once per distinct s. φ on the
    grid is built once here, for the mass and every ψ·φ norm, and once
    in the solver. ZeroData where the RHS is 0 (zero data, and the forcing
    zero at every panel time), where the ratio has no value.
    """
    if not 0 < t_max < math.inf:
        raise InvalidTime(f"inhomogeneous check needs 0 < t_max < inf, "
                          f"got {t_max}")
    p_frac, q_frac = strichartz_pair(rs.rank)
    p, q = float(p_frac), float(q_frac)
    w = simpson_weights(_TIME_PANELS)
    grid = field.grid
    phi = denominator_on_grid(rs, grid)
    g = conjugated_with(field, phi)

    ts = np.linspace(0.0, t_max, _TIME_PANELS + 1).tolist()
    at_panels: dict[float, BiInvariantField] = {}

    def recorded(s: float) -> BiInvariantField:
        psi = forcing(s)
        if s in ts:
            at_panels[s] = psi
        return psi

    solutions = [g] + [r.field.values for r in duhamel_solve(
        rs, field, recorded, ts[1:], _DUHAMEL_STEPS)]
    lhs_q = float(t_max / _TIME_PANELS / 3.0
                  * sum(wi * lq_power(v, grid, q)
                        for wi, v in zip(w, solutions)))
    lhs = lhs_q ** (1.0 / q)

    mass = lq_norm(g, grid, 2.0)
    # the solver has checked each sample's grid and antisymmetry
    psi_power = [lq_power(conjugated_with(at_panels[t], phi), grid, p)
                 for t in ts]
    psi_term = (float(t_max / _TIME_PANELS / 3.0
                      * sum(wi * v for wi, v in zip(w, psi_power)))
                ** (1.0 / p))
    rhs = mass + psi_term
    if rhs == 0.0:
        raise ZeroData("inhomogeneous check needs nonzero data or forcing")
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "p": p, "q": q, "mass": mass, "forcing_norm": psi_term}
