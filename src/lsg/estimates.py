"""Numerical verification of dispersive decay and Strichartz bounds.

The weighted group norms reduce to Euclidean norms of the conjugated
profile: the group integrand |u|^q |φ|^{q-2} against the radial density φ²
is pointwise |u·φ|^q, so ‖u|φ|^{1-2/q}‖_{L^q(G)} = ‖uφ‖_{L^q(dH)}. Decay
fits therefore measure the conjugated profile on SCALED output grids,
which track the dispersive spreading instead of losing it off a fixed box.

Admissible space-time pair: p = 2(l+2)/(l+4), q = 2(l+2)/l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientTimes, UnsupportedExponent
from .grids import (BiInvariantField, GridMode, RadialGrid, Representation,
                    lq_norm, lq_power, simpson_weights)
from .propagator import (PropagationResult, duhamel_solve,
                         group_propagate_closed_form)
from .rootsystem import RootSystemSpec
from .spherical import (conjugated_values, conjugated_with,
                        denominator_on_grid)

# pass/fail bounds of the CLI and the acceptance suite alike
DECAY_SLOPE_TOL = 0.05      # |fitted slope - target slope|
CAUCHY_TOL = 0.02           # |N_r - N_{r-1}| / N_r, last two refinements


@dataclass(frozen=True)
class NormReport:
    t: float
    p: float
    q: float
    weighted_norm: float
    grid: str


def _grid_descriptor(grid: RadialGrid) -> str:
    return f"N={grid.points_per_axis},L={grid.half_width:g},rank={grid.rank}"


def weighted_norm(rs: RootSystemSpec, result: PropagationResult | BiInvariantField,
                  q: float) -> float:
    """‖u|φ|^{1-2/q}‖_{L^q(G)} = L^q(dH) norm of the conjugated profile.

    q must be ≥ 2 (q = inf gives the nodewise sup).
    """
    if not np.isinf(q) and q < 2:
        raise UnsupportedExponent(f"weighted norm needs q >= 2, got {q}")
    field = result.field if isinstance(result, PropagationResult) else result
    return lq_norm(conjugated_values(rs, field), field.grid, q)


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    return p / (p - 1.0)


def decay_exponent_fit(rs: RootSystemSpec, field: BiInvariantField, p: float,
                       times: list[float]) -> tuple[float, float, list[NormReport]]:
    """Fitted log-log slope of the weighted norm against the target -l(1/p - 1/2).

    Needs at least five times spanning a decade, all in the asymptotic
    regime (t ≥ 1 by default convention). Returns (slope, target, reports).
    The data is conjugated once and propagated as a CONJUGATED field, so
    no time rebuilds φ.
    """
    times = sorted(float(t) for t in times)
    if len(times) < 5 or times[-1] < 10.0 * times[0]:
        raise InsufficientTimes(
            "need >= 5 times spanning at least one decade")
    if not 1 <= p <= 2:
        raise UnsupportedExponent(f"decay estimate covers 1 <= p <= 2, got {p}")
    q = conjugate_exponent(p)
    g = field.with_values(conjugated_values(rs, field),
                          Representation.CONJUGATED)
    reports = []
    for t in times:
        result = group_propagate_closed_form(rs, g, t, mode=GridMode.SCALED)
        value = weighted_norm(rs, result, q)
        reports.append(NormReport(t, p, q, value,
                                  _grid_descriptor(result.field.grid)))
    slope = float(np.polyfit(np.log([r.t for r in reports]),
                             np.log([r.weighted_norm for r in reports]), 1)[0])
    target = -rs.rank * (1.0 / p - 0.5)
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
    over from ‖gφ...‖ to the decay regime there), composite Simpson with
    2^{r+1} panels per subinterval at refinement level r. The initial data
    is normalized to unit L²(G) mass first. The returned sequence must
    stabilize; the caller checks Cauchy agreement of the last two levels
    (ValueError unless refinements ≥ 2 and dyadic_levels ≥ 1, integers).

    The unit-mass data is conjugated once per call and propagated as a
    CONJUGATED field, so no time node rebuilds φ.
    """
    integer = (int, np.integer)
    if not (isinstance(refinements, integer) and refinements >= 2
            and isinstance(dyadic_levels, integer) and dyadic_levels >= 1):
        raise ValueError("need integers refinements >= 2, dyadic_levels >= 1")
    _, q_frac = strichartz_pair(rs.rank)
    q = float(q_frac)
    g = conjugated_values(rs, field)
    mass = lq_norm(g, field.grid, 2.0)
    if mass == 0.0:
        return [0.0] * refinements
    unit = field.with_values(field.values / mass)
    unit = unit.with_values(conjugated_values(rs, unit),
                            Representation.CONJUGATED)
    g_unit = g / mass

    cache: dict[float, float] = {}

    def integrand(t: float) -> float:
        if t == 0.0:
            return lq_power(g_unit, field.grid, q)
        if t not in cache:
            out = group_propagate_closed_form(rs, unit, t, GridMode.SCALED)
            cache[t] = lq_power(out.field.values, out.field.grid, q)
        return cache[t]

    edges = [t_max / 2.0**j for j in range(dyadic_levels + 1)][::-1]
    # below the finest dyadic scale the integrand is at its t->0 plateau,
    # so one fixed trapezoid closes that head at every refinement level
    t_head = edges[0]
    head = 0.5 * t_head * (integrand(0.0) + integrand(t_head))

    def simpson(a: float, b: float, panels: int) -> float:
        xs = np.linspace(a, b, panels + 1)
        ys = np.array([integrand(x) for x in xs])
        return float((b - a) / panels / 3.0
                     * (simpson_weights(panels) * ys).sum())

    out = []
    for r in range(refinements):
        panels = 2 ** (r + 1)
        total = head + sum(simpson(a, b, panels)
                           for a, b in zip(edges[:-1], edges[1:]))
        out.append(total ** (1.0 / q))
    return out


def strichartz_inhomogeneous_check(rs: RootSystemSpec,
                                   field: BiInvariantField, forcing,
                                   t_max: float, steps: int = 8,
                                   time_panels: int = 4) -> dict:
    """Ratio of the forced solution's space-time norm to the data norm.

    LHS: (∫₀ᵀ ‖uφ(t)‖_q^q dt)^{1/q}, composite Simpson over `time_panels`
    panels, with u at every nonzero node from one multi-time call of the
    Duhamel solver (each node keeps its own `steps`-panel s-integral).
    RHS: ‖f‖_{L²(G)} + (∫₀ᵀ ‖ψφ(s)‖_p^p ds)^{1/p}.
    The constant in the bound is not pinned down; across a seeded family
    only uniform boundedness of the ratio is meaningful. φ on the grid is
    built once here, for the mass and every ψ·φ norm, and once in the
    solver.
    """
    p_frac, q_frac = strichartz_pair(rs.rank)
    p, q = float(p_frac), float(q_frac)
    w = simpson_weights(time_panels)
    grid = field.grid
    phi = denominator_on_grid(rs, grid)
    g = conjugated_with(field, phi)

    ts = np.linspace(0.0, t_max, time_panels + 1)
    solutions = [g] + [r.field.values for r in
                       duhamel_solve(rs, field, forcing, ts[1:], steps)]
    lhs_q = float(t_max / time_panels / 3.0
                  * sum(wi * lq_power(v, grid, q)
                        for wi, v in zip(w, solutions)))
    lhs = lhs_q ** (1.0 / q)

    mass = lq_norm(g, grid, 2.0)
    # forcing lives on the data's grid; duhamel_solve checks that
    psi_power = [lq_power(conjugated_with(forcing(t), phi), grid, p)
                 for t in ts]
    psi_term = (float(t_max / time_panels / 3.0
                      * sum(wi * v for wi, v in zip(w, psi_power)))
                ** (1.0 / p))
    rhs = mass + psi_term
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "p": p, "q": q, "mass": mass, "forcing_norm": psi_term}
