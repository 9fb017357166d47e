from fractions import Fraction

import numpy as np
import pytest

from lsg.errors import InsufficientTimes, UnsupportedExponent
from lsg.estimates import (decay_exponent_fit, strichartz_inhomogeneous_check,
                           strichartz_norm, strichartz_pair, weighted_norm)
from lsg.grids import (BiInvariantField, GridMode, RadialGrid, Representation,
                       l2_norm)
from lsg.propagator import (duhamel_solve, gaussian_profile,
                            group_propagate_closed_form)
from lsg.rootsystem import build_root_system
from lsg.spherical import conjugated_values, denominator_on_grid


def test_weighted_norm_zero_field(a1, a1_grid):
    f = BiInvariantField(a1_grid, np.zeros(a1_grid.shape, dtype=complex),
                         Representation.CONJUGATED)
    assert weighted_norm(a1, f, 2.0) == 0.0
    assert weighted_norm(a1, f, np.inf) == 0.0


def test_weighted_norm_rejects_small_q(a1, a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    with pytest.raises(UnsupportedExponent):
        weighted_norm(a1, f, 1.5)


def test_weighted_norm_q2_is_mass(a1, a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    base = l2_norm(conjugated_values(a1, f), a1_grid)
    res = group_propagate_closed_form(a1, f, 1.0, GridMode.SCALED)
    assert weighted_norm(a1, res, 2.0) == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
def test_norm_reduction_identity(q, b2, rng):
    """Group assembly sum |u|^q |phi|^{q-2} phi^2 h^l against the conjugated
    assembly sum |u phi|^q h^l: identical up to rounding."""
    grid = RadialGrid(2, 6.0, 48)
    x, y = grid.meshes()
    u = (np.exp(-(x**2 + y**2)) * (np.cosh(x) + np.cosh(0.5 * y))
         * (1.0 + 0.2j))
    phi = denominator_on_grid(b2, grid)
    w = grid.cell_volume()
    group_side = float((np.abs(u)**q * np.abs(phi)**(q - 2) * phi**2).sum() * w)
    conj_side = float((np.abs(u * phi)**q).sum() * w)
    assert abs(group_side - conj_side) <= 1e-12 * conj_side


def test_decay_fit_rank1(a1):
    grid = RadialGrid(1, 12.0, 1024)
    f = gaussian_profile(grid, 1.0)
    times = list(np.geomspace(1.0, 10.0, 6))
    slope, target, reports = decay_exponent_fit(a1, f, 1.0, times)
    assert target == pytest.approx(-0.5)
    assert abs(slope - target) <= 0.05
    assert len(reports) == 6 and reports[0].q == np.inf

    slope2, target2, _ = decay_exponent_fit(a1, f, 2.0, times)
    assert target2 == 0.0
    assert abs(slope2) <= 0.02


def test_decay_fit_conjugates_once(a2, monkeypatch):
    import lsg.spherical as spherical
    grid = RadialGrid(2, 8.0, 48)
    f = gaussian_profile(grid, 1.0)
    times = list(np.geomspace(1.0, 10.0, 5))
    q = np.inf
    per_time = [weighted_norm(a2, group_propagate_closed_form(
        a2, f, t, GridMode.SCALED), q) for t in times]
    calls = []
    real = spherical.denominator_on_grid

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spherical, "denominator_on_grid", counted)
    _, _, reports = decay_exponent_fit(a2, f, 1.0, times)
    assert len(calls) == 1
    # propagating the CONJUGATED field reads the same bits per time
    assert [r.weighted_norm for r in reports] == per_time


def test_decay_fit_needs_decade(a1, a1_grid):
    f = gaussian_profile(a1_grid, 1.0)
    with pytest.raises(InsufficientTimes):
        decay_exponent_fit(a1, f, 1.0, [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(InsufficientTimes):
        decay_exponent_fit(a1, f, 1.0, [1.0, 11.0])


def test_strichartz_pairs_exact():
    assert strichartz_pair(1) == (Fraction(6, 5), Fraction(6, 1))
    assert strichartz_pair(2) == (Fraction(4, 3), Fraction(4, 1))
    for rank in (1, 2, 3, 4):
        p, q = strichartz_pair(rank)
        # admissibility: 2/q = l(1/p' ... ) reduces to q = 2(l+2)/l
        assert q == Fraction(2 * (rank + 2), rank)
        assert p == Fraction(2 * (rank + 2), rank + 4)


def test_strichartz_zero_data(a1, a1_grid):
    f = BiInvariantField(a1_grid, np.zeros(a1_grid.shape, dtype=complex),
                         Representation.PLAIN)
    seq = strichartz_norm(a1, f, 1.0, refinements=3, dyadic_levels=4)
    assert seq == [0.0, 0.0, 0.0]


def test_strichartz_stabilizes(a1):
    grid = RadialGrid(1, 12.0, 256)
    f = gaussian_profile(grid, 1.0)
    seq = strichartz_norm(a1, f, 1.5, refinements=3, dyadic_levels=5)
    assert abs(seq[-1] - seq[-2]) / seq[-1] <= 0.02


def _strichartz_norm_conjugating_per_propagation(rs, field, t_max,
                                                 refinements, dyadic_levels):
    """strichartz_norm with the unit-mass data passed PLAIN, so every time
    node conjugates it again inside group_propagate_closed_form."""
    q = float(strichartz_pair(rs.rank)[1])
    g = conjugated_values(rs, field)
    mass = l2_norm(g, field.grid)
    unit = BiInvariantField(field.grid, field.values / mass,
                            field.representation)
    g_unit = g / mass
    cache = {}

    def integrand(t):
        if t == 0.0:
            return float((np.abs(g_unit) ** q).sum()
                         * field.grid.cell_volume())
        if t not in cache:
            res = group_propagate_closed_form(rs, unit, t, GridMode.SCALED)
            vals = conjugated_values(rs, res.field)
            cache[t] = float((np.abs(vals) ** q).sum()
                             * res.field.grid.cell_volume())
        return cache[t]

    edges = [t_max / 2.0**j for j in range(dyadic_levels + 1)][::-1]
    head = 0.5 * edges[0] * (integrand(0.0) + integrand(edges[0]))

    def simpson(a, b, panels):
        xs = np.linspace(a, b, panels + 1)
        ys = np.array([integrand(x) for x in xs])
        w = np.ones(panels + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return float((b - a) / panels / 3.0 * (w * ys).sum())

    out = []
    for r in range(refinements):
        total = head + sum(simpson(a, b, 2 ** (r + 1))
                           for a, b in zip(edges[:-1], edges[1:]))
        out.append(total ** (1.0 / q))
    return out


@pytest.mark.parametrize("name,n,box", [("A1", 256, 12.0), ("A2", 64, 8.0)])
def test_strichartz_norm_equals_per_propagation_conjugation(name, n, box):
    rs = build_root_system(name)
    f = gaussian_profile(RadialGrid(rs.rank, box, n), 1.1, 0.2)
    got = strichartz_norm(rs, f, 1.0, refinements=2, dyadic_levels=4)
    ref = _strichartz_norm_conjugating_per_propagation(rs, f, 1.0, 2, 4)
    assert got == ref


def test_inhomogeneous_scaling_invariance(a1):
    grid = RadialGrid(1, 8.0, 640)
    f = gaussian_profile(grid, 1.0)

    def zero(s):
        return BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                                Representation.CONJUGATED)

    out1 = strichartz_inhomogeneous_check(a1, f, zero, 1.0)
    doubled = f.with_values(2.0 * f.values)
    out2 = strichartz_inhomogeneous_check(a1, doubled, zero, 1.0)
    assert out1["forcing_norm"] == 0.0
    assert out2["ratio"] == pytest.approx(out1["ratio"], rel=1e-8)


def test_inhomogeneous_check_solves_once(a1, monkeypatch):
    import lsg.estimates as estimates
    times = []
    real = estimates.duhamel_solve

    def counted(rs, field, forcing, t, steps):
        times.append(list(t))
        return real(rs, field, forcing, t, steps)

    monkeypatch.setattr(estimates, "duhamel_solve", counted)
    grid = RadialGrid(1, 8.0, 512)
    f = gaussian_profile(grid, 1.0)
    strichartz_inhomogeneous_check(a1, f, lambda s: f, 1.5, time_panels=4)
    assert times == [[0.375, 0.75, 1.125, 1.5]]


def test_inhomogeneous_stable_under_grid_refinement(a1):
    def forcing_for(grid):
        base = gaussian_profile(grid, 0.9, 0.2)

        def forcing(s):
            return base.with_values(np.exp(1j * 0.7 * s) * base.values)
        return forcing

    results = []
    for n in (512, 640):
        grid = RadialGrid(1, 8.0, n)
        f = gaussian_profile(grid, 1.0)
        out = strichartz_inhomogeneous_check(a1, f, forcing_for(grid), 1.5)
        results.append(out["ratio"])
    assert results[0] == pytest.approx(results[1], rel=0.02)
    assert np.isfinite(results[0]) and results[0] > 0


@pytest.mark.parametrize("arg,value", [
    ("steps", 8.0), ("steps", 6), ("steps", 9),
    ("time_panels", 0), ("time_panels", -2), ("time_panels", 4.0),
    ("time_panels", 3),
    ("refinements", 1), ("refinements", 0), ("refinements", 3.0),
    ("dyadic_levels", 0), ("dyadic_levels", -1), ("dyadic_levels", 2.0),
])
def test_time_quadratures_refuse_bad_panel_counts(a1, arg, value):
    """A panel or level count that is not a valid integer is a ValueError,
    never a TypeError, an IndexError or a sequence too short to compare."""
    f = gaussian_profile(RadialGrid(1, 8.0, 64), 1.0)
    calls = {
        "steps": lambda: duhamel_solve(a1, f, lambda s: f, 1.0, value),
        "time_panels": lambda: strichartz_inhomogeneous_check(
            a1, f, lambda s: f, 1.0, time_panels=value),
        "refinements": lambda: strichartz_norm(a1, f, 1.0,
                                               refinements=value),
        "dyadic_levels": lambda: strichartz_norm(a1, f, 1.0,
                                                 dyadic_levels=value),
    }
    with pytest.raises(ValueError):
        calls[arg]()
