import warnings
from fractions import Fraction

import numpy as np
import pytest

from lsg.errors import (GridTooSmall, InsufficientTimes, InvalidTime,
                        UnsupportedExponent, ZeroData)
from lsg.estimates import (decay_exponent_fit, strichartz_inhomogeneous_check,
                           strichartz_norm, strichartz_pair, weighted_norm)
from lsg.grids import (BiInvariantField, GridMode, RadialGrid, Representation,
                       l2_norm)
from lsg.propagator import (duhamel_solve, gaussian_profile,
                            group_propagate_closed_form)
from lsg.rootsystem import build_root_system
from lsg.spherical import conjugated_values, denominator_on_grid

from grid_helpers import grid_meshes


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
    assert weighted_norm(a1, res.field, 2.0) == pytest.approx(base,
                                                              rel=1e-8)


@pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
def test_norm_reduction_identity(q, b2, rng):
    """Group assembly sum |u|^q |phi|^{q-2} phi^2 h^l against the conjugated
    assembly sum |u phi|^q h^l: identical up to rounding."""
    grid = RadialGrid(2, 6.0, 48)
    x, y = grid_meshes(grid)
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
    assert len(reports) == 6

    slope2, target2, _ = decay_exponent_fit(a1, f, 2.0, times)
    assert target2 == 0.0
    assert abs(slope2) <= 0.02


def test_decay_fit_conjugates_once(a2, monkeypatch):
    """φ is built once, and one `_scaled_evolutions` call takes the
    conjugated data to every time, multiplier and sandwich times alike;
    the reports come back in order of t."""
    import lsg.estimates as estimates
    import lsg.spherical as spherical
    grid = RadialGrid(2, 8.0, 48)
    f = gaussian_profile(grid, 1.0)
    times = [10.0, 0.1, 3.0, 0.3, 1.0]
    q = np.inf
    per_time = [weighted_norm(a2, group_propagate_closed_form(
        a2, f, t, GridMode.SCALED).field, q) for t in sorted(times)]
    calls, passes = [], []
    real = spherical.denominator_on_grid
    real_pass = estimates._scaled_evolutions

    def counted(*args):
        calls.append(args)
        return real(*args)

    def one_pass(rs, field, ts):
        passes.append(list(ts))
        return real_pass(rs, field, ts)

    monkeypatch.setattr(spherical, "denominator_on_grid", counted)
    monkeypatch.setattr(estimates, "_scaled_evolutions", one_pass)
    _, _, reports = decay_exponent_fit(a2, f, 1.0, times)
    assert len(calls) == 1
    assert passes == [sorted(times)]
    assert [r.t for r in reports] == sorted(times)
    # propagating the CONJUGATED field reads the same bits per time
    assert [r.weighted_norm for r in reports] == per_time


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_decay_fit_refuses_a_time_outside_zero_to_inf(a1, a1_grid, bad):
    f = gaussian_profile(a1_grid, 1.0)
    with pytest.raises(InvalidTime):
        decay_exponent_fit(a1, f, 1.0, [1.0, 2.0, 5.0, 10.0, 20.0, bad])


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


def _zero_field(grid):
    return BiInvariantField(grid, np.zeros(grid.shape, dtype=complex),
                            Representation.PLAIN)


def test_decay_fit_of_zero_data_raises_zero_data(a1, a1_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroData):
            decay_exponent_fit(a1, _zero_field(a1_grid), 1.0,
                               list(np.geomspace(1.0, 10.0, 5)))


def test_inhomogeneous_check_of_zero_data_raises_zero_data(a1):
    grid = RadialGrid(1, 8.0, 256)
    zero = _zero_field(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroData):
            strichartz_inhomogeneous_check(a1, zero, lambda s: zero, 4.0)
        # zero data with a nonzero forcing is an ordinary case
        out = strichartz_inhomogeneous_check(
            a1, zero, lambda s: gaussian_profile(grid, 1.0), 4.0)
    assert out["mass"] == 0.0 and 0.0 < out["ratio"] < np.inf


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

    edges = [0.0] + [t_max / 2.0**j for j in range(dyadic_levels + 1)][::-1]

    def simpson(a, b, panels):
        xs = np.linspace(a, b, panels + 1)
        ys = np.array([integrand(x) for x in xs])
        w = np.ones(panels + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return float((b - a) / panels / 3.0 * (w * ys).sum())

    out = []
    for r in range(refinements):
        total = sum(simpson(a, b, 2 ** (r + 1))
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


def test_strichartz_norm_head_refines_with_the_levels(a2, a2_grid):
    """[0, t_max/2^levels] takes the same Simpson rule as every other
    dyadic interval, so 6 and 12 dyadic levels agree to the quadrature
    error, not to a fixed trapezoid's bias near t = 0."""
    f = gaussian_profile(a2_grid, 1.0)
    coarse = strichartz_norm(a2, f, 1.5, refinements=4, dyadic_levels=6)[-1]
    fine = strichartz_norm(a2, f, 1.5, refinements=4, dyadic_levels=12)[-1]
    assert abs(coarse - fine) <= 1e-7 * fine


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
    strichartz_inhomogeneous_check(a1, f, lambda s: f, 1.5)
    assert times == [[0.375, 0.75, 1.125, 1.5]]


def test_inhomogeneous_check_calls_the_forcing_once_per_time(a1):
    """The ψ·φ norms at the panel times reuse the solver's samples: each
    panel time ends its own Simpson rule and 0 starts every rule."""
    grid = RadialGrid(1, 8.0, 640)
    f = gaussian_profile(grid, 1.0)
    calls = []

    def forcing(s):
        calls.append(s)
        return f.with_values(np.exp(0.5j * s) * f.values)

    strichartz_inhomogeneous_check(a1, f, forcing, 2.0)
    assert len(calls) == len(set(calls)) == 21
    assert set(np.linspace(0.0, 2.0, 5).tolist()) <= set(calls)


@pytest.mark.parametrize("t_max", [np.inf, np.nan, 0.0, -1.0])
def test_inhomogeneous_check_refuses_bad_t_max(a1, t_max):
    """InvalidTime before any arithmetic: tier-1 turns RuntimeWarnings into
    errors, and 0·inf in the panel times once warned first."""
    f = gaussian_profile(RadialGrid(1, 8.0, 64), 1.0)
    calls = []
    with pytest.raises(InvalidTime, match="t_max"):
        strichartz_inhomogeneous_check(a1, f, lambda s: calls.append(s) or f,
                                       t_max)
    assert calls == []


@pytest.mark.parametrize("t_max", [np.inf, np.nan, 0.0, -1.0])
def test_strichartz_norm_refuses_bad_t_max(a1, t_max):
    # checked before any arithmetic, so the message names t_max, not an edge
    f = gaussian_profile(RadialGrid(1, 8.0, 64), 1.0)
    with pytest.raises(InvalidTime, match="t_max"):
        strichartz_norm(a1, f, t_max, refinements=2, dyadic_levels=2)


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
    ("refinements", 1), ("refinements", 0), ("refinements", 3.0),
    ("dyadic_levels", 0), ("dyadic_levels", -1), ("dyadic_levels", 2.0),
])
def test_time_quadratures_refuse_bad_panel_counts(a1, arg, value):
    """A panel or level count that is not a valid integer is a ValueError,
    never a TypeError, an IndexError or a sequence too short to compare."""
    f = gaussian_profile(RadialGrid(1, 8.0, 64), 1.0)
    calls = {
        "steps": lambda: duhamel_solve(a1, f, lambda s: f, [1.0], value),
        "refinements": lambda: strichartz_norm(a1, f, 1.0,
                                               refinements=value),
        "dyadic_levels": lambda: strichartz_norm(a1, f, 1.0,
                                                 dyadic_levels=value),
    }
    with pytest.raises(ValueError):
        calls[arg]()


@pytest.mark.parametrize("case", ["duhamel-data", "duhamel-forcing",
                                  "strichartz-data", "weighted-q"])
def test_non_finite_inputs_are_refused(a1, case):
    """NaN in, a documented refusal out: no NaN result and no numpy
    RuntimeWarning (an error under the suite's warning filters)."""
    grid = RadialGrid(1, 8.0, 256)
    f = gaussian_profile(grid, 1.0)
    bad = f.with_values(np.where(grid.axis > 0, np.nan, f.values))
    calls = {
        "duhamel-data": lambda: duhamel_solve(a1, bad, lambda s: f, [1.0], 8),
        "duhamel-forcing": lambda: duhamel_solve(a1, f, lambda s: bad,
                                                 [1.0], 8),
        "strichartz-data": lambda: strichartz_norm(a1, bad, 1.0),
        "weighted-q": lambda: weighted_norm(a1, f, np.nan),
    }
    expected = UnsupportedExponent if case == "weighted-q" else GridTooSmall
    with pytest.raises(expected) as err:
        calls[case]()
    if expected is GridTooSmall:
        assert "not finite" in str(err.value)
