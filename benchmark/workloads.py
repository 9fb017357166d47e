"""Seeded case lists for the three workloads.

A case is one operation: a timed call into lsg and a check of its output
against a computation made here, apart from the program. Cases are drawn
once per run from the seed and repeated unchanged in every round, so the
work per round is fixed. Sizes (grids, time ladders) are fixed; the seed
draws rates, chirps and a small jitter of each ladder time, and the
smallest SCALED times follow from the drawn rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

PROPAGATION_TOL = 1e-8      # relative L², against reference.evolved_conjugated
ROUNDTRIP_TOL = 1e-8        # relative L², synthesis of the transform against f·φ
DECAY_TOL = 0.05            # |slope + l(1/p - 1/2)|
LEMMA1_PRODUCT_TOL = 1e-3   # |16·a·b·t₀² - 1| in the sharpness case
CAUCHY_TOL = 0.02           # Strichartz refinement Cauchy ratio

# Seeded values stay in narrow bands so that every seed asks for nearly the
# same work: the upsampling factor and the spectral grid size follow the
# time and the rate, and the smallest times dominate each batch.
TIME_JITTER = 0.02
RATES = {1: (0.8, 1.2), 2: (0.9, 1.1)}
CHIRPS = (-0.25, 0.25)

GROUPS = ("A1", "A2", "B2", "G2", "A1xA1")
# systems each workload builds and calibrates in set-up
SETUP_SYSTEMS = {
    "scaled-sweep": GROUPS,
    "fixed-oracle": GROUPS,
    "reproduce-full": ("A1", "A2"),
}


@dataclass
class Case:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right
    span: str                               # span name in traced rounds


def _jittered(rng, times) -> list[float]:
    """Each ladder time moved by a seeded factor within ±TIME_JITTER (log)."""
    return [float(t * np.exp(rng.uniform(-TIME_JITTER, TIME_JITTER)))
            for t in times]


def _orbit(name: str):
    """ρ orbit and signs; "euclid:n" is the one-term orbit of 0 in R^n."""
    if name.startswith("euclid:"):
        rank = int(name.split(":")[1])
        return np.zeros((1, rank)), np.ones(1)
    return reference.rho_orbit(name)


def _rank(name: str) -> int:
    return _orbit(name)[0].shape[1]


def _propagation_check(name: str, rate: float, chirp: float, t: float):
    orbit, signs = _orbit(name)

    def check(result) -> str | None:
        grid = result.field.grid
        want = reference.evolved_conjugated(orbit, signs,
                                            [grid.axis] * grid.rank,
                                            rate, chirp, t)
        err = reference.relative_l2(result.field.values, want)
        if not err <= PROPAGATION_TOL:
            return f"relative L2 {err:.3e} > {PROPAGATION_TOL:g}"
        return None
    return check


def _roundtrip_check(name: str, grid, rate: float, chirp: float):
    orbit, signs = _orbit(name)

    def check(uphi) -> str | None:
        want = reference.evolved_conjugated(orbit, signs,
                                            [grid.axis] * grid.rank,
                                            rate, chirp, 0.0)
        err = reference.relative_l2(uphi, want)
        if not err <= ROUNDTRIP_TOL:
            return f"round-trip relative L2 {err:.3e} > {ROUNDTRIP_TOL:g}"
        return None
    return check


def _decay_check(rank: int, p: float):
    target = -rank * (1.0 / p - 0.5)

    def check(fit) -> str | None:
        slope = fit[0]
        if not abs(slope - target) <= DECAY_TOL:
            return f"decay slope {slope:.4f}, want {target:g} ± {DECAY_TOL}"
        return None
    return check


# --- scaled-sweep -----------------------------------------------------------------

# (system, N, L, upsampling factors, times). Each profile is first taken
# to the times at which the SCALED path upsamples it by each factor: it
# upsamples by ceil(h·y/πt), y the support radius of f·φ, so
# t = h·y/(π(k - 1/2)) gives factor k for every seed. Those times run
# from about 0.003 to 0.25; the fixed times after them need no upsampling.
SCALED_GRIDS = (
    ("A1", 2048, 12.0, (4, 2), (0.1, 0.5, 2.0, 10.0)),
    ("A1", 4096, 12.0, (4, 2), (0.1, 0.5, 2.0, 10.0)),
    ("euclid:1", 2048, 12.0, (4, 2), (0.1, 0.5, 2.0, 10.0)),
    ("A2", 96, 9.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("A2", 128, 10.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("B2", 96, 9.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("B2", 128, 10.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("G2", 96, 9.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("G2", 128, 10.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("A1xA1", 96, 9.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("A1xA1", 128, 10.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
    ("euclid:2", 128, 10.0, (8, 4, 2), (0.5, 1.0, 3.0, 10.0)),
)
# (system, N, L, p); times geomspace(1, 10, DECAY_TIMES)
DECAY_FITS = (
    ("A1", 2048, 12.0, 1.0),
    ("A1", 2048, 12.0, 2.0),
    ("A2", 128, 10.0, 1.0),
    ("A1xA1", 128, 10.0, 2.0),
)
DECAY_TIMES = 6


def _rate_chirp(rng, rank: int) -> tuple[float, float]:
    return float(rng.uniform(*RATES[rank])), float(rng.uniform(*CHIRPS))


def _support_radius(name: str, axis: np.ndarray, rank: int, rate: float,
                    chirp: float) -> float:
    """Largest ‖H‖_∞ over nodes where |f·φ| exceeds 1e-12 of its peak."""
    orbit, signs = _orbit(name)
    mag = np.abs(reference.evolved_conjugated(orbit, signs, [axis] * rank,
                                              rate, chirp, 0.0))
    hit = np.nonzero(mag > 1e-12 * mag.max())
    return max(float(np.abs(axis[i]).max()) for i in hit)


def scaled_sweep(lsg, systems: dict, rng, seed: int) -> list[Case]:
    grids, propagator, estimates = lsg.grids, lsg.propagator, lsg.estimates
    scaled = grids.GridMode.SCALED
    cases = []
    for name, n, box, factors, fixed_times in SCALED_GRIDS:
        rank = _rank(name)
        grid = grids.RadialGrid(rank, box, n)
        draws = [_rate_chirp(rng, rank) for _ in factors]
        times = [grid.spacing * _support_radius(name, grid.axis, rank, *draw)
                 / (np.pi * (k - 0.5)) for k, draw in zip(factors, draws)]
        times += _jittered(rng, fixed_times)
        draws += [_rate_chirp(rng, rank) for _ in fixed_times]
        for t, (rate, chirp) in zip(times, draws):
            f = propagator.gaussian_profile(grid, rate, chirp)
            if name.startswith("euclid:"):
                def call(f=f, t=t):
                    return propagator.euclidean_propagate(f, t, scaled)
            else:
                def call(rs=systems[name], f=f, t=t):
                    return propagator.group_propagate_closed_form(
                        rs, f, t, scaled)
            cases.append(Case(f"scaled {name} N={n} t={t:.4g}", call,
                              _propagation_check(name, rate, chirp, t),
                              "case.scaled"))
    times = list(np.geomspace(1.0, 10.0, DECAY_TIMES))
    for name, n, box, p in DECAY_FITS:
        rs = systems[name]
        rate = float(rng.uniform(*RATES[rs.rank]))
        f = propagator.gaussian_profile(grids.RadialGrid(rs.rank, box, n), rate)

        def call(rs=rs, f=f, p=p):
            return estimates.decay_exponent_fit(rs, f, p, times)
        cases.append(Case(f"decay {name} p={p:g}", call,
                          _decay_check(rs.rank, p), "case.decay"))
    return cases


# --- fixed-oracle -----------------------------------------------------------------

# (system, N, L, n_out, times, with oracle); the first time is above the
# FIXED chirp-resolution limit h·y_sup/2π. The last keeps the rank-2
# oracle's spectral grid below about 600² nodes and every oracle's memory
# below that of the 2048 × 2048 closed-form kernels, whose size no seed
# changes, so that they set the peak.
FIXED_GRIDS = (
    ("A1", 512, 12.0, 1024, (0.1, 0.5, 3.0), True),
    ("A1", 2048, 12.0, 2048, (0.25, 1.0), True),
    ("euclid:1", 2048, 12.0, 2048, (0.25, 2.5), False),
    ("A2", 96, 9.0, 96, (0.3, 0.6), True),
    ("B2", 96, 9.0, 96, (0.3, 0.6), True),
    ("G2", 96, 9.0, 96, (0.3, 0.6), True),
    ("A1xA1", 128, 10.0, 128, (0.3, 0.6), True),
    ("euclid:2", 128, 10.0, 128, (0.3, 0.6), False),
)
# (system, N, L, spectral N, spectral L)
ROUNDTRIPS = (
    ("A1", 512, 12.0, 768, 16.0),
    ("A2", 128, 10.0, 256, 16.0),
    ("B2", 128, 10.0, 256, 16.0),
    ("G2", 128, 10.0, 256, 16.0),
    ("A1xA1", 128, 10.0, 256, 16.0),
)


def _out_box(name: str, box: float, rate: float, chirp: float,
             t: float) -> float:
    """Output half-width that holds the evolved profile's bulk at time t.

    2.3·t times the 1e-13 Fourier edge of e^{-α|H|²}, widened by |ρ|.
    """
    orbit, _ = _orbit(name)
    alpha_sq = rate * rate + chirp * chirp
    edge = np.sqrt(120.0 * alpha_sq / rate) + float(np.linalg.norm(orbit[0]))
    return max(box, 2.3 * t * edge)


def fixed_oracle(lsg, systems: dict, rng, seed: int) -> list[Case]:
    grids, propagator, spherical = lsg.grids, lsg.propagator, lsg.spherical
    fixed = grids.GridMode.FIXED
    cases = []
    for name, n, box, n_out, times, oracle in FIXED_GRIDS:
        euclid = name.startswith("euclid:")
        rank = _rank(name)
        grid = grids.RadialGrid(rank, box, n)
        for t in _jittered(rng, times):
            rate, chirp = _rate_chirp(rng, rank)
            f = propagator.gaussian_profile(grid, rate, chirp)
            out = grids.RadialGrid(rank, _out_box(name, box, rate, chirp, t),
                                   n_out)
            check = _propagation_check(name, rate, chirp, t)
            if euclid:
                def call(f=f, t=t, out=out):
                    return propagator.euclidean_propagate(f, t, fixed, out)
                cases.append(Case(f"fixed {name} t={t:.4g}", call, check,
                                  "case.fixed"))
                continue
            rs = systems[name]

            def call(rs=rs, f=f, t=t, out=out):
                return propagator.group_propagate_closed_form(rs, f, t, fixed,
                                                              out)
            cases.append(Case(f"fixed {name} N={n} t={t:.4g}", call, check,
                              "case.fixed"))
            if oracle:
                def call(rs=rs, f=f, t=t, out=out):
                    return propagator.group_propagate_spectral(rs, f, t,
                                                               out_grid=out)
                cases.append(Case(f"oracle {name} N={n} t={t:.4g}", call,
                                  check, "case.oracle"))
    for name, n, box, ns, sbox in ROUNDTRIPS:
        rs = systems[name]
        grid = grids.RadialGrid(rs.rank, box, n)
        sgrid = grids.RadialGrid(rs.rank, sbox, ns)
        rate, chirp = _rate_chirp(rng, rs.rank)
        f = propagator.gaussian_profile(grid, rate, chirp)

        def call(rs=rs, f=f, sgrid=sgrid, grid=grid):
            spec = spherical.spherical_transform(rs, f, sgrid)
            return spherical.synthesize_conjugated(rs, spec,
                                                   [grid.axis] * rs.rank)
        cases.append(Case(f"roundtrip {name}", call,
                          _roundtrip_check(name, grid, rate, chirp),
                          "case.roundtrip"))
    return cases


# --- reproduce-full ---------------------------------------------------------------

def _bounds_check(index: int):
    """The paper's bounds on each criterion, held apart from its verdict."""
    def check(row) -> str | None:
        if not row.passed:
            return f"criterion {index} failed: {row.details}"
        d = row.details
        if index == 6 and not d["product_error"] <= LEMMA1_PRODUCT_TOL:
            return f"Lemma-1 product error {d['product_error']:.3e}"
        if index == 8:
            for key, target in (("A1:p=1", -0.5), ("A2:p=1", -1.0),
                                ("A1:p=2", 0.0)):
                if not abs(d[key] - target) <= DECAY_TOL:
                    return f"decay slope {key} = {d[key]:.4f}"
        if index == 9:
            for key in ("A1:cauchy", "A2:cauchy"):
                if not d[key] <= CAUCHY_TOL:
                    return f"Strichartz {key} = {d[key]:.3e}"
        return None
    return check


# Criterion 2 is left out: its λ sampler admits |λ| ≈ 0.06 on A1, where
# the finite-difference residual sits at the rounding floor and the order
# ratio falls outside [3.6, 4.4] (seeds 1, 4, 5 and 10 of 0-20 fail).
LEFT_OUT_CRITERIA = (2,)


def reproduce_full(lsg, systems: dict, rng, seed: int) -> list[Case]:
    acceptance = lsg.acceptance
    params = acceptance.PROFILES["full"]
    cases = []
    for index, fn in enumerate(acceptance.CRITERIA, start=1):
        if index in LEFT_OUT_CRITERIA:
            continue

        def call(fn=fn):
            return fn(params, seed)
        cases.append(Case(f"acceptance.c{index}", call, _bounds_check(index),
                          f"acceptance.c{index}"))
    return cases


CASE_LISTS = {
    "scaled-sweep": scaled_sweep,
    "fixed-oracle": fixed_oracle,
    "reproduce-full": reproduce_full,
}


def rows_digest(lsg, rows) -> str:
    """sha256 of the rows as `lsg reproduce` serializes them."""
    text = lsg.acceptance.serialize_rows(rows)
    return hashlib.sha256(text.encode()).hexdigest()
