"""The acceptance suite behind `lsg reproduce` and tests/test_acceptance.py.

Each criterion is a pure function of (params, seed) returning an
AcceptanceRow whose details are plain JSON-serializable scalars, so two
runs with the same seed serialize byte-identically. Criterion 11 is
exactly that property, checked by running the other ten twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimates import (CAUCHY_TOL, DECAY_SLOPE_TOL, L2_SLOPE_TOL,
                        decay_exponent_fit, strichartz_inhomogeneous_check,
                        strichartz_norm, strichartz_pair)
from .grids import RadialGrid, l2_norm, relative_l2
from .hardy import Classification, fit_envelope_report, uniqueness_experiment
from .heisenberg import (cutlocus_distance, projection_residual,
                         schrodinger_integrand, singularities)
from .propagator import (gaussian_profile, group_propagate_closed_form,
                         group_propagate_spectral)
from .rootsystem import build_root_system
from .spherical import (conjugated, eigen_residual_field, pi_product,
                        roundtrip_error)


@dataclass(frozen=True)
class AcceptanceRow:
    index: int
    label: str
    passed: bool
    details: dict


PROFILES = {
    "full": {
        "eigen": {"systems": (("A1", 2048, 12.0), ("A2", 128, 10.0)),
                  "n_lambda": 5},
        "roundtrip": {"cases": (("A1", 512, 12.0, 768, 16.0, 1e-6),
                                ("A2", 256, 10.0, 256, 16.0, 1e-4)),
                      "rates": (0.5, 1.0, 2.0)},
        "equiv": {"a1": ("A1", 512, 12.0, (0.25, 1.0, 4.0), 1e-6),
                  "a2": ("A2", 128, 10.0, (1.0,), 1e-4)},
        "mass": {"grid": (512, 12.0), "times": (0.25, 0.5, 1.0, 2.0, 4.0),
                 "tol_spectral": 1e-10, "tol_closed": 1e-8},
        "lemma1": {"n": 2048, "box": 12.0},
        "hardy": {"rates": (0.5, 1.0, 2.0), "n_times": 10,
                  "curve_grid": (2048, 12.0), "n_euclid": 40, "n_group": 10,
                  "euclid_grid": (4096, 12.0), "group_grid": (2048, 12.0)},
        "decay": {"a1": (2048, 12.0), "a2": (256, 10.0), "n_times": 10},
        "strichartz": {"a1": (512, 12.0, 2.0, 4, 8),
                       "a2": (96, 9.0, 1.5, 4, 6),
                       "inhom": (640, 8.0, 1.5, 20)},
        "heisenberg": {"n_sweep": 100},
    },
    "quick": {
        "eigen": {"systems": (("A1", 256, 12.0),), "n_lambda": 2},
        "roundtrip": {"cases": (("A1", 256, 12.0, 384, 16.0, 1e-6),),
                      "rates": (1.0,)},
        "equiv": {"a1": ("A1", 256, 12.0, (1.0,), 1e-6), "a2": None},
        "mass": {"grid": (256, 12.0), "times": (0.5, 1.0),
                 "tol_spectral": 1e-10, "tol_closed": 1e-8},
        "lemma1": {"n": 1024, "box": 12.0},
        "hardy": {"rates": (1.0,), "n_times": 4, "curve_grid": (1024, 12.0),
                  "n_euclid": 8, "n_group": 3,
                  "euclid_grid": (2048, 12.0), "group_grid": (1024, 12.0)},
        "decay": {"a1": (1024, 12.0), "a2": None, "n_times": 6},
        "strichartz": {"a1": (256, 12.0, 1.5, 3, 5), "a2": None,
                       "inhom": (640, 8.0, 1.5, 5)},
        "heisenberg": {"n_sweep": 25},
    },
}


def _f(x) -> float:
    return float(x)


def _draw_regular_lambda(rs, rng, spacing):
    """λ in [-2.5, 2.5]^l, off the Weyl walls, whose O(h²) truncation error
    on grid spacing h, |λ|⁴h²/12 relative, is at least 100× the rounding
    floor ε/h²; below that a coarse/fine residual ratio measures rounding,
    not the order."""
    lam_min = (1200.0 * np.finfo(float).eps) ** 0.25 / spacing
    while True:
        lam = rng.uniform(-2.5, 2.5, rs.rank)
        if (np.linalg.norm(lam) >= lam_min
                and abs(float(pi_product(rs, lam))) > 1e-2):
            return lam


# --- criteria ------------------------------------------------------------------

def criterion_weyl_orders(params, seed) -> AcceptanceRow:
    expected = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A1xA1": 4}
    measured = {name: build_root_system(name).weyl_order for name in expected}
    return AcceptanceRow(1, "Weyl-group orders exact", measured == expected,
                         {"expected": expected, "measured": measured})


def criterion_eigen_relation(params, seed) -> AcceptanceRow:
    p = params["eigen"]
    ratios, ok = [], True
    for name, n, box in p["systems"]:
        rs = build_root_system(name)
        rng = np.random.default_rng(seed)
        coarse = RadialGrid(rs.rank, box, n)
        fine = RadialGrid(rs.rank, box, 2 * n)
        take = (slice(None, None, 2),) * rs.rank
        for _ in range(p["n_lambda"]):
            lam = _draw_regular_lambda(rs, rng, fine.spacing)
            rc = eigen_residual_field(rs, lam, coarse)
            rf = eigen_residual_field(rs, lam, fine)[take]
            valid = np.isfinite(rc) & np.isfinite(rf)
            ratio = _f(rc[valid].max() / rf[valid].max())
            ratios.append(round(ratio, 12))
            ok = ok and 3.6 <= ratio <= 4.4
    return AcceptanceRow(2, "eigen-relation residual halves at 2nd order",
                         ok, {"ratios": ratios, "band": [3.6, 4.4]})


def criterion_roundtrip(params, seed) -> AcceptanceRow:
    p = params["roundtrip"]
    errs, tols, ok = {}, {}, True
    for name, n, box, ns, sbox, tol in p["cases"]:
        rs = build_root_system(name)
        grid = RadialGrid(rs.rank, box, n)
        sgrid = RadialGrid(rs.rank, sbox, ns)
        for rate in p["rates"]:
            err = roundtrip_error(rs, gaussian_profile(grid, rate), sgrid)
            errs[f"{name}:a={rate:g}"] = _f(err)
            tols[name] = tol
            ok = ok and err <= tol
    return AcceptanceRow(3, "spherical transform round-trip", ok,
                         {"relative_l2": errs, "tolerance": tols})


def criterion_propagator_equivalence(params, seed) -> AcceptanceRow:
    p = params["equiv"]
    details, ok = {"constant_tolerance": 1e-8}, True
    for case in (p["a1"], p["a2"]):
        if case is None:
            continue
        name, n, box, times, tol = case
        rs = build_root_system(name)
        f = conjugated(rs, gaussian_profile(RadialGrid(rs.rank, box, n), 1.0))
        for t in times:
            closed = group_propagate_closed_form(rs, f, t)
            out = closed.field.grid
            oracle = group_propagate_spectral(rs, f, t, out_grid=out)
            a, b = closed.field.values, oracle.field.values
            rel = relative_l2(a, b, out)
            # the constant (4πi)^{-l/2}: the least-squares scalar taking
            # the closed form onto the oracle must be 1; numpy's pairwise
            # sums, unlike BLAS's vdot, do not depend on the thread count
            a_bar = np.conj(a)
            fit_error = abs((a_bar * b).sum() / (a_bar * a).sum() - 1.0)
            details[f"{name}:t={t:g}"] = _f(rel)
            details[f"{name}:tolerance"] = tol
            details[f"{name}:constant_fit_error:t={t:g}"] = _f(fit_error)
            ok = ok and rel <= tol and fit_error <= 1e-8
    return AcceptanceRow(
        4, "closed form matches spectral oracle; fitted constant is 1",
        ok, details)


def criterion_mass_conservation(params, seed) -> AcceptanceRow:
    p = params["mass"]
    rs = build_root_system("A1")
    n, box = p["grid"]
    f = conjugated(rs, gaussian_profile(RadialGrid(rs.rank, box, n), 1.0))
    base = l2_norm(f.values, f.grid)
    drifts, ok = {}, True
    for t in p["times"]:
        closed = group_propagate_closed_form(rs, f, t)
        out = closed.field.grid
        for tag, result, tol in (
                ("closed", closed, p["tol_closed"]),
                ("spectral", group_propagate_spectral(
                    rs, f, t, out_grid=out), p["tol_spectral"])):
            drift = abs(l2_norm(result.field.values, out) - base) / base
            drifts[f"{tag}:t={t:g}"] = _f(drift)
            ok = ok and drift <= tol
    return AcceptanceRow(5, "conjugated-profile mass conservation", ok,
                         {"relative_drift": drifts,
                          "tolerance": {"closed": p["tol_closed"],
                                        "spectral": p["tol_spectral"]}})


def criterion_lemma1(params, seed) -> AcceptanceRow:
    p = params["lemma1"]
    grid = RadialGrid(1, p["box"], p["n"])
    f = gaussian_profile(grid, 1.0, chirp=-0.25)
    report = uniqueness_experiment(build_root_system("euclid:1"), f, t0=1.0)
    rate_err = abs(report.envelope_u.rate - 1.0 / 16.0)
    product_err = abs(report.verdict.product - 1.0)
    ok = (rate_err <= 1e-6 and product_err <= 1e-3
          and report.verdict.classification is Classification.CRITICAL)
    return AcceptanceRow(6, "sharpness case: focusing chirp lands critical",
                         ok, {"rate_error": _f(rate_err),
                              "rate_tolerance": 1e-6,
                              "product_error": _f(product_err),
                              "product_tolerance": 1e-3,
                              "classification": report.classification_name})


def criterion_hardy_curve(params, seed) -> AcceptanceRow:
    p = params["hardy"]
    r1 = build_root_system("euclid:1")
    n, box = p["curve_grid"]
    grid_in = RadialGrid(1, box, n)
    worst, max_product, ok = 0.0, 0.0, True
    for a in p["rates"]:
        f = conjugated(r1, gaussian_profile(grid_in, a))
        fit_f = fit_envelope_report(f, floor=1e-6)
        for t in np.linspace(0.25, 2.5, p["n_times"]):
            res = group_propagate_closed_form(r1, f, float(t))
            mag = res.field.with_values(np.abs(res.field.values))
            fit_u = fit_envelope_report(mag, floor=1e-6)
            product = 16.0 * fit_f.envelope.rate * fit_u.envelope.rate * t * t
            expected = 16.0 * a * a * t * t / (1.0 + 16.0 * a * a * t * t)
            worst = max(worst, abs(product - expected))
            max_product = max(max_product, _f(product))
            ok = ok and abs(product - expected) <= 1e-6 and product < 1.0

    rng = np.random.default_rng(seed)
    vanish = 0
    ne, bx = p["euclid_grid"]
    egrid = RadialGrid(1, bx, ne)
    for _ in range(p["n_euclid"]):
        a = rng.uniform(0.3, 2.0)
        c = rng.uniform(-0.6, 0.6)
        t0 = rng.uniform(0.4, 1.6)
        rep = uniqueness_experiment(r1, gaussian_profile(egrid, a, c),
                                    float(t0))
        if not rep.degenerate and \
                rep.verdict.classification is Classification.MUST_VANISH:
            vanish += 1
    rs = build_root_system("A1")
    ng, bg = p["group_grid"]
    ggrid = RadialGrid(1, bg, ng)
    for _ in range(p["n_group"]):
        # group-side fits carry percent-level bias, so the group family
        # stays away from criticality (defocusing chirps, moderate a·t0);
        # the near-critical regime is covered exactly by the Euclidean runs
        a = rng.uniform(0.5, 1.2)
        c = rng.uniform(0.0, 0.25)
        t0 = rng.uniform(0.5, 1.2)
        rep = uniqueness_experiment(rs, gaussian_profile(ggrid, a, c),
                                    float(t0))
        if not rep.degenerate and \
                rep.verdict.classification is Classification.MUST_VANISH:
            vanish += 1
    ok = ok and vanish == 0
    return AcceptanceRow(
        7, "free-evolution product curve; contrapositive suite clean", ok,
        {"max_curve_error": _f(worst), "curve_tolerance": 1e-6,
         "max_product": _f(max_product), "must_vanish_count": vanish,
         "cases": p["n_euclid"] + p["n_group"]})


def criterion_dispersive_decay(params, seed) -> AcceptanceRow:
    p = params["decay"]
    details, ok = {}, True
    times = list(np.geomspace(1.0, 10.0, p["n_times"]))
    for name, case, target in (("A1", p["a1"], -0.5), ("A2", p["a2"], -1.0)):
        if case is None:
            continue
        rs = build_root_system(name)
        f = gaussian_profile(RadialGrid(rs.rank, case[1], case[0]), 1.0)
        slope, _, _ = decay_exponent_fit(rs, f, 1.0, times)
        details[f"{name}:p=1"] = _f(slope)
        details[f"{name}:target"] = target
        details[f"{name}:tolerance"] = DECAY_SLOPE_TOL
        ok = ok and abs(slope - target) <= DECAY_SLOPE_TOL
    rs1 = build_root_system("A1")
    f1 = gaussian_profile(RadialGrid(1, p["a1"][1], p["a1"][0]), 1.0)
    slope2, _, _ = decay_exponent_fit(rs1, f1, 2.0, times)
    details["A1:p=2"] = _f(slope2)
    details["A1:p=2:tolerance"] = L2_SLOPE_TOL
    ok = ok and abs(slope2) <= L2_SLOPE_TOL
    return AcceptanceRow(8, "dispersive decay exponents", ok, details)


def criterion_strichartz(params, seed) -> AcceptanceRow:
    p = params["strichartz"]
    details, ok = {}, True
    from fractions import Fraction
    pairs_ok = (strichartz_pair(1) == (Fraction(6, 5), Fraction(6, 1))
                and strichartz_pair(2) == (Fraction(4, 3), Fraction(4, 1)))
    details["pairs_exact"] = bool(pairs_ok)
    ok = ok and pairs_ok
    for name, case in (("A1", p["a1"]), ("A2", p["a2"])):
        if case is None:
            continue
        n, box, t_max, levels, dyadic = case
        rs = build_root_system(name)
        f = gaussian_profile(RadialGrid(rs.rank, box, n), 1.0)
        seq = strichartz_norm(rs, f, t_max, refinements=levels,
                              dyadic_levels=dyadic)
        cauchy = abs(seq[-1] - seq[-2]) / seq[-1]
        details[f"{name}:norm"] = _f(seq[-1])
        details[f"{name}:cauchy"] = _f(cauchy)
        details[f"{name}:cauchy_tolerance"] = CAUCHY_TOL
        ok = ok and cauchy <= CAUCHY_TOL

    n, box, t_max, n_cases = p["inhom"]
    rs = build_root_system("A1")
    grid = RadialGrid(1, box, n)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_cases):
        a_f = rng.uniform(0.7, 1.4)
        a_psi = rng.uniform(0.7, 1.4)
        c_psi = rng.uniform(-0.3, 0.3)
        amp = rng.uniform(0.2, 2.0)
        omega = rng.uniform(0.0, 2.0)
        f = gaussian_profile(grid, a_f)
        base = gaussian_profile(grid, a_psi, c_psi)

        def forcing(s, _base=base, _amp=amp, _omega=omega):
            return _base.with_values(
                _amp * np.exp(1j * _omega * s) * _base.values)

        out = strichartz_inhomogeneous_check(rs, f, forcing, t_max)
        ratios.append(out["ratio"])
    spread = max(ratios) / min(ratios)
    details["ratio_spread"] = _f(spread)
    details["ratio_spread_bound"] = 10.0
    details["ratio_min"] = _f(min(ratios))
    details["ratio_max"] = _f(max(ratios))
    ok = ok and spread <= 10.0
    return AcceptanceRow(9, "Strichartz pairs, stabilization, boundedness",
                         ok, details)


def criterion_heisenberg(params, seed) -> AcceptanceRow:
    p = params["heisenberg"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    s_samples = np.linspace(0.0, 10.0, 1000)
    for _ in range(p["n_sweep"]):
        beta = rng.uniform(0.0, 2.0 * np.pi)
        t_param = rng.uniform(0.3, 3.0) * (1 if rng.uniform() < 0.5 else -1)
        worst = max(worst, projection_residual(beta, t_param, s_samples))
    circle_ok = worst <= 1e-12

    t = 1.3
    sing = singularities(t, 6)
    cut = [cutlocus_distance(k, t) for k in range(1, 7)]
    locus_ok = sing == cut

    t = 1.0
    lam = np.pi / t - 2e-6
    blow = abs(schrodinger_integrand(lam, 0.0, 0.0, t))
    blow_ok = blow > 1e6
    ok = circle_ok and locus_ok and blow_ok
    return AcceptanceRow(
        10, "Heisenberg circle/cut-locus/singularity checks", ok,
        {"circle_residual": _f(worst), "circle_tolerance": 1e-12,
         "cutlocus_equal": bool(locus_ok),
         "blowup_modulus": _f(blow), "blowup_threshold": 1e6})


CRITERIA = (
    criterion_weyl_orders,
    criterion_eigen_relation,
    criterion_roundtrip,
    criterion_propagator_equivalence,
    criterion_mass_conservation,
    criterion_lemma1,
    criterion_hardy_curve,
    criterion_dispersive_decay,
    criterion_strichartz,
    criterion_heisenberg,
)


def core_rows(params: dict, seed: int) -> list[AcceptanceRow]:
    return [fn(params, seed) for fn in CRITERIA]


def serialize_rows(rows: list[AcceptanceRow]) -> str:
    """Deterministic JSONL form; what `reproduce` writes to disk."""
    lines = []
    for r in rows:
        lines.append(json.dumps(
            {"index": r.index, "label": r.label, "passed": bool(r.passed),
             "details": r.details},
            sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def render_table(rows: list[AcceptanceRow]) -> str:
    out = []
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        out.append(f"[{status}] {r.index:>2}  {r.label}")
    passed = sum(r.passed for r in rows)
    out.append(f"{passed}/{len(rows)} criteria passed")
    return "\n".join(out)


def run_all(seed: int = 42, profile: str = "full") -> list[AcceptanceRow]:
    """Run the full acceptance suite; criterion 11 doubles the run."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    params = PROFILES[profile]
    rows = core_rows(params, seed)
    first = serialize_rows(rows)
    second = serialize_rows(core_rows(params, seed))
    rows.append(AcceptanceRow(
        11, "determinism: double run byte-identical", first == second,
        {"bytes": len(first), "profile": profile, "seed": seed}))
    return rows
