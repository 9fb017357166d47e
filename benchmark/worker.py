"""One workload in one fresh process: set-up, seeded cases, timed rounds.

    python3 benchmark/worker.py --workload W --setup-only
    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; lsg is imported from ./src. The last line
of standard output is one JSON object for benchmark/run.py.
"""

import time

_START = time.perf_counter()    # before numpy and lsg are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _import_lsg():
    import lsg
    import lsg.acceptance
    import lsg.estimates
    import lsg.grids
    import lsg.propagator
    import lsg.rootsystem
    import lsg.spherical
    return lsg


def setup(workload: str, tracer_cls=None):
    """Import lsg, build the workload's root systems and calibrate each.

    Returns (lsg, systems, tracer, import seconds, set-up seconds); the
    set-up time counts from process start, before numpy is imported.
    """
    lsg = _import_lsg()
    import_s = time.perf_counter() - _START
    from workloads import SETUP_SYSTEMS
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install()
        tracer.phase = "setup"
    # a calibration the code no longer has is skipped, as the tracer
    # reports it with zero calls
    calibrations = [fn for fn in (
        getattr(lsg.spherical, "plancherel_constant", None),
        getattr(lsg.propagator, "calibrate_constant", None)) if fn]
    begin = time.perf_counter()
    systems = {}
    for name in SETUP_SYSTEMS[workload]:
        rs = lsg.rootsystem.build_root_system(name)
        for calibrate in calibrations:
            calibrate(rs)
        systems[name] = rs
    # the workloads module's own import is benchmark code, not set-up
    setup_s = import_s + time.perf_counter() - begin
    return lsg, systems, tracer, import_s, setup_s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _layer_metrics(tracer, first: int, last: int, prefix: str) -> dict:
    out = {}
    for name, rec in tracer.summary(first, last).items():
        phase, label = name.split(".", 1)
        if phase != prefix:
            continue
        # set-up spans go by function name alone: setup.calibrate_constant
        key = label if phase == "batch" else f"setup.{label.split('.', 1)[1]}"
        for field, value in rec.items():
            out[f"{key}.{field}"] = value
    return out


def _settle(tally: dict, case, result, error: str | None) -> None:
    """Count one operation: it fails if it raised or its check fails."""
    tally["attempted"] += 1
    if error is not None:
        tally["failed"] += 1
        print(f"FAILED {case.label}\n{error}", file=sys.stderr)
        return
    message = case.check(result)
    if message is not None:
        tally["failed"] += 1
        tally["wrong"].append(f"{case.label}: {message}")
        print(f"WRONG {case.label}: {message}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracer_mod
    lsg, systems, tracer, import_s, setup_s = setup(
        workload, tracer_mod.Tracer if trace else None)
    import numpy as np
    import workloads

    if tracer is not None:
        setup_layers = _layer_metrics(tracer, 0, None, "setup")
        tracer.uninstall()
        tracer.phase = "batch"
    rng = np.random.default_rng(seed)
    cases = workloads.CASE_LISTS[workload](lsg, systems, rng, seed)

    tally = {"attempted": 0, "failed": 0, "wrong": []}
    # per-case call times, untraced and traced rounds apart
    case_s = {False: [[] for _ in cases], True: [[] for _ in cases]}
    traced_ranges = []
    digests = set()
    # Nothing is checked while round 1 runs, so that the peak read at its
    # end is lsg's own: a check builds reference arrays as large as the
    # output. Acceptance rows are small; they are kept and checked after
    # the reading, in every round. Other outputs are dropped at once, left
    # unchecked and uncounted in round 1, and checked from round 2 on, so
    # those workloads run at least two rounds.
    keep_outputs = workload == "reproduce-full"
    min_rounds = 2 if trace or not keep_outputs else 1
    started = time.perf_counter()
    round_no = 0
    while True:
        traced = trace and round_no % 2 == 1
        if traced:
            tracer.install()
            first = len(tracer.spans)
            counters_before = dict(tracer.counters)
        kept = []
        for i, case in enumerate(cases):
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(case.span):
                        result = case.call()
                else:
                    result = case.call()
                error = None
            except Exception:
                result, error = None, traceback.format_exc()
            case_s[traced][i].append(time.perf_counter() - t0)
            if keep_outputs:
                kept.append((case, result, error))
            elif round_no > 0:
                _settle(tally, case, result, error)
            elif error is not None:
                print(f"FAILED {case.label} (round 1, not counted)\n{error}",
                      file=sys.stderr)
            del result
        if traced:
            tracer.uninstall()
            traced_ranges.append((first, len(tracer.spans), counters_before,
                                  dict(tracer.counters)))
        if round_no == 0:
            # set-up plus one batch: what a user running it once holds.
            # Later rounds add heap that the allocator keeps from earlier
            # frees, by an amount that changes from run to run.
            peak_rss_mb = _peak_rss_mb()
        for case, result, error in kept:
            _settle(tally, case, result, error)
        if kept and all(error is None for *_, error in kept):
            digests.add(workloads.rows_digest(
                lsg, [result for _, result, _ in kept]))
        del kept
        round_no += 1
        if time.perf_counter() - started >= seconds and round_no >= min_rounds:
            break

    result = {
        **tally,
        "rounds": round_no,
        "wall_s": _batch_s(case_s[False]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "import_s": import_s,
    }
    if keep_outputs:
        # runs agree on a digest only when they ran the same criteria
        result["digests"] = sorted(digests)
        result["digest_key"] = f"seed {seed}: " + " ".join(
            case.label for case in cases)
    if trace:
        result["per_layer"] = _per_layer(tracer, cases, case_s,
                                         traced_ranges, import_s, setup_layers)
        _write_spans(tracer, workload, seed)
    return result


def _batch_s(times: list[list[float]]) -> float:
    """Batch time: the sum over cases of each case's median call time.

    A burst of load from outside the process inflates one call in one
    round; the per-case median drops it where a median of round sums
    would not.
    """
    return sum(statistics.median(t) for t in times)


def _per_layer(tracer, cases, case_s, traced_ranges, import_s,
               setup_layers) -> dict:
    """Per-round layer metrics: the median over traced rounds of each."""
    rounds = []
    for first, last, before, after in traced_ranges:
        m = _layer_metrics(tracer, first, last, "batch")
        for key, value in after.items():
            phase, label = key.split(".", 1)
            if phase == "batch":
                m[label] = value - before.get(key, 0)
        m["propagator.duhamel_solve.propagations"] = tracer.nested_calls(
            "batch.propagator._chirp_sandwich", "batch.propagator.duhamel_solve",
            first, last)
        rounds.append(m)
    keys = set().union(*rounds)
    out = {k: statistics.median(r.get(k, 0) for r in rounds) for k in keys}
    out.update(setup_layers)
    for key, value in tracer.counters.items():
        if key.startswith("setup."):
            out[key] = value
    out["import.s"] = import_s
    for case, times in zip(cases, case_s[False]):
        if case.span.startswith("acceptance."):
            out[f"{case.span}.s"] = statistics.median(times)
    traced_wall = _batch_s(case_s[True])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - _batch_s(case_s[False])
    out["trace.missing"] = len(tracer.missing)
    return out


def _write_spans(tracer, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "error"],
                   "missing": tracer.missing, "spans": tracer.spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    if args.setup_only:
        *_, setup_s = setup(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
