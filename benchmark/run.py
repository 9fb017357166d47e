"""Batch benchmark for lsg.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in its own fresh Python
process (benchmark/worker.py) that imports lsg from ./src. With --trace 0
the run also starts a few set-up-only processes and reports the median
set-up time; with --trace 1 it reports the per-layer metrics instead. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 6            # set-up-only processes, besides the workload's own
RUN_LIMIT_S = 170.0         # every child must end within this of the start
BLAS_THREADS = "1"


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def source_hash(root: str = os.path.join("src", "lsg")) -> str:
    """sha256 over the names and bytes of every file of the lsg sources."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def check_digest(key: str, digests: list[str],
                 path: str = os.path.join(OUT_DIR, "digests.json")) -> str | None:
    """Same sources, seed and criteria, same serialized rows.

    Rows are compared within the run (a traced run makes two rounds) and
    with earlier runs whose key, which holds the source hash, is the same;
    a change to lsg that moves the last digit of a float gets a key of its
    own rather than a mismatch.
    """
    if len(digests) != 1:
        return f"rows digest differs between rounds: {digests}"
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    seen = known.get(key)
    if seen is not None and seen != digests[0]:
        return f"rows digest {digests[0]} differs from {seen} for {key}"
    known[key] = digests[0]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Batch benchmark for lsg.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lsg", "__init__.py")):
        print("run from the repository root: src/lsg is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = [] if args.trace else [
            _child(["--workload", args.workload, "--setup-only"],
                   deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _child(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    problems = list(res["wrong"])
    if res.get("digests"):
        print(f"rows digest {' '.join(res['digests'])}")
        problem = check_digest(f"lsg {source_hash()[:16]} {res['digest_key']}",
                               res["digests"])
        if problem:
            problems.append(problem)
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)

    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(probes + [res["setup_s"]]),
                  "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed={args.seed} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
