"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload presets_grid --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. Each pass runs in a fresh worker process
(perfbench/worker.py) with BLAS capped at one thread and PATTERNLAB_THREADS
left at the library default. Passes repeat until ``--seconds`` have gone
by, and the result reports medians over them. ``--trace 0`` reports the
end-to-end metrics from untraced passes; ``--trace 1`` reports the
per-layer metrics from traced replays, each after its own untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts. A fuller record, with every pass and the oracle
probes, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

# Every run must end well inside 180 s; a pass is not started unless the
# longest pass so far still fits before this limit.
HARD_LIMIT_S = 165.0
# Set-up is timed in at least this many fresh processes per run.
MIN_SETUPS = 5


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PATTERNLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = "src"
    return env


def run_worker(args, mode: str, workdir: Path, timeout: float) -> dict:
    command = [
        sys.executable, "perfbench/worker.py", "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode, "--workdir", str(workdir),
    ]
    done = subprocess.run(command, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "patternlab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/patternlab; run from the root of a patternlab checkout", file=sys.stderr)
        return 2
    run_name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    results_dir = root / "perfbench" / "results"
    workdir = results_dir / run_name
    mode = "trace" if args.trace else "run"

    passes: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            longest = max((p["elapsed"] for p in passes), default=0.0)
            if passes and (elapsed >= args.seconds or elapsed + 1.5 * longest > HARD_LIMIT_S):
                break
            began = time.perf_counter()
            record = run_worker(args, mode, workdir, HARD_LIMIT_S + 10 - elapsed)
            record["elapsed"] = time.perf_counter() - began
            passes.append(record)
            setups.append(record["setup_s"])
        while len(setups) < MIN_SETUPS:
            elapsed = time.perf_counter() - start
            slowest = max(p["setup_s"] for p in passes) + 1.0
            if elapsed + 2 * slowest > HARD_LIMIT_S:
                break
            setups.append(run_worker(args, "setup", workdir, HARD_LIMIT_S + 10 - elapsed)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not any(p["other_failures"] for p in passes)
    if args.trace:
        metrics = {
            name: {"value": median(p["per_layer"][name] for p in passes), "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    else:
        values = {"setup_s": setups}
        values.update({name: [p[name] for p in passes] for name in ("wall_s", "peak_rss_mb")})
        metrics = {name: {"value": median(values[name]), "unit": unit} for name, unit, _ in END_TO_END}

    facts = dict(passes[0]["facts"], workload=args.workload, size=args.size)
    record = {
        "facts": facts,
        "passes": passes,
        "setups_s": setups,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=1))
    for text in sorted({text for p in passes for text in p["failures"]})[:20]:
        print(f"failure: {text}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
