"""One fresh process of the benchmark: set up one workload, then run its
untraced pass and, in trace mode, the traced replay. Prints one JSON line.

Started by run.py from the root of a checkout, with PYTHONPATH=src and BLAS
capped at one thread in its environment. Modes: ``setup`` stops after the
set-up, ``run`` adds the untraced pass, ``trace`` adds the traced replay.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import patternlab  # noqa: E402
from workloads import WORKLOADS, input_slot  # noqa: E402

MAX_REPORTED_FAILURES = 20


def blas_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown"}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "patternlab_threads": os.environ.get("PATTERNLAB_THREADS", "unset (library default)"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    source = (Path.cwd() / "src").resolve()
    if source not in Path(patternlab.__file__).resolve().parents:
        print(f"patternlab imported from {patternlab.__file__}, not from {source}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    slot = input_slot(args.seed)
    workload = WORKLOADS[args.workload](args.size, slot, workdir)
    workload.warm_up()
    out = {
        "setup_s": time.perf_counter() - START,
        "facts": dict(machine_facts(), seed=args.seed, input_slot=slot),
    }
    if args.mode != "setup":
        result = workload.run()
        failures = list(result.failures)
        failed = set(result.failed_ops)
        out.update(wall_s=result.wall_s, peak_rss_mb=result.peak_rss_mb)
        out["facts"]["workers"] = result.workers
        if hasattr(workload, "probes"):
            out["probes"] = [vars(p) for p in workload.probes]
        if args.mode == "trace":
            metrics, replay_failures, tracer = workload.traced(result)
            failures += replay_failures
            failed |= {op for op, _ in replay_failures}
            metrics["error_rate"] = len(failed) / result.attempted
            out["per_layer"] = metrics
            with open(workdir / "spans.jsonl", "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(vars(span)) + "\n")
        out.update(
            attempted=result.attempted,
            failed=len(failed),
            failures=[text for _, text in failures][:MAX_REPORTED_FAILURES] + result.other_failures,
            other_failures=len(result.other_failures),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
