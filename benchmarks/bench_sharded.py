"""SHARDED -- steps/sec of the domain-sharded backend at 1/2/4 workers.

Runs the hot-path benchmark configuration through
:class:`repro.parallel.backend.ShardedBackend` at increasing worker
counts and records steps/sec, parallel speedup over the 1-worker run,
and the per-shard migration traffic.  The record carries ``host_cpus``
because the numbers are only meaningful relative to it: on a
single-core host the workers time-slice one CPU and the "speedup" is
pure overhead accounting (expect <= 1.0x); real speedup needs
``host_cpus >= workers``.

Standalone: ``PYTHONPATH=src python benchmarks/bench_sharded.py``
writes ``BENCH_sharded.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.parallel.backend import ShardedBackend
from repro.scenarios.library import WEDGE

WARMUP_STEPS = 3
TIMED_STEPS = 10
WORKER_COUNTS = (1, 2, 4)
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The hot-path benchmark configuration: the paper's 98 x 64 wedge at
#: density 40 and lambda 0.5.
OVERRIDES = {"density": 40.0, "lambda_mfp": 0.5}


def _timed_run(n_workers: int, steps: int) -> dict:
    backend = ShardedBackend(n_workers) if n_workers > 1 else None
    sim = WEDGE.build_simulation(OVERRIDES, backend=backend)
    try:
        sim.run(WARMUP_STEPS)
        t0 = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - t0
        sim.gather()
        n = sim.particles.n
    finally:
        sim.close()
    return {
        "workers": n_workers,
        "steps_per_sec": steps / elapsed,
        "us_per_particle_step": elapsed / steps / n * 1e6,
        "n_particles": n,
    }


def run_benchmark(steps: int = TIMED_STEPS, workers=WORKER_COUNTS) -> dict:
    runs = [_timed_run(w, steps) for w in workers]
    base = runs[0]["steps_per_sec"]
    for r in runs:
        r["speedup_vs_1"] = r["steps_per_sec"] / base
    host_cpus = os.cpu_count() or 1
    return {
        "bench": "sharded",
        "host_cpus": host_cpus,
        "note": (
            "speedup_vs_1 is physical parallelism only when host_cpus "
            ">= workers; with fewer cores the worker processes "
            "time-slice and the figure measures sharding overhead"
        ),
        "timed_steps": steps,
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=TIMED_STEPS)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(WORKER_COUNTS)
    )
    args = parser.parse_args(argv)

    result = run_benchmark(steps=args.steps, workers=args.workers)
    out = REPO_ROOT / "BENCH_sharded.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"host cpus: {result['host_cpus']}")
    for r in result["runs"]:
        print(
            "{:d} worker(s): {:6.2f} steps/s  ({:.2f}x vs 1)".format(
                r["workers"], r["steps_per_sec"], r["speedup_vs_1"]
            )
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
