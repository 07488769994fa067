"""TELEMETRY -- overhead of the telemetry hub at default cadence.

Steps two identical simulations of the hot-path benchmark
configuration (~240k particles, the paper's 98 x 64 wedge at density
40) in *alternating blocks* within one process: one bare, one with a
:class:`repro.telemetry.hub.Telemetry` attached at the default
sampling cadence (JSONL sample + Prometheus snapshot every 10 steps,
driver spans on every step).  Interleaving the blocks makes the
comparison paired -- slow host drift hits both modes equally -- which
matters because the budget is small: the observability milestone
requires **< 3%** overhead.

Both execution modes are measured: the serial engine and the sharded
backend at ``--workers 2`` (where telemetry additionally allocates the
worker span rings, drains them at the barrier and samples shard loads
and channel occupancy).

Standalone: ``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py``
writes ``BENCH_telemetry.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.scenarios.library import WEDGE
from repro.telemetry import Telemetry

WARMUP_STEPS = 3
TIMED_STEPS_SERIAL = 60
TIMED_STEPS_SHARDED = 30
BLOCK_STEPS = 10
SAMPLE_EVERY = 10
TARGET_OVERHEAD = 0.03
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The hot-path benchmark configuration: the paper's 98 x 64 wedge at
#: density 40 and lambda 0.5.
OVERRIDES = {"density": 40.0, "lambda_mfp": 0.5}


def _make_backend(workers: int):
    if workers <= 1:
        return None
    from repro.parallel.backend import ShardedBackend

    return ShardedBackend(workers)


def run_mode(
    workers: int,
    steps: int,
    block: int = BLOCK_STEPS,
    sample_every: int = SAMPLE_EVERY,
) -> dict:
    """Paired bare-vs-telemetry timing for one execution mode."""
    bare_sim = WEDGE.build_simulation(
        OVERRIDES, backend=_make_backend(workers)
    )
    bare_seconds = 0.0
    tel_seconds = 0.0
    with tempfile.TemporaryDirectory(prefix="bench_telemetry_") as run_dir:
        tel = Telemetry(run_dir=run_dir, sample_every=sample_every)
        tel_sim = WEDGE.build_simulation(
            OVERRIDES, backend=_make_backend(workers), telemetry=tel
        )
        try:
            for _ in range(WARMUP_STEPS):
                bare_sim.step()
                tel_sim.step()
            done = 0
            rnd = 0
            while done < steps:
                n = min(block, steps - done)
                # Alternate which mode goes first so a slow spell never
                # lands systematically on the same mode.
                order = (
                    ("bare", "tel") if rnd % 2 == 0 else ("tel", "bare")
                )
                for mode in order:
                    t0 = time.perf_counter()
                    if mode == "bare":
                        for _ in range(n):
                            bare_sim.step()
                        bare_seconds += time.perf_counter() - t0
                    else:
                        for _ in range(n):
                            tel_sim.step()
                        tel_seconds += time.perf_counter() - t0
                done += n
                rnd += 1
            n_particles = tel_sim.particles.n
            # What the hub observed sits next to the timing numbers, so
            # a regression in either is diagnosed from one artifact.
            snap = tel.snapshot()
            observed = {
                key: snap.get(key, default)
                for key, default in (
                    ("metrics", {}), ("spans", 0), ("spans_dropped", 0)
                )
            }
        finally:
            tel_sim.close()
            tel.close()
            bare_sim.close()
    overhead = tel_seconds / bare_seconds - 1.0
    return {
        "workers": workers,
        "timed_steps": steps,
        "block_steps": block,
        "sample_every": sample_every,
        "n_particles": n_particles,
        "overhead_fraction": overhead,
        "bare_steps_per_sec": steps / bare_seconds,
        "telemetry_steps_per_sec": steps / tel_seconds,
        "bare_seconds": bare_seconds,
        "telemetry_seconds": tel_seconds,
        "telemetry_observed": observed,
    }


def run_benchmark(
    serial_steps: int = TIMED_STEPS_SERIAL,
    sharded_steps: int = TIMED_STEPS_SHARDED,
    workers: int = 2,
    block: int = BLOCK_STEPS,
    sample_every: int = SAMPLE_EVERY,
) -> dict:
    modes = [run_mode(1, serial_steps, block, sample_every)]
    if workers > 1:
        modes.append(run_mode(workers, sharded_steps, block, sample_every))
    return {
        "bench": "telemetry_overhead",
        "target_overhead_fraction": TARGET_OVERHEAD,
        "note": (
            "overhead_fraction is the telemetry-attached slowdown over "
            "a bare run stepped in alternating blocks of the same "
            f"process (JSONL sample + .prom rewrite every {sample_every} "
            "steps, spans every step); the observability milestone "
            "requires < 3% per execution mode"
        ),
        "modes": modes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=TIMED_STEPS_SERIAL)
    parser.add_argument(
        "--sharded-steps", type=int, default=TIMED_STEPS_SHARDED
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="sharded mode worker count (1 = serial only)")
    parser.add_argument("--block", type=int, default=BLOCK_STEPS)
    parser.add_argument("--sample-every", type=int, default=SAMPLE_EVERY)
    args = parser.parse_args(argv)

    result = run_benchmark(
        serial_steps=args.steps,
        sharded_steps=args.sharded_steps,
        workers=args.workers,
        block=args.block,
        sample_every=args.sample_every,
    )
    out = REPO_ROOT / "BENCH_telemetry.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for m in result["modes"]:
        print(
            f"workers={m['workers']}: bare {m['bare_steps_per_sec']:6.2f} "
            f"steps/s, telemetry {m['telemetry_steps_per_sec']:6.2f} "
            f"steps/s, overhead {100 * m['overhead_fraction']:+.2f}% "
            f"(target < {100 * result['target_overhead_fraction']:.0f}%)"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
