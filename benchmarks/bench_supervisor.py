"""SUPERVISOR -- overhead of supervised execution (audits + checkpoints).

Steps two identical simulations of the hot-path benchmark
configuration in *alternating blocks* within one process: one bare
(``Simulation.step``), one wrapped in
:class:`repro.resilience.supervisor.SupervisedRun` with the invariant
auditor at cadence ``--audit-every`` (default 50) and uncompressed
checkpoints at ``--checkpoint-every`` (default 100).  Interleaving the
blocks makes the comparison paired -- slow host drift hits both modes
equally -- which matters because the signal is a few percent.

The figure of merit is ``overhead_fraction``, the supervised slowdown
over the bare run; the robustness milestone requires < 5% at the
default cadences.  The budget: an audit is a few milliseconds of O(N)
checks every 50th step, and an uncompressed checkpoint is a ~20 MB
write every 100th.

Standalone: ``PYTHONPATH=src python benchmarks/bench_supervisor.py``
writes ``BENCH_supervisor.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.resilience import SupervisedRun
from repro.scenarios.library import WEDGE

WARMUP_STEPS = 5
TIMED_STEPS = 100
BLOCK_STEPS = 25
AUDIT_EVERY = 50
CHECKPOINT_EVERY = 100
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The hot-path benchmark configuration: the paper's 98 x 64 wedge at
#: density 40 and lambda 0.5.
OVERRIDES = {"density": 40.0, "lambda_mfp": 0.5}


def run_benchmark(
    steps: int = TIMED_STEPS,
    audit_every: int = AUDIT_EVERY,
    checkpoint_every: int = CHECKPOINT_EVERY,
    block: int = BLOCK_STEPS,
) -> dict:
    bare_sim = WEDGE.build_simulation(OVERRIDES)
    supervised_sim = WEDGE.build_simulation(OVERRIDES)
    bare_seconds = 0.0
    supervised_seconds = 0.0
    with tempfile.TemporaryDirectory(prefix="bench_supervisor_") as run_dir:
        run = SupervisedRun(
            supervised_sim,
            run_dir,
            checkpoint_every=checkpoint_every,
            audit_every=audit_every,
        )
        try:
            for _ in range(WARMUP_STEPS):
                bare_sim.step()
                run.step()
            done = 0
            rnd = 0
            while done < steps:
                n = min(block, steps - done)
                # Alternate which mode goes first so a slow spell never
                # lands systematically on the same mode.
                order = ("bare", "sup") if rnd % 2 == 0 else ("sup", "bare")
                for mode in order:
                    t0 = time.perf_counter()
                    if mode == "bare":
                        for _ in range(n):
                            bare_sim.step()
                        bare_seconds += time.perf_counter() - t0
                    else:
                        for _ in range(n):
                            run.step()
                        supervised_seconds += time.perf_counter() - t0
                done += n
                rnd += 1
            audits = run.auditor.audits_run
            n_particles = run.sim.particles.n
        finally:
            run.close()
            bare_sim.close()
    overhead = supervised_seconds / bare_seconds - 1.0
    return {
        "bench": "supervisor",
        "timed_steps": steps,
        "block_steps": block,
        "overhead_fraction": overhead,
        "target_overhead_fraction": 0.05,
        "note": (
            "overhead_fraction is the supervised slowdown over a bare "
            "run stepped in alternating blocks of the same process: "
            f"invariant audits every {audit_every} steps plus "
            f"uncompressed checkpoints every {checkpoint_every}; the "
            "robustness milestone requires < 5% at these cadences"
        ),
        "runs": [
            {
                "mode": "bare",
                "steps_per_sec": steps / bare_seconds,
                "seconds": bare_seconds,
                "n_particles": n_particles,
            },
            {
                "mode": "supervised",
                "steps_per_sec": steps / supervised_seconds,
                "seconds": supervised_seconds,
                "n_particles": n_particles,
                "audit_every": audit_every,
                "checkpoint_every": checkpoint_every,
                "audits_run": audits,
            },
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=TIMED_STEPS)
    parser.add_argument("--audit-every", type=int, default=AUDIT_EVERY)
    parser.add_argument(
        "--checkpoint-every", type=int, default=CHECKPOINT_EVERY
    )
    parser.add_argument("--block", type=int, default=BLOCK_STEPS)
    args = parser.parse_args(argv)

    result = run_benchmark(
        steps=args.steps,
        audit_every=args.audit_every,
        checkpoint_every=args.checkpoint_every,
        block=args.block,
    )
    out = REPO_ROOT / "BENCH_supervisor.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for r in result["runs"]:
        print(f"{r['mode']:>10s}: {r['steps_per_sec']:7.2f} steps/s")
    print(f"overhead: {100 * result['overhead_fraction']:.2f}% "
          f"(target < {100 * result['target_overhead_fraction']:.0f}%)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
