"""One repetition of one workload in a fresh interpreter.

``run.py`` starts this file once per (workload, repetition), with the
BLAS thread count pinned in the environment, and reads the JSON record
printed on the last line of standard output.  Set-up is measured here
too: the import of the program, then build-and-teardown cycles of the
workload's engine (the first one discarded).  Every time in the record
is host-normalised (see ``host.HostClock``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--profile", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-cycles", type=int, default=5)
    parser.add_argument("--spans", type=pathlib.Path, default=None,
                        help="write the traced pass's spans here (JSONL)")
    parser.add_argument("--host", action="store_true",
                        help="print the host block and exit")
    args = parser.parse_args(argv)

    # The program's import is part of what a user waits for, so it is
    # timed and not hoisted to the top of the file.
    import host

    if args.host:
        root = pathlib.Path(__file__).resolve().parents[2]
        print(json.dumps(host.host_block(root)))
        return 0

    import workloads

    import_s = perf_counter() - started
    name = args.workload
    if name not in workloads.WORKLOADS:
        parser.error(f"unknown workload {name!r}")
    p = workloads.PROFILES[args.profile][name]

    # Set-up, in host-normalised seconds: the import above, then the
    # median build-and-teardown cycle, with the reference kernel sampled
    # around every cycle.
    clock = host.HostClock()
    mark = clock.mark()
    cycles = []
    for _ in range(args.setup_cycles + 1):
        clock.sample()
        cycles.append(workloads.setup_cycle(name, p, args.seed))
    clock.sample()
    factor = clock.factor(mark)
    import_s *= factor
    build_s = workloads.median(cycles[1:]) * factor

    out = workloads.run_workload(name, args.profile, args.seed,
                                 bool(args.trace), clock)
    ops = out.pop("ops")
    timed = out.pop("timed")
    tracer = out.pop("tracer", None)
    out.update(
        workload=name,
        seed=args.seed,
        profile=args.profile,
        trace=args.trace,
        setup_s=import_s + build_s,
        wall_s=timed.wall_s if timed else None,
        raw_wall_s=timed.raw_wall_s if timed else None,
        cpu_s=timed.cpu_s if timed else None,
        reference_ms=timed.reference_s * 1e3 if timed else None,
        peak_rss_mb=workloads.peak_rss_mb(),
        attempted=ops.attempted,
        failures=ops.failures,
    )
    out.setdefault("label", None)
    if tracer is not None:
        layers = out["layers"]
        layers["setup.import_s"] = import_s
        layers["setup.build_s"] = build_s
        if name == "wedge_solution":
            layers["scenarios.spec.build_ms"] = build_s * 1e3
        layers.update(workloads.trace_metrics(tracer))
        out["missing_hooks"] = tracer.missing
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
