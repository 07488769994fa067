"""The repository's benchmark: six workloads, end to end and by layer.

Suite (every workload, repetitions interleaved, then one traced pass)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 1989] [--reps 3]
        [--workloads NAME ...] [--smoke] [--out FILE] [--spans-dir DIR]

One workload, as the contract in ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
        --trace 0|1

Two result files of the suite, row by row against the fixed bounds::

    python benchmarks/e2e/run.py --compare A.json B.json

This file is the driver only.  It imports neither NumPy nor the
program: every repetition runs in a fresh interpreter (``child.py``),
strictly one at a time, with the BLAS thread count pinned to one so the
two shard workers never run more busy threads than the host has cores.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Wall-clock metrics, withheld where the host has fewer cores than the
#: workload has workers (counts and CPU still stand).
WALL_METRICS = ("us_per_particle_step", "time_to_solution_s")

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CYCLES = 5
CHILD_TIMEOUT_S = 170.0
#: A contract run stops adding repetitions here whatever --seconds says,
#: to stay inside the runner's limit per invocation.
CONTRACT_WALL_S = 100.0
MIN_REPS, MAX_REPS = 2, 4


class ChildError(RuntimeError):
    """A repetition's interpreter died instead of reporting."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for key in PINNED_ENV:
        env[key] = "1"
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise ChildError(f"child {' '.join(args)} failed:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetition(
    workload: str, seed: int, profile: str, trace: bool,
    spans: Optional[pathlib.Path] = None,
) -> dict:
    args = ["--workload", workload, "--seed", str(seed),
            "--profile", profile, "--trace", str(int(trace)),
            "--setup-cycles", str(SETUP_CYCLES)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return run_child(*args)


# -- aggregation -------------------------------------------------------------


def spread(values: List[float], samples: Optional[int] = None) -> dict:
    """Median over repetitions, with their min-max as the noise floor."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "reps": len(values),
        "samples": samples if samples is not None else len(values),
    }


def aggregate(records: List[dict]) -> dict:
    """End-to-end metrics and failure accounting of one workload."""
    pooled = [x for r in records for x in (r["step_us"] or ())]
    if pooled:
        # The paper's yardstick: median of the pooled per-step samples.
        per_rep = [statistics.median(r["step_us"]) for r in records]
        us = spread(per_rep, samples=len(pooled))
        us["value"] = statistics.median(pooled)
    else:
        # The stepping happens inside one public call: wall of the call
        # over the particle-steps its result reports.
        per_rep = [r["call_us"] for r in records if r["call_us"] is not None]
        us = spread(per_rep) if per_rep else None

    def over_reps(value) -> Optional[dict]:
        values = [v for v in map(value, records) if v is not None]
        return spread(values) if values else None

    metrics = {
        "setup_s": over_reps(lambda r: r["setup_s"]),
        "us_per_particle_step": us,
        "cpu_us_per_particle_step": over_reps(
            lambda r: r["cpu_s"] / r["particle_steps"] * 1e6
            if r["cpu_s"] is not None and r["particle_steps"] else None),
        "time_to_solution_s": over_reps(lambda r: r["wall_s"]),
        "peak_rss_mb": over_reps(lambda r: r["peak_rss_mb"]),
    }
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    if len(records) > 1:
        # Same seed, fresh interpreter: the final state must be the same.
        attempted += 1
        if len({r["digest"] for r in records}) != 1:
            failures.append("state digest differs across repetitions")
    label = next((r["label"] for r in records if r.get("label")), None)
    return {
        "label": label,
        "end_to_end": metrics,
        "ops": {"attempted": attempted, "failed": len(failures),
                "failures": failures},
    }


def ops_failed_frac(ops: dict) -> float:
    return ops["failed"] / ops["attempted"] if ops["attempted"] else 1.0


def print_end_to_end(name: str, result: dict) -> None:
    label = f" [{result['label']}]" if result["label"] else ""
    print(f"{name}{label}")
    for metric, m in result["end_to_end"].items():
        unit = END_TO_END[metric]["unit"]
        if m is None:
            print(f"  {metric:<28s} {'null':>12s} {unit}")
            continue
        print(f"  {metric:<28s} {m['value']:12.5g} {unit:<3s} "
              f"[{m['min']:.5g} .. {m['max']:.5g}] over {m['reps']} reps, "
              f"{m['samples']} samples")
    ops = result["ops"]
    print(f"  {'ops_failed_frac':<28s} {ops_failed_frac(ops):12.5g} frac "
          f"({ops['failed']} of {ops['attempted']})")
    for failure in ops["failures"]:
        print(f"    FAILED {failure}")


def print_layers(layers: Dict[str, Optional[float]]) -> None:
    for metric, value in layers.items():
        unit = PER_LAYER.get(metric, {}).get("unit", "")
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<48s} {shown:>12s} {unit}")


# -- one workload, as BENCHMARK.json's contract runs it ----------------------


def contract(args) -> int:
    started = time.perf_counter()
    workload = args.workload[0]
    if args.trace:
        rec = repetition(workload, args.seed, args.profile, trace=True)
        layers = rec["layers"]
        print(workload)
        print_layers({k: layers.get(k) for k in PER_LAYER})
        # A layer a workload does not exercise reads 0 here: the
        # contract's result line carries numbers only.
        metrics = {
            k: {"value": layers.get(k) or 0.0, "unit": m["unit"]}
            for k, m in PER_LAYER.items()
        }
        attempted, failures = rec["attempted"], rec["failures"]
    else:
        records: List[dict] = []
        measured = 0.0
        while len(records) < MAX_REPS:
            records.append(repetition(workload, args.seed, args.profile,
                                      trace=False))
            measured += records[-1]["raw_wall_s"] or 0.0
            # Stop at the repetition count nearest to --seconds.
            enough = measured + 0.5 * measured / len(records) >= args.seconds
            late = time.perf_counter() - started > CONTRACT_WALL_S
            if len(records) >= MIN_REPS and (enough or late):
                break
        result = aggregate(records)
        print_end_to_end(workload, result)
        metrics = {
            k: {"value": result["end_to_end"][k]["value"],
                "unit": m["unit"]}
            for k, m in END_TO_END.items()
        }
        attempted = result["ops"]["attempted"]
        failures = result["ops"]["failures"]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


# -- the suite ---------------------------------------------------------------


def suite(args) -> int:
    names = args.workload or WORKLOADS
    records: Dict[str, List[dict]] = {w: [] for w in names}
    crashed: Dict[str, List[str]] = {w: [] for w in names}
    host = run_child("--host")
    # Round-robin, so a slow window on a shared host lands on every
    # workload and not on all repetitions of one.
    for rep in range(args.reps):
        for w in names:
            print(f"[rep {rep + 1}/{args.reps}] {w}", file=sys.stderr)
            try:
                records[w].append(
                    repetition(w, args.seed, args.profile, trace=False))
            except (ChildError, subprocess.TimeoutExpired) as exc:
                crashed[w].append(str(exc))
    out = {
        "schema": "repro-e2e/1",
        "seed": args.seed,
        "reps": args.reps,
        "profile": args.profile,
        "host": host,
        "workloads": {},
    }
    for w in names:
        print(f"[traced] {w}", file=sys.stderr)
        spans = args.spans_dir / f"{w}.jsonl" if args.spans_dir else None
        layers: Dict[str, Optional[float]] = {}
        try:
            traced = repetition(w, args.seed, args.profile, trace=True,
                                spans=spans)
            layers = {k: traced["layers"].get(k) for k in PER_LAYER
                      if k in traced["layers"]}
            traced_failures = traced["failures"]
        except (ChildError, subprocess.TimeoutExpired) as exc:
            traced_failures = [str(exc)]
        if records[w]:
            result = aggregate(records[w])
        else:
            result = {"label": None, "end_to_end": {},
                      "ops": {"attempted": 0, "failed": 0, "failures": []}}
        # A repetition that died counts as one failed operation.
        for message in crashed[w]:
            result["ops"]["attempted"] += 1
            result["ops"]["failed"] += 1
            result["ops"]["failures"].append(message)
        if result["label"] == "oversubscribed":
            for metric in WALL_METRICS:
                result["end_to_end"][metric] = None
        result["ops_failed_frac"] = ops_failed_frac(result["ops"])
        result["per_layer"] = layers
        result["traced_failures"] = traced_failures
        out["workloads"][w] = result
        print_end_to_end(w, result)
        print_layers(layers)
        for failure in traced_failures:
            print(f"    FAILED (traced pass) {failure}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=2) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


# -- comparing two suite results ---------------------------------------------


def compare_rows(a: dict, b: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        for metric, m in END_TO_END.items():
            ma = wa["end_to_end"].get(metric)
            mb = wb["end_to_end"].get(metric)
            if ma is None or mb is None:
                continue
            bound = m["bound"]
            change = mb["value"] / ma["value"] - 1.0
            noise = max((x["max"] - x["min"]) / x["value"] for x in (ma, mb))
            if noise > bound and not mb["max"] < ma["min"]:
                # Spread wider than the bound: neither "unchanged" nor
                # "regressed" can be read off these runs.
                status = "unresolved"
            elif change > bound:
                status = "regressed"
            else:
                status = "ok"
            rows.append({
                "workload": w, "metric": metric, "a": ma["value"],
                "b": mb["value"], "change": change, "bound": bound,
                "noise_a": (ma["max"] - ma["min"]) / ma["value"],
                "noise_b": (mb["max"] - mb["min"]) / mb["value"],
                "status": status,
            })
        fa, fb = wa["ops_failed_frac"], wb["ops_failed_frac"]
        rows.append({
            "workload": w, "metric": "ops_failed_frac", "a": fa, "b": fb,
            "change": fb - fa, "bound": 0.0, "noise_a": 0.0, "noise_b": 0.0,
            "status": "regressed" if fb > fa else "ok",
        })
    return rows


def compare(path_a: pathlib.Path, path_b: pathlib.Path) -> int:
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    rows = compare_rows(a, b)
    print(f"{'workload':<15s} {'metric':<25s} {'A':>11s} {'B':>11s} "
          f"{'change':>8s} {'bound':>6s} {'noise A':>8s} {'noise B':>8s}")
    for r in rows:
        print(f"{r['workload']:<15s} {r['metric']:<25s} {r['a']:11.5g} "
              f"{r['b']:11.5g} {r['change']:+8.1%} {r['bound']:6.0%} "
              f"{r['noise_a']:8.1%} {r['noise_b']:8.1%}  {r['status']}")
    regressed = [r for r in rows if r["status"] == "regressed"]
    unresolved = [r for r in rows if r["status"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1989,
                        help="workload seed (the program only ever sees "
                             "the configuration generated from it)")
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh-interpreter repetitions per workload")
    parser.add_argument("--workload", "--workloads", nargs="+",
                        choices=WORKLOADS, metavar="NAME")
    parser.add_argument("--smoke", dest="profile", action="store_const",
                        const="smoke", default="full",
                        help="tiny densities and step counts (< 30 s)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the suite's result here (JSON)")
    parser.add_argument("--spans-dir", type=pathlib.Path,
                        help="write each traced pass's spans here (JSONL)")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: seconds of timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports per-layer metrics")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds runs exactly one --workload")
        return contract(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
