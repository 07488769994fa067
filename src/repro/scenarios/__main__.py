"""Golden-file maintenance CLI: ``python -m repro.scenarios``.

Regenerates the committed golden observables of the named scenarios
(or, with no names, every scenario that declares a golden file) from
one engine of replica blocks, then re-validates against the fresh
file.  Run this
after an *intentional* physics change and commit the updated JSON; see
``docs/scenarios.md`` for the tolerance methodology.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import (
    all_specs,
    get,
    golden,
    regenerate_golden,
    validate_scenario,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="scenarios to regenerate (default: all with golden files)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="replica blocks (keys 0..N-1) in the spread run (default 3)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the would-be golden blobs without writing",
    )
    args = parser.parse_args(argv)

    if args.names:
        specs = [get(n) for n in args.names]
    else:
        specs = [s for s in all_specs() if s.validation.get("golden")]
    failed = False
    for spec in specs:
        if not spec.validation.get("golden"):
            print(f"{spec.name}: no golden file declared, skipping")
            continue
        blob = regenerate_golden(
            spec, n_seeds=args.seeds, write=not args.dry_run
        )
        path = golden.golden_path(spec)
        action = "would write" if args.dry_run else "wrote"
        print(f"{spec.name}: {action} {path.name}")
        for name, entry in blob["observables"].items():
            print(
                f"  {name:<24s} value {entry['value']:10.4f}  "
                f"tol {entry['tol']:.4f}  spread {entry['spread']:.4f}"
            )
        if not args.dry_run:
            report = validate_scenario(spec)
            print(report.to_text())
            failed = failed or not report.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
