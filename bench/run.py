"""Run one streamdec benchmark workload and print its metrics.

    python3 bench/run.py --workload stream-short --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, sample counts and any problem the output checks
found. The exit code is 0 only when every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads  # pins BLAS threads, then imports streamdec from src/
    except (ImportError, RuntimeError) as e:
        print(f"error: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except workloads.BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct = not out.problems and out.failed == 0
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out.info))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
