"""Benchmark entry point.

    python3 perfbench/run.py --workload session-hot --seed 1 --seconds 10 --trace 0

Prints the environment stamp and every metric with its unit, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time to measure (at least 200 requests are sent)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubelens" / "__init__.py").is_file():
        print(f"no cubelens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import harness

    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(harness.report_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
