"""One fresh-interpreter set-up: import galq, numpy and scipy, build the
seeded inputs of a workload, and make one small call per layer.  ``run.py``
times this script end to end as ``setup_s``, which is what every ``galq``
invocation pays before its first useful operation.

    python3 perfbench/setup_probe.py --workload kernels --seed 0
"""

from __future__ import annotations

import argparse
import sys

import source


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        import workloads  # imports galq from src/ of this checkout
    except source.MissingSource as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.experiments(inputs)
    workloads.warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
