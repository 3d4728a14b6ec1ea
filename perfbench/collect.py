"""Run the benchmark over several seeds and summarize the spread of each
metric, with the machine it ran on.

    python3 perfbench/collect.py --workloads kernels,dynamics --seeds 0-9 \
        --trace 0 --out perfbench/baseline/untraced.json

For every metric it prints the median over the seeds and the spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  Runs go one after another, as the benchmark's command with
``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import source


def machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(source.BLAS_THREADS)}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Repeat benchmark runs.")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"),
                        help="range such as 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args(argv)
    with open(source.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=source.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - t0
            result["report"] = proc.stdout.strip().splitlines()[:-1]
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"correct {result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"median": statistics.median(values),
                     "unit": runs[0]["metrics"][name]["unit"]}
            if len(values) >= 2 and entry["median"]:
                entry["spread"] = spread(values)
            if bounds.get(name) is not None:
                entry["bound"] = bounds[name]
            summary[name] = entry
            print(f"  {name:30s} median {entry['median']:.6g} "
                  f"{entry['unit']}  spread {entry.get('spread', 0):.4f}"
                  + (f"  bound {entry['bound']}" if "bound" in entry else ""))
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
