"""galq benchmark: run one seeded workload for a fixed time and report its
metrics.

    python3 perfbench/run.py --workload classical-limit --seed 0 --seconds 30 --trace 0

Workloads: classical-limit, dynamics, kernels (see perfbench/README.md).
Each pass runs the workload's experiments one after another in this
process (a closed loop) and checks every result.  With ``--trace 0`` the run
reports the end-to-end metrics ``setup_s``, ``pass_s`` and ``peak_rss_mb``;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Experiments known to fail on the current code (the
leapfrog evolve run) are not run; the report names them.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit status 0 when a result was printed (even one with failed experiments),
2 without a galq source tree or for an unknown workload, and 1 when a
set-up probe fails; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import layers
import source

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PERCENTILES = (50, 75, 90, 95, 99)
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one galq benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the pass loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload, seed):
    """Wall time of one fresh-interpreter set-up in a new process.

    A blocking wait reaps the child as soon as it exits (``subprocess.run``
    with a timeout polls in steps of up to 50 ms); a timer kills a child
    that outlives PROBE_TIMEOUT_S.
    """
    cmd = [sys.executable, str(source.BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return time.perf_counter() - t0


def setup_probes(workload, seed, n=SETUP_PROBES):
    """(times, due): ``due(share)`` adds set-up probes until their count
    keeps pace with ``share`` of the run, so that the ``n`` probes spread
    over the run and sample the machine at several moments, not in one
    burst.  ``due(1.0)`` completes them."""
    times = []

    def due(share):
        while len(times) < min(n, n * share):
            times.append(time_setup(workload, seed))

    return times, due


def highest_percentile(samples):
    """(p, value) of the highest listed percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    fit = [p for p in PERCENTILES if len(samples) * (100 - p) >= 1000]
    if not fit:
        return None
    return fit[-1], statistics.quantiles(samples, n=100)[fit[-1] - 1]


def failure_lines(failures, attempted, skipped):
    lines = []
    for name in dict.fromkeys(n for n, _ in failures):
        messages = [m for n, m in failures if n == name]
        lines.append(f"  FAILED {name} ({len(messages)}x): {messages[0]}")
    if skipped:
        lines.append(f"  not run, known to fail on this code: "
                     f"{', '.join(skipped)}")
    lines.append(f"  failed_share {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.4g}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads  # imports galq from src/ of this checkout
    except source.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    exps = workloads.experiments(inputs)
    skipped = [e.name for e in workloads.experiments(
        inputs, include_known_failures=True) if e.known_failure]
    # set-up is reported by untraced runs only
    setup, due = ([], None) if args.trace else setup_probes(args.workload,
                                                              args.seed)
    workloads.warm_up()
    untraced, traced, tracer, ranges, failures = workloads.measure(
        exps, args.seconds, bool(args.trace),
        source.WORK_DIR / f"run-{os.getpid()}", between=due)
    if due is not None:
        due(1.0)

    attempted = len(exps) * (len(untraced) + len(traced))
    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{len(untraced)} untraced + {len(traced)} traced passes, "
             f"{attempted} experiments attempted, {len(failures)} failed"]
    lines += failure_lines(failures, attempted, skipped)
    if args.trace:
        per_pass = [layers.pass_metrics(tracer.spans, lo, hi)
                    for lo, hi in ranges]
        values = layers.summarize(per_pass, untraced)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        gap = max(layers.self_time_gap(m) for m in per_pass)
        spans_path = source.WORK_DIR / (
            f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(spans_path)
        lines += [f"  layer self times add up to each traced pass within "
                  f"{gap:.3g} s",
                  "  fock.dense_bytes is computed: 16 N^2 per FockOperator",
                  f"  {len(tracer.spans)} spans written to "
                  f"{spans_path.relative_to(source.ROOT)}"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.median(untraced),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
        tail = highest_percentile(untraced)
        lines += [f"  setup_s samples, {len(setup)} fresh interpreters "
                  f"spread over the run: "
                  + " ".join(f"{t:.4f}" for t in setup),
                  f"  pass_s samples, {len(untraced)} passes: "
                  + " ".join(f"{t:.4f}" for t in untraced),
                  f"  pass_s p{tail[0]} {tail[1]!r} s" if tail else
                  "  pass_s: no percentile has 10 passes beyond it"]
    for name, value in values.items():
        lines.append(f"  {name:30s} {value!r} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
