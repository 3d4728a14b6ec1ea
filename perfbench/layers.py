"""The layers of galq as the benchmark sees them, the bindings it wraps to
trace calls into them, and the per-layer metrics computed from the spans.

Layers are galq's modules.  Every public function bound at module level in
any of them is wrapped, including names one module imported from another
(``contraction.coherent_amplitudes``, ``coherent.build_xp``,
``projective.build_hamiltonian``).  A galq function's work is charged to the
module that defines it; a scipy function bound in a galq module
(``contraction.expm_multiply``, ``coset.expm``, ``cli.expm``) is charged to
the module that binds it.  Two constructors are wrapped as well, because
their validation and storage are the cost the metrics track:
``GalileiElement.__post_init__`` and ``FockOperator.__post_init__``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import types

from tracer import Tracer, outermost, self_times

LAYERS = ("algebra", "coset", "fock", "coherent", "projective", "contraction",
          "cli")
HARNESS = "harness"

GALILEI = "coset.GalileiElement"
FOCK_OPERATOR = "fock.FockOperator"
EVOLVERS = {"projective.schrodinger_evolve", "projective.hamilton_evolve"}
KERNELS = {"coherent.overlap_analytic", "coherent.matrix_element_xp"}
FOCK_BUILDERS = {"fock.build_ladder", "fock.build_xp", "fock.build_hamiltonian"}

TIME_UNITS = ("s", "us")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "contraction.emergence_s": ("s", "lower"),
    "contraction.propagate_s": ("s", "lower"),
    "contraction.hamiltonian_s": ("s", "lower"),
    "contraction.sweep_s": ("s", "lower"),
    "contraction.fock_levels_sum": ("count", "lower"),
    "contraction.fock_levels_max": ("count", "lower"),
    "contraction.hamiltonian_nnz": ("count", "lower"),
    "contraction.self_s": ("s", "lower"),
    "projective.evolve_s": ("s", "lower"),
    "projective.steps": ("count", "lower"),
    "projective.samples": ("count", "lower"),
    "projective.step_us": ("us", "lower"),
    "projective.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.runs": ("count", "lower"),
    "cli.failed": ("count", "lower"),
    "coherent.state_s": ("s", "lower"),
    "coherent.states": ("count", "lower"),
    "coherent.amplitudes_s": ("s", "lower"),
    "coherent.kernel_s": ("s", "lower"),
    "coherent.kernel_calls": ("count", "lower"),
    "coherent.residual_s": ("s", "lower"),
    "coherent.self_s": ("s", "lower"),
    "coset.group_s": ("s", "lower"),
    "coset.elements": ("count", "lower"),
    "coset.orbit_s": ("s", "lower"),
    "coset.calls": ("count", "lower"),
    "coset.self_s": ("s", "lower"),
    "algebra.self_s": ("s", "lower"),
    "algebra.calls": ("count", "lower"),
    "fock.build_s": ("s", "lower"),
    "fock.expi_s": ("s", "lower"),
    "fock.calls": ("count", "lower"),
    "fock.dense_bytes": ("B", "lower"),
    "fock.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _module(layer):
    return importlib.import_module(f"galq.{layer}")


def bindings():
    """(owner, attr, layer, func) for every binding the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = _module(layer)
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            origin = obj.__module__ or ""
            if origin.startswith("galq."):
                home = origin.split(".")[1]
                out.append((mod, attr, home, f"{home}.{obj.__name__}"))
            elif origin.startswith("scipy."):
                out.append((mod, attr, layer, f"{layer}.{attr}"))
    out.append((_module("coset").GalileiElement, "__post_init__", "coset",
                GALILEI))
    out.append((_module("fock").FockOperator, "__post_init__", "fock",
                FOCK_OPERATOR))
    return out


# --- counters: read from arguments and results, after the span closes ------

def _spec(args, kwargs):
    return kwargs["spec"] if "spec" in kwargs else args[1]


def _count_evolve(args, kwargs, result):
    return {"steps": _spec(args, kwargs).n_steps,
            "samples": int(result.times.size)}


def _count_emergence(args, kwargs, result):
    return {"levels_sum": int(sum(result.n_levels)),
            "levels_max": int(max(result.n_levels))}


def _count_nnz(args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _count_dense(args, kwargs, result):
    n = args[0].n_levels
    return {"dense_bytes": 16 * n * n}


def _count_cli(args, kwargs, result):
    argv = list(args[0] if args else kwargs["argv"])
    outdir = argv[argv.index("--outdir") + 1]
    written = sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())
    return {"failed": int(result != 0), "bytes": written}


COUNTERS = {
    "projective.schrodinger_evolve": _count_evolve,
    "projective.hamilton_evolve": _count_evolve,
    "contraction.classical_trajectory_emergence": _count_emergence,
    "contraction.sparse_internal_hamiltonian": _count_nnz,
    FOCK_OPERATOR: _count_dense,
    "cli.main": _count_cli,
}


def install(tracer: Tracer):
    """Wrap every binding; the caller restores them with tracer.restore()."""
    for owner, attr, layer, func in bindings():
        tracer.wrap(owner, attr, layer, func, COUNTERS.get(func))


# --- metrics of one traced pass ---------------------------------------------

def pass_metrics(spans, lo, hi):
    """Per-layer metrics of the traced pass ``spans[lo:hi]`` (root at lo)."""
    def total(funcs):
        return sum((spans[i].duration for i in outermost(spans, funcs, lo, hi)),
                   0.0)

    def count(funcs):
        return sum(1 for i in range(lo, hi) if spans[i].func in funcs)

    def calls(layer):
        return sum(1 for i in range(lo, hi) if spans[i].layer == layer)

    def values(funcs, key, idx=None):
        idx = range(lo, hi) if idx is None else idx
        return [spans[i].counts[key] for i in idx
                if spans[i].func in funcs and key in (spans[i].counts or ())]

    own = self_times(spans, lo, hi)
    layer_self = dict.fromkeys((*LAYERS, HARNESS), 0.0)
    for i, t in own.items():
        layer_self[spans[i].layer] += t

    evolve_top = outermost(spans, EVOLVERS, lo, hi)
    evolve_s = sum((spans[i].duration for i in evolve_top), 0.0)
    steps = sum(values(EVOLVERS, "steps", evolve_top))
    cli_runs = set(outermost(spans, {"cli.main"}, lo, hi))
    coset_top = [i for i in range(lo, hi) if spans[i].layer == "coset"
                 and spans[spans[i].parent].layer != "coset"]
    in_cli = {i for i in coset_top if _has_ancestor(spans, i, cli_runs)}
    emergence = "contraction.classical_trajectory_emergence"

    m = {
        "contraction.emergence_s": total({emergence}),
        "contraction.propagate_s": total({"contraction.expm_multiply"}),
        "contraction.hamiltonian_s":
            total({"contraction.sparse_internal_hamiltonian"}),
        "contraction.sweep_s": total({"contraction.overlap_decay_sweep"}),
        "contraction.fock_levels_sum": sum(values({emergence}, "levels_sum")),
        "contraction.fock_levels_max":
            max(values({emergence}, "levels_max"), default=0),
        "contraction.hamiltonian_nnz":
            sum(values({"contraction.sparse_internal_hamiltonian"}, "nnz")),
        "projective.evolve_s": evolve_s,
        "projective.steps": steps,
        "projective.samples": sum(values(EVOLVERS, "samples", evolve_top)),
        "projective.step_us": 1e6 * evolve_s / steps if steps else 0.0,
        "cli.bytes_written": sum(values({"cli.main"}, "bytes")),
        "cli.runs": count({"cli.main"}),
        "cli.failed": sum(values({"cli.main"}, "failed")),
        "coherent.state_s": total({"coherent.coherent_state"}),
        "coherent.states": count({"coherent.coherent_state"}),
        "coherent.amplitudes_s": total({"coherent.coherent_amplitudes"}),
        "coherent.kernel_s": total(KERNELS),
        "coherent.kernel_calls": count(KERNELS),
        "coherent.residual_s": total({"coherent.overcompleteness_residual"}),
        "coset.group_s": sum((spans[i].duration for i in coset_top
                              if i not in in_cli), 0.0),
        "coset.elements": count({GALILEI}),
        "coset.orbit_s": sum((spans[i].duration for i in in_cli), 0.0),
        "coset.calls": calls("coset"),
        "algebra.calls": calls("algebra"),
        "fock.build_s": total(FOCK_BUILDERS),
        "fock.expi_s": total({"fock.expi_hermitian"}),
        "fock.calls": calls("fock"),
        "fock.dense_bytes": sum(values({FOCK_OPERATOR}, "dense_bytes")),
        "trace.pass_s": spans[lo].duration,
        "trace.spans": hi - lo,
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    return m


def _has_ancestor(spans, i, targets):
    parent = spans[i].parent
    while parent is not None:
        if parent in targets:
            return True
        parent = spans[parent].parent
    return False


def summarize(per_pass, untraced_pass_s):
    """Each metric over the traced passes (the median for times, the low
    median for counts, so a count stays a whole number), plus the overhead
    of tracing: median traced pass time minus median untraced pass time."""
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name in per_pass[0]:
            pick = (statistics.median if unit in TIME_UNITS
                    else statistics.median_low)
            out[name] = pick(m[name] for m in per_pass)
    out["trace.untraced_pass_s"] = statistics.median(untraced_pass_s)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return {name: out[name] for name in PER_LAYER}


def self_time_gap(metrics):
    """How far the self times of one traced pass miss its duration."""
    own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    return abs(own - metrics["trace.pass_s"])
