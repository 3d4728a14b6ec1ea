"""Tests of the benchmark itself: seeded inputs, tracing, self-time
arithmetic, the result checks and one reduced-size pass per workload.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import layers
import run
import source
import workloads
from tracer import Span, Tracer, outermost, self_times


BINDINGS = layers.bindings()


def _snapshot():
    return {(id(owner), attr): getattr(owner, attr)
            for owner, attr, _, _ in BINDINGS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_deterministic_and_fixed_size(workload):
    first = workloads.make_inputs(workload, 7)
    again = workloads.make_inputs(workload, 7)
    np.testing.assert_equal(first, again)
    other = workloads.make_inputs(workload, 8)
    with pytest.raises(AssertionError):
        np.testing.assert_equal(first, other)
    sizes = [workloads.input_size(workloads.make_inputs(workload, s))
             for s in range(6)]
    assert all(s == sizes[0] for s in sizes)
    names = [[e.name for e in workloads.experiments(
        workloads.make_inputs(workload, s), True)] for s in range(3)]
    assert all(n == names[0] for n in names)


def test_sweep_pairs_keep_their_separations():
    for seed in range(5):
        pairs = workloads.make_inputs("classical-limit", seed)["pairs"]
        d2 = [(p1 - p2) ** 2 + (x1 - x2) ** 2 for (p1, x1), (p2, x2) in pairs]
        np.testing.assert_allclose(d2, [r[2] for r in workloads.SWEEP_PAIRS],
                                   rtol=1e-12)


def test_every_wrapped_binding_is_restored():
    before = _snapshot()
    import galq.coherent
    import galq.contraction
    import galq.projective
    originals = (galq.contraction.expm_multiply,
                 galq.contraction.coherent_amplitudes,
                 galq.coherent.build_xp, galq.projective.build_hamiltonian)
    with Tracer() as tracer:
        layers.install(tracer)
        wrapped = _snapshot()
        assert all(wrapped[k] is not before[k] for k in before)
        for fn in originals:
            assert fn not in wrapped.values()
    assert _snapshot() == before
    assert all(a is b for a, b in zip(_snapshot().values(), before.values()))


def test_bindings_include_cross_module_names():
    names = {(getattr(o, "__name__", ""), a): (layer, func)
             for o, a, layer, func in layers.bindings()}
    assert names[("galq.contraction", "coherent_amplitudes")] == (
        "coherent", "coherent.coherent_amplitudes")
    assert names[("galq.contraction", "expm_multiply")] == (
        "contraction", "contraction.expm_multiply")
    assert names[("galq.coherent", "build_xp")] == ("fock", "fock.build_xp")
    assert names[("galq.projective", "build_hamiltonian")] == (
        "fock", "fock.build_hamiltonian")


def _span(name, layer, start, end, parent):
    return Span(name, name, layer, start, end, parent, 0)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("harness.pass", "harness", 0.0, 10.0, None),
        _span("cli.main", "cli", 1.0, 6.0, 0),
        _span("coherent.coherent_state", "coherent", 2.0, 5.0, 1),
        _span("fock.expi_hermitian", "fock", 2.5, 4.0, 2),
        _span("coherent.coherent_state", "coherent", 7.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.5, 3: 1.5, 4: 2.0}
    assert sum(own.values()) == spans[0].duration
    assert outermost(spans, {"coherent.coherent_state"}) == [2, 4]
    assert outermost(spans, {"cli.main", "coherent.coherent_state"}) == [1, 4]
    m = layers.pass_metrics(spans, 0, len(spans))
    assert m["harness.self_s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert m["coherent.self_s"] == 3.5
    assert m["fock.self_s"] == 1.5
    assert m["coherent.state_s"] == 5.0
    assert m["coherent.states"] == 2
    assert layers.self_time_gap(m) == 0.0


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    holder = type("Holder", (), {})
    holder.__name__ = "galq.toy"
    holder.inner = staticmethod(lambda x: x + 1)
    holder.outer = staticmethod(lambda x: holder.inner(x) * 2)
    with tracer:
        tracer.wrap(holder, "inner", "toy", "toy.inner",
                    counter=lambda a, k, r: {"result": r})
        tracer.wrap(holder, "outer", "toy", "toy.outer")
        with tracer.span("harness.pass"):
            assert holder.outer(1) == 4
    assert [s.name for s in tracer.spans] == ["harness.pass", "toy.outer",
                                              "toy.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.spans[2].counts == {"result": 2}
    assert holder.outer(1) == 4 and len(tracer.spans) == 3


def _run_checked(exp, tmp_path):
    outdir = tmp_path / exp.name
    outdir.mkdir()
    outputs = exp.run(outdir)
    exp.check(outputs)
    return outputs


def _perturbations(name, outputs):
    """One wrong copy of each experiment's result."""
    bad = copy.deepcopy(outputs)
    if name == "group-law":
        bad[7, 1, 2] += 1e-9
    elif name == "kernel-grid":
        bad["overlap"][3, 5] += 1e-7
    elif name == "classical-harmonic":
        bad["doc"]["results"]["max_deviation"][-1] = 2e-6
    elif name == "classical-quartic":
        dev = bad["doc"]["results"]["max_deviation"]
        dev[1] = dev[0] * 1.01
    elif name == "decay-sweep":
        bad["doc"]["results"]["pairs"][2]["fitted_slope"] *= 1.01
    elif name.startswith("evolve-"):
        bad["csv"]["evolve_observables.csv"]["x"][-1] += 1e-5
    elif name == "overlap-cli":
        bad["csv"]["coherent_overlap.csv"]["im"][4] += 1e-7
    elif name == "algebra-verify":
        bad["doc"]["results"]["tables"]["hr3"]["x1p1_coeff_I_k=10.0"]["im"] = 0.02
    elif name.startswith("orbit-"):
        col = next(k for k in bad["csv"]["coset_orbit.csv"] if k != "step")
        bad["csv"]["coset_orbit.csv"][col][-1] += 1e-9
    else:
        raise AssertionError(f"no perturbation for {name}")
    return bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_perturbed_results(workload, tmp_path):
    inputs = workloads.make_inputs(workload, 3, small=True)
    for exp in workloads.experiments(inputs):
        outputs = _run_checked(exp, tmp_path)
        with pytest.raises(workloads.CheckFailed):
            exp.check(_perturbations(exp.name, outputs))


def test_check_rejects_nonzero_exit_and_false_pass(tmp_path):
    inputs = workloads.make_inputs("kernels", 3, small=True)
    exp = next(e for e in workloads.experiments(inputs)
               if e.name == "algebra-verify")
    outputs = _run_checked(exp, tmp_path)
    failed = dict(outputs, rc=2)
    with pytest.raises(workloads.CheckFailed, match="exit 2"):
        exp.check(failed)
    false_pass = copy.deepcopy(outputs)
    false_pass["doc"]["pass"] = False
    with pytest.raises(workloads.CheckFailed, match="pass"):
        exp.check(false_pass)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass_runs_end_to_end(workload, tmp_path):
    exps = workloads.experiments(workloads.make_inputs(workload, 5, small=True))
    seconds, failures = workloads.run_pass(exps, tmp_path / "plain")
    assert failures == [] and seconds > 0
    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    try:
        _, failures = workloads.run_pass(exps, tmp_path / "traced", tracer)
    finally:
        tracer.restore()
    assert failures == [] and _snapshot() == before
    m = layers.pass_metrics(tracer.spans, 0, len(tracer.spans))
    assert layers.self_time_gap(m) < 1e-9
    assert m["cli.runs"] > 0 and m["cli.failed"] == 0
    busy = {"classical-limit": "contraction.propagate_s",
            "dynamics": "projective.evolve_s",
            "kernels": "coherent.kernel_s"}[workload]
    assert m[busy] > 0


def test_known_failure_is_counted_when_included(tmp_path):
    inputs = workloads.make_inputs("dynamics", 0, small=True)
    exps = workloads.experiments(inputs, include_known_failures=True)
    assert [e.name for e in exps if e.known_failure] == [
        "evolve-quartic-leapfrog"]
    _, failures = workloads.run_pass(exps, tmp_path)
    # Leapfrog misses the 1e-8 drift gates, which fit RK4 only.
    assert [name for name, _ in failures] == ["evolve-quartic-leapfrog"]


def test_runner_refuses_a_tree_without_galq(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(source.BENCH_DIR, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(source.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no galq source" in proc.stderr


def test_setup_probes_spread_over_the_passes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "time_setup", lambda w, s: time.sleep(0.05) or 1.0)
    setup, due = run.setup_probes("kernels", 0, n=4)
    shares = []

    def between(share):
        shares.append((share, len(setup)))
        due(share)

    exp = workloads.Experiment("sleep", lambda outdir: time.sleep(0.05),
                               lambda out: None)
    untraced, *_ = workloads.measure([exp], 0.4, False, tmp_path / "w",
                                     between=between)
    # Probe time does not count against the measuring time: about eight
    # passes of 0.05 s fit in 0.4 s, although the probes add 0.2 s.
    assert len(untraced) >= 6
    # Probes run in step with the passes, not all at the start or the end.
    assert 0 < shares[len(shares) // 2][1] < 4
    due(1.0)
    assert setup == [1.0] * 4


def test_highest_percentile_needs_ten_samples_beyond():
    assert run.highest_percentile([1.0] * 19) is None
    assert run.highest_percentile([float(i) for i in range(20)])[0] == 50
    assert run.highest_percentile([float(i) for i in range(100)])[0] == 90


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_runner():
    with open(source.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in bench["workloads"])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(n, u, b) for n, (u, b) in layers.PER_LAYER.items()]
    names = [m["name"] for m in
             bench["workloads"] + bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert 1 <= bench["run_seconds"] <= 60
