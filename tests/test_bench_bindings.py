"""Module-level names that the benchmark (perfbench/) wraps or calls by
name, and the signatures its calls bind to.

The repository's pytest collects only tests/, so perfbench/tests would not
notice a cleanup that drops or rebinds one of these names; this test does.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from galq import coherent, contraction, coset, fock, projective

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LAYERS = ("algebra", "cli", "coherent", "contraction", "coset", "fock",
          "projective")


@pytest.mark.parametrize("module, name, target", [
    (contraction, "coherent_amplitudes", coherent.coherent_amplitudes),
    (coherent, "build_xp", fock.build_xp),
    (projective, "build_hamiltonian", fock.build_hamiltonian),
], ids=["contraction.coherent_amplitudes", "coherent.build_xp",
        "projective.build_hamiltonian"])
def test_benchmark_binding_is_bound(module, name, target):
    assert getattr(module, name, None) is target


@pytest.mark.parametrize("cls, build", [
    (coset.GalileiElement,
     lambda: coset.GalileiElement(B=1.0, V=np.ones(3), R=np.eye(3))),
    (fock.FockOperator, lambda: fock.FockOperator(2, np.eye(2))),
], ids=["GalileiElement", "FockOperator"])
def test_constructor_hook_runs_on_every_construction(monkeypatch, cls, build):
    # the benchmark counts and times constructions from outside input by
    # wrapping this class attribute, as done here
    original = cls.__dict__.get("__post_init__")
    assert inspect.isfunction(original)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, "__post_init__", counted)
    made = [build(), build()]
    assert calls == made


def test_emergence_propagator_is_defined_in_contraction():
    # the propagation layer of the classical-limit workload times this name
    func = getattr(contraction, "eigen_propagate", None)
    assert inspect.isfunction(func)
    assert func.__module__ == "galq.contraction"


def _workloads_tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _is_layer_attribute(node):
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in LAYERS)


def test_every_galq_name_the_workloads_use_exists():
    used = {(node.value.id, node.attr) for node in ast.walk(_workloads_tree())
            if _is_layer_attribute(node)}
    assert used, "no galq attribute found in perfbench/workloads.py"
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(importlib.import_module(f"galq.{mod}"), attr))
    assert missing == []


def test_every_galq_call_the_workloads_make_binds():
    # a dropped or renamed parameter breaks the benchmark as surely as a
    # dropped name; a call with *args or **kwargs is not checked
    calls = [node for node in ast.walk(_workloads_tree())
             if isinstance(node, ast.Call) and _is_layer_attribute(node.func)
             and not any(isinstance(a, ast.Starred) for a in node.args)
             and all(k.arg is not None for k in node.keywords)]
    assert calls, "no galq call found in perfbench/workloads.py"
    unbound = []
    for call in calls:
        mod, name = call.func.value.id, call.func.attr
        func = getattr(importlib.import_module(f"galq.{mod}"), name)
        try:
            inspect.signature(func).bind(*call.args,
                                         **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {mod}.{name}: {exc}")
    assert unbound == []
