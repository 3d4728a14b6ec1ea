"""Module-level names that the benchmark (perfbench/) wraps or calls by
name.

The repository's pytest collects only tests/, so perfbench/tests would not
notice a cleanup that drops or rebinds one of these names; this test does.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from galq import coherent, contraction, fock, projective

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


def test_emergence_propagator_is_defined_in_contraction():
    # the propagation layer of the classical-limit workload times this name
    func = getattr(contraction, "eigen_propagate", None)
    assert inspect.isfunction(func)
    assert func.__module__ == "galq.contraction"


def test_every_galq_name_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in LAYERS}
    assert used, "no galq attribute found in perfbench/workloads.py"
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(importlib.import_module(f"galq.{mod}"), attr))
    assert missing == []
