"""Module-level names that the benchmark (perfbench/) wraps by name to time
its layers.

The repository's pytest collects only tests/, so perfbench/tests would not
notice a cleanup that drops or rebinds one of these names; this test does.
"""

import pytest
from scipy.sparse.linalg import expm_multiply

from galq import coherent, contraction, fock, projective


@pytest.mark.parametrize("module, name, target", [
    (contraction, "expm_multiply", expm_multiply),
    (contraction, "coherent_amplitudes", coherent.coherent_amplitudes),
    (coherent, "build_xp", fock.build_xp),
    (projective, "build_hamiltonian", fock.build_hamiltonian),
], ids=["contraction.expm_multiply", "contraction.coherent_amplitudes",
        "coherent.build_xp", "projective.build_hamiltonian"])
def test_benchmark_binding_is_bound(module, name, target):
    assert getattr(module, name, None) is target
