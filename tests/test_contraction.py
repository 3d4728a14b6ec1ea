"""Relabeling, overlap decay, operator diagonalization, classical emergence."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammainc

from galq import coherent, contraction, fock, projective
from galq.coherent import CoherentLabel
from galq.errors import (DegenerateFitError, PrecisionError, ValidationError)
from oracles import exact_evolve

GRID = contraction.DEFAULT_HBAR_GRID


def occupation(*labels):
    """Largest mean Fock occupation |alpha|^2 over internal labels."""
    return max(float(np.sum(np.abs(lab.alpha) ** 2)) for lab in labels)


def test_relabel_examples():
    p, x = contraction.relabel(3.0, 5.0, 1.0)
    assert p == 3.0 and x == 5.0
    p, x = contraction.relabel(3.0, 5.0, 0.01)
    assert p == pytest.approx(0.3) and x == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        contraction.relabel(1.0, 1.0, 0.0)


def test_relabel_roundtrip():
    rng = np.random.default_rng(6)
    for hbar in (1.0, 0.37, 1e-4):
        p, x = rng.normal(size=2)
        pt, xt = contraction.relabel(p, x, hbar)
        p2, x2 = contraction.unrelabel(pt, xt, hbar)
        assert abs(p2 - p) <= 1e-14 * max(1.0, abs(p))
        assert abs(x2 - x) <= 1e-14 * max(1.0, abs(x))


@given(st.floats(-1e6, 1e6, allow_subnormal=False),
       st.floats(-1e6, 1e6, allow_subnormal=False),
       st.floats(1e-8, 1e4))
def test_relabel_and_unrelabel_are_inverse(p, x, hbar):
    for forth, back in ((contraction.relabel, contraction.unrelabel),
                        (contraction.unrelabel, contraction.relabel)):
        p2, x2 = back(*forth(p, x, hbar), hbar)
        assert abs(p2 - p) <= 1e-15 * abs(p) + 1e-290
        assert abs(x2 - x) <= 1e-15 * abs(x) + 1e-290


def test_relabeled_expectations():
    # <X_c> on the tilde-labeled state equals the tilde x label
    hbar = 0.04
    tilde = CoherentLabel(0.6, -0.8)
    internal = contraction.unscaled_label(tilde, hbar)
    n_levels = contraction.start_cutoff(occupation(internal))
    psi = coherent.coherent_state(internal, n_levels)
    x_op, p_op = fock.build_xp(n_levels, 1.0)  # internal units
    assert math.sqrt(hbar) * fock.expectation(x_op, psi) == pytest.approx(
        -0.8, abs=1e-8)
    assert math.sqrt(hbar) * fock.expectation(p_op, psi) == pytest.approx(
        0.6, abs=1e-8)


def test_sweep_spec_validation():
    pair = (CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0))
    with pytest.raises(ValidationError):
        contraction.SweepSpec([], [pair])
    with pytest.raises(ValidationError):
        contraction.SweepSpec([0.5, 1.0], [pair])  # ascending
    with pytest.raises(ValidationError):
        contraction.SweepSpec([1.0, -0.5], [pair])
    with pytest.raises(ValidationError):
        contraction.SweepSpec([1.0, 0.5], [])


def test_decay_slope_unit_separation():
    spec = contraction.SweepSpec(
        GRID, [(CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0))])
    rep = contraction.overlap_decay_sweep(spec)[0]
    assert rep.expected_slope == pytest.approx(-0.25)
    assert rep.slope_rel_error <= 1e-3
    assert rep.fitted_slope == pytest.approx(-0.25, rel=1e-6)


@pytest.mark.parametrize("dp,dx", [(0.5, 0.0), (0.6, 0.8), (1.0, 1.0),
                                   (0.0, 2.0)])
def test_decay_slope_general_separations(dp, dx):
    # delta^2 in [0.25, 4]
    spec = contraction.SweepSpec(
        GRID, [(CoherentLabel(0.1, -0.2), CoherentLabel(0.1 + dp, -0.2 + dx))])
    rep = contraction.overlap_decay_sweep(spec)[0]
    assert rep.expected_slope == pytest.approx(-(dp**2 + dx**2) / 4.0)
    assert rep.slope_rel_error <= 1e-3


def test_decay_overlap_strictly_decreasing():
    spec = contraction.SweepSpec(
        GRID, [(CoherentLabel(0.3, 0.3), CoherentLabel(-0.2, 0.9))])
    rep = contraction.overlap_decay_sweep(spec)[0]
    assert np.all(np.diff(rep.abs_overlap) < 0)
    assert np.all(rep.abs_overlap > 0) and np.all(rep.abs_overlap < 1)


def test_decay_numeric_column_matches_analytic():
    spec = contraction.SweepSpec(
        GRID, [(CoherentLabel(0.0, 0.0), CoherentLabel(1.0, 0.5))])
    rep = contraction.overlap_decay_sweep(spec)[0]
    assert not math.isnan(rep.max_numeric_gap)
    assert rep.max_numeric_gap <= 1e-8


def test_numeric_overlap_routes_agree():
    # displacement-operator brute force vs truncated series vs kernel
    for hbar in (1.0, 0.2):
        l1 = CoherentLabel(0.2, -0.4)
        l2 = CoherentLabel(-0.3, 0.6)
        i1 = contraction.unscaled_label(l1, hbar)
        i2 = contraction.unscaled_label(l2, hbar)
        n_levels = contraction.start_cutoff(occupation(i1, i2))
        u1 = coherent.displacement(i1, n_levels)
        u2 = coherent.displacement(i2, n_levels)
        vac = fock.vacuum(n_levels).amplitudes
        brute = complex(np.vdot(u1.matrix @ vac, u2.matrix @ vac))
        series = contraction.fock_overlap_series(l1, l2, hbar, n_levels)
        kernel = coherent.overlap_analytic(l1, l2, hbar)
        assert abs(brute - series) <= 1e-10
        assert abs(brute - kernel) <= 1e-8


@given(st.floats(min_value=0.0, max_value=5000.0))
def test_start_cutoff_is_smallest_poisson_quantile(mu):
    n = contraction.start_cutoff(mu)
    assert n >= contraction.MIN_LEVELS
    assert gammainc(n, mu) <= contraction.START_TAIL
    assert n == contraction.MIN_LEVELS or gammainc(n - 1, mu) > \
        contraction.START_TAIL


def test_start_cutoff_values():
    # mu = 500 is the default hbar = 1e-3 point of `contract classical`
    assert [contraction.start_cutoff(mu) for mu in (0.0, 0.5, 5.0, 50.0, 500.0)] \
        == [16, 16, 28, 108, 666]
    with pytest.raises(ValidationError):
        contraction.start_cutoff(math.nan)


def test_sweep_reports_start_cutoff():
    l1, l2 = CoherentLabel(0.0, 0.0), CoherentLabel(1.0, 0.5)
    rep = contraction.overlap_decay_sweep(
        contraction.SweepSpec((1.0, 0.01), [(l1, l2)], n_cap=100))[0]
    mus = [occupation(contraction.unscaled_label(l2, h)) for h in rep.hbar]
    assert rep.n_levels.tolist() == [contraction.start_cutoff(m) for m in mus]
    # the hbar = 0.01 cutoff passes n_cap: no numeric value there
    assert rep.n_levels[1] > 100 and math.isnan(rep.numeric_abs[1])
    assert abs(rep.numeric_abs[0] - rep.abs_overlap[0]) <= 1e-12


def test_degenerate_pair_rejected():
    lab = CoherentLabel(0.4, 0.4)
    spec = contraction.SweepSpec(GRID, [(lab, CoherentLabel(0.4, 0.4))])
    with pytest.raises(DegenerateFitError):
        contraction.overlap_decay_sweep(spec)


def test_self_overlap_stays_one():
    lab = CoherentLabel(0.7, -1.1)
    for hbar in GRID:
        assert coherent.overlap_analytic(lab, lab, hbar) == pytest.approx(1.0)


def test_diagonalization_examples():
    labels = [CoherentLabel(0.0, 0.0), CoherentLabel(1.0, 0.0)]
    ratio_1 = contraction.diagonalization_diagnostic(labels, 1.0)
    assert ratio_1 > 0.1
    ratio_small = contraction.diagonalization_diagnostic(labels, 0.01)
    assert ratio_small < 1e-10


def test_diagonalization_suppression_monotone_to_floor():
    grid = [1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
    # a p-separated pair, and an x-separated one: the position basis
    for labels in ([CoherentLabel(0.0, 0.0), CoherentLabel(1.0, 0.0)],
                   [CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0)]):
        ratios = [contraction.diagonalization_diagnostic(labels, h)
                  for h in grid]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-8
    # the position basis narrows: its Gram is the Gaussian exp(-d^2/(4 hbar))
    # and the X table sits on the centers, with off-diagonals that
    # underflow to exact zeros at hbar = 1e-4 (exp(-2500))
    for h in grid + [1e-4]:
        gram = coherent.overlap_analytic(labels[0], labels[1], h)
        assert gram == pytest.approx(math.exp(-1.0 / (4.0 * h)), rel=1e-14)
        mx, _ = contraction.matrix_element_tables(labels, h)
        assert np.all(np.diag(mx) == [0.0, 1.0])
    assert gram == 0.0
    assert mx[0, 1] == 0.0 and mx[1, 0] == 0.0


def test_diagonalization_tables_structure():
    labels = [CoherentLabel(0.5, -0.5), CoherentLabel(-0.5, 1.0)]
    mx, mp = contraction.matrix_element_tables(labels, 0.3)
    # diagonals are exactly the labels
    assert mx[0, 0] == pytest.approx(-0.5)
    assert mx[1, 1] == pytest.approx(1.0)
    assert mp[0, 0] == pytest.approx(0.5)
    assert mp[1, 1] == pytest.approx(-0.5)
    # Hermitian tables: M[i, j] = conj(M[j, i])
    assert mx[0, 1] == pytest.approx(np.conj(mx[1, 0]))


def test_diagonalization_validation():
    with pytest.raises(ValidationError):
        contraction.diagonalization_diagnostic([CoherentLabel(1.0, 0.0)], 1.0)
    with pytest.raises(ValidationError):
        contraction.diagonalization_diagnostic(
            [CoherentLabel(1.0, 0.0), CoherentLabel(1.0, 0.0)], 1.0)
    with pytest.raises(ValidationError):
        contraction.diagonalization_diagnostic(
            [CoherentLabel(0.0, 0.0),
             CoherentLabel(np.zeros(1) + 0.0, np.zeros(1))], 1.0)


def test_harmonic_emergence_deviation_tiny():
    rep = contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0, 0.1, 0.01], kind="harmonic", t_final=2.0)
    assert np.all(rep.max_deviation <= 1e-6)


def test_quartic_emergence_improves_with_hbar():
    rep = contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0, 0.1, 0.01], kind="quartic", lam=0.1, t_final=2.0)
    assert np.all(np.diff(rep.max_deviation) < 0)
    assert rep.max_deviation[0] / rep.max_deviation[-1] >= 10.0


def test_quartic_emergence_cutoff_verified_at_hbar_1():
    # the start cutoff (16) leaves edge mass 2e-3 here; with mu = 0.5 the
    # growth is plain doubling, which ends at 128, where the edge mass
    # first falls below EDGE_TOL
    rep = contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0], kind="quartic", lam=0.1, t_final=2.0)
    assert rep.n_levels[0] >= 128
    assert rep.edge_mass[0] <= contraction.EDGE_TOL
    with pytest.raises(PrecisionError, match="edge mass"):
        contraction.classical_trajectory_emergence(
            1.0, 0.0, [1.0], kind="quartic", lam=0.1, t_final=2.0, n_cap=64)


def test_quartic_emergence_matches_twice_the_cutoff():
    hbar, lam = 0.01, 0.1
    rep = contraction.classical_trajectory_emergence(
        1.0, 0.0, [hbar], kind="quartic", lam=lam, t_final=2.0)
    assert rep.edge_mass[0] <= contraction.EDGE_TOL
    # the start (108) fails; one step doubles its margin above mu (~50)
    internal = contraction.unscaled_label(CoherentLabel(0.0, 1.0), hbar)
    mu = occupation(internal)
    assert rep.n_levels[0] == 2 * contraction.start_cutoff(mu) - math.floor(mu)
    # independent rerun at 2N with the dense builders
    n = 2 * int(rep.n_levels[0])
    psi0 = coherent.coherent_amplitudes(internal, n).amplitudes
    h = fock.build_hamiltonian("quartic", n, 1.0, lam=lam * hbar).matrix
    states = expm_multiply(-1j * h, psi0, start=0.0, stop=2.0,
                           num=rep.times.size, endpoint=True)
    x_op, p_op = fock.build_xp(n, 1.0)
    s = math.sqrt(hbar)
    qx = s * np.einsum("ti,ij,tj->t", states.conj(), x_op.matrix, states).real
    qp = s * np.einsum("ti,ij,tj->t", states.conj(), p_op.matrix, states).real
    assert np.max(np.abs(qx - rep.quantum_x[0])) <= 1e-9
    assert np.max(np.abs(qp - rep.quantum_p[0])) <= 1e-9


def test_emergence_zero_time():
    rep = contraction.classical_trajectory_emergence(
        0.7, -0.3, [1.0, 0.1], kind="quartic", t_final=0.0)
    assert np.all(rep.max_deviation <= 1e-12)


def test_emergence_validation():
    with pytest.raises(ValidationError):
        contraction.classical_trajectory_emergence(1.0, 0.0, [1.0], kind="free")
    with pytest.raises(ValidationError):
        contraction.classical_trajectory_emergence(1.0, 0.0, [], kind="harmonic")
    with pytest.raises(PrecisionError):
        contraction.classical_trajectory_emergence(
            1.0, 0.0, [1e-5], kind="harmonic", n_cap=1024)


def test_sparse_hamiltonian_matches_dense_builder():
    for kind, lam in (("harmonic", 0.0), ("free", 0.0), ("quartic", 0.07)):
        sparse = contraction.sparse_internal_hamiltonian(kind, 16, lam_eff=lam)
        dense = fock.build_hamiltonian(kind, 16, 1.0, lam=lam)
        np.testing.assert_allclose(sparse.toarray(), dense.matrix, atol=1e-12)


def test_emergence_propagator_matches_exact_evolution():
    # the banded eigenbasis propagation against two independent oracles:
    # the dense eigendecomposition and scipy's Taylor-series propagator
    hbar = 0.25
    tilde = CoherentLabel(0.4, 0.9)
    internal = contraction.unscaled_label(tilde, hbar)
    n_levels = 64
    psi0 = coherent.coherent_amplitudes(internal, n_levels)
    times = np.linspace(0.0, 2.0, 11)
    for kind in ("harmonic", "free", "quartic"):
        h_dense = fock.build_hamiltonian(kind, n_levels, 1.0, lam=0.1 * hbar)
        h_sparse = contraction.sparse_internal_hamiltonian(kind, n_levels,
                                                           lam_eff=0.1 * hbar)
        states = contraction.eigen_propagate(h_sparse, psi0.amplitudes, times)
        exact = exact_evolve(psi0, h_dense, times)
        taylor = expm_multiply(-1j * h_sparse, psi0.amplitudes, start=0.0,
                               stop=2.0, num=11, endpoint=True)
        assert states.shape == (times.size, n_levels)
        assert np.max(np.abs(states - exact.states)) <= 1e-9, kind
        assert np.max(np.abs(states - taylor)) <= 1e-9, kind


def test_eigen_propagate_rejects_parity_mixing():
    h = contraction.sparse_internal_hamiltonian("quartic", 16, lam_eff=0.1)
    x, _ = fock.xp_matrices(fock.ladder_matrix(16))
    psi0 = fock.vacuum(16).amplitudes
    with pytest.raises(ValidationError, match="parities"):
        contraction.eigen_propagate(h + 1e-3 * x.real, psi0, [0.0, 1.0])


def test_eigen_propagate_memory_stays_linear_or_bounded():
    # a diagonal (harmonic) block is propagated as its own eigenbasis at
    # any cutoff; a banded block over the eigenbasis limit is refused
    # before anything of size N^2 is allocated
    n_levels = 20001
    h = contraction.sparse_internal_hamiltonian("harmonic", n_levels)
    psi0 = np.zeros(n_levels, dtype=complex)
    psi0[[0, 7, 20000]] = [0.6, 0.8j, 1e-3]
    times = np.array([0.0, 0.3, 2.0])
    exact = np.exp(-1j * np.outer(times, h.diagonal())) * psi0
    states = contraction.eigen_propagate(h, psi0, times)
    assert np.max(np.abs(states - exact)) <= 1e-12
    m = math.isqrt(contraction.EIGENBASIS_BYTES // 24) + 1
    h = contraction.sparse_internal_hamiltonian("quartic", 2 * m, lam_eff=1e-4)
    with pytest.raises(PrecisionError, match=f"{m}-level parity blocks"):
        contraction.eigen_propagate(h, np.zeros(2 * m), times)


def test_criterion_09_grid_keeps_its_cutoffs():
    # the verified cutoffs of criterion 09's grid from (x0, p0) = (1, 0)
    grid = (1.0, 0.1, 0.01, 0.001)
    harm = contraction.classical_trajectory_emergence(
        1.0, 0.0, grid, kind="harmonic", t_final=2.0)
    quart = contraction.classical_trajectory_emergence(
        1.0, 0.0, grid, kind="quartic", lam=0.1, t_final=2.0)
    assert harm.n_levels.tolist() == [16, 52, 108, 666]
    assert quart.n_levels.tolist() == [128, 100, 167, 832]
    assert np.all(harm.edge_mass <= contraction.EDGE_TOL)
    assert np.all(quart.edge_mass <= contraction.EDGE_TOL)


def test_classical_flow_quartic_conserves_energy():
    times = np.linspace(0.0, 5.0, 101)
    xs, ps = contraction.classical_flow(1.0, 0.0, times, kind="quartic",
                                        lam=0.1)
    energy = 0.5 * (xs**2 + ps**2) + 0.1 * xs**4
    assert np.max(np.abs(energy - energy[0])) <= 1e-10



@pytest.mark.parametrize("call", [
    pytest.param(lambda: contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0], t_final=math.nan), id="emergence-t_final"),
    pytest.param(lambda: contraction.classical_trajectory_emergence(
        1.0, 0.0, [math.nan]), id="emergence-hbar"),
    pytest.param(lambda: contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0], n_samples=0), id="emergence-n_samples"),
    pytest.param(lambda: coherent.overlap_analytic(
        CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0), math.nan),
        id="overlap-hbar"),
    pytest.param(lambda: contraction.diagonalization_diagnostic(
        [CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0)], math.nan),
        id="diagnostic-hbar"),
    pytest.param(lambda: coherent.overcompleteness_residual(
        8, math.nan, 0.5, n_check=4), id="residual-radius"),
    pytest.param(lambda: contraction.SweepSpec(
        [math.nan], [(CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0))]),
        id="sweep-hbar"),
    pytest.param(lambda: contraction.relabel(1.0, 1.0, math.nan),
                 id="relabel-hbar"),
    pytest.param(lambda: projective.EvolutionSpec(
        fock.build_hamiltonian("harmonic", 4), 1.0, math.nan),
        id="spec-dt"),
    pytest.param(lambda: projective.EvolutionSpec(
        fock.build_hamiltonian("harmonic", 4), math.nan, 0.1),
        id="spec-t_final"),
    pytest.param(lambda: fock.build_xp(4, math.nan), id="build_xp-hbar"),
    pytest.param(lambda: fock.build_hamiltonian("quartic", 4, lam=math.nan),
                 id="quartic-lam"),
    # infinity gets no further than NaN
    pytest.param(lambda: contraction.classical_trajectory_emergence(
        1.0, 0.0, [1.0], t_final=math.inf), id="emergence-t_final-inf"),
    pytest.param(lambda: contraction.classical_trajectory_emergence(
        1.0, 0.0, [math.inf]), id="emergence-hbar-inf"),
    pytest.param(lambda: coherent.overlap_analytic(
        CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0), math.inf),
        id="overlap-hbar-inf"),
    pytest.param(lambda: contraction.diagonalization_diagnostic(
        [CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0)], math.inf),
        id="diagnostic-hbar-inf"),
    pytest.param(lambda: coherent.overcompleteness_residual(
        8, math.inf, 0.5, n_check=4), id="residual-radius-inf"),
    pytest.param(lambda: coherent.overcompleteness_residual(
        8, 2.0, math.inf, n_check=4), id="residual-step-inf"),
    pytest.param(lambda: contraction.SweepSpec(
        [math.inf, 1.0],
        [(CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0))]),
        id="sweep-hbar-inf"),
    pytest.param(lambda: contraction.relabel(1.0, 1.0, math.inf),
                 id="relabel-hbar-inf"),
    pytest.param(lambda: contraction.unrelabel(1.0, 1.0, math.inf),
                 id="unrelabel-hbar-inf"),
    pytest.param(lambda: projective.EvolutionSpec(
        fock.build_hamiltonian("harmonic", 4), 0.0, math.inf),
        id="spec-dt-inf"),
    pytest.param(lambda: projective.EvolutionSpec(
        fock.build_hamiltonian("harmonic", 4), math.inf, 0.1),
        id="spec-t_final-inf"),
    pytest.param(lambda: fock.build_xp(4, math.inf), id="build_xp-hbar-inf"),
    pytest.param(lambda: fock.build_hamiltonian("quartic", 4, lam=math.inf),
                 id="quartic-lam-inf"),
    pytest.param(lambda: fock.FockOperator(2, np.eye(2), hbar=math.inf),
                 id="operator-hbar-inf"),
])
def test_nan_and_empty_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()
