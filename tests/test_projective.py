"""Coordinate map, Schrodinger vs Hamilton flows, ray diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from galq import coherent, fock, projective
from galq.errors import ValidationError
from oracles import basis_state, exact_evolve


def coherent_psi(n_levels, p, x):
    return coherent.coherent_state(coherent.CoherentLabel(p, x), n_levels)


def test_vacuum_coordinates():
    coords = projective.to_coordinates(basis_state(8, 0))
    expected_q = np.zeros(8)
    expected_q[0] = math.sqrt(2.0)
    np.testing.assert_allclose(coords.q, expected_q, atol=1e-15)
    np.testing.assert_allclose(coords.p, np.zeros(8), atol=1e-15)


def test_zero_vector_maps_to_zero():
    z = fock.StateVector(4, np.zeros(4, dtype=complex))
    coords = projective.to_coordinates(z)
    assert np.all(coords.q == 0.0) and np.all(coords.p == 0.0)


def test_coordinate_roundtrip():
    rng = np.random.default_rng(4)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi = fock.StateVector(16, amps)
    coords = projective.to_coordinates(psi)
    # the array maps work on stacks of any shape, entry by entry
    stack = amps.reshape(2, 2, 4)
    q, p = projective.amplitudes_to_coordinates(stack)
    np.testing.assert_array_equal(q.ravel(), coords.q)
    np.testing.assert_array_equal(p.ravel(), coords.p)
    # q + i p = sqrt(2) c, so sum(q^2 + p^2) / 2 is the squared norm
    assert np.sum(q**2 + p**2) / 2.0 == pytest.approx(psi.norm**2, rel=1e-13)
    np.testing.assert_allclose(
        projective.coordinates_to_amplitudes(q, p), stack, atol=1e-14)


def test_spec_validation():
    h = fock.build_hamiltonian("harmonic", 8)
    nonherm = fock.FockOperator(8, np.triu(np.ones((8, 8))))
    with pytest.raises(ValidationError):
        projective.EvolutionSpec(nonherm, 1.0, 0.1)
    with pytest.raises(ValidationError):
        projective.EvolutionSpec(h, 1.0, -0.1)
    with pytest.raises(ValidationError):
        projective.EvolutionSpec(h, 1.0, 2.0)  # dt > t_final
    projective.EvolutionSpec(h, 0.0, 0.1)  # t_final = 0 is a valid no-op
    # evolution runs in internal units; the Hamiltonian's tag is its one hbar
    with pytest.raises(ValidationError, match=r"tagged hbar=0\.5"):
        projective.EvolutionSpec(fock.build_hamiltonian("harmonic", 8, 0.5),
                                 1.0, 0.1)


def test_spec_rejects_unstable_step():
    # the RK4 amplification 1 + z + ... + z^4/4! has modulus 1 at z = i*limit
    y = projective.STABILITY_LIMIT
    assert abs(sum((1j * y) ** k / math.factorial(k) for k in range(5))) \
        == pytest.approx(1.0, abs=1e-12)
    h = fock.FockOperator(4, 2.0 * np.eye(4))  # rho(H) = 2
    projective.EvolutionSpec(h, 10.0, 1.25)  # dt * rho = 2.5 < 2 sqrt(2)
    with pytest.raises(ValidationError, match="use dt <= 1.4"):
        projective.EvolutionSpec(h, 10.0, 2.0)
    projective.EvolutionSpec(h, 0.0, 2.0)  # no step is taken


def test_eigenstate_is_stationary_ray():
    n_levels = 32
    h = fock.build_hamiltonian("harmonic", n_levels)
    spec = projective.EvolutionSpec(h, 2.0, 1e-3, store_every=200)
    traj = projective.schrodinger_evolve(basis_state(n_levels, 0), spec)
    overlaps = np.abs(traj.states @ basis_state(n_levels, 0).amplitudes.conj())
    np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)
    # but the phase itself rotates at the ground energy E = 1/2
    phase = np.angle(traj.states[-1, 0])
    assert phase == pytest.approx(-0.5 * traj.times[-1], abs=1e-6)


def test_harmonic_expectations_follow_classical_oscillator():
    n_levels = 32
    x0, p0 = 1.0, 0.5
    h = fock.build_hamiltonian("harmonic", n_levels)
    spec = projective.EvolutionSpec(h, 10.0, 1e-3, store_every=100)
    traj = projective.schrodinger_evolve(coherent_psi(n_levels, p0, x0), spec)
    x_op, p_op = fock.build_xp(n_levels)
    xs = traj.expectation_series(x_op)
    ps = traj.expectation_series(p_op)
    t = traj.times
    np.testing.assert_allclose(xs, x0 * np.cos(t) + p0 * np.sin(t), atol=1e-6)
    np.testing.assert_allclose(ps, p0 * np.cos(t) - x0 * np.sin(t), atol=1e-6)


def test_free_particle_drift():
    n_levels = 64
    x0, p0 = 1.0, 0.5
    h = fock.build_hamiltonian("free", n_levels)
    spec = projective.EvolutionSpec(h, 2.0, 1e-3, store_every=100)
    traj = projective.schrodinger_evolve(coherent_psi(n_levels, p0, x0), spec)
    x_op, _ = fock.build_xp(n_levels)
    xs = traj.expectation_series(x_op)
    np.testing.assert_allclose(xs, x0 + p0 * traj.times, atol=1e-6)


def test_norm_drift_small():
    n_levels = 32
    h = fock.build_hamiltonian("quartic", n_levels, lam=0.1)
    spec = projective.EvolutionSpec(h, 10.0, 1e-3, store_every=500)
    traj = projective.schrodinger_evolve(coherent_psi(n_levels, 0.5, 1.0), spec)
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-8


def test_constant_hamiltonian_rotates_coordinates_rigidly():
    n_levels = 6
    energy = 0.7
    h = fock.FockOperator(n_levels, energy * np.eye(n_levels))
    rng = np.random.default_rng(9)
    q0 = rng.normal(size=n_levels)
    p0 = rng.normal(size=n_levels)
    c0 = projective.PhaseCoordinates(n_levels, q0, p0)
    spec = projective.EvolutionSpec(h, 3.0, 1e-3, store_every=300)
    traj = projective.hamilton_evolve(c0, spec)
    for t, q, p in zip(traj.times, traj.q, traj.p):
        ang = energy * t
        np.testing.assert_allclose(q, q0 * np.cos(ang) + p0 * np.sin(ang),
                                   atol=1e-9)
        np.testing.assert_allclose(p, p0 * np.cos(ang) - q0 * np.sin(ang),
                                   atol=1e-9)


def test_zero_hamiltonian_freezes_coordinates():
    n_levels = 5
    h = fock.FockOperator(n_levels, np.zeros((n_levels, n_levels)))
    c0 = projective.PhaseCoordinates(n_levels, np.ones(n_levels),
                                     -np.ones(n_levels))
    traj = projective.hamilton_evolve(c0, projective.EvolutionSpec(h, 1.0, 0.1))
    np.testing.assert_array_equal(traj.q[-1], c0.q)
    np.testing.assert_array_equal(traj.p[-1], c0.p)


@pytest.mark.parametrize("kind,lam", [("harmonic", 0.0), ("quartic", 0.1)])
def test_flows_equivalent(kind, lam):
    n_levels = 32
    h = fock.build_hamiltonian(kind, n_levels, lam=lam)
    spec = projective.EvolutionSpec(h, 10.0, 1e-3, store_every=100)
    psi0 = coherent_psi(n_levels, 0.5, 1.0)
    assert projective.equivalence_report(psi0, spec) <= 1e-6


def test_equivalence_zero_time():
    h = fock.build_hamiltonian("harmonic", 8)
    spec = projective.EvolutionSpec(h, 0.0, 1e-3)
    assert projective.equivalence_report(basis_state(8, 0), spec) == 0.0


def test_energy_conserved_along_hamilton_flow():
    n_levels = 32
    h = fock.build_hamiltonian("quartic", n_levels, lam=0.1)
    spec = projective.EvolutionSpec(h, 10.0, 1e-3, store_every=100)
    c0 = projective.to_coordinates(coherent_psi(n_levels, 0.5, 1.0))
    traj = projective.hamilton_evolve(c0, spec)
    energies = traj.energy_series(h)
    assert np.max(np.abs(energies - energies[0])) <= 1e-8


def test_rk4_fourth_order_against_exact_propagator():
    n_levels = 16
    h = fock.build_hamiltonian("harmonic", n_levels)
    psi0 = coherent_psi(n_levels, 0.3, 0.8)

    def deviation(dt):
        spec = projective.EvolutionSpec(h, 2.0, dt,
                                        store_every=int(round(2.0 / dt)))
        traj = projective.schrodinger_evolve(psi0, spec)
        exact = exact_evolve(psi0, h, traj.times)
        return np.max(np.abs(traj.states - exact.states))

    ratio = deviation(0.02) / deviation(0.01)
    assert 10.0 < ratio < 24.0  # 4th order: ~2**4


def test_gradients_match_finite_differences():
    n_levels = 24
    h = fock.build_hamiltonian("quartic", n_levels, lam=0.2)
    rng = np.random.default_rng(10)
    q = rng.normal(size=n_levels)
    p = rng.normal(size=n_levels)
    gq, gp = projective.hamiltonian_gradients(q, p, h)
    step = 1e-5
    fd_q = np.empty(n_levels)
    fd_p = np.empty(n_levels)
    for n in range(n_levels):
        e = np.zeros(n_levels)
        e[n] = step
        fd_q[n] = (projective.hamiltonian_function(q + e, p, h)
                   - projective.hamiltonian_function(q - e, p, h)) / (2 * step)
        fd_p[n] = (projective.hamiltonian_function(q, p + e, h)
                   - projective.hamiltonian_function(q, p - e, h)) / (2 * step)
    scale = max(np.max(np.abs(gq)), np.max(np.abs(gp)))
    assert np.max(np.abs(fd_q - gq)) / scale <= 1e-6
    assert np.max(np.abs(fd_p - gp)) / scale <= 1e-6


def test_ray_invariants_phase_insensitive():
    psi = coherent_psi(48, 1.5, -0.5)
    base, sens = projective.ray_invariants(psi, seed=123)
    assert sens <= 1e-12
    assert base[0] == pytest.approx(-0.5, abs=1e-9)  # <X> = x label
    assert base[1] == pytest.approx(1.5, abs=1e-9)   # <P> = p label
    rotated = fock.StateVector(48, np.exp(1j * math.pi / 3) * psi.amplitudes)
    base2, _ = projective.ray_invariants(rotated, seed=123)
    np.testing.assert_allclose(base2, base, atol=1e-12)


def test_ray_invariants_vacuum():
    base, sens = projective.ray_invariants(basis_state(16, 0))
    assert base[0] == pytest.approx(0.0, abs=1e-14)
    assert base[1] == pytest.approx(0.0, abs=1e-14)
    assert base[2] == pytest.approx(0.5, abs=1e-12)
    assert sens <= 1e-12


def loop_amplitudes(h, c, spec):
    """Reference RK4 on the amplitudes, one explicit step at a time."""
    dt = spec.dt_actual
    out = [c]
    for _ in range(spec.n_steps):
        k1 = -1j * (h @ c)
        k2 = -1j * (h @ (c + 0.5 * dt * k1))
        k3 = -1j * (h @ (c + 0.5 * dt * k2))
        k4 = -1j * (h @ (c + dt * k3))
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(c)
    return np.array(out)


def loop_coordinates(h, q, p, spec):
    """Reference RK4 on (q, p), one explicit step at a time."""
    a, b, dt = h.real, h.imag, spec.dt_actual

    def rhs(qv, pv):
        return a @ pv + b @ qv, b @ pv - a @ qv

    out = [np.concatenate((q, p))]
    for _ in range(spec.n_steps):
        k1q, k1p = rhs(q, p)
        k2q, k2p = rhs(q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p = rhs(q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p = rhs(q + dt * k3q, p + dt * k3p)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        out.append(np.concatenate((q, p)))
    return np.array(out)


@given(n_levels=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       n_steps=st.integers(0, 40), store_every=st.integers(1, 45),
       dt=st.floats(0.01, 0.5), stiffness=st.floats(0.05, 0.95))
@example(n_levels=4, seed=1, n_steps=0, store_every=1, dt=0.1, stiffness=0.5)
@example(n_levels=4, seed=2, n_steps=23, store_every=5, dt=0.1, stiffness=0.5)
def test_propagators_match_explicit_step_loop(n_levels, seed, n_steps,
                                              store_every, dt, stiffness):
    rng = np.random.default_rng(seed)
    m = (rng.normal(size=(n_levels, n_levels))
         + 1j * rng.normal(size=(n_levels, n_levels)))
    m = m + m.conj().T
    # dt * rho(H) = stiffness * RK4's stability limit
    rho = np.max(np.abs(np.linalg.eigvalsh(m)))
    h = m * (stiffness * projective.STABILITY_LIMIT / (dt * rho))
    spec = projective.EvolutionSpec(fock.FockOperator(n_levels, h),
                                    n_steps * dt, dt, store_every=store_every)
    idx, times = projective._sample_times(spec)
    assert idx.tolist() == sorted({*range(0, n_steps + 1, store_every),
                                   n_steps})
    amps = rng.normal(size=n_levels) + 1j * rng.normal(size=n_levels)
    psi0 = fock.StateVector(n_levels, amps)
    c0 = projective.to_coordinates(psi0)

    def close(got, want):
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    ref = loop_coordinates(h, c0.q, c0.p, spec)[idx]
    ctraj = projective.hamilton_evolve(c0, spec)
    np.testing.assert_array_equal(ctraj.times, times)
    close(np.concatenate((ctraj.q, ctraj.p), axis=1), ref)
    straj = projective.schrodinger_evolve(psi0, spec)
    np.testing.assert_array_equal(straj.times, times)
    assert straj.states.shape == (len(idx), n_levels)
    close(straj.states, loop_amplitudes(h, psi0.amplitudes, spec)[idx])
