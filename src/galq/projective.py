"""Quantum dynamics in the symplectic picture: real homogeneous coordinates
(q_n, p_n) on Fock amplitudes, Schrodinger integration of the amplitude
vector, and the equivalent Hamilton flow of the coordinates.

The coordinate map is amplitude_n = (q_n + i p_n)/sqrt(2 hbar).  With the
Hamiltonian function H(q, p) = <phi|H|phi> this scaling makes the Hamilton
equations dq/dt = dH/dp, dp/dt = -dH/dq literally identical to
i hbar d|phi>/dt = H|phi>, which is what ``equivalence_report`` checks by
integrating both forms independently (complex arithmetic on amplitudes on
one side, real matrix arithmetic on coordinates on the other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import FockOperator, StateVector, build_hamiltonian, build_xp

METHODS = ("rk4", "symplectic_leapfrog")


@dataclass(frozen=True, eq=False)
class PhaseCoordinates:
    """Real coordinate pair (q, p) for a state, at a fixed hbar scaling."""

    n_levels: int
    q: np.ndarray
    p: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != (self.n_levels,) or p.shape != (self.n_levels,):
            raise ValidationError("coordinate shapes must match n_levels")
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def squared_norm(self):
        """State norm^2 = sum(q^2 + p^2) / (2 hbar)."""
        return float(np.sum(self.q**2 + self.p**2) / (2.0 * self.hbar))


def to_coordinates(psi, hbar=1.0):
    """q_n + i p_n = sqrt(2 hbar) amplitude_n."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    s = math.sqrt(2.0 * hbar)
    return PhaseCoordinates(psi.n_levels, s * psi.amplitudes.real,
                            s * psi.amplitudes.imag, hbar)


def from_coordinates(coords):
    s = math.sqrt(2.0 * coords.hbar)
    return StateVector(coords.n_levels, (coords.q + 1j * coords.p) / s)


@dataclass(frozen=True, eq=False)
class EvolutionSpec:
    """Hamiltonian plus integration controls shared by both evolvers."""

    hamiltonian: FockOperator
    t_final: float
    dt: float
    method: str = "rk4"
    hbar: float = 1.0
    store_every: int = 1

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValidationError("Hamiltonian must be Hermitian")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.t_final < 0:
            raise ValidationError("t_final must be >= 0")
        if self.t_final > 0 and self.dt > self.t_final + 1e-15:
            raise ValidationError("dt must not exceed t_final")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}")
        if self.store_every < 1:
            raise ValidationError("store_every must be >= 1")
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")

    @property
    def n_steps(self):
        if self.t_final == 0:
            return 0
        n = int(round(self.t_final / self.dt))
        if abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            n = int(math.ceil(self.t_final / self.dt))
        return max(n, 1)

    @property
    def dt_actual(self):
        return self.t_final / self.n_steps if self.n_steps else self.dt


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    times: np.ndarray
    states: np.ndarray  # (n_samples, n_levels) complex

    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def expectation_series(self, op):
        out = np.einsum("ti,ij,tj->t", self.states.conj(), op.matrix,
                        self.states)
        return out.real if op.is_hermitian(1e-10) else out


@dataclass(frozen=True, eq=False)
class CoordinateTrajectory:
    times: np.ndarray
    q: np.ndarray  # (n_samples, n_levels)
    p: np.ndarray
    hbar: float

    def energy_series(self, op):
        c = (self.q + 1j * self.p) / math.sqrt(2.0 * self.hbar)
        return np.einsum("ti,ij,tj->t", c.conj(), op.matrix, c).real


def hamiltonian_function(q, p, h_op, hbar=1.0):
    """H(q, p) = <phi(q, p)| H |phi(q, p)> under the fixed scaling."""
    c = (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0 * hbar)
    return float(np.real(np.vdot(c, h_op.matrix @ c)))


def hamiltonian_gradients(q, p, h_op, hbar=1.0):
    """Analytic (dH/dq, dH/dp) of the bilinear Hamiltonian function."""
    c = (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0 * hbar)
    w = h_op.matrix @ c
    s = math.sqrt(2.0 / hbar)
    return s * w.real, s * w.imag


def _sample_times(spec):
    n = spec.n_steps
    idx = list(range(0, n + 1, spec.store_every))
    if idx[-1] != n:
        idx.append(n)
    return np.asarray(idx), np.asarray(idx) * spec.dt_actual


def schrodinger_evolve(psi0, spec):
    """Integrate i hbar dc/dt = H c on the amplitude vector.

    rk4 works for any Hermitian H; symplectic_leapfrog delegates to the
    coordinate form (it is the same splitting) and therefore requires a
    real-symmetric Hamiltonian matrix.
    """
    if psi0.n_levels != spec.hamiltonian.n_levels:
        raise ValidationError("state and Hamiltonian dimensions differ")
    if spec.method == "symplectic_leapfrog":
        traj = hamilton_evolve(to_coordinates(psi0, spec.hbar), spec)
        states = (traj.q + 1j * traj.p) / math.sqrt(2.0 * spec.hbar)
        return StateTrajectory(traj.times, states)
    h = spec.hamiltonian.matrix
    factor = -1j / spec.hbar
    dt = spec.dt_actual
    idx, times = _sample_times(spec)
    keep = {int(i): k for k, i in enumerate(idx)}
    states = np.empty((len(idx), psi0.n_levels), dtype=complex)
    c = psi0.amplitudes.astype(complex)
    if 0 in keep:
        states[keep[0]] = c
    for step in range(1, spec.n_steps + 1):
        k1 = factor * (h @ c)
        k2 = factor * (h @ (c + 0.5 * dt * k1))
        k3 = factor * (h @ (c + 0.5 * dt * k2))
        k4 = factor * (h @ (c + dt * k3))
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in keep:
            states[keep[step]] = c
    return StateTrajectory(times, states)


def hamilton_evolve(c0, spec):
    """Integrate dq/dt = dH/dp, dp/dt = -dH/dq in real arithmetic.

    For Hermitian H = A + iB (A symmetric, B antisymmetric) the analytic
    gradients give dq/dt = (A p + B q)/hbar, dp/dt = (B p - A q)/hbar.
    """
    if c0.n_levels != spec.hamiltonian.n_levels:
        raise ValidationError("coordinates and Hamiltonian dimensions differ")
    if c0.hbar != spec.hbar:
        raise ValidationError("coordinate scaling and spec disagree on hbar")
    a = np.ascontiguousarray(spec.hamiltonian.matrix.real)
    b = np.ascontiguousarray(spec.hamiltonian.matrix.imag)
    hbar = spec.hbar
    dt = spec.dt_actual
    idx, times = _sample_times(spec)
    keep = {int(i): k for k, i in enumerate(idx)}
    qs = np.empty((len(idx), c0.n_levels))
    ps = np.empty_like(qs)
    q = c0.q.copy()
    p = c0.p.copy()
    if 0 in keep:
        qs[keep[0]], ps[keep[0]] = q, p

    if spec.method == "symplectic_leapfrog":
        if np.max(np.abs(b)) > 1e-12:
            raise ValidationError(
                "symplectic_leapfrog needs a real-symmetric Hamiltonian matrix")
        for step in range(1, spec.n_steps + 1):
            p_half = p - (0.5 * dt / hbar) * (a @ q)
            q = q + (dt / hbar) * (a @ p_half)
            p = p_half - (0.5 * dt / hbar) * (a @ q)
            if step in keep:
                qs[keep[step]], ps[keep[step]] = q, p
        return CoordinateTrajectory(times, qs, ps, hbar)

    def rhs(qv, pv):
        return (a @ pv + b @ qv) / hbar, (b @ pv - a @ qv) / hbar

    for step in range(1, spec.n_steps + 1):
        k1q, k1p = rhs(q, p)
        k2q, k2p = rhs(q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p = rhs(q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p = rhs(q + dt * k3q, p + dt * k3p)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if step in keep:
            qs[keep[step]], ps[keep[step]] = q, p
    return CoordinateTrajectory(times, qs, ps, hbar)


def exact_evolve(psi0, h_op, times, hbar=1.0):
    """Eigendecomposition propagator; the reference flow used to check the
    integrators' convergence order."""
    if not h_op.is_hermitian(1e-10):
        raise ValidationError("Hamiltonian must be Hermitian")
    w, v = np.linalg.eigh(h_op.matrix)
    coeff = v.conj().T @ psi0.amplitudes
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(times, w) / hbar)
    return StateTrajectory(times, (phases * coeff) @ v.T)


def trajectory_deviation(straj, ctraj):
    """Max over sampled times of the Euclidean distance between the
    coordinates of an amplitude trajectory and a coordinate trajectory."""
    s = math.sqrt(2.0 * ctraj.hbar)
    dq = s * straj.states.real - ctraj.q
    dp = s * straj.states.imag - ctraj.p
    dist = np.sqrt(np.sum(dq**2 + dp**2, axis=1))
    return float(np.max(dist)) if dist.size else 0.0


def equivalence_report(psi0, spec):
    """:func:`trajectory_deviation` between the two independent
    integrations of psi0 under spec."""
    straj = schrodinger_evolve(psi0, spec)
    ctraj = hamilton_evolve(to_coordinates(psi0, spec.hbar), spec)
    return trajectory_deviation(straj, ctraj)


def ray_invariants(psi, x_op=None, p_op=None, h_op=None, n_phases=16,
                   seed=0):
    """Physical expectations <X>, <P>, <H> and their worst-case change under
    random global phases (zero for anything deserving the name observable)."""
    n = psi.n_levels
    if x_op is None or p_op is None:
        x_def, p_def = build_xp(n, 1.0)
        x_op = x_op or x_def
        p_op = p_op or p_def
    if h_op is None:
        h_op = build_hamiltonian("harmonic", n, 1.0)
    def expect(vec):
        return np.array([np.real(np.vdot(vec, op.matrix @ vec))
                         for op in (x_op, p_op, h_op)])
    base = expect(psi.amplitudes)
    rng = np.random.default_rng(seed)
    sensitivity = 0.0
    for phase in rng.uniform(0.0, 2.0 * math.pi, size=n_phases):
        shifted = expect(np.exp(1j * phase) * psi.amplitudes)
        sensitivity = max(sensitivity, float(np.max(np.abs(shifted - base))))
    return base, sensitivity
