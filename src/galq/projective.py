"""Quantum dynamics in the symplectic picture: real homogeneous coordinates
(q_n, p_n) on Fock amplitudes, Schrodinger integration of the amplitude
vector, and the equivalent Hamilton flow of the coordinates.

Units are internal (hbar = 1): both evolvers integrate i d|phi>/dt = H|phi>,
and an ``EvolutionSpec`` refuses a Hamiltonian tagged with any other hbar.
A physical hbar only rescales time (i hbar d/dt = H is i d/dt = H/hbar), so
it adds nothing here; it enters galq through galq.contraction's relabeling.

The coordinate map is q_n + i p_n = sqrt(2) amplitude_n.  With the
Hamiltonian function H(q, p) = <phi|H|phi> this scaling makes the Hamilton
equations dq/dt = dH/dp, dp/dt = -dH/dq literally identical to
i d|phi>/dt = H|phi>, which is what ``equivalence_report`` checks by
integrating both forms independently (complex arithmetic on amplitudes on
one side, real matrix arithmetic on coordinates on the other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import FockOperator, build_hamiltonian, build_xp

# Largest stable dt * rho(H): RK4's stability region meets the
# imaginary axis at +-2 sqrt(2).
STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class PhaseCoordinates:
    """Real coordinate pair (q, p) for a state: q + i p = sqrt(2) c."""

    n_levels: int
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != (self.n_levels,) or p.shape != (self.n_levels,):
            raise ValidationError("coordinate shapes must match n_levels")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def amplitudes_to_coordinates(c):
    """(q, p) with q + i p = sqrt(2) c, for amplitudes of any shape."""
    s = math.sqrt(2.0)
    return s * c.real, s * c.imag


def coordinates_to_amplitudes(q, p):
    """Amplitudes (q + i p)/sqrt(2), for coordinates of any shape."""
    return (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0)


def to_coordinates(psi):
    """q_n + i p_n = sqrt(2) amplitude_n."""
    return PhaseCoordinates(psi.n_levels,
                            *amplitudes_to_coordinates(psi.amplitudes))


@dataclass(frozen=True, eq=False)
class EvolutionSpec:
    """Hamiltonian plus integration controls shared by both evolvers.  The
    Hamiltonian's hbar tag is the only hbar a run carries, and it must be
    the internal hbar = 1."""

    hamiltonian: FockOperator
    t_final: float
    dt: float
    store_every: int = 1

    def __post_init__(self):
        if self.hamiltonian.hbar != 1.0:
            raise ValidationError(
                f"Hamiltonian is tagged hbar={self.hamiltonian.hbar!r}; "
                "evolution runs in internal units (hbar = 1)")
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValidationError("Hamiltonian must be Hermitian")
        if not (0 < self.dt < math.inf):
            raise ValidationError("dt must be positive")
        if not (0 <= self.t_final < math.inf):
            raise ValidationError("t_final must be >= 0")
        if self.t_final > 0 and self.dt > self.t_final + 1e-15:
            raise ValidationError("dt must not exceed t_final")
        if self.t_final / self.dt == math.inf:
            raise ValidationError("t_final / dt overflows: too many steps")
        if self.store_every < 1:
            raise ValidationError("store_every must be >= 1")
        if self.n_steps:
            self._check_stable()

    def _check_stable(self):
        """Reject a step outside RK4's stability interval, where the
        integration blows up instead of failing a tolerance."""
        rho = float(np.max(np.abs(np.linalg.eigvalsh(self.hamiltonian.matrix))))
        z = self.dt_actual * rho
        if z > STABILITY_LIMIT:
            dt_max = STABILITY_LIMIT / rho
            unit = 10.0 ** (math.floor(math.log10(dt_max)) - 1)
            raise ValidationError(
                f"dt={self.dt:g} is unstable for rk4: "
                f"dt*rho(H)/hbar = {z:.3g} > {STABILITY_LIMIT:.3g}; use dt <= "
                f"{math.floor(dt_max / unit) * unit:.2g}")

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


def _expectations(states, op):
    """<s_t|op|s_t> for each row s_t of states, as one matrix product and
    a row-wise dot; an einsum over all three operands would run an
    unoptimized t*i*j loop."""
    return np.einsum("ti,ti->t", states.conj(), states @ op.matrix.T)


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    times: np.ndarray
    states: np.ndarray  # (n_samples, n_levels) complex

    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def expectation_series(self, op):
        out = _expectations(self.states, op)
        return out.real if op.is_hermitian(1e-10) else out


@dataclass(frozen=True, eq=False)
class CoordinateTrajectory:
    times: np.ndarray
    q: np.ndarray  # (n_samples, n_levels)
    p: np.ndarray

    def energy_series(self, op):
        return _expectations(coordinates_to_amplitudes(self.q, self.p), op).real


def hamiltonian_function(q, p, h_op):
    """H(q, p) = <phi(q, p)| H |phi(q, p)> under the fixed scaling."""
    c = coordinates_to_amplitudes(q, p)
    return float(np.real(np.vdot(c, h_op.matrix @ c)))


def hamiltonian_gradients(q, p, h_op):
    """Analytic (dH/dq, dH/dp) of the bilinear Hamiltonian function."""
    c = coordinates_to_amplitudes(q, p)
    w = h_op.matrix @ c
    s = math.sqrt(2.0)
    return s * w.real, s * w.imag


def _sample_times(spec):
    """Stored step indices (every store_every-th, and the last) and times."""
    idx = np.unique(np.append(np.arange(0, spec.n_steps + 1, spec.store_every),
                              spec.n_steps))
    return idx, idx * spec.dt_actual


def _rk4_step(z):
    """M - I for the RK4 step map M of dx/dt = G x, z = dt G: for linear G
    the four stages sum to M = I + z + z^2/2! + z^3/3! + z^4/4!."""
    eye = np.eye(z.shape[0], dtype=z.dtype)
    return z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)


def _power(e, k):
    """(I + e)^k - I for k >= 1, by repeated squaring.  Maps are kept as
    M - I: M rounded next to I would repeat one rounding error in every
    step (~1e-12 after 10^4 steps)."""
    if k == 1:
        return e
    half = _power(e, k // 2)
    square = 2.0 * half + half @ half
    return square + e + square @ e if k % 2 else square


def _sampled_states(step, x0, spec):
    """(times, states): x0 carried n_steps times by the map I + step, kept
    at the stored samples.  The map is raised once to each gap between
    samples (store_every, and the tail when store_every does not divide
    n_steps), then each sample is one matvec from the previous one."""
    idx, times = _sample_times(spec)
    gaps = np.diff(idx).tolist()
    powers = {gap: _power(step, gap) for gap in set(gaps)}
    states = np.empty((len(idx), x0.size), dtype=step.dtype)
    states[0] = x0
    for k, gap in enumerate(gaps, start=1):
        states[k] = states[k - 1] + powers[gap] @ states[k - 1]
    return times, states


def schrodinger_evolve(psi0, spec):
    """Integrate i dc/dt = H c on the amplitude vector with RK4: the
    complex one-step map sum_{j<=4} (-i dt H)^j / j!."""
    if psi0.n_levels != spec.hamiltonian.n_levels:
        raise ValidationError("state and Hamiltonian dimensions differ")
    z = (-1j * spec.dt_actual) * spec.hamiltonian.matrix
    times, states = _sampled_states(_rk4_step(z), psi0.amplitudes, spec)
    return StateTrajectory(times, states)


def hamilton_evolve(c0, spec):
    """Integrate dq/dt = dH/dp, dp/dt = -dH/dq in real arithmetic.

    For Hermitian H = A + iB (A symmetric, B antisymmetric) the analytic
    gradients give dq/dt = A p + B q, dp/dt = B p - A q, i.e.
    K = [[B, A], [-A, B]] on (q, p), integrated with RK4: the real one-step
    map sum_{j<=4} (dt K)^j / j!.  This is i dc/dt = H c with
    q + i p = sqrt(2) c.
    """
    if c0.n_levels != spec.hamiltonian.n_levels:
        raise ValidationError("coordinates and Hamiltonian dimensions differ")
    n = c0.n_levels
    h = spec.hamiltonian.matrix
    a = spec.dt_actual * h.real
    b = spec.dt_actual * h.imag
    step = _rk4_step(np.block([[b, a], [-a, b]]))
    times, states = _sampled_states(step, np.concatenate((c0.q, c0.p)), spec)
    return CoordinateTrajectory(times, states[:, :n], states[:, n:])


def trajectory_deviation(straj, ctraj):
    """Max over sampled times of the Euclidean distance between the
    coordinates of an amplitude trajectory and a coordinate trajectory."""
    dq, dp = amplitudes_to_coordinates(straj.states)
    dq -= ctraj.q
    dp -= ctraj.p
    dist = np.sqrt(np.sum(dq**2 + dp**2, axis=1))
    return float(np.max(dist)) if dist.size else 0.0


def equivalence_report(psi0, spec):
    """:func:`trajectory_deviation` between the two independent
    integrations of psi0 under spec."""
    straj = schrodinger_evolve(psi0, spec)
    ctraj = hamilton_evolve(to_coordinates(psi0), spec)
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
