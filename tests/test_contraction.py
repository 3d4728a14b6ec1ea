"""Relabeling, overlap decay, operator diagonalization, classical emergence."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammainc

from galq import coherent, contraction, fock, projective
from galq.coherent import CoherentLabel
from galq.errors import (DegenerateFitError, PrecisionError, ValidationError)
from oracles import (basis_state, classical_flow_rk4, exact_evolve,
                     matrix_element_tables, table_offdiag_ratios)

GRID = contraction.DEFAULT_HBAR_GRID


def occupation(*labels):
    """Largest mean Fock occupation |alpha|^2 over internal labels."""
    return max(float(np.sum(np.abs(lab.alpha) ** 2)) for lab in labels)


def test_relabel_examples():
    tilde = CoherentLabel(3.0, 5.0, 0.4)
    internal = contraction.unscaled_label(tilde, 1.0)
    assert internal.p[0] == 3.0 and internal.x[0] == 5.0
    assert internal.theta == 0.4
    internal = contraction.unscaled_label(CoherentLabel(0.3, 0.5), 0.01)
    assert internal.p[0] == pytest.approx(3.0)
    assert internal.x[0] == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        contraction.unscaled_label(tilde, 0.0)


@given(st.floats(-1e6, 1e6, allow_subnormal=False),
       st.floats(-1e6, 1e6, allow_subnormal=False),
       st.floats(1e-8, 1e4))
def test_unscaled_label_inverts_the_relabeling(p, x, hbar):
    # the tilde label of the state labeled (p, x) is sqrt(hbar) (p, x)
    s = math.sqrt(hbar)
    internal = contraction.unscaled_label(CoherentLabel(s * p, s * x), hbar)
    assert abs(internal.p[0] - p) <= 1e-15 * abs(p) + 1e-290
    assert abs(internal.x[0] - x) <= 1e-15 * abs(x) + 1e-290


def test_relabeled_expectations():
    # <X_c> on the tilde-labeled state equals the tilde x label
    hbar = 0.04
    tilde = CoherentLabel(0.6, -0.8)
    internal = contraction.unscaled_label(tilde, hbar)
    n_levels = fock.start_cutoff(occupation(internal))
    psi = coherent.coherent_state(internal, n_levels).amplitudes
    x_op, p_op = fock.build_xp(n_levels, 1.0)  # internal units
    assert math.sqrt(hbar) * np.vdot(psi, x_op.matrix @ psi).real \
        == pytest.approx(-0.8, abs=1e-8)
    assert math.sqrt(hbar) * np.vdot(psi, p_op.matrix @ psi).real \
        == pytest.approx(0.6, abs=1e-8)


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
        n_levels = fock.start_cutoff(occupation(i1, i2))
        u1 = coherent.displacement(i1, n_levels)
        u2 = coherent.displacement(i2, n_levels)
        vac = basis_state(n_levels, 0).amplitudes
        brute = complex(np.vdot(u1.matrix @ vac, u2.matrix @ vac))
        series = contraction.fock_overlap_series(l1, l2, hbar, n_levels)
        kernel = coherent.overlap_analytic(l1, l2, hbar)
        assert abs(brute - series) <= 1e-10
        assert abs(brute - kernel) <= 1e-8


@given(st.floats(min_value=0.0, max_value=7e4))
@example(6.3e4)
@example(6.4e4)
def test_start_cutoff_is_smallest_poisson_quantile(mu):
    n = fock.start_cutoff(mu)
    if n is None:  # not even the cap keeps the tail
        assert gammainc(fock.MAX_LEVELS, mu) > fock.TAIL_TOL
        return
    assert fock.MIN_LEVELS <= n <= fock.MAX_LEVELS
    assert gammainc(n, mu) <= fock.TAIL_TOL
    assert n == fock.MIN_LEVELS or gammainc(n - 1, mu) > fock.TAIL_TOL


def gammainc_start_cutoff(mu):
    """fock.start_cutoff's rule as a bisection search on scipy's
    regularized gamma function, the oracle for its cutoffs."""
    if gammainc(fock.MAX_LEVELS, mu) > fock.TAIL_TOL:
        return None
    lo, hi = fock.MIN_LEVELS - 1, fock.MIN_LEVELS  # lo fails, hi is untried
    while gammainc(hi, mu) > fock.TAIL_TOL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gammainc(mid, mu) <= fock.TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("mu", [0.0, 1e-6, 0.3, 1.0, 5.0, 50.0, 500.0, 2e4,
                                6.4e4, 65536.0, 7e4, 1e6, math.inf])
def test_poisson_tail_matches_gammainc(mu):
    # N >> mu, N near mu and N << mu, up to the cap and past it
    worst = 0.0
    for n in (1, 2, 5, 16, 17, 30, 100, 499, 500, 501, 666, 1000, 5000,
              19_999, 20_000, 21_000, 40_000, 63_999, 64_000, 65_535,
              fock.MAX_LEVELS, 65_600, 70_000, 200_000):
        ref = float(gammainc(n, mu))
        tail = fock.poisson_tail(n, mu)
        assert 0.0 <= tail <= 1.0
        if ref >= 1e-300:
            worst = max(worst, abs(tail - ref) / ref)
        else:
            assert tail <= 1e-290
    assert worst <= 1e-9


def test_start_cutoff_matches_the_gammainc_search():
    mus = np.geomspace(1e-6, 2e4, 4000).tolist()
    assert [fock.start_cutoff(mu) for mu in mus] \
        == [gammainc_start_cutoff(mu) for mu in mus]


def test_start_cutoff_values():
    # mu = 500 is the default hbar = 1e-3 point of `contract classical`
    assert [fock.start_cutoff(mu) for mu in (0.0, 0.5, 5.0, 50.0, 500.0)] \
        == [16, 16, 28, 108, 666]
    with pytest.raises(ValidationError):
        fock.start_cutoff(math.nan)


@pytest.mark.parametrize("mu", [math.inf, 5e239, 5e19, 7e4])
def test_start_cutoff_refuses_beyond_the_cap_at_once(mu, monkeypatch):
    # one tail evaluation, at the cap, before any search
    calls = []
    tail = fock.poisson_tail

    def counted(n, m):
        calls.append(n)
        return tail(n, m)
    monkeypatch.setattr(fock, "poisson_tail", counted)
    assert fock.start_cutoff(mu) is None
    assert calls == [fock.MAX_LEVELS]


def test_sweep_reports_start_cutoff():
    l1, l2 = CoherentLabel(30.0, 0.0), CoherentLabel(30.0, 0.5)
    rep = contraction.overlap_decay_sweep(
        contraction.SweepSpec((1.0, 1e-3), [(l1, l2)]))[0]
    mus = [occupation(contraction.unscaled_label(l2, h)) for h in rep.hbar]
    # at hbar = 1e-3 the occupation is 4.5e5, above the cap: no cutoff and
    # no numeric value there
    assert rep.n_levels == (fock.start_cutoff(mus[0]), None)
    assert math.isnan(rep.numeric_abs[1])
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
        mx, _ = matrix_element_tables(labels, h)
        assert np.all(np.diag(mx) == [0.0, 1.0])
    assert gram == 0.0
    assert mx[0, 1] == 0.0 and mx[1, 0] == 0.0


def test_diagonalization_tables_structure():
    labels = [CoherentLabel(0.5, -0.5), CoherentLabel(-0.5, 1.0)]
    mx, mp = matrix_element_tables(labels, 0.3)
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



def _near_labels(rng, n, hbar):
    """n random d = 1 labels within O(sqrt(hbar)) of one random centre, so
    that their off-diagonal matrix elements do not underflow; in about one
    draw in three the centre is the origin and so is the first label."""
    at_origin = rng.integers(3) == 0
    centre = np.zeros(2) if at_origin else rng.uniform(-2.0, 2.0, 2)
    points = centre + math.sqrt(hbar) * rng.normal(size=(n, 2))
    if at_origin:
        points[0] = 0.0
    return [CoherentLabel(p, x) for p, x in points]


def test_diagonalization_matches_the_full_tables_bitwise():
    # one matrix element per unordered pair gives the ratio of the two
    # n x n tables bit for bit, on 600 random sets of 2-9 labels
    rng = np.random.default_rng(2702)
    ratios = []
    for _ in range(600):
        hbar = 10.0 ** rng.uniform(-3.0, 0.0)
        labels = _near_labels(rng, int(rng.integers(2, 10)), hbar)
        ratio = contraction.diagonalization_diagnostic(labels, hbar)
        assert ratio == max(table_offdiag_ratios(labels, hbar))
        ratios.append(ratio)
    assert np.count_nonzero(ratios) == len(ratios)


def test_sweep_offdiag_columns_match_the_full_tables_bitwise():
    rng = np.random.default_rng(2703)
    grid = (1.0, 0.3, 0.1, 0.03, 0.01)
    pairs = [tuple(_near_labels(rng, 2, 0.3)) for _ in range(24)]
    reports = contraction.overlap_decay_sweep(
        contraction.SweepSpec(grid, pairs))
    for rep in reports:
        for h, rx, rp in zip(grid, rep.offdiag_x, rep.offdiag_p):
            assert (rx, rp) == table_offdiag_ratios(rep.pair, h)


def test_one_matrix_element_per_label_pair(monkeypatch):
    calls = []

    def counting(l1, l2, hbar):
        calls.append(hbar)
        return coherent.matrix_element_xp(l1, l2, hbar)
    monkeypatch.setattr(contraction, "matrix_element_xp", counting)
    for n in range(2, 10):
        calls.clear()
        contraction.diagonalization_diagnostic(
            [CoherentLabel(0.1 * i, -0.2 * i) for i in range(n)], 0.5)
        assert len(calls) == n * (n - 1) // 2
    pairs = [(CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0)),
             (CoherentLabel(0.2, -0.3), CoherentLabel(1.2, 0.7))]
    calls.clear()
    contraction.overlap_decay_sweep(contraction.SweepSpec(GRID, pairs))
    assert calls == list(GRID) * len(pairs)


@pytest.mark.parametrize("labels", [
    (CoherentLabel((0.0, 0.0), (1.0, 0.0), d=2),
     CoherentLabel((0.0, 1.0), (0.0, 0.0), d=2)),
    (CoherentLabel(0.0, 1.0),
     CoherentLabel((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), d=3)),
], ids=["d2", "d1-d3"])
def test_multi_axis_labels_are_refused_before_any_kernel_call(monkeypatch,
                                                              labels):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was called")
    monkeypatch.setattr(contraction, "matrix_element_xp", refuse)
    monkeypatch.setattr(contraction, "overlap_analytic", refuse)
    per_axis = r"built per axis \(d=1\), got d=[23]$"
    with pytest.raises(ValidationError, match=per_axis):
        contraction.diagonalization_diagnostic(labels, 0.5)
    # refused before the sweep works on its first, valid pair too
    spec = contraction.SweepSpec(
        GRID, [(CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0)), labels])
    with pytest.raises(ValidationError, match=per_axis):
        contraction.overlap_decay_sweep(spec)


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


def test_quartic_emergence_growth_stops_at_the_cap(monkeypatch):
    # no real input grows a cutoff past 65536: a quartic one hits the
    # eigenbasis limit first, and a harmonic one keeps its edge mass
    monkeypatch.setattr(fock, "MAX_LEVELS", 64)
    with pytest.raises(PrecisionError) as err:
        contraction.classical_trajectory_emergence(
            1.0, 0.0, [1.0], kind="quartic", lam=0.1, t_final=2.0)
    assert re.fullmatch(r"hbar=1.0 needs Fock cutoff 128 > cap 64 \(edge "
                        r"mass \S+ > 1e-10 at N=64\)", str(err.value))


def test_quartic_emergence_matches_twice_the_cutoff():
    hbar, lam = 0.01, 0.1
    rep = contraction.classical_trajectory_emergence(
        1.0, 0.0, [hbar], kind="quartic", lam=lam, t_final=2.0)
    assert rep.edge_mass[0] <= contraction.EDGE_TOL
    # the start (108) fails; one step doubles its margin above mu (~50)
    internal = contraction.unscaled_label(CoherentLabel(0.0, 1.0), hbar)
    mu = occupation(internal)
    assert rep.n_levels[0] == 2 * fock.start_cutoff(mu) - math.floor(mu)
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


def test_classical_kind_rule_has_one_message():
    times = np.linspace(0.0, 1.0, 3)
    want = ("the classical reference supports the harmonic and quartic "
            "kinds, got 'free'")
    for call in (lambda: contraction.classical_flow(1.0, 0.0, times, "free"),
                 lambda: contraction.classical_trajectory_emergence(
                     1.0, 0.0, [1.0], kind="free")):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == want


def test_emergence_checks_the_coupling_before_the_classical_flow(monkeypatch):
    def flow(*args, **kwargs):
        raise AssertionError("classical_flow ran with a negative coupling")

    monkeypatch.setattr(contraction, "classical_flow", flow)
    for call in (lambda: contraction.classical_trajectory_emergence(
                     1.0, 0.0, [1.0], kind="quartic", lam=-0.5),
                 lambda: fock.hamiltonian_bands("quartic", 8, -0.5)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == "quartic coupling lam must be >= 0"


def test_emergence_validation():
    with pytest.raises(ValidationError):
        contraction.classical_trajectory_emergence(1.0, 0.0, [1.0], kind="free")
    with pytest.raises(ValidationError):
        contraction.classical_trajectory_emergence(1.0, 0.0, [], kind="harmonic")
    # mean occupation 5e5: no cutoff up to the cap keeps the tail
    with pytest.raises(PrecisionError) as err:
        contraction.classical_trajectory_emergence(
            1.0, 0.0, [1e-6], kind="harmonic")
    assert str(err.value) == ("hbar=1e-06: mean occupation 500000 needs a "
                              "Fock cutoff > cap 65536 (initial tail)")


def test_emergence_propagator_matches_exact_evolution():
    # the banded eigenbasis propagation against two independent oracles on
    # the dense H: its eigendecomposition and scipy's Taylor-series
    # propagator
    hbar = 0.25
    tilde = CoherentLabel(0.4, 0.9)
    internal = contraction.unscaled_label(tilde, hbar)
    n_levels = 64
    psi0 = coherent.coherent_amplitudes(internal, n_levels)
    times = np.linspace(0.0, 2.0, 11)
    for kind in fock.HAMILTONIAN_KINDS:
        h_dense = fock.build_hamiltonian(kind, n_levels, 1.0, lam=0.1 * hbar)
        bands = fock.hamiltonian_bands(kind, n_levels, 0.1 * hbar)
        states = contraction.eigen_propagate(bands, psi0.amplitudes, times)
        exact = exact_evolve(psi0, h_dense, times)
        taylor = expm_multiply(-1j * h_dense.matrix, psi0.amplitudes,
                               start=0.0, stop=2.0, num=11, endpoint=True)
        assert states.shape == (times.size, n_levels)
        assert np.max(np.abs(states - exact.states)) <= 1e-9, kind
        assert np.max(np.abs(states - taylor)) <= 1e-9, kind


def test_eigen_propagate_on_odd_cutoffs_and_a_banded_odd_block():
    # an odd cutoff has one more even level than odd; a block is banded or
    # diagonal on its own, whatever the other block is
    times = np.array([0.0, 0.7, 1.5])
    rng = np.random.default_rng(3)
    for n_levels in (3, 5, 17):
        psi0 = rng.normal(size=n_levels) + 1j * rng.normal(size=n_levels)
        psi0 /= np.linalg.norm(psi0)
        bands = np.array(fock.hamiltonian_bands("free", n_levels))
        bands[1, 0::2] = 0.0  # only the odd block stays banded
        dense = np.diag(bands[0]) + np.diag(bands[1, :n_levels - 2], -2) \
            + np.diag(bands[1, :n_levels - 2], 2)
        w, v = np.linalg.eigh(dense)
        exact = (np.exp(-1j * np.outer(times, w)) * (v.T @ psi0)) @ v.T
        states = contraction.eigen_propagate(bands, psi0, times)
        assert np.max(np.abs(states - exact)) <= 1e-12, n_levels


def test_center_trajectory_matches_the_xp_matrices():
    # <X> and <P> from z_n = conj(psi_n) psi_{n+1} against the dense X and
    # P of fock.build_xp on the same propagated states
    hbar, n_levels = 0.05, 96
    tilde = CoherentLabel(0.6, -0.8)
    times = np.linspace(0.0, 2.0, 21)
    edge, qx, qp = contraction._center_trajectory(tilde, hbar, n_levels,
                                                  "quartic", 0.1, times)
    assert edge <= contraction.EDGE_TOL
    psi0 = coherent.coherent_amplitudes(
        contraction.unscaled_label(tilde, hbar), n_levels).amplitudes
    states = contraction.eigen_propagate(
        fock.hamiltonian_bands("quartic", n_levels, 0.1 * hbar), psi0, times)
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    s = math.sqrt(hbar)
    ex = s * np.einsum("ti,ij,tj->t", states.conj(), x_op.matrix, states).real
    ep = s * np.einsum("ti,ij,tj->t", states.conj(), p_op.matrix, states).real
    assert np.max(np.abs(qx - ex)) <= 1e-12
    assert np.max(np.abs(qp - ep)) <= 1e-12
    assert abs(qx[0] + 0.8) <= 1e-12 and abs(qp[0] - 0.6) <= 1e-12


def test_eigen_propagate_rejects_malformed_bands():
    # parity mixing cannot be written in band form; what can be written
    # wrong is the shape, a non-finite entry, or a band past the edge
    n_levels = 16
    good = fock.hamiltonian_bands("quartic", n_levels, 0.1)
    psi0 = basis_state(n_levels, 0).amplitudes
    nan = np.array(good)
    nan[0, 5] = math.nan
    inf = np.array(good)
    inf[2, 0] = math.inf
    cases = [(good[:, :-1], "shape"), (good[:2], "shape"),
             (np.stack([good] * 2), "shape"), (nan, "non-finite"),
             (inf, "non-finite")]
    for k in (1, 2):
        for n in range(n_levels - 2 * k, n_levels):
            past = np.array(good)
            past[k, n] = 1e-3
            cases.append((past, "past the matrix edge"))
    for bands, match in cases:
        with pytest.raises(ValidationError, match=match):
            contraction.eigen_propagate(bands, psi0, [0.0, 1.0])
    small = fock.hamiltonian_bands("quartic", 3, 0.1)
    edge = np.array(small)
    edge[2, 0] = 1.0  # H[4, 0] of a 3-level matrix
    with pytest.raises(ValidationError, match="past the matrix edge"):
        contraction.eigen_propagate(edge, np.ones(3), [0.0])
    contraction.eigen_propagate(small, np.ones(3), [0.0])


def test_eigen_propagate_memory_stays_linear_or_bounded():
    # a diagonal (harmonic) block is propagated as its own eigenbasis at
    # any cutoff; a banded block over the eigenbasis limit is refused
    # before anything of size N^2 is allocated
    n_levels = 20001
    bands = fock.hamiltonian_bands("harmonic", n_levels)
    psi0 = np.zeros(n_levels, dtype=complex)
    psi0[[0, 7, 20000]] = [0.6, 0.8j, 1e-3]
    times = np.array([0.0, 0.3, 2.0])
    exact = np.exp(-1j * np.outer(times, bands[0])) * psi0
    states = contraction.eigen_propagate(bands, psi0, times)
    assert np.max(np.abs(states - exact)) <= 1e-12
    m = math.isqrt(contraction.EIGENBASIS_BYTES // 24) + 1
    bands = fock.hamiltonian_bands("quartic", 2 * m, 1e-4)
    with pytest.raises(PrecisionError, match=f"{m}-level parity blocks"):
        contraction.eigen_propagate(bands, np.zeros(2 * m), times)


@pytest.mark.parametrize("kind", ["harmonic", "quartic"])
@pytest.mark.parametrize("t", [1e308, -1e308, math.inf, math.nan])
def test_eigen_propagate_refuses_a_phase_that_is_not_finite(kind, t):
    # one check covers the diagonal (harmonic) and the banded blocks
    bands = fock.hamiltonian_bands(kind, 8)
    with pytest.raises(PrecisionError,
                       match="the phase E t keeps no fractional digit"):
        contraction.eigen_propagate(bands, np.eye(8)[0], [0.0, t])


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


@pytest.mark.parametrize("lam", [0.1, 1.0])
@pytest.mark.parametrize("angle", [None, 0.7, 2.5, 4.0],
                         ids=["criterion-09", "angle-0.7", "angle-2.5",
                              "angle-4.0"])
def test_classical_flow_quartic_is_bitwise_the_array_rk4(angle, lam):
    x0, p0 = (1.0, 0.0) if angle is None else (math.cos(angle),
                                                math.sin(angle))
    for t_final in (2.0, 7.3):
        for n_samples in (2, 7, 101):
            times = np.linspace(0.0, t_final, n_samples)
            xs, ps = contraction.classical_flow(x0, p0, times, kind="quartic",
                                                lam=lam)
            want_x, want_p = classical_flow_rk4(x0, p0, times, lam)
            assert np.array_equal(xs, want_x) and np.array_equal(ps, want_p)


@pytest.mark.parametrize("x0, p0", [(1.0, 0.0), (math.cos(1.0), math.sin(1.0)),
                                    (0.3, -2.0)])
def test_classical_flow_quartic_at_zero_coupling_is_harmonic(x0, p0):
    # a wrong stage weight or half-step would leave an O(dt) gap
    times = np.linspace(0.0, 5.0, 101)
    xs, ps = contraction.classical_flow(x0, p0, times, kind="quartic", lam=0.0)
    hx, hp = contraction.classical_flow(x0, p0, times, kind="harmonic")
    assert max(np.max(np.abs(xs - hx)), np.max(np.abs(ps - hp))) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0, t_final, message", [
    # substep dt = 20: the RK4 step diverges into inf and NaN
    (1.0, 1e5, "not finite at t = 1000: RK4 with substep dt = 20 "),
    # x**3 overflows a float on the first substep
    (1e120, 2.0, "not finite at t = 0.02: RK4 with substep dt = 0.0004 "),
], ids=["diverged-step", "overflow"])
def test_classical_flow_quartic_blowup_raises_precision_error(x0, t_final,
                                                             message):
    times = np.linspace(0.0, t_final, 101)
    with pytest.raises(PrecisionError, match=message):
        contraction.classical_flow(x0, 0.0, times, kind="quartic", lam=0.1)



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
    pytest.param(lambda: contraction.unscaled_label(
        CoherentLabel(1.0, 1.0), math.nan), id="relabel-hbar"),
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
    pytest.param(lambda: contraction.unscaled_label(
        CoherentLabel(1.0, 1.0), math.inf), id="relabel-hbar-inf"),
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
