"""Acceptance suite: every shipped claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (with measured runtime).
"""

import math
import os
import time

import numpy as np

from galq import algebra, cli, coherent, contraction, coset, fock, projective


def _report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {num:02d} {name}: {status} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)")
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s > {limit}s"


def test_criterion_01_algebra_validity():
    t0 = time.perf_counter()
    worst = 0.0
    for tbl in (algebra.g3s_table(), algebra.hr3_table()):
        worst = max(worst, algebra.jacobi_defect(tbl))
        for k in (2.0, 10.0, 1e3):
            ct = algebra.contract(tbl, algebra.ContractionParams(k=k))
            worst = max(worst, algebra.jacobi_defect(ct))
    lim = algebra.contraction_limit(algebra.hr3_table())
    worst = max(worst, algebra.jacobi_defect(lim))
    xp_limit_clean = all(
        algebra.bracket(f"X_{i}", f"P_{j}", lim) == {}
        for i in "123" for j in "123")
    central_clean = algebra.central_defect(lim, "I") == 0.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and xp_limit_clean and central_clean
    _report(1, "algebra-validity", ok, elapsed, 1.0,
            f"max residual {worst:.2e}")


def test_criterion_02_group_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240201)

    def element():
        rot = coset.expm(
            coset.omega_from_vector(rng.uniform(-math.pi, math.pi, 3)))
        return coset.GalileiElement(B=rng.uniform(-10, 10),
                                    V=rng.uniform(-10, 10, 3), R=rot,
                                    A=rng.uniform(-10, 10, 3))

    worst = 0.0
    for _ in range(1000):
        g1, g2 = element(), element()
        pt = coset.SpaceTime(rng.uniform(-10, 10), rng.uniform(-10, 10, 3))
        two = coset.apply_galilei(g1, coset.apply_galilei(g2, pt))
        one = coset.apply_galilei(coset.compose(g1, g2), pt)
        worst = max(worst,
                    abs(two.t - one.t), float(np.max(np.abs(two.x - one.x))))
    elapsed = time.perf_counter() - t0
    _report(2, "group-law", worst <= 1e-12, elapsed, 1.0,
            f"max deviation {worst:.2e}")


def test_criterion_03_truncated_ccr():
    t0 = time.perf_counter()
    n_levels, hbar = 64, 1.0
    x, p = fock.build_xp(n_levels, hbar)
    interior, corner = fock.commutator_defect(x, p)
    corner_err = abs(corner - (-1j * hbar * n_levels))
    elapsed = time.perf_counter() - t0
    ok = interior <= 1e-12 and corner_err <= 1e-10
    _report(3, "truncated-ccr", ok, elapsed, 1.0,
            f"interior {interior:.2e}, corner err {corner_err:.2e}")


def _label_grid_states(n_levels=128):
    pts = np.linspace(-2.0, 2.0, 9)
    labels = [coherent.CoherentLabel(p, x) for p in pts for x in pts]
    states = np.stack([coherent.coherent_state(lab, n_levels).amplitudes
                       for lab in labels])
    return labels, states


def test_criterion_04_overlap_kernel():
    t0 = time.perf_counter()
    labels, states = _label_grid_states()
    gram = states.conj() @ states.T
    worst = 0.0
    worst_self = 0.0
    for i, li in enumerate(labels):
        worst_self = max(worst_self, abs(gram[i, i] - 1.0))
        for j, lj in enumerate(labels):
            ana = coherent.overlap_analytic(li, lj, 1.0)
            worst = max(worst, abs(gram[i, j] - ana))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_self <= 1e-10
    _report(4, "overlap-kernel", ok, elapsed, 30.0,
            f"max gap {worst:.2e}, self-overlap err {worst_self:.2e}")


def test_criterion_05_matrix_elements():
    t0 = time.perf_counter()
    labels, states = _label_grid_states()
    x_op, p_op = fock.build_xp(128, 1.0)
    brute_x = states.conj() @ x_op.matrix @ states.T
    brute_p = states.conj() @ p_op.matrix @ states.T
    worst = 0.0
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            mx, mp = coherent.matrix_element_xp(li, lj, 1.0)
            worst = max(worst, abs(brute_x[i, j] - mx), abs(brute_p[i, j] - mp))
    elapsed = time.perf_counter() - t0
    _report(5, "matrix-elements", worst <= 1e-8, elapsed, 30.0,
            f"max gap {worst:.2e}")


def test_criterion_06_schrodinger_equals_hamilton():
    t0 = time.perf_counter()
    n_levels = 32
    h = fock.build_hamiltonian("harmonic", n_levels, 1.0)
    psi0 = coherent.coherent_state(coherent.CoherentLabel(0.5, 1.0), n_levels)
    spec = projective.EvolutionSpec(h, 10.0, 1e-3, store_every=10)
    deviation = projective.equivalence_report(psi0, spec)
    straj = projective.schrodinger_evolve(psi0, spec)
    norms = straj.norms()
    norm_drift = float(np.max(np.abs(norms - norms[0])))
    ctraj = projective.hamilton_evolve(projective.to_coordinates(psi0), spec)
    energies = ctraj.energy_series(h)
    energy_drift = float(np.max(np.abs(energies - energies[0])))
    rng = np.random.default_rng(606)
    q = rng.normal(size=n_levels)
    p = rng.normal(size=n_levels)
    gq, gp = projective.hamiltonian_gradients(q, p, h)
    step = 1e-5
    fd_err = 0.0
    for n in range(n_levels):
        e = np.zeros(n_levels)
        e[n] = step
        fq = (projective.hamiltonian_function(q + e, p, h)
              - projective.hamiltonian_function(q - e, p, h)) / (2 * step)
        fp = (projective.hamiltonian_function(q, p + e, h)
              - projective.hamiltonian_function(q, p - e, h)) / (2 * step)
        fd_err = max(fd_err, abs(fq - gq[n]), abs(fp - gp[n]))
    fd_rel = fd_err / max(np.max(np.abs(gq)), np.max(np.abs(gp)))
    elapsed = time.perf_counter() - t0
    ok = (deviation <= 1e-6 and norm_drift <= 1e-8 and energy_drift <= 1e-8
          and fd_rel <= 1e-6)
    _report(6, "schrodinger-hamilton", ok, elapsed, 60.0,
            f"dev {deviation:.2e}, norm {norm_drift:.2e}, "
            f"energy {energy_drift:.2e}, grad {fd_rel:.2e}")


def test_criterion_07_contraction_decay_slope():
    t0 = time.perf_counter()
    grid = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
    pairs = [
        (coherent.CoherentLabel(0.0, 0.0), coherent.CoherentLabel(0.5, 0.0)),
        (coherent.CoherentLabel(0.0, 0.0), coherent.CoherentLabel(0.0, 1.0)),
        (coherent.CoherentLabel(0.2, -0.3), coherent.CoherentLabel(1.2, 0.7)),
        (coherent.CoherentLabel(0.0, 0.0), coherent.CoherentLabel(1.2, 1.6)),
    ]
    spec = contraction.SweepSpec(grid, pairs)
    reports = contraction.overlap_decay_sweep(spec)
    worst_rel = 0.0
    for rep in reports:
        d2 = -4.0 * rep.expected_slope
        assert 0.25 <= d2 <= 4.0
        worst_rel = max(worst_rel, rep.slope_rel_error)
    elapsed = time.perf_counter() - t0
    _report(7, "contraction-decay", worst_rel <= 1e-3, elapsed, 10.0,
            f"worst slope rel err {worst_rel:.2e}")


def test_criterion_08_diagonalization_suppression():
    t0 = time.perf_counter()
    labels = [coherent.CoherentLabel(0.0, 0.0), coherent.CoherentLabel(1.0, 0.0)]
    grid = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
    ratios = [contraction.diagonalization_diagnostic(labels, h) for h in grid]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and ratios[-1] <= 1e-8
    _report(8, "diagonalization", ok, elapsed, 10.0,
            f"ratio at hbar=1e-3: {ratios[-1]:.2e}")


def test_criterion_09_classical_emergence():
    t0 = time.perf_counter()
    grid = (1.0, 0.1, 0.01, 0.001)
    harm = contraction.classical_trajectory_emergence(
        1.0, 0.0, grid, kind="harmonic", t_final=2.0)
    quart = contraction.classical_trajectory_emergence(
        1.0, 0.0, grid, kind="quartic", lam=0.1, t_final=2.0)
    harm_ok = bool(np.all(harm.max_deviation <= 1e-6))
    ratio = float(quart.max_deviation[0] / quart.max_deviation[-1])
    elapsed = time.perf_counter() - t0
    ok = harm_ok and ratio >= 10.0
    _report(9, "classical-emergence", ok, elapsed, 120.0,
            f"harmonic max {np.max(harm.max_deviation):.2e}, "
            f"quartic ratio {ratio:.0f}x")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    outdir = str(tmp_path)
    cmds = [
        ["algebra", "verify", "--seed", "3", "--outdir", outdir],
        ["contract", "sweep", "--seed", "3", "--outdir", outdir],
        ["evolve", "--t-final", "1", "--n-levels", "16", "--store-every",
         "100", "--seed", "3", "--outdir", outdir],
    ]
    for cmd in cmds:
        assert cli.main(cmd) == 0
    first = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            first[name] = fh.read()
    for cmd in cmds:
        assert cli.main(cmd) == 0
    identical = True
    for name, blob in first.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            identical = identical and fh.read() == blob
    elapsed = time.perf_counter() - t0
    _report(10, "cli-determinism", identical, elapsed, 60.0,
            f"{len(first)} files compared")
