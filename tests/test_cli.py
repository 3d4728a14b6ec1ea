"""CLI contract: resolution order, output layout, exit codes, determinism."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from galq import cli, coherent, contraction, coset, fock, projective


def run(args):
    return cli.main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def strict_json(path):
    """Parse a JSON file, failing on NaN or infinity."""
    def reject(name):
        raise ValueError(f"{name} in {path}")
    return json.loads(read(path), parse_constant=reject)


def test_algebra_verify_defaults(tmp_path):
    assert run(["algebra", "verify", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "algebra_verify.json"))
    assert doc["pass"] is True
    assert set(doc) == {"config", "results", "pass"}
    assert doc["config"]["version"]
    assert doc["config"]["seed"] == 0
    assert doc["results"]["worst_residual"] <= 1e-12
    tables = read(tmp_path / "algebra_tables.txt").decode()
    assert "[X_1,P_1] = 1.0j*I" in tables


def test_algebra_verify_k_flag_shows_scaled_bracket(tmp_path):
    assert run(["algebra", "verify", "--k", "10", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "algebra_verify.json"))
    coeff = doc["results"]["tables"]["hr3"]["x1p1_coeff_I_k=10.0"]
    assert coeff["re"] == pytest.approx(0.0)
    assert coeff["im"] == pytest.approx(0.01)
    tables = read(tmp_path / "algebra_tables.txt").decode()
    assert "[X_1,P_1] = 0.01j*I" in tables


def test_algebra_verify_corrupt_table_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("generators: X_1 P_1 I\n[X_1,P_1] = ???\n")
    assert run(["algebra", "verify", "--table", str(bad),
                "--outdir", str(tmp_path)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["nan", "inf"])
def test_algebra_verify_nonfinite_table_exits_1(tmp_path, coeff, capsys):
    table = tmp_path / "t.txt"
    table.write_text(f"generators: X_1 P_1 I\n[X_1,P_1] = {coeff}*I\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["algebra", "verify", "--table", str(table),
                "--outdir", str(out)]) == 1
    assert "line 2: non-finite coefficient" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_algebra_verify_table_failing_jacobi_exits_2(tmp_path, capsys):
    # [[J_1,J_2],J_3] + [[J_2,J_3],J_1] + [[J_3,J_1],J_2] = J_1, not 0:
    # no Lie algebra, so the Jacobi gate must fail
    table = tmp_path / "t.txt"
    table.write_text("generators: J_1 J_2 J_3\n[J_1,J_2] = 1.0*J_3\n"
                     "[J_2,J_3] = 1.0*J_1\n[J_1,J_3] = 1.0*J_3\n")
    out = tmp_path / "out"
    assert run(["algebra", "verify", "--table", str(table),
                "--outdir", str(out)]) == 2
    doc = strict_json(out / "algebra_verify.json")
    assert doc["pass"] is False
    assert doc["results"]["worst_identity"] == "custom:jacobi_residual"
    assert doc["results"]["worst_residual"] == 1.0
    # each failing gate is named with its value and bound
    assert capsys.readouterr().err == (
        "galq: tolerance failure: tables.custom.jacobi_residual 1.000e+00 > "
        "1e-12; tables.custom.jacobi_residual_k=10.0 1.000e+00 > 1e-12\n")


def test_coset_orbit_boost_grows_linearly(tmp_path):
    assert run(["coset", "orbit", "--coset", "spacetime", "--v", "1,0,0",
                "--point", "1,0,0,0", "--steps", "4", "--dt", "0.5",
                "--outdir", str(tmp_path)]) == 0
    rows = [ln for ln in read(tmp_path / "coset_orbit.csv").decode().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("step")]
    xs = [float(r.split(",")[2]) for r in rows]
    # pure boost at fixed t = 1: x grows by v * t * dt = 0.5 per step
    np.testing.assert_allclose(np.diff(xs), 0.5, atol=1e-12)


def test_coset_orbit_phase_theta_growth(tmp_path):
    assert run(["coset", "orbit", "--coset", "phase", "--pbar", "1,0,0",
                "--point", "0,0,0,1,0,0,0", "--steps", "3", "--dt", "0.1",
                "--outdir", str(tmp_path)]) == 0
    rows = [ln for ln in read(tmp_path / "coset_orbit.csv").decode().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("step")]
    thetas = [float(r.split(",")[7]) for r in rows]
    # dtheta = (pbar . x)/2 per unit flow time with x frozen
    np.testing.assert_allclose(np.diff(thetas), 0.05, atol=1e-12)


def test_coset_orbit_identity_constant(tmp_path):
    assert run(["coset", "orbit", "--coset", "config", "--steps", "3",
                "--point", "1,2,3,0.5", "--outdir", str(tmp_path)]) == 0
    rows = [ln for ln in read(tmp_path / "coset_orbit.csv").decode().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("step")]
    assert len({r.split(",", 1)[1] for r in rows}) == 1


def test_coset_orbit_config_translation_closed_form(tmp_path):
    pbar, xbar, thetabar = (1.0, 0.5, 0.0), (0.2, -0.3, 0.1), 0.25
    x0, theta0, dt = (1.0, 2.0, 3.0), 0.5, 0.2
    assert run(["coset", "orbit", "--coset", "config", "--steps", "5",
                "--dt", str(dt), "--pbar", "1,0.5,0", "--xbar", "0.2,-0.3,0.1",
                "--thetabar", str(thetabar), "--point", "1,2,3,0.5",
                "--outdir", str(tmp_path)]) == 0
    rows = [ln for ln in read(tmp_path / "coset_orbit.csv").decode().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("step")]
    got = np.array([[float(v) for v in r.split(",")] for r in rows])
    # omega = 0: x + t xbar, theta + t (pbar.x + thetabar) + t^2/2 pbar.xbar
    t = got[:, 0] * dt
    want_x = np.add(x0, np.outer(t, xbar))
    want_theta = (theta0 + t * (np.dot(pbar, x0) + thetabar)
                  + 0.5 * t * t * np.dot(pbar, xbar))
    np.testing.assert_allclose(got[:, 1:4], want_x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[:, 4], want_theta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, point, start", [
    ("config", "1,2,3,0.5", coset.Config((1.0, 2.0, 3.0), 0.5)),
    ("phase", "0.5,0,1,1,2,3,0.5",
     coset.Phase((0.5, 0.0, 1.0), (1.0, 2.0, 3.0), 0.5)),
], ids=["config", "phase"])
def test_coset_orbit_rows_are_repeated_exp_actions(tmp_path, monkeypatch,
                                                   kind, point, start):
    # one exp(dt G) per orbit, applied at every step: the rows keep the bits
    # of one exp_action call per step
    built = []
    expm = coset.expm

    def counted(a):
        built.append(a.shape)
        return expm(a)

    monkeypatch.setattr(coset, "expm", counted)
    assert run(["coset", "orbit", "--coset", kind, "--omega", "0.3,-0.2,0.5",
                "--pbar", "1,0.5,0", "--xbar", "0.2,-0.3,0.1",
                "--thetabar", "0.25", "--point", point, "--steps", "20",
                "--dt", "0.1", "--outdir", str(tmp_path)]) == 0
    assert len(built) == 1
    rows = [ln for ln in read(tmp_path / "coset_orbit.csv").decode().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("step")]
    e = coset.InfinitesimalElement(
        omega=coset.omega_from_vector((0.3, -0.2, 0.5)), pbar=(1.0, 0.5, 0.0),
        xbar=(0.2, -0.3, 0.1), thetabar=0.25)
    pt, want = start, []
    for i in range(21):
        if i:
            pt = coset.exp_action(e, pt, t=0.1)
        want.append(",".join([str(i), *map(repr, coset.coordinates(pt).tolist())]))
    assert rows == want


def test_coset_orbit_bad_name_exits_1(tmp_path):
    assert run(["coset", "orbit", "--coset", "nonsense",
                "--outdir", str(tmp_path)]) == 1


NOT_A_ROTATION = "the rotation block of exp(t G) is not orthogonal within 1e-9"


@pytest.mark.parametrize("args, message", [
    (["--coset", "spacetime", "--rot", "1e160,0,0"],
     "R is not orthogonal within 1e-9"),
    (["--coset", "phase", "--omega", "1e160,0,0"], NOT_A_ROTATION),
    (["--coset", "config", "--omega", "1e20,0,0", "--point", "0,1,0,0"],
     NOT_A_ROTATION),
    # once wrote rows of zeros after step 0 and reported PASS
    (["--coset", "phase", "--omega", "1e20,0,0", "--point", "0,1,0,0,0,1,0",
      "--steps", "3"], NOT_A_ROTATION),
    # v dt, the new point and t G overflow to inf
    (["--coset", "spacetime", "--v", "1e308,0,0", "--dt", "10"],
     "V has non-finite entries"),
    (["--coset", "config", "--xbar", "1e308,0,0", "--point", "1e308,0,0,0"],
     "x has non-finite entries"),
    (["--coset", "phase", "--omega", "1e10,0,0", "--dt", "1e300"],
     "expm: matrix has non-finite entries"),
], ids=["spacetime-rot-1e160", "phase-omega-1e160", "config-omega-1e20",
        "phase-omega-1e20", "spacetime-v-1e308", "config-point-1e308",
        "phase-omega-dt-1e310"])
def test_coset_orbit_lost_rotation_exits_1_writing_nothing(tmp_path, capsys,
                                                           args, message):
    # a numpy RuntimeWarning would raise here (filterwarnings = error)
    assert run(["coset", "orbit", *args, "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"galq: error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_coherent_overlap_outputs(tmp_path):
    assert run(["coherent", "overlap", "--n-levels", "96", "--grid-points",
                "5", "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / "coherent_overlap.csv").decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "p1,x1,p2,x2,re,im,abs"
    doc = json.loads(read(tmp_path / "coherent_overlap.json"))
    assert doc["pass"] is True
    assert doc["results"]["max_numeric_gap"] <= 1e-8
    assert doc["results"]["n_pairs"] == 25


def test_evolve_defaults_pass(tmp_path):
    assert run(["evolve", "--t-final", "2", "--n-levels", "24",
                "--store-every", "200", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "evolve.json"))
    assert doc["pass"] is True
    res = doc["results"]
    assert res["max_deviation"] <= 1e-6
    assert res["norm_drift"] <= 1e-8
    assert res["energy_drift"] <= 1e-8
    assert res["ray_sensitivity"] <= 1e-12
    obs = read(tmp_path / "evolve_observables.csv").decode().splitlines()
    header = [ln for ln in obs if not ln.startswith("#")][0]
    assert header == "t,x,p,h,norm"
    lines = read(tmp_path / "evolve_schrodinger.csv").decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.startswith("t,q_0,") and ",p_23" in header
    # the Hamilton flow is reported only as its deviation from this one
    assert not (tmp_path / "evolve_hamilton.csv").exists()


def test_evolve_reports_edge_mass(tmp_path):
    # population in the top 4 of the 32 levels over the stored states
    assert run(["evolve", "--kind", "quartic", "--t-final", "1",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "evolve.json"))
    rows = [ln for ln in read(tmp_path / "evolve_schrodinger.csv").decode()
            .splitlines() if not ln.startswith("#")][1:]
    amps = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    pops = (amps[:, :32] ** 2 + amps[:, 32:] ** 2) / 2.0
    edge = doc["results"]["edge_mass"]
    assert edge == pytest.approx(np.max(np.sum(pops[:, -4:], axis=1)),
                                 rel=1e-9)
    assert 1e-6 < edge < 1e-4


def test_evolve_unstable_step_exits_1_without_json(tmp_path, capsys):
    # dt * rho(H) = 5.6 at N = 128: RK4 would overflow into NaN
    assert run(["evolve", "--kind", "quartic", "--n-levels", "128",
                "--outdir", str(tmp_path)]) == 1
    assert "use dt <= 0.0005" in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize("argv, cfg_text, message", [
    (["evolve", "--tol", "nan"], "", "invalid _float value: 'nan'"),
    (["contract", "sweep", "--hbar-grid", "1,inf"], "",
     "invalid _floats value: '1,inf'"),
    (["contract", "sweep", "--pairs", "0,0:nan,1"], "", "pair syntax"),
    (["evolve"], "t_final = -inf\n", "'-inf' is not finite"),
    # 1/k**2 underflows to 0 and k**2 would overflow: an error, no traceback
    (["algebra", "verify", "--k", "1e200"], "",
     "galq: error: contraction scale k=1e+200 is too large"),
])
def test_nonfinite_input_exits_1_writing_nothing(tmp_path, argv, cfg_text,
                                                 message, capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg_text)
    assert run([*argv, "--config", str(cfgfile), "--outdir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["coset", "orbit", "--steps", "0"], "steps must be >= 1 and dt positive"),
    (["coset", "orbit", "--dt", "0"], "steps must be >= 1 and dt positive"),
    (["coherent", "overlap", "--hbar", "0.5"],
     "numeric cross-check runs in internal units (hbar = 1)"),
    (["contract", "sweep", "--hbar-grid", "1"],
     "need at least two hbar points to fit a slope"),
    # sizes refused before any work
    (["evolve", "--t-final", "1e7", "--dt", "1e-3", "--store-every", "1"],
     "10000000001 stored samples need ~2.46e+04 GiB, over the 1 GiB limit"),
    (["evolve", "--t-final", "1e9", "--dt", "1e-3", "--store-every", "1"],
     "1000000000001 stored samples need ~2.46e+06 GiB, over the 1 GiB limit"),
    (["evolve", "--t-final", "1e300", "--dt", "1e-10"],
     "t_final / dt overflows: too many steps"),
    (["coset", "orbit", "--steps", "100000000000000000000"],
     "100000000000000000001 orbit rows need ~3.17e+13 GiB, over the 1 GiB "
     "limit"),
    (["coherent", "overlap", "--grid-points", "100000", "--no-check-numeric"],
     "10000000000 overlap rows need ~2.05e+03 GiB, over the 1 GiB limit"),
], ids=["orbit-steps-0", "orbit-dt-0", "overlap-hbar-0.5", "sweep-one-hbar",
        "evolve-1e7", "evolve-1e9", "evolve-step-overflow", "orbit-1e20",
        "overlap-1e5-points"])
def test_refused_run_exits_1_writing_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([*argv, "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("points", ["0", "-1"])
def test_coherent_overlap_empty_grid_exits_1(tmp_path, points, capsys):
    # an empty grid would check no pair and report a vacuous pass
    out = tmp_path / "out"
    assert run(["coherent", "overlap", "--grid-points", points,
                "--outdir", str(out)]) == 1
    assert "--grid-points must be >= 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_nonfinite_result_is_not_written(tmp_path, capsys):
    cfg = {"subcommand": "x", "outdir": str(tmp_path), "tol": 1e-6}
    with pytest.raises(cli.GalqError,
                       match=r"x\.json not written: results\.a\[1\] is not finite"):
        cli._finish(cfg, {"a": [1.0, float("nan")]},
                    {"x.csv": cli._csv(["a"], [[1.0]])}, [("x", [])])
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


README = Path(__file__).resolve().parents[1] / "README.md"

# A small run of each subcommand that writes every file the subcommand can
SMALL_RUNS = {
    ("algebra", "verify"): [],
    ("coset", "orbit"): ["--steps", "2"],
    ("coherent", "overlap"): ["--n-levels", "64", "--grid-points", "2",
                              "--residual-scan", "1", "--residual-levels", "4"],
    ("evolve",): ["--t-final", "0.1", "--n-levels", "16"],
    ("contract", "sweep"): ["--pairs", "0,0:0,1;0,0:1,0", "--hbar-grid",
                            "1,0.5"],
    ("contract", "classical"): ["--hbar-grid", "1,0.1", "--t-final", "0.5"],
}


@pytest.mark.parametrize("words", list(SMALL_RUNS), ids="-".join)
def test_nonfinite_result_exits_1_writing_nothing(tmp_path, monkeypatch,
                                                  capsys, words):
    finish = cli._finish

    def poisoned(cfg, results, *rest):
        return finish(cfg, {**results, "injected": float("nan")}, *rest)

    monkeypatch.setattr(cli, "_finish", poisoned)
    out = tmp_path / "out"
    assert run([*words, *SMALL_RUNS[words], "--outdir", str(out)]) == 1
    assert "results.injected is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("check", ["--check-numeric", "--no-check-numeric"])
def test_nan_overlap_kernel_exits_1_writing_nothing(tmp_path, monkeypatch,
                                                    capsys, check):
    # a NaN kernel value must not be folded away into a passing check, nor
    # written into the table when no check looks at it
    overlap = coherent.overlap_analytic

    def nan_for_distinct(l1, l2, hbar=1.0):
        return overlap(l1, l2, hbar) if l1 is l2 else complex(float("nan"))

    monkeypatch.setattr(coherent, "overlap_analytic", nan_for_distinct)
    out = tmp_path / "out"
    assert run(["coherent", "overlap", "--n-levels", "64", "--grid-points",
                "2", check, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not written" in err and "is not finite" in err
    assert list(out.iterdir()) == []


def test_nonfinite_evolve_result_writes_no_file(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(projective, "trajectory_deviation",
                        lambda straj, ctraj: float("nan"))
    assert run(["evolve", "--t-final", "0.1", "--n-levels", "16",
                "--outdir", str(tmp_path)]) == 1
    assert "results.max_deviation is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evolve_zero_time_single_row(tmp_path):
    assert run(["evolve", "--t-final", "0", "--n-levels", "16",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "evolve.json"))
    assert doc["results"]["max_deviation"] == 0.0
    assert doc["results"]["n_samples"] == 1


def test_evolve_impossible_tolerance_exits_2(tmp_path):
    assert run(["evolve", "--t-final", "0.5", "--n-levels", "16",
                "--tol", "1e-30", "--store-every", "100",
                "--outdir", str(tmp_path)]) == 2
    # outputs are still written for diagnosis
    doc = json.loads(read(tmp_path / "evolve.json"))
    assert doc["pass"] is False


def test_evolve_nonhermitian_file_exits_1(tmp_path):
    bad = fock.FockOperator(4, np.triu(np.ones((4, 4))), 1.0, "bad")
    path = tmp_path / "h.csv"
    fock.save_operator_csv(bad, path)
    assert run(["evolve", "--hamiltonian-file", str(path),
                "--outdir", str(tmp_path)]) == 1


@pytest.mark.parametrize("text, message", [
    ("# n_levels=2 hbar=1.0\nre_0,im_0,re_1,im_1\n0,0,x,0\n0,0,1,0\n",
     "line 3: entry 'x' is not a number"),
    ("# n_levels=2 hbar=abc\nre_0,im_0,re_1,im_1\n1,0,0,0\n0,0,1,0\n",
     "line 1: hbar tag 'abc' is not a number"),
    ("# n_levels=2 hbar=1.0\nre_0,im_0,re_1,im_1\n1,0,0,0\n0,0,nan,0\n",
     "line 4: entry 'nan' is not finite"),
    ("# n_levels=2 hbar=1.0\nre_0,im_0,re_1,im_1\n1,0,0,0\n0,0,1\n",
     "line 4: row length differs from the first row"),
], ids=["cell", "tag", "nan", "ragged"])
def test_evolve_malformed_file_exits_1_writing_nothing(tmp_path, capsys,
                                                       text, message):
    path = tmp_path / "h.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["evolve", "--hamiltonian-file", str(path),
                "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(out.iterdir()) == []


def test_evolve_file_at_another_hbar_exits_1_writing_nothing(tmp_path,
                                                             capsys):
    # evolve runs in internal units: a Hamiltonian saved at hbar = 0.5 is
    # refused, not integrated as if it were hbar = 1
    path = tmp_path / "h.csv"
    fock.save_operator_csv(fock.build_hamiltonian("harmonic", 16, 0.5), path)
    out = tmp_path / "out"
    assert run(["evolve", "--hamiltonian-file", str(path),
                "--outdir", str(out)]) == 1
    assert "hbar=0.5" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_contract_sweep_defaults(tmp_path):
    assert run(["contract", "sweep", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "contract_sweep.json"))
    assert doc["pass"] is True
    entry = doc["results"]["pairs"][0]
    assert entry["expected_slope"] == pytest.approx(-0.25)
    assert entry["slope_rel_error"] <= 1e-3
    assert entry["max_numeric_gap"] <= 1e-8
    lines = read(tmp_path / "contract_sweep_pair0.csv").decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "hbar,abs_overlap,offdiag_x,offdiag_p"


def test_coherent_overlap_residual_scan_warning(tmp_path):
    assert run(["coherent", "overlap", "--n-levels", "64", "--grid-points",
                "3", "--residual-scan", "4,6", "--residual-step", "1.5",
                "--residual-levels", "4", "--outdir", str(tmp_path)]) == 0
    scan = json.loads(read(tmp_path / "coherent_overlap.json"))[
        "results"]["residual_scan"]
    assert [r[:2] for r in scan] == [[4.0, 1.5], [6.0, 1.5]]
    assert all("too coarse" in r[3] for r in scan)
    lines = read(tmp_path / "coherent_residual_scan.csv").decode().splitlines()
    assert [ln.count(",") for ln in lines if not ln.startswith("#")] == [2] * 3


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value, why", [
    ("4,x", "could not convert string to float: 'x'"),
    ("nan", "'nan' is not finite"),
    ("4,,6", "could not convert string to float: ''"),
], ids=["word", "nan", "empty-radius"])
def test_coherent_overlap_bad_residual_scan_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch, source, value, why):
    def refuse(*args, **kwargs):
        raise AssertionError("the overlap grid was computed")
    monkeypatch.setattr(coherent, "overlap_analytic", refuse)
    out = tmp_path / "out"
    scan = ["--residual-scan", value]
    if source == "config":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"residual_scan = {value}\n")
        scan = ["--config", str(cfgfile)]
    assert run(["coherent", "overlap", "--grid-points", "2", *scan,
                "--outdir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"galq: error: residual_scan: {why}\n")
    assert list(out.iterdir()) == []


def test_coherent_overlap_residual_scan_is_echoed_as_given(tmp_path):
    assert run(["coherent", "overlap", "--grid-points", "1",
                "--residual-scan", "4,6.0", "--residual-levels", "4",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "coherent_overlap.json"))
    assert doc["config"]["residual_scan"] == "4,6.0"
    assert [r[0] for r in doc["results"]["residual_scan"]] == [4.0, 6.0]
    for name in ("coherent_overlap.csv", "coherent_residual_scan.csv"):
        assert "# residual_scan = 4,6.0\n" in read(tmp_path / name).decode()


@pytest.mark.parametrize("radius, step, gib", [
    ("4", "1e-300", "inf"),
    ("1e308", "1e-10", "inf"),  # 2 radius / step is past the float range
    ("9", "1e-3", "246"),
], ids=["step-1e-300", "radius-1e308", "radius-9-step-1e-3"])
def test_coherent_overlap_residual_scan_over_the_memory_limit_exits_1(
        tmp_path, capsys, monkeypatch, radius, step, gib):
    def refuse(*args, **kwargs):
        raise AssertionError("the label grid was built")
    monkeypatch.setattr(np, "meshgrid", refuse)
    assert run(["coherent", "overlap", "--grid-points", "1",
                "--residual-scan", radius, "--residual-step", step,
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"galq: error: residual grid of radius {float(radius):g} and step "
        f"{float(step):g} needs ~{gib} GiB on 16 levels, over the 1 GiB "
        "limit\n")
    assert list(tmp_path.iterdir()) == []


def test_contract_sweep_two_point_grid_has_no_stderr(tmp_path):
    # two points fit the slope exactly: there is no standard error
    assert run(["contract", "sweep", "--hbar-grid", "1,0.5",
                "--outdir", str(tmp_path)]) == 0
    doc = strict_json(tmp_path / "contract_sweep.json")
    pair = doc["results"]["pairs"][0]
    assert pair["slope_stderr"] is None and pair["pass"] is True


@pytest.mark.parametrize("flags, message", [
    # at lam = 0 every deviation is roundoff (2.7e-14 ... 5.9e-12)
    (["--lam", "0"], "--lam must be > 0 for --kind quartic"),
    (["--lam", "-0.5"], "quartic coupling lam must be >= 0"),
    # parity keeps <X> and <P> of the vacuum at 0: every deviation is 0
    (["--x0", "0", "--p0", "0"], "--x0 and --p0 must not both be 0"),
], ids=["lam-zero", "lam-negative", "origin"])
def test_contract_classical_degenerate_quartic_exits_1(tmp_path, capsys,
                                                       flags, message):
    assert run(["contract", "classical", "--kind", "quartic", *flags,
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"galq: error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_contract_classical_quartic_zero_time_exits_1(tmp_path, capsys):
    # every deviation at t = 0 is roundoff: no ratio to judge
    assert run(["contract", "classical", "--kind", "quartic", "--t-final",
                "0", "--outdir", str(tmp_path)]) == 1
    assert "--t-final must be > 0 for --kind quartic" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    (["--x0", "1", "--t-final", "100000", "--hbar-grid", "1,0.5"],
     "quartic classical reference is not finite at t = 1000: RK4 with "
     "substep dt = 20 left the finite range"),
    (["--x0", "1e120"],
     "quartic classical reference is not finite at t = 0.02: RK4 with "
     "substep dt = 0.0004 left the finite range"),
], ids=["diverged-step", "overflow"])
def test_contract_classical_blown_up_reference_exits_1(tmp_path, capsys,
                                                       flags, message):
    # the classical reference failed, not the quantum result
    assert run(["contract", "classical", "--kind", "quartic", *flags,
                "--outdir", str(tmp_path)]) == 1
    # the whole of stderr: no traceback and no numpy warning
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, message", [
    ("0.1,1", "hbar grid must be strictly descending"),
    ("0.1,0.1", "hbar grid must be strictly descending"),
    ("0.1", "need at least two hbar points to compare"),
], ids=["ascending", "repeated", "single"])
def test_contract_classical_quartic_grid_that_cannot_pass_exits_1(
        tmp_path, capsys, grid, message):
    out = tmp_path / "out"
    assert run(["contract", "classical", "--kind", "quartic", "--hbar-grid",
                grid, "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(out.iterdir()) == []
    # a harmonic grid is free: its check holds at every hbar
    assert run(["contract", "classical", "--hbar-grid", grid, "--t-final",
                "0.5", "--outdir", str(out)]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, message", [
    (["--x0", "1e120"], "hbar=1.0: mean occupation 5e+239 needs a Fock "
     "cutoff > cap 65536 (initial tail)"),
    # |alpha|^2 = 1e400 is inf: refused as too large, with no numpy warning
    (["--x0", "1e200", "--p0", "1e200"], "hbar=1.0: mean occupation inf "
     "needs a Fock cutoff > cap 65536 (initial tail)"),
], ids=["x0-1e120", "x0-p0-1e200"])
def test_contract_classical_beyond_the_cutoff_cap_exits_1(tmp_path, capsys,
                                                          flags, message):
    assert run(["contract", "classical", *flags,
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_contract_sweep_beyond_the_cutoff_cap_skips_the_series(tmp_path):
    # mean occupation >= 5e19: no cutoff up to 65536 keeps the tail, so no
    # numeric series; the closed-form slope is still checked
    assert run(["contract", "sweep", "--pairs", "1e10,0:1e10,0.5",
                "--outdir", str(tmp_path)]) == 0
    pair = strict_json(tmp_path / "contract_sweep.json")["results"]["pairs"][0]
    assert pair["pass"] is True
    assert pair["n_levels"] == [None] * 7
    assert pair["max_numeric_gap"] is None


def test_contract_sweep_checks_the_series_up_to_the_cap(tmp_path):
    # cutoffs above 8192 and below 65536 get their numeric check too
    assert run(["contract", "sweep", "--pairs", "0,240:0,240.5",
                "--hbar-grid", "1,0.5", "--outdir", str(tmp_path)]) == 0
    pair = strict_json(tmp_path / "contract_sweep.json")["results"]["pairs"][0]
    assert pair["n_levels"] == [30125, 59541]
    assert pair["max_numeric_gap"] <= 1e-8


@pytest.mark.filterwarnings("error")
def test_contract_sweep_underflowed_overlap_exits_1(tmp_path, capsys):
    # exp(-1/(4 hbar)) is 0 in floats at hbar = 1e-4: ln|overlap| is -inf
    assert run(["contract", "sweep", "--hbar-grid", "1e-3,1e-4",
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "galq: error: |overlap| underflows to 0 at hbar=0.0001: ln|overlap| "
        "has no finite value to fit\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["contract", "classical", "--x0", "1e300", "--hbar-grid", "1e-20"],
     "hbar=1e-20: mean occupation inf needs a Fock cutoff > cap 65536 "
     "(initial tail)"),
    # the occupation is refused as inf and the series skipped; the
    # closed-form overlap of labels 1e300 apart then underflows
    (["contract", "sweep", "--pairs", "1e300,0:0,0", "--hbar-grid",
      "1e-20,1e-21"],
     "|overlap| underflows to 0 at hbar=1e-20: ln|overlap| has no finite "
     "value to fit"),
    (["contract", "sweep", "--hbar-grid", "1e-320,1e-321"],
     "|overlap| underflows to 0 at hbar=9.99989e-321: ln|overlap| has no "
     "finite value to fit"),
    # a nonzero cross term: the kernel's phase overflows to inf as its
    # Gaussian factor underflows, and the kernel is 0, not NaN
    (["contract", "sweep", "--pairs", "1,1:1,2", "--hbar-grid",
      "1e-320,1e-321"],
     "|overlap| underflows to 0 at hbar=9.99989e-321: ln|overlap| has no "
     "finite value to fit"),
    # E t overflows in the propagation's phases; it once wrote NaN phases
    # and then refused the NaN deviations it gave
    (["contract", "classical", "--t-final", "1e308"],
     "the phase E t keeps no fractional digit in float64: |E| up to 14.5 "
     "at |t| up to 1e+308; max|E| max|t| must stay below 2**52"),
], ids=["classical-x0-1e300", "sweep-p-1e300", "sweep-subnormal-hbar",
        "sweep-subnormal-hbar-phase-overflow", "classical-t-final-1e308"])
def test_contract_past_the_float_range_exits_1_without_warnings(
        tmp_path, capsys, argv, message):
    # occupation / hbar and the kernel's 1/hbar overflow in floats: a
    # readable refusal, with no numpy warning on the way
    assert run([*argv, "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"galq: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_contract_classical_phase_without_fractional_digits_exits_1(
        tmp_path, capsys):
    # at t = 1e20 float64 keeps no fractional digit of E t: the run once
    # reported the noise of its phases as a tolerance failure (exit 2)
    assert run(["contract", "classical", "--t-final", "1e20",
                "--outdir", str(tmp_path)]) == 1
    assert "the phase E t keeps no fractional digit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_contract_classical_long_harmonic_run_passes(tmp_path):
    # the largest phase at t = 1e12 is 6.6e14 < 2**52: (n + 1/2) t is exact
    assert run(["contract", "classical", "--t-final", "1e12",
                "--outdir", str(tmp_path)]) == 0
    results = strict_json(tmp_path / "contract_classical.json")["results"]
    assert results["n_levels"] == [16, 52, 108, 666]
    assert max(results["max_deviation"]) <= 1e-6


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["contract", "classical", "--kind", "harmonic"], set()),
    (["contract", "classical", "--kind", "quartic", "--hbar-grid", "1,0.1"],
     {"linalg"}),
], ids=["import", "classical-harmonic", "classical-quartic"])
def test_scipy_modules_loaded(tmp_path, argv, loaded):
    # galq runs on numpy; the banded eigensolver of the quartic emergence
    # is its one scipy call, so only that run may load scipy.linalg (with
    # the private modules and the version module every scipy import loads)
    code = "import sys, galq, galq.cli\n"
    if argv is not None:
        code += f"galq.cli.main({[*argv, '--outdir', str(tmp_path)]!r})\n"
    code += ("import json; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('scipy'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = json.loads(out.splitlines()[-1])
    if not loaded:
        assert modules == []
    subpackages = {m.split(".")[1] for m in modules if "." in m} - {"version"}
    assert {s for s in subpackages if not s.startswith("_")} == loaded


def test_contract_classical_harmonic_zero_time_passes(tmp_path):
    assert run(["contract", "classical", "--t-final", "0",
                "--outdir", str(tmp_path)]) == 0
    assert strict_json(tmp_path / "contract_classical.json")["pass"] is True


def test_contract_sweep_same_pair_exits_1(tmp_path):
    assert run(["contract", "sweep", "--pairs", "same",
                "--outdir", str(tmp_path)]) == 1


def test_contract_sweep_identical_pair_is_degenerate(tmp_path, capsys):
    assert run(["contract", "sweep", "--pairs", "0,0:0,0",
                "--outdir", str(tmp_path)]) == 1
    assert "identical labels" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_contract_classical_harmonic(tmp_path):
    assert run(["contract", "classical", "--hbar-grid", "1,0.1,0.01",
                "--t-final", "1", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "contract_classical.json"))
    assert doc["pass"] is True
    assert max(doc["results"]["max_deviation"]) <= 1e-6
    assert doc["results"]["n_levels"] == [16, 52, 108]
    assert max(doc["results"]["edge_mass"]) <= 1e-10
    lines = read(tmp_path / "contract_classical.csv").decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "hbar,max_traj_dev"


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("steps = 5\ndt = 0.5  # halves\ncoset = config\n")
    out = tmp_path / "out"
    assert run(["coset", "orbit", "--config", str(cfgfile), "--steps", "2",
                "--outdir", str(out)]) == 0
    doc = json.loads(read(out / "coset_orbit.json"))
    assert doc["config"]["steps"] == 2        # flag wins
    assert doc["config"]["dt"] == 0.5         # file beats default
    assert doc["config"]["coset"] == "config"  # file beats default
    assert doc["config"]["thetabar"] == 0.0   # untouched default


def test_env_outdir_override(tmp_path, monkeypatch):
    envdir = tmp_path / "från_env"
    monkeypatch.setenv(cli.ENV_OUTDIR, str(envdir))
    assert run(["algebra", "verify"]) == 0
    assert (envdir / "algebra_verify.json").exists()
    # explicit flag still wins over the environment
    flagdir = tmp_path / "from_flag"
    assert run(["algebra", "verify", "--outdir", str(flagdir)]) == 0
    assert (flagdir / "algebra_verify.json").exists()


def test_bad_flag_exits_1(tmp_path):
    # every run writes the same files: there is no --format
    for flags in (["--method", "euler"], ["--format", "csv"]):
        assert run(["evolve", *flags, "--outdir", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_value_after_space_reads_as_value(tmp_path):
    # "-1,0,0,0", "-.5,0,0" and "-1e-1" start like a flag, and argparse
    # by default reads them as one unless written as --flag=value
    runs = [(["coset", "orbit"], [("--coset", "spacetime"),
                                  ("--point", "-1,0,0,0"),
                                  ("--v", "-.5,0,0"), ("--steps", "2")]),
            (["evolve"], [("--x0", "-1e-1"), ("--p0", "-0.5"),
                          ("--t-final", "0.1"), ("--n-levels", "16")])]
    outdir = str(tmp_path)
    for words, flags in runs:
        assert run([*words, *(w for flag in flags for w in flag),
                    "--outdir", outdir]) == 0
    spaced = {name: read(tmp_path / name) for name in os.listdir(tmp_path)}
    assert b"# point = -1,0,0,0\n" in spaced["coset_orbit.csv"]
    assert b"# x0 = -0.1\n" in spaced["evolve_schrodinger.csv"]
    for words, flags in runs:
        assert run([*words, *(f"{k}={v}" for k, v in flags),
                    "--outdir", outdir]) == 0
    assert {name: read(tmp_path / name)
            for name in os.listdir(tmp_path)} == spaced


def test_repeated_runs_byte_identical(tmp_path):
    outdir = str(tmp_path)
    cmds = [
        ["algebra", "verify", "--outdir", outdir],
        ["contract", "sweep", "--outdir", outdir],
        ["evolve", "--t-final", "1", "--n-levels", "16", "--store-every",
         "200", "--seed", "7", "--outdir", outdir],
        ["coherent", "overlap", "--n-levels", "64", "--grid-points", "3",
         "--outdir", outdir],
    ]
    for cmd in cmds:
        assert run(cmd) == 0
    snapshot = {name: read(tmp_path / name) for name in os.listdir(tmp_path)}
    for cmd in cmds:
        assert run(cmd) == 0
    for name, blob in snapshot.items():
        assert read(tmp_path / name) == blob, f"{name} not reproducible"


@pytest.mark.parametrize("argv, line", [
    (["coset", "orbit"], "coset = torus"),
    (["coherent", "overlap", "--grid-points", "2"], "check_numeric = flase"),
], ids=["coset = torus", "check_numeric = flase"])
def test_config_file_value_checked_like_its_flag(tmp_path, argv, line,
                                                 capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfgfile), "--outdir", str(out)]) == 1
    assert "config value for" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("hbar_gird = 1,0.5", "'hbar_gird'"),
    # every run writes the same files: there is no --format
    ("format = csv", "'format'"),
    # a flag of another subcommand
    ("steps = 5", "'steps'"),
])
def test_unknown_config_key_exits_1_writing_nothing(tmp_path, line, key,
                                                    capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("t_final = 0.5\n" + line + "\n")
    out = tmp_path / "out"
    assert run(["contract", "classical", "--config", str(cfgfile),
                "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"galq: error: unknown config key {key}: not a flag of galq "
        "contract classical\n")
    assert not out.exists()


def test_duplicate_config_key_exits_1_writing_nothing(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k = 1\n# a comment\nk = 2\n")
    out = tmp_path / "out"
    assert run(["algebra", "verify", "--config", str(cfgfile),
                "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "galq: error: line 3: duplicate config key 'k'\n")
    assert not out.exists()


@pytest.mark.parametrize("text,want", [
    ("no", False), ("0", False), ("False", False),
    ("yes", True), ("1", True), ("TRUE", True)])
def test_config_file_booleans(tmp_path, text, want):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"check_numeric = {text}\n")
    assert run(["coherent", "overlap", "--config", str(cfgfile),
                "--grid-points", "2", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "coherent_overlap.json"))
    assert doc["config"]["check_numeric"] is want


COMMON_FLAGS = {"--help", "--config", "--outdir", "--seed"}

# Long flags and choices of each subcommand; a change here changes the CLI.
CLI_SURFACE = {
    ("algebra", "verify"): ({"--k", "--tol", "--table"}, {}),
    ("coset", "orbit"): (
        {"--coset", "--steps", "--dt", "--point", "--b", "--v", "--a",
         "--rot", "--omega", "--pbar", "--xbar", "--thetabar"},
        {"--coset": ("spacetime", "config", "phase")}),
    ("coherent", "overlap"): (
        {"--n-levels", "--hbar", "--p1", "--x1", "--grid-min", "--grid-max",
         "--grid-points", "--check-numeric", "--no-check-numeric", "--tol",
         "--residual-scan", "--residual-step", "--residual-levels"}, {}),
    ("evolve",): (
        {"--kind", "--lam", "--n-levels", "--t-final", "--dt", "--method",
         "--x0", "--p0", "--store-every", "--tol", "--hamiltonian-file"},
        {"--kind": ("harmonic", "free", "quartic"),
         "--method": ("rk4",)}),
    ("contract", "sweep"): (
        {"--pairs", "--hbar-grid", "--tol", "--numeric-tol"}, {}),
    ("contract", "classical"): (
        {"--kind", "--lam", "--x0", "--p0", "--t-final", "--hbar-grid",
         "--tol", "--min-ratio"},
        {"--kind": ("harmonic", "quartic")}),
}


def _leaf_parsers(parser, words=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, words + (name,))


def test_cli_surface():
    found = {}
    for words, parser in _leaf_parsers(cli.build_parser()):
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--")}
        choices = {s: tuple(a.choices) for a in parser._actions
                   for s in a.option_strings if a.choices is not None}
        found[words] = (flags, choices)
    want = {words: (flags | COMMON_FLAGS, choices)
            for words, (flags, choices) in CLI_SURFACE.items()}
    assert found == want
    assert [len(found[w][0]) for w in CLI_SURFACE] == [7, 16, 17, 15, 8, 12]


@pytest.mark.parametrize("words", list(CLI_SURFACE))
def test_help_exits_0(words, capsys):
    assert run([*words, "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def _readme_cli_section():
    return README.read_text(encoding="utf-8").split(
        "\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_examples():
    """The argument lists of the README's ``galq ...`` example lines."""
    block = re.search(r"```sh\n(.*?)```", _readme_cli_section(), re.S)[1]
    return [shlex.split(ln)[1:] for ln in block.splitlines()
            if ln.startswith("galq ")]


def test_readme_examples_parse():
    parser = cli.build_parser()
    seen = set()
    for argv in _readme_examples():
        try:
            seen.add(parser.parse_args(argv).subcommand)
        except SystemExit:
            pytest.fail("README example does not parse: galq "
                        + shlex.join(argv))
    assert seen == set(cli._SCHEMAS)


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: "-".join(
    w for w in argv[:2] if not w.startswith("-")))
def test_readme_example_runs(tmp_path, capsys, argv):
    # a later --outdir wins over an example's own
    assert run([*argv, "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def _readme_file_table():
    """Command words -> the file names in its row of the README table."""
    table = {}
    for line in _readme_cli_section().splitlines():
        row = re.fullmatch(r"\| `galq ([a-z ]+)` \| (.*) \|", line)
        if row:
            table[tuple(row[1].split())] = re.findall(
                r"`([\w<>]+\.(?:json|csv|txt))`", row[2])
    return table


@pytest.mark.parametrize("words", list(SMALL_RUNS), ids="-".join)
def test_readme_file_table_matches_a_run(tmp_path, words):
    names = _readme_file_table().get(words)
    assert names, f"no README file-table row for galq {' '.join(words)}"
    assert run([*words, *SMALL_RUNS[words], "--outdir", str(tmp_path)]) == 0
    # <i> in a name stands for a pair index
    patterns = [re.escape(n).replace("<i>", r"\d+") for n in names]
    written = sorted(os.listdir(tmp_path))
    assert [w for w in written
            if not any(re.fullmatch(p, w) for p in patterns)] == []
    assert [n for n, p in zip(names, patterns)
            if not any(re.fullmatch(p, w) for w in written)] == []


def test_main_builds_one_parser_and_keeps_no_state_in_it(tmp_path,
                                                         monkeypatch):
    # main reuses one parser per process: a flag given to one run must not
    # reach the next, whose files match a run on a freshly built parser
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    argv = ["coherent", "overlap", "--n-levels", "32", "--grid-points", "3",
            "--outdir", str(tmp_path)]

    def written():
        doc = json.loads((tmp_path / "coherent_overlap.json").read_text())
        return doc["config"]["check_numeric"], {
            p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    assert run([*argv, "--no-check-numeric"]) == 0
    assert written()[0] is False
    assert run(argv) == 0
    shared = written()
    assert shared[0] is True
    assert len(builds) == 1
    cli._shared_parser.cache_clear()
    assert run(argv) == 0
    assert len(builds) == 2
    assert written() == shared


@pytest.mark.parametrize("nan_at", [None, 0.1], ids=["every-hbar", "one-hbar"])
def test_nan_numeric_series_exits_1_writing_nothing(tmp_path, monkeypatch,
                                                    capsys, nan_at):
    # a series that computes NaN is a failed check, not one that was skipped
    series = contraction.fock_overlap_series

    def nan_series(l1, l2, hbar, n_levels):
        if nan_at is None or hbar == nan_at:
            return complex(float("nan"))
        return series(l1, l2, hbar, n_levels)

    monkeypatch.setattr(contraction, "fock_overlap_series", nan_series)
    out = tmp_path / "out"
    assert run(["contract", "sweep", "--outdir", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        "galq: error: contract_sweep.json not written: "
        "results.pairs[0].max_numeric_gap is not finite\n"))
    assert list(out.iterdir()) == []


def test_coherent_overlap_unchecked_gap_is_said_so(tmp_path, capsys):
    assert run(["coherent", "overlap", "--grid-points", "2",
                "--no-check-numeric", "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out \
        == "coherent overlap: numeric gap not checked -> PASS\n"
    doc = json.loads(read(tmp_path / "coherent_overlap.json"))
    assert doc["results"]["max_numeric_gap"] is None


def _traced_peaks(argv, sizes, tmp_path):
    """Traced peak memory of the run argv at each size, given as the flags
    that set it."""
    peaks = []
    for j, flags in enumerate(sizes):
        tracemalloc.start()
        try:
            assert run([*argv, *flags, "--outdir", str(tmp_path / str(j))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("argv, sizes, rows, row_bytes", [
    (["evolve", "--n-levels", "32", "--store-every", "1", "--tol", "1"],
     (["--t-final", "1"], ["--t-final", "4"]), (1001, 4001), 80 * 33),
    (["coset", "orbit", "--coset", "phase"],
     (["--steps", "1000"], ["--steps", "4000"]), (1001, 4001), 340),
    (["coherent", "overlap", "--no-check-numeric"],
     (["--grid-points", "16"], ["--grid-points", "48"]), (256, 2304), 220),
], ids=["evolve", "orbit", "overlap"])
def test_stored_rows_stay_within_their_stated_bytes(tmp_path, capsys, argv,
                                                    sizes, rows, row_bytes):
    # the size guards refuse a run from these per-row figures
    small, large = _traced_peaks(argv, sizes, tmp_path)
    assert (large - small) / (rows[1] - rows[0]) <= row_bytes


@pytest.mark.parametrize("flags, message", [
    (["--grid-points", "41", "--residual-scan", "-1"],
     "radius and step must be positive"),
    (["--grid-points", "41", "--residual-scan", "4", "--residual-step",
      "1e-10"], "residual grid of radius 4 and step 1e-10 needs ~4.86e+15 "
     "GiB on 16 levels, over the 1 GiB limit"),
    (["--grid-points", "41", "--residual-scan", "4", "--residual-levels",
      "999"], "need 1 <= n_check <= n_levels"),
    (["--n-levels", "0", "--grid-points", "2", "--no-check-numeric"],
     "need at least 2 levels"),
    (["--n-levels", "1", "--grid-points", "2", "--no-check-numeric"],
     "need at least 2 levels"),
], ids=["scan-radius", "scan-step", "scan-levels", "levels-0", "levels-1"])
def test_coherent_overlap_refusals_come_before_the_grid(tmp_path, capsys,
                                                        monkeypatch, flags,
                                                        message):
    calls = []
    overlap = coherent.overlap_analytic

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(coherent, "overlap_analytic", counted)
    out = tmp_path / "out"
    assert run(["coherent", "overlap", *flags, "--outdir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"galq: error: {message}\n")
    assert calls == []
    assert list(out.iterdir()) == []
