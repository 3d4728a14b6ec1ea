"""CLI contract: resolution order, output layout, exit codes, determinism."""

import argparse
import json
import os

import numpy as np
import pytest

from galq import cli, fock


def run(args):
    return cli.main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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


def test_coset_orbit_bad_name_exits_1(tmp_path):
    assert run(["coset", "orbit", "--coset", "nonsense",
                "--outdir", str(tmp_path)]) == 1


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
    for name in ("evolve_schrodinger.csv", "evolve_hamilton.csv"):
        lines = read(tmp_path / name).decode().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.startswith("t,q_0,") and ",p_23" in header


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


def test_contract_sweep_same_pair_exits_1(tmp_path):
    assert run(["contract", "sweep", "--pairs", "same",
                "--outdir", str(tmp_path)]) == 1


def test_contract_classical_harmonic(tmp_path):
    assert run(["contract", "classical", "--hbar-grid", "1,0.1,0.01",
                "--t-final", "1", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "contract_classical.json"))
    assert doc["pass"] is True
    assert max(doc["results"]["max_deviation"]) <= 1e-6
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
    assert run(["evolve", "--method", "euler", "--outdir", str(tmp_path)]) == 1


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


@pytest.mark.parametrize("line", ["format = xml", "check_numeric = flase"])
def test_config_file_value_checked_like_its_flag(tmp_path, line, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    assert run(["coherent", "overlap", "--config", str(cfgfile),
                "--grid-points", "2", "--outdir", str(tmp_path)]) == 1
    assert "config value for" in capsys.readouterr().err
    assert not (tmp_path / "coherent_overlap.json").exists()


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


COMMON_FLAGS = {"--help", "--config", "--outdir", "--seed", "--format"}

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
         "--method": ("rk4", "symplectic_leapfrog")}),
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
    want = {words: (flags | COMMON_FLAGS,
                    {"--format": ("csv", "json"), **choices})
            for words, (flags, choices) in CLI_SURFACE.items()}
    assert found == want
    assert [len(found[w][0]) for w in CLI_SURFACE] == [8, 17, 18, 16, 9, 13]


@pytest.mark.parametrize("words", list(CLI_SURFACE))
def test_help_exits_0(words, capsys):
    assert run([*words, "--help"]) == 0
    assert "--config" in capsys.readouterr().out
