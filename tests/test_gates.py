"""Every gate of every subcommand fails once: the run exits 2, writes
"pass": false, and its one stderr line names that gate and no other.  The
gate list in README.md is checked against the code and against these
runs, so the docs cannot drift from the bounds the CLI applies."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from galq import algebra, cli, coherent, contraction, projective

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = "galq: tolerance failure: "


# --- faults for the gates that no flag can trip ---------------------------

def jacobi_call_fails(n):
    """The n-th Jacobi residual of the run reads 1.0."""
    def fault(monkeypatch):
        calls = itertools.count()
        defect = algebra.jacobi_defect
        monkeypatch.setattr(algebra, "jacobi_defect",
                            lambda tbl: 1.0 if next(calls) == n
                            else defect(tbl))
    return fault


def self_overlap_off(monkeypatch):
    overlap = coherent.overlap_analytic

    def off(l1, l2, hbar=1.0):
        ov = overlap(l1, l2, hbar)
        return ov * (1 + 1e-6) if l1 is l2 else ov

    monkeypatch.setattr(coherent, "overlap_analytic", off)


def drifting(cls, name):
    """cls.name's series grows by 1e-6 per sample."""
    def fault(monkeypatch):
        series = getattr(cls, name)

        def drift(self, *args):
            values = series(self, *args)
            return values + 1e-6 * np.arange(values.size)

        monkeypatch.setattr(cls, name, drift)
    return fault


def ray_sensitive(monkeypatch):
    invariants = projective.ray_invariants
    monkeypatch.setattr(projective, "ray_invariants",
                        lambda *a, **kw: (invariants(*a, **kw)[0], 1e-6))


def deviation_grows(monkeypatch):
    """The second and third deviations trade places."""
    emergence = contraction.classical_trajectory_emergence

    def grown(*args, **kwargs):
        rep = emergence(*args, **kwargs)
        dev = rep.max_deviation.copy()
        dev[[1, 2]] = dev[[2, 1]]
        return dataclasses.replace(rep, max_deviation=dev)

    monkeypatch.setattr(contraction, "classical_trajectory_emergence", grown)


# --- one failing run per gate ----------------------------------------------

# [[X,P],J] + [[P,J],X] + [[J,X],P] = J - X: no Lie algebra.  Contracted at
# k the defect is 1/k, and the limit keeps only [J,X] = X, which holds.
BROKEN_TABLE = ("generators: J_1 X_1 P_1\n[X_1,P_1] = 1.0*J_1\n"
                "[J_1,X_1] = 1.0*X_1\n[J_1,P_1] = 1.0*J_1\n")
ALGEBRA_GATES = [f"tables.{name}.jacobi_residual{suffix}"
                 for name in ("g3s", "hr3")
                 for suffix in ("", "_k=10.0", "_limit")]
EVOLVE = ["evolve", "--t-final", "0.5", "--n-levels", "16"]
# RK4 at dt = 0.05 drifts past DRIFT_TOL while the flows still agree
EVOLVE_DRIFT = ["evolve", "--kind", "free", "--n-levels", "32", "--t-final",
                "0.5", "--dt", "0.05", "--x0", "-1.93", "--p0", "0.85"]
OVERLAP = ["coherent", "overlap", "--n-levels", "64", "--grid-points", "3"]
# slope errors 1.1e-16, 1.9e-16 and 5.0e-16, numeric gaps 1.1e-16, 1.1e-16
# and 2.2e-16: the bounds below sit between them
SWEEP3 = ["contract", "sweep", "--pairs", "0,0:0,1;0,0:0.3,0.7;0.2,0.1:1,-0.4",
          "--hbar-grid", "1,0.5,0.2"]
QUARTIC = ["contract", "classical", "--kind", "quartic",
           "--hbar-grid", "1,0.1,0.01"]

CASES = [
    ("algebra-table", ["algebra", "verify", "--table", "{table}", "--k",
                       "1e6", "--tol", "1e-3"], None,
     ["tables.custom.jacobi_residual"]),
    *[(f"algebra-{gate}", ["algebra", "verify"], jacobi_call_fails(n), [gate])
      for n, gate in enumerate(ALGEBRA_GATES)],
    ("overlap-gap", [*OVERLAP, "--tol", "1e-30"], None, ["max_numeric_gap"]),
    # with no numeric check, max_numeric_gap is null and passes
    ("overlap-self", [*OVERLAP, "--no-check-numeric"], self_overlap_off,
     ["max_self_overlap_error"]),
    ("evolve-deviation", [*EVOLVE, "--tol", "1e-30"], None,
     ["max_deviation"]),
    ("evolve-rk4-drift", EVOLVE_DRIFT, None, ["norm_drift", "energy_drift"]),
    ("evolve-norm", EVOLVE, drifting(projective.StateTrajectory, "norms"),
     ["norm_drift"]),
    ("evolve-energy", EVOLVE,
     drifting(projective.CoordinateTrajectory, "energy_series"),
     ["energy_drift"]),
    ("evolve-ray", EVOLVE, ray_sensitive, ["ray_sensitivity"]),
    ("sweep-gap", ["contract", "sweep", "--numeric-tol", "1e-30"], None,
     ["pairs[0].max_numeric_gap"]),
    ("sweep-slope", ["contract", "sweep", "--hbar-grid", "1,0.5,0.2",
                     "--tol", "1e-30"], None, ["pairs[0].slope_rel_error"]),
    ("sweep-third-slope", [*SWEEP3, "--tol", "3e-16"], None,
     ["pairs[2].slope_rel_error"]),
    ("sweep-third-gap", [*SWEEP3, "--numeric-tol", "1.5e-16"], None,
     ["pairs[2].max_numeric_gap"]),
    ("harmonic-deviation", ["contract", "classical", "--hbar-grid", "1",
                            "--tol", "1e-30"], None, ["max_deviation[0]"]),
    ("quartic-ratio", [*QUARTIC, "--min-ratio", "1e9"], None,
     ["first_to_last_ratio"]),
    # one decade of hbar: the deviations fall by 9.85, short of 10
    ("quartic-one-decade", ["contract", "classical", "--kind", "quartic",
                            "--hbar-grid", "1,0.1"], None,
     ["first_to_last_ratio"]),
    ("quartic-monotone", [*QUARTIC, "--min-ratio", "1"], deviation_grows,
     ["nonincreasing"]),
]


def run_failing(argv, fault, tmp_path, monkeypatch, capsys):
    """Exit code, JSON summary and failing gates [(name, value, op, bound)]
    of one in-process run."""
    table = tmp_path / "table.txt"
    table.write_text(BROKEN_TABLE)
    if fault is not None:
        fault(monkeypatch)
    out = tmp_path / "out"
    rc = cli.main([a.replace("{table}", str(table)) for a in argv]
                  + ["--outdir", str(out)])
    err = capsys.readouterr().err
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert err.startswith(PREFIX) and err.endswith("\n")
    assert err.count("\n") == 1
    gates = [part.split(" ") for part in err[len(PREFIX):-1].split("; ")]
    assert all(len(g) == 4 and g[2] in "<>" for g in gates), err
    return rc, doc, [(n, float(v), op, float(b)) for n, v, op, b in gates]


# --- the README gate list ---------------------------------------------------

ROW = re.compile(r"^\| `(?P<command>[a-z -]+)` \| (?P<gates>[^|]*) \| "
                 r"(?P<bound>[^|]*) \|$")
BOUND = re.compile(r"^(?P<op><=|>=) (?:`(?P<flag>--[a-z-]+)`, default "
                   r"(?P<default>\S+)|`(?P<const>[A-Z_]+)` = (?P<value>\S+)"
                   r"|(?P<fixed>\S+))$")


def subcommand(words):
    """The runner key of a command line: "contract sweep" -> contract_sweep."""
    return "evolve" if words[0] == "evolve" else "_".join(words[:2])


def readme_gates():
    """(subcommand, gate-name regex, bound match) of each README gate."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        m = ROW.match(line)
        if not m or not m["gates"].startswith("`"):
            continue
        bound = BOUND.match(m["bound"])
        assert bound, line
        for name in re.findall(r"`([^`]+)`", m["gates"]):
            pattern = re.escape(name).replace("<i>", r"\d+").replace(
                "<table>", r"\w+").replace("<k>", r"[0-9.e+-]+")
            rows.append((subcommand(m["command"].split()),
                         re.compile(pattern + "$"), bound))
    return rows


README_GATES = readme_gates()


def test_readme_lists_every_gate_constant_with_its_value():
    consts = {b["const"]: float(b["value"])
              for _, _, b in README_GATES if b["const"]}
    assert consts == {name: getattr(cli, name) for name in vars(cli)
                      if name.endswith("_TOL")}
    for sub, _, b in README_GATES:
        if b["flag"]:
            flag = cli._SCHEMAS[sub][b["flag"][2:].replace("-", "_")]
            assert flag.default == float(b["default"])
    assert {sub for sub, _, _ in README_GATES} == \
        set(cli._RUNNERS) - {"coset_orbit"}


def test_every_readme_gate_fails_in_some_case():
    named = [(subcommand(argv), name) for _, argv, _, names in CASES
             for name in names]
    for sub, pattern, _ in README_GATES:
        assert any(s == sub and pattern.match(name) for s, name in named), \
            pattern.pattern


@pytest.mark.parametrize("argv, fault, names",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_gate_fails_alone(argv, fault, names, tmp_path, monkeypatch,
                               capsys):
    rc, doc, gates = run_failing(argv, fault, tmp_path, monkeypatch, capsys)
    assert rc == 2
    assert doc["pass"] is False
    assert [g[0] for g in gates] == names
    results = doc["results"]
    for i, pair in enumerate(results.get("pairs", [])):
        assert pair["pass"] is not any(g[0].startswith(f"pairs[{i}].")
                                       for g in gates)
    if "nonincreasing" in results:
        assert results["nonincreasing"] is ("nonincreasing" not in names)
    # each named gate is a README gate of the subcommand, past its bound
    for name, value, op, bound in gates:
        [b] = [b for sub, pattern, b in README_GATES
               if sub == subcommand(argv) and pattern.match(name)]
        assert op == (">" if b["op"] == "<=" else "<")
        assert value > bound if op == ">" else value < bound
        if b["flag"]:
            assert bound == doc["config"][b["flag"][2:].replace("-", "_")]
        else:
            assert bound == float(b["value"] or b["fixed"])
