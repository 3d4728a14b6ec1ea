"""Seeded inputs, experiments and their checks for the three workloads,
and the closed-loop passes that run them.

Importing this module imports galq from ``src/`` of the checkout that holds
the benchmark (see ``source.py``), or raises ``source.MissingSource``.

A seed picks only angles and orientations; radii, separations, grid sizes,
step counts and element counts are fixed.  The Fock cutoffs, step counts and
matvec counts are therefore the same for every seed (cutoffs within one
level, from rounding).

Every experiment is checked at the acceptance suite's own tolerance, against
a value the benchmark computes itself wherever one exists (closed forms,
exact eigenvector propagation, matrix products of the raw parameters), not
only against the program's own ``"pass"`` flag.  A check never loosens the
program's tolerance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import layers
import source
from tracer import Tracer

source.import_galq()  # before numpy: it pins the BLAS threads

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from galq import (algebra, cli, coherent, contraction, coset, fock,  # noqa: E402
                  projective)

WORKLOADS = ("classical-limit", "dynamics", "kernels")

GROUP_LAW_TOL = 1e-12
KERNEL_TOL = 1e-8
SELF_OVERLAP_TOL = 1e-10
HARMONIC_TOL = 1e-6
QUARTIC_MIN_RATIO = 10.0
SLOPE_TOL = 1e-3
EVOLVE_TOL = 1e-6
DRIFT_TOL = 1e-8
RAY_TOL = 1e-12

# (|l1|, |l2|, separation^2) of the four decay pairs of acceptance criterion 07.
SWEEP_PAIRS = ((0.0, 0.5, 0.25), (0.0, 1.0, 1.0),
               (math.sqrt(0.13), math.sqrt(1.93), 2.0), (0.0, 2.0, 4.0))


class CheckFailed(Exception):
    """An experiment's result misses its check."""


@dataclass(frozen=True)
class Experiment:
    name: str
    run: Callable  # outdir -> outputs
    check: Callable  # outputs -> None, raises CheckFailed
    known_failure: bool = False


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- seeded inputs ----------------------------------------------------------

def _angle(rng):
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _unit3(rng):
    v = rng.normal(size=3)
    return [float(c) for c in v / np.linalg.norm(v)]


def _rotation(w):
    """Rodrigues form of exp(omega(w)) for one vector or a stack (..., 3) of
    them, independent of scipy's expm."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    k = w / np.where(theta[..., 0] == 0.0, 1.0, theta[..., 0])
    zero = np.zeros(w.shape[:-1])
    kx = np.stack([np.stack([zero, -k[..., 2], k[..., 1]], axis=-1),
                   np.stack([k[..., 2], zero, -k[..., 0]], axis=-1),
                   np.stack([-k[..., 1], k[..., 0], zero], axis=-1)], axis=-2)
    return np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * kx @ kx


def make_inputs(workload, seed, small=False):
    """Plain-data inputs of one workload; ``small`` shrinks every size for
    the benchmark's own tests."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "classical-limit":
        phi = _angle(rng)
        pairs = []
        for r1, r2, d2 in SWEEP_PAIRS:
            a = _angle(rng)
            if r1 == 0.0:
                l1, l2 = (0.0, 0.0), (r2 * math.sin(a), r2 * math.cos(a))
            else:
                delta = math.acos((r1 * r1 + r2 * r2 - d2) / (2.0 * r1 * r2))
                l1 = (r1 * math.sin(a), r1 * math.cos(a))
                l2 = (r2 * math.sin(a + delta), r2 * math.cos(a + delta))
            pairs.append((l1, l2))  # labels as (p, x)
        return {"workload": workload, "seed": seed,
                "x0": math.cos(phi), "p0": math.sin(phi), "lam": 0.1,
                "t_final": 2.0,
                "hbar_grid": [1.0, 0.1, 0.01] if small
                else [1.0, 0.1, 0.01, 0.001],
                "pairs": pairs}
    if workload == "dynamics":
        r = math.sqrt(1.25)
        runs = []
        for kind, store_every, method in (("quartic", 100, "rk4"),
                                          ("harmonic", 10, "rk4"),
                                          ("quartic", 100, "symplectic_leapfrog")):
            phi = _angle(rng)
            runs.append({"kind": kind, "store_every": store_every,
                         "method": method, "x0": r * math.cos(phi),
                         "p0": r * math.sin(phi)})
        return {"workload": workload, "seed": seed, "n_levels": 32,
                "lam": 0.1, "dt": 1e-3, "t_final": 0.5 if small else 10.0,
                "runs": runs}
    if workload == "kernels":
        n_pairs = 200 if small else 2000
        rot = _rotation(rng.uniform(-math.pi, math.pi, (n_pairs, 2, 3)))
        psi = _angle(rng)
        c1 = _angle(rng)
        orbit = {"rot": [0.5 * c for c in _unit3(rng)], "v": _unit3(rng),
                 "a": [0.5 * c for c in _unit3(rng)], "b": 1.0,
                 "start": _unit3(rng),
                 "pbar": _unit3(rng), "xbar": [0.5 * c for c in _unit3(rng)],
                 "thetabar": 0.25, "x": _unit3(rng), "p": _unit3(rng),
                 "steps": 20, "dt": 0.1}
        return {"workload": workload, "seed": seed,
                "group": {"B": rng.uniform(-10, 10, (n_pairs, 2)),
                          "V": rng.uniform(-10, 10, (n_pairs, 2, 3)),
                          "R": rot,
                          "A": rng.uniform(-10, 10, (n_pairs, 2, 3)),
                          "t": rng.uniform(-10, 10, n_pairs),
                          "x": rng.uniform(-10, 10, (n_pairs, 3))},
                 "grid_points": 5 if small else 9, "grid_angle": psi,
                 "n_levels": 64 if small else 128,
                 "p1": math.sin(c1), "x1": math.cos(c1),
                 "residual_scan": [4.0, 6.0] if small else [4.0, 6.0, 9.0],
                 "k": [2.0, 10.0, 1000.0], "orbit": orbit}
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def input_size(inputs):
    """Everything about the inputs that sets the amount of work."""
    w = inputs["workload"]
    if w == "classical-limit":
        return {"hbar_grid": inputs["hbar_grid"],
                "radius2": round(inputs["x0"] ** 2 + inputs["p0"] ** 2, 12),
                "pairs": [(round(math.hypot(*l1), 12), round(math.hypot(*l2), 12))
                          for l1, l2 in inputs["pairs"]]}
    if w == "dynamics":
        return {"t_final": inputs["t_final"], "n_levels": inputs["n_levels"],
                "runs": [(r["kind"], r["method"], r["store_every"],
                          round(r["x0"] ** 2 + r["p0"] ** 2, 12))
                         for r in inputs["runs"]]}
    return {"pairs": len(inputs["group"]["B"]),
            "grid_points": inputs["grid_points"],
            "n_levels": inputs["n_levels"],
            "radius1": round(inputs["p1"] ** 2 + inputs["x1"] ** 2, 12),
            "residual_scan": inputs["residual_scan"], "k": inputs["k"],
            "steps": inputs["orbit"]["steps"]}


# --- running the CLI and reading what it wrote -------------------------------

def _num(v):
    return repr(float(v))


def _flags(**values):
    """``--name=value`` arguments; a list becomes comma-separated floats.
    The ``=`` form keeps argparse from reading "-0.3,0.2,..." as a flag."""
    out = []
    for key, v in values.items():
        if isinstance(v, (list, tuple)):
            v = ",".join(_num(c) for c in v)
        elif isinstance(v, float):
            v = _num(v)
        out.append(f"--{key.replace('_', '-')}={v}")
    return out


def _run_cli(argv, outdir, json_name, csv_names=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--outdir", str(outdir)])
    said = [out.getvalue().strip(), err.getvalue().strip()]
    outputs = {"rc": rc, "said": " | ".join(t for t in said if t), "doc": None,
               "csv": {}}
    if rc not in (0, 2):
        return outputs
    with open(outdir / json_name, encoding="utf-8") as fh:
        outputs["doc"] = json.load(fh)
    for name in csv_names:
        outputs["csv"][name] = _read_csv(outdir / name)
    return outputs


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}


def _check_cli(outputs):
    _require(outputs["rc"] == 0,
             f"exit {outputs['rc']}: {outputs['said'] or 'no message'}")
    _require(outputs["doc"]["pass"] is True, 'wrote "pass": false')
    return outputs["doc"]["results"]


# --- classical-limit -----------------------------------------------------------

def _classical_experiments(inp):
    grid = inp["hbar_grid"]
    common = ["contract", "classical",
              *_flags(x0=inp["x0"], p0=inp["p0"], hbar_grid=grid,
                      t_final=inp["t_final"], seed=inp["seed"])]

    def run_harmonic(outdir):
        return _run_cli([*common, *_flags(kind="harmonic")], outdir,
                        "contract_classical.json")

    def check_harmonic(outputs):
        res = _check_cli(outputs)
        _require(res["hbar"] == grid, f"hbar grid echoed as {res['hbar']}")
        worst = max(res["max_deviation"])
        _require(worst <= HARMONIC_TOL,
                 f"harmonic deviation {worst:.3e} > {HARMONIC_TOL:.0e}")

    def run_quartic(outdir):
        return _run_cli([*common, *_flags(kind="quartic", lam=inp["lam"])],
                        outdir, "contract_classical.json")

    def check_quartic(outputs):
        res = _check_cli(outputs)
        _require(res["hbar"] == grid, f"hbar grid echoed as {res['hbar']}")
        dev = res["max_deviation"]
        ratio = dev[0] / dev[-1] if dev[-1] > 0 else math.inf
        _require(ratio >= QUARTIC_MIN_RATIO,
                 f"quartic ratio {ratio:.3g} < {QUARTIC_MIN_RATIO:g}")
        _require(all(b <= a for a, b in zip(dev, dev[1:])),
                 f"quartic deviations increase: {dev}")

    pairs_arg = ";".join(f"{_num(p1)},{_num(x1)}:{_num(p2)},{_num(x2)}"
                         for (p1, x1), (p2, x2) in inp["pairs"])

    def run_sweep(outdir):
        return _run_cli(["contract", "sweep",
                         *_flags(pairs=pairs_arg, seed=inp["seed"])], outdir,
                        "contract_sweep.json")

    def check_sweep(outputs):
        res = _check_cli(outputs)
        _require(len(res["pairs"]) == len(inp["pairs"]), "pair count differs")
        for entry, ((p1, x1), (p2, x2)) in zip(res["pairs"], inp["pairs"]):
            expected = -((p1 - p2) ** 2 + (x1 - x2) ** 2) / 4.0
            rel = abs(entry["fitted_slope"] - expected) / abs(expected)
            _require(rel <= SLOPE_TOL, f"pair {entry['pair_index']}: slope "
                     f"{entry['fitted_slope']:.6g} vs {expected:.6g}")
            gap = entry["max_numeric_gap"]
            _require(gap is not None and gap <= KERNEL_TOL,
                     f"pair {entry['pair_index']}: numeric gap {gap}")

    return [Experiment("classical-harmonic", run_harmonic, check_harmonic),
            Experiment("classical-quartic", run_quartic, check_quartic),
            Experiment("decay-sweep", run_sweep, check_sweep)]


# --- dynamics ------------------------------------------------------------------

def _ladder_xp(n):
    """X and P of the truncated oscillator, built here from the ladder."""
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return (a + a.T) / math.sqrt(2.0), 1j * (a.T - a) / math.sqrt(2.0)


def exact_observables(kind, lam, n, x0, p0, times):
    """<X>(t), <P>(t), <H> of the coherent state |p0, x0> under the
    truncated Hamiltonian, propagated exactly in its eigenbasis."""
    x, p = _ladder_xp(n)
    x2 = x @ x
    h = 0.5 * (p @ p + x2).real
    if kind == "quartic":
        h = h + lam * (x2 @ x2).real
    alpha = complex(x0, p0) / math.sqrt(2.0)
    levels = np.arange(n)
    psi = np.exp(-0.5 * abs(alpha) ** 2 + levels * np.log(abs(alpha))
                 - 0.5 * np.array([math.lgamma(k + 1.0) for k in levels])
                 + 1j * levels * np.angle(alpha))
    w, v = np.linalg.eigh(h)
    coeff = v.T @ psi
    states = (np.exp(-1j * np.outer(times, w)) * coeff) @ v.T
    ex = np.einsum("ti,ij,tj->t", states.conj(), x, states).real
    ep = np.einsum("ti,ij,tj->t", states.conj(), p, states).real
    energy = float(np.real(np.vdot(psi, h @ psi)))
    return ex, ep, energy


def _evolve_experiment(inp, run_spec):
    n = inp["n_levels"]
    argv = ["evolve", *_flags(
        kind=run_spec["kind"], lam=inp["lam"], n_levels=n,
        t_final=inp["t_final"], dt=inp["dt"], method=run_spec["method"],
        store_every=run_spec["store_every"], x0=run_spec["x0"],
        p0=run_spec["p0"], seed=inp["seed"])]
    n_steps = int(round(inp["t_final"] / inp["dt"]))
    n_samples = n_steps // run_spec["store_every"] + 1

    def run(outdir):
        return _run_cli(argv, outdir, "evolve.json", ["evolve_observables.csv"])

    def check(outputs):
        res = _check_cli(outputs)
        _require(res["max_deviation"] <= EVOLVE_TOL,
                 f"flow deviation {res['max_deviation']:.3e}")
        _require(res["norm_drift"] <= DRIFT_TOL,
                 f"norm drift {res['norm_drift']:.3e} > {DRIFT_TOL:.0e}")
        _require(res["energy_drift"] <= DRIFT_TOL,
                 f"energy drift {res['energy_drift']:.3e} > {DRIFT_TOL:.0e}")
        _require(res["ray_sensitivity"] <= RAY_TOL,
                 f"ray sensitivity {res['ray_sensitivity']:.3e}")
        _require(res["n_samples"] == n_samples,
                 f"{res['n_samples']} samples, expected {n_samples}")
        obs = outputs["csv"]["evolve_observables.csv"]
        ex, ep, energy = exact_observables(
            run_spec["kind"], inp["lam"], n, run_spec["x0"], run_spec["p0"],
            obs["t"])
        gap = max(float(np.max(np.abs(obs["x"] - ex))),
                  float(np.max(np.abs(obs["p"] - ep))))
        _require(gap <= EVOLVE_TOL,
                 f"<X>, <P> off the exact propagation by {gap:.3e}")
        e_gap = float(np.max(np.abs(obs["h"] - energy)))
        _require(e_gap <= EVOLVE_TOL, f"<H> off the exact energy by {e_gap:.3e}")
        n_gap = float(np.max(np.abs(obs["norm"] - obs["norm"][0])))
        _require(n_gap <= DRIFT_TOL, f"norm column drifts by {n_gap:.3e}")

    name = f"evolve-{run_spec['kind']}"
    if run_spec["method"] != "rk4":
        name = f"evolve-{run_spec['kind']}-leapfrog"
    return Experiment(name, run, check,
                      known_failure=run_spec["method"] == "symplectic_leapfrog")


def _dynamics_experiments(inp):
    return [_evolve_experiment(inp, r) for r in inp["runs"]]


# --- kernels -------------------------------------------------------------------

def _affine(B, V, R, A):
    """5x5 affine matrices of stacked Galilei parameters, built here."""
    m = np.zeros((len(B), 5, 5))
    m[:, 0, 0] = 1.0
    m[:, 0, 4] = B
    m[:, 1:4, 0] = V
    m[:, 1:4, 1:4] = R
    m[:, 1:4, 4] = A
    m[:, 4, 4] = 1.0
    return m


def _group_law_experiment(inp):
    g = inp["group"]

    def run(outdir):
        out = np.empty((len(g["B"]), 2, 4))
        for i in range(len(g["B"])):
            g1, g2 = (coset.GalileiElement(B=g["B"][i, j], V=g["V"][i, j],
                                           R=g["R"][i, j], A=g["A"][i, j])
                      for j in (0, 1))
            pt = coset.SpaceTime(g["t"][i], g["x"][i])
            two = coset.apply_galilei(g1, coset.apply_galilei(g2, pt))
            one = coset.apply_galilei(coset.compose(g1, g2), pt)
            out[i, 0] = (two.t, *two.x)
            out[i, 1] = (one.t, *one.x)
        return out

    def check(out):
        law = float(np.max(np.abs(out[:, 0] - out[:, 1])))
        _require(law <= GROUP_LAW_TOL, f"group law deviation {law:.3e}")
        mats = [_affine(g["B"][:, j], g["V"][:, j], g["R"][:, j], g["A"][:, j])
                for j in (0, 1)]
        col = np.concatenate([g["t"][:, None], g["x"], np.ones((len(g["t"]), 1))],
                             axis=1)
        ref = np.einsum("nij,njk,nk->ni", mats[0], mats[1], col)[:, :4]
        gap = float(np.max(np.abs(out[:, 1] - ref)))
        _require(gap <= GROUP_LAW_TOL,
                 f"composed action off the matrix product by {gap:.3e}")

    return Experiment("group-law", run, check)


def grid_labels(inp):
    """The acceptance label grid, rotated by the seeded angle in (p, x)."""
    pts = np.linspace(-2.0, 2.0, inp["grid_points"])
    c, s = math.cos(inp["grid_angle"]), math.sin(inp["grid_angle"])
    return [(c * p - s * x, s * p + c * x) for p in pts for x in pts]


def closed_form_overlap(p1, x1, p2, x2):
    """<l1|l2> at hbar = 1, evaluated here from the closed form."""
    return np.exp(0.5j * (x1 * p2 - p1 * x2)
                  - ((x1 - x2) ** 2 + (p1 - p2) ** 2) / 4.0)


def _kernel_grid_experiment(inp):
    n = inp["n_levels"]
    pairs = grid_labels(inp)

    def run(outdir):
        labels = [coherent.CoherentLabel(p, x) for p, x in pairs]
        states = np.stack([coherent.coherent_state(lab, n).amplitudes
                           for lab in labels])
        x_op, p_op = fock.build_xp(n, 1.0)
        m = len(labels)
        ana = np.empty((m, m), dtype=complex)
        mx = np.empty((m, m), dtype=complex)
        mp = np.empty((m, m), dtype=complex)
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                ana[i, j] = coherent.overlap_analytic(li, lj, 1.0)
                mx[i, j], mp[i, j] = coherent.matrix_element_xp(li, lj, 1.0)
        return {"gram": states.conj() @ states.T,
                "brute_x": states.conj() @ x_op.matrix @ states.T,
                "brute_p": states.conj() @ p_op.matrix @ states.T,
                "overlap": ana, "mx": mx, "mp": mp}

    def check(out):
        self_err = float(np.max(np.abs(np.diag(out["gram"]) - 1.0)))
        _require(self_err <= SELF_OVERLAP_TOL,
                 f"self-overlap error {self_err:.3e}")
        gaps = {
            "overlap kernel": out["gram"] - out["overlap"],
            "X matrix elements": out["brute_x"] - out["mx"],
            "P matrix elements": out["brute_p"] - out["mp"],
        }
        p, x = np.array(pairs).T
        gaps["closed-form overlap"] = out["overlap"] - closed_form_overlap(
            p[:, None], x[:, None], p[None, :], x[None, :])
        for what, diff in gaps.items():
            worst = float(np.max(np.abs(diff)))
            _require(worst <= KERNEL_TOL, f"{what} gap {worst:.3e}")

    return Experiment("kernel-grid", run, check)


def _overlap_cli_experiment(inp):
    argv = ["coherent", "overlap", *_flags(
        n_levels=inp["n_levels"], p1=inp["p1"], x1=inp["x1"],
        grid_points=inp["grid_points"], residual_scan=inp["residual_scan"],
        seed=inp["seed"])]

    def run(outdir):
        return _run_cli(argv, outdir, "coherent_overlap.json",
                        ["coherent_overlap.csv"])

    def check(outputs):
        res = _check_cli(outputs)
        _require(res["max_numeric_gap"] <= KERNEL_TOL,
                 f"numeric gap {res['max_numeric_gap']:.3e}")
        _require(res["max_self_overlap_error"] <= SELF_OVERLAP_TOL,
                 f"self-overlap error {res['max_self_overlap_error']:.3e}")
        rows = outputs["csv"]["coherent_overlap.csv"]
        ref = closed_form_overlap(rows["p1"], rows["x1"], rows["p2"], rows["x2"])
        gap = float(np.max(np.abs(rows["re"] + 1j * rows["im"] - ref)))
        _require(gap <= KERNEL_TOL, f"overlap table off the closed form by {gap:.3e}")
        residuals = [r[2] for r in res["residual_scan"]]
        _require(len(residuals) == len(inp["residual_scan"])
                 and all(b < a for a, b in zip(residuals, residuals[1:])),
                 f"overcompleteness residual does not shrink: {residuals}")

    return Experiment("overlap-cli", run, check)


def _algebra_experiment(inp):
    argv = ["algebra", "verify", *_flags(k=inp["k"], seed=inp["seed"])]

    def run(outdir):
        return _run_cli(argv, outdir, "algebra_verify.json")

    def check(outputs):
        res = _check_cli(outputs)
        _require(res["worst_residual"] <= GROUP_LAW_TOL,
                 f"Jacobi residual {res['worst_residual']:.3e}")
        hr3 = res["tables"]["hr3"]
        for k in inp["k"]:
            coeff = hr3[f"x1p1_coeff_I_k={k!r}"]
            err = abs(complex(coeff["re"], coeff["im"]) - 1j / (k * k))
            _require(err <= GROUP_LAW_TOL,
                     f"[X_1, P_1] central coefficient at k={k:g} off i/k^2 "
                     f"by {err:.3e}")
        _require(hr3["limit_x1p1"] == {} and hr3["limit_central_defect"] == 0,
                 "contraction limit keeps a central term")

    return Experiment("algebra-verify", run, check)


def _orbit_experiments(inp):
    o = inp["orbit"]
    steps, dt = o["steps"], o["dt"]
    base = ["coset", "orbit", *_flags(steps=steps, dt=dt, seed=inp["seed"])]
    k = np.arange(steps + 1)[:, None] * dt  # elapsed time per row

    def spacetime_ref():
        r = _rotation(np.asarray(o["rot"]) * dt)
        t, x = 0.0, np.asarray(o["start"])
        rows = [[t, *x]]
        for _ in range(steps):
            t, x = t + o["b"] * dt, (np.asarray(o["v"]) * dt * t + r @ x
                                     + np.asarray(o["a"]) * dt)
            rows.append([t, *x])
        return np.array(rows)

    def config_ref():
        x0, xb, pb = (np.asarray(o[n]) for n in ("x", "xbar", "pbar"))
        theta = (k[:, 0] * (pb @ x0 + o["thetabar"])
                 + 0.5 * k[:, 0] ** 2 * (pb @ xb))
        return np.column_stack([x0 + k * xb, theta])

    def phase_ref():
        p0, x0, pb, xb = (np.asarray(o[n]) for n in ("p", "x", "pbar", "xbar"))
        theta = k[:, 0] * (0.5 * (pb @ x0 - xb @ p0) + o["thetabar"])
        return np.column_stack([p0 + k * pb, x0 + k * xb, theta])

    specs = {
        "spacetime": (_flags(rot=o["rot"], v=o["v"], a=o["a"], b=o["b"],
                             point=[0.0, *o["start"]]), spacetime_ref()),
        "config": (_flags(pbar=o["pbar"], xbar=o["xbar"],
                          thetabar=o["thetabar"], point=[*o["x"], 0.0]),
                   config_ref()),
        "phase": (_flags(pbar=o["pbar"], xbar=o["xbar"], thetabar=o["thetabar"],
                         point=[*o["p"], *o["x"], 0.0]), phase_ref()),
    }
    out = []
    for kind, (flags, ref) in specs.items():
        def run(outdir, argv=(*base, f"--coset={kind}", *flags)):
            return _run_cli(list(argv), outdir, "coset_orbit.json",
                            ["coset_orbit.csv"])

        def check(outputs, ref=ref):
            _check_cli(outputs)
            table = outputs["csv"]["coset_orbit.csv"]
            got = np.column_stack([v for name, v in table.items()
                                   if name != "step"])
            gap = float(np.max(np.abs(got - ref)))
            _require(gap <= GROUP_LAW_TOL,
                     f"orbit off the closed form by {gap:.3e}")

        out.append(Experiment(f"orbit-{kind}", run, check))
    return out


def _kernel_experiments(inp):
    return [_group_law_experiment(inp), _kernel_grid_experiment(inp),
            _overlap_cli_experiment(inp), _algebra_experiment(inp),
            *_orbit_experiments(inp)]


def experiments(inputs, include_known_failures=False):
    build = {"classical-limit": _classical_experiments,
             "dynamics": _dynamics_experiments,
             "kernels": _kernel_experiments}[inputs["workload"]]
    return [e for e in build(inputs)
            if include_known_failures or not e.known_failure]


def warm_up():
    """One small call per layer, so that lazy set-up (LAPACK and sparse
    kernels, scipy submodules, argparse) is done before any pass is timed."""
    tbl = algebra.hr3_table()
    algebra.jacobi_defect(algebra.contract(tbl, algebra.ContractionParams(k=2.0)))
    e = coset.GalileiElement(V=np.ones(3), R=expm(coset.omega_from_vector(
        np.ones(3))))
    coset.apply_galilei(coset.compose(e, e), coset.SpaceTime(1.0, np.ones(3)))
    coset.exp_phase_action(coset.InfinitesimalElement(pbar=np.ones(3)),
                           coset.Phase(np.zeros(3), np.ones(3)))
    h = fock.build_hamiltonian("quartic", 16)
    psi = coherent.coherent_state(coherent.CoherentLabel(0.5, 0.5), 16)
    coherent.overcompleteness_residual(8, 2.0, 0.5, n_check=4)
    projective.equivalence_report(psi, projective.EvolutionSpec(h, 0.01, 1e-3))
    contraction.classical_trajectory_emergence(1.0, 0.0, (1.0,), kind="quartic",
                                               t_final=0.1, n_samples=3)
    contraction.overlap_decay_sweep(contraction.SweepSpec(
        (1.0, 0.5), [(coherent.CoherentLabel(0.0, 0.0),
                      coherent.CoherentLabel(0.5, 0.0))]))
    cli.build_parser()


# --- passes --------------------------------------------------------------------

def attempt(exp, outdir):
    """Run and check one experiment; the failure message, or None."""
    try:
        exp.check(exp.run(outdir))
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a crash is a failed experiment, not a crash here
        return f"{type(exc).__name__}: {exc}"
    return None


def run_pass(exps, workdir, tracer=None):
    """One pass over the experiments: (wall seconds, [(name, message)])."""
    failures = []
    t0 = time.perf_counter()
    with tracer.span("harness.pass") if tracer else contextlib.nullcontext():
        for exp in exps:
            outdir = workdir / exp.name
            outdir.mkdir(parents=True)
            with (tracer.span(f"harness.{exp.name}") if tracer
                  else contextlib.nullcontext()):
                error = attempt(exp, outdir)
                shutil.rmtree(outdir)
            if error is not None:
                failures.append((exp.name, error))
    return time.perf_counter() - t0, failures


def measure(exps, seconds, trace, workdir, between=None):
    """Closed-loop passes for ``seconds``; with ``trace`` untraced and traced
    passes alternate.  A pass starts only while the median pass of its kind
    so far fits in the time left, and at least one of each kind runs.
    ``between(share)``, if given, runs after each pass with the share of
    ``seconds`` used so far; its own time does not count against ``seconds``.

    Returns (untraced pass times, traced pass times, tracer, span range of
    each traced pass, failures)."""
    tracer = Tracer()
    untraced, traced, ranges, failures = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            trace_next = trace and len(traced) < len(untraced)
            done = traced if trace_next else untraced
            enough = untraced and (traced or not trace)
            estimate = statistics.median(done) if done else 0.0
            if enough and time.perf_counter() - start + estimate > seconds:
                break
            if trace_next:
                tracer.run_id = len(traced)
                lo = len(tracer.spans)
                layers.install(tracer)
                try:
                    elapsed, failed = run_pass(exps, workdir, tracer)
                finally:
                    tracer.restore()
                ranges.append((lo, len(tracer.spans)))
            else:
                elapsed, failed = run_pass(exps, workdir)
            done.append(elapsed)
            failures += failed
            if between is not None:
                paused = time.perf_counter()
                between((paused - start) / seconds)
                start += time.perf_counter() - paused
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return untraced, traced, tracer, ranges, failures
