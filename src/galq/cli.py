"""Command-line harness: every experiment as a reproducible run.

Subcommands: ``algebra verify``, ``coset orbit``, ``coherent overlap``,
``evolve``, ``contract sweep``, ``contract classical``.

Output contract
  * every run writes a JSON summary {"config", "results", "pass"} and,
    unless ``--format json``, plot-ready CSV files;
  * every output embeds the fully resolved config and the tool version;
  * identical configs (same seed) produce byte-identical outputs;
  * exit code 0 on success, 1 on input/validation errors, 2 when a
    numerical tolerance check fails.

Config precedence: command-line flags > ``--config`` file (``key = value``
lines, ``#`` comments) > built-in defaults.  The single honored environment
variable is GALQ_OUTDIR, which overrides the output directory unless
``--outdir`` is given explicitly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import expm

from . import __version__, algebra, coherent, contraction, coset, fock, projective
from .errors import GalqError, ParseError, ToleranceError, ValidationError

ENV_OUTDIR = "GALQ_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the exit-code contract
    reserves 2 for tolerance failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x):
    """Shortest round-trip decimal form; deterministic across runs."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def parse_config_file(path):
    """Plain-text ``key = value`` pairs; values stay strings until a flag
    type converts them."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", line_no)
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _floats(text):
    return [float(v) for v in str(text).split(",")]


def _bool(text):
    key = str(text).lower()
    if key not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")
    return key in ("1", "true", "yes")


class _Flag(NamedTuple):
    """One flag's declaration.  conv converts command-line and config-file
    text alike; a bool default makes a --flag/--no-flag pair."""

    conv: Callable
    default: object
    choices: tuple | None = None
    help: str | None = None


# Flags per subcommand, keyed by dest; the flag is --dest with "_" -> "-".
_COMMON = {
    "outdir": _Flag(str, ".", help="output directory "
                    "(env GALQ_OUTDIR overrides the default)"),
    "seed": _Flag(int, 0, help="seed for randomized checks"),
    "format": _Flag(str, "csv", ("csv", "json"),
                    "data file format (default csv)"),
}

_SCHEMAS = {
    "algebra_verify": {
        "k": _Flag(_floats, [10.0], help="comma-separated contraction scales"),
        "tol": _Flag(float, 1e-12, help="residual tolerance"),
        "table": _Flag(str, "", help="verify a serialized table file instead"),
    },
    "coset_orbit": {
        "coset": _Flag(str, "phase", ("spacetime", "config", "phase")),
        "steps": _Flag(int, 20),
        "dt": _Flag(float, 0.1),
        "point": _Flag(str, "", help="comma-separated start coordinates"),
        "b": _Flag(float, 0.0, help="time translation rate"),
        "v": _Flag(str, "0,0,0", help="boost rate vx,vy,vz"),
        "a": _Flag(str, "0,0,0", help="translation rate ax,ay,az"),
        "rot": _Flag(str, "0,0,0", help="rotation rate wx,wy,wz (spacetime)"),
        "omega": _Flag(str, "0,0,0",
                       help="rotation rate wx,wy,wz (config/phase)"),
        "pbar": _Flag(str, "0,0,0", help="momentum translation rate"),
        "xbar": _Flag(str, "0,0,0", help="position translation rate"),
        "thetabar": _Flag(float, 0.0, help="phase rate"),
    },
    "coherent_overlap": {
        "n_levels": _Flag(int, 128),
        "hbar": _Flag(float, 1.0),
        "p1": _Flag(float, 0.0),
        "x1": _Flag(float, 0.0),
        "grid_min": _Flag(float, -2.0),
        "grid_max": _Flag(float, 2.0),
        "grid_points": _Flag(int, 9),
        "check_numeric": _Flag(_bool, True),
        "tol": _Flag(float, 1e-8),
        "residual_scan": _Flag(str, "", help="comma-separated label radii for "
                               "an overcompleteness residual scan"),
        "residual_step": _Flag(float, 0.25),
        "residual_levels": _Flag(int, 16),
    },
    "evolve": {
        "kind": _Flag(str, "harmonic", fock.HAMILTONIAN_KINDS),
        "lam": _Flag(float, 0.1, help="quartic coupling"),
        "n_levels": _Flag(int, 32),
        "t_final": _Flag(float, 10.0),
        "dt": _Flag(float, 1e-3),
        "method": _Flag(str, "rk4", projective.METHODS),
        "x0": _Flag(float, 1.0, help="initial coherent label x"),
        "p0": _Flag(float, 0.5, help="initial coherent label p"),
        "store_every": _Flag(int, 100),
        "tol": _Flag(float, 1e-6),
        "hamiltonian_file": _Flag(str, "", help="custom Hamiltonian CSV "
                                  "(fock.save_operator_csv layout)"),
    },
    "contract_sweep": {
        "pairs": _Flag(str, "0,0:0,1", help="'p1,x1:p2,x2[;...]' or 'same'"),
        "hbar_grid": _Flag(_floats, list(contraction.DEFAULT_HBAR_GRID)),
        "tol": _Flag(float, 1e-3, help="slope relative tolerance"),
        "numeric_tol": _Flag(float, 1e-8),
    },
    "contract_classical": {
        "kind": _Flag(str, "harmonic", ("harmonic", "quartic")),
        "lam": _Flag(float, 0.1),
        "x0": _Flag(float, 1.0),
        "p0": _Flag(float, 0.0),
        "t_final": _Flag(float, 2.0),
        "hbar_grid": _Flag(_floats, [1.0, 0.1, 0.01, 0.001]),
        "tol": _Flag(float, 1e-6),
        "min_ratio": _Flag(float, 10.0),
    },
}

# Help of each command word: the group, then "group_action".
_HELP = {
    "algebra": "structure table checks",
    "algebra_verify": "Jacobi residuals and contractions",
    "coset": "coset space orbits",
    "coset_orbit": "orbit under repeated group action",
    "coherent": "coherent state kernels",
    "coherent_overlap": "overlap table over a label grid",
    "evolve": "Schrodinger vs Hamilton integration",
    "contract": "hbar -> 0 sweeps",
    "contract_sweep": "overlap decay and diagonalization",
    "contract_classical": "classical trajectory emergence",
}


def _resolve_config(subcommand, args, file_cfg):
    """flags > config file > defaults, plus the outdir env override.
    A config-file value passes the same conversion and choices as its
    flag."""
    cfg = {"subcommand": subcommand, "version": __version__}
    for dest, flag in {**_SCHEMAS[subcommand], **_COMMON}.items():
        flag_val = getattr(args, dest, None)
        if flag_val is not None:
            cfg[dest] = flag_val
        elif dest in file_cfg:
            try:
                cfg[dest] = flag.conv(file_cfg[dest])
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"config value for {dest!r}: {exc}") from exc
            if flag.choices is not None and cfg[dest] not in flag.choices:
                raise ValidationError(
                    f"config value for {dest!r}: {cfg[dest]!r} is not one "
                    f"of {', '.join(flag.choices)}")
        else:
            cfg[dest] = flag.default
    if getattr(args, "outdir", None) is None and os.environ.get(ENV_OUTDIR):
        cfg["outdir"] = os.environ[ENV_OUTDIR]
    return cfg


def _config_lines(cfg):
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        elif isinstance(val, float):
            val = _fmt(val)
        lines.append(f"# {key} = {val}")
    return lines


def _write_csv(cfg, name, header, rows):
    """Plot-ready CSV; none is written under --format json."""
    if cfg["format"] == "json":
        return
    path = os.path.join(cfg["outdir"], name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _config_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row) + "\n")
    return path


def _write_json(cfg, name, results, ok):
    path = os.path.join(cfg["outdir"], name)
    doc = {"config": _jsonable(cfg), "results": _jsonable(results),
           "pass": bool(ok)}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _vec(text, name, size=3):
    try:
        vals = _floats(text)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if len(vals) != size:
        raise ValidationError(
            f"{name} must have {size} comma-separated components")
    return np.asarray(vals)


# --- subcommand implementations -------------------------------------------

def run_algebra_verify(cfg):
    tol = cfg["tol"]
    results = {"tables": {}}
    blocks = []
    if cfg["table"]:
        with open(cfg["table"], "r", encoding="utf-8") as fh:
            tables = {"custom": algebra.loads(fh.read())}
    else:
        tables = {"g3s": algebra.g3s_table(), "hr3": algebra.hr3_table()}
    worst = ("", 0.0)
    for name, tbl in tables.items():
        entry = {"dim": tbl.dim, "jacobi_residual": algebra.jacobi_defect(tbl)}
        blocks.append(f"# table {name}\n" + algebra.dumps(tbl))
        for k in cfg["k"]:
            params = algebra.ContractionParams(k=k)
            scaled = algebra.default_scaled_set(tbl)
            ctbl = algebra.contract(tbl, params) if scaled else tbl
            entry[f"jacobi_residual_k={_fmt(k)}"] = algebra.jacobi_defect(ctbl)
            if "X_1" in tbl.names and "P_1" in tbl.names:
                br = algebra.bracket("X_1", "P_1", ctbl)
                entry[f"x1p1_coeff_I_k={_fmt(k)}"] = br.get("I", 0.0)
            blocks.append(f"# table {name} contracted at k={_fmt(k)}\n"
                          + algebra.dumps(ctbl))
        if algebra.default_scaled_set(tbl):
            lim = algebra.contraction_limit(tbl)
            entry["jacobi_residual_limit"] = algebra.jacobi_defect(lim)
            has_xp = "X_1" in tbl.names and "P_1" in tbl.names
            entry["limit_x1p1"] = algebra.bracket("X_1", "P_1", lim) \
                if has_xp else {}
            entry["limit_central_defect"] = algebra.central_defect(lim)
            blocks.append(f"# table {name} contraction limit\n"
                          + algebra.dumps(lim))
        results["tables"][name] = entry
        for key, val in entry.items():
            if key.startswith("jacobi") and val > worst[1]:
                worst = (f"{name}:{key}", val)
    ok = worst[1] <= tol
    results["worst_identity"] = worst[0]
    results["worst_residual"] = worst[1]
    results["tolerance"] = tol
    path = os.path.join(cfg["outdir"], "algebra_tables.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _config_lines(cfg):
            fh.write(line + "\n")
        fh.write("\n".join(blocks))
    _write_json(cfg, "algebra_verify.json", results, ok)
    print(f"algebra verify: worst residual {worst[1]:.3e} "
          f"({worst[0] or 'none'}) -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise ToleranceError(
            f"Jacobi residual {worst[1]:.3e} > {tol:.1e} for {worst[0]}")


def run_coset_orbit(cfg):
    kind = cfg["coset"]
    steps, dt = cfg["steps"], cfg["dt"]
    if steps < 1 or dt <= 0:
        raise ValidationError("steps must be >= 1 and dt positive")
    rows = []
    if kind == "spacetime":
        rot = _vec(cfg["rot"], "rot")
        g = coset.GalileiElement(B=cfg["b"] * dt, V=_vec(cfg["v"], "v") * dt,
                                 R=expm(coset.omega_from_vector(rot * dt)),
                                 A=_vec(cfg["a"], "a") * dt)
        pt_vals = _vec(cfg["point"] or "0,0,0,0", "spacetime point t,x1,x2,x3", 4)
        pt = coset.SpaceTime(pt_vals[0], pt_vals[1:])
        header = ["step", "t", "x1", "x2", "x3"]
        rows.append([0, pt.t, *pt.x])
        for i in range(1, steps + 1):
            pt = coset.apply_galilei(g, pt)
            rows.append([i, pt.t, *pt.x])
    else:
        e = coset.InfinitesimalElement(
            omega=coset.omega_from_vector(_vec(cfg["omega"], "omega")),
            pbar=_vec(cfg["pbar"], "pbar"), xbar=_vec(cfg["xbar"], "xbar"),
            thetabar=cfg["thetabar"])
        if kind == "config":
            pt_vals = _vec(cfg["point"] or "0,0,0,0",
                           "config point x1,x2,x3,theta", 4)
            pt = coset.Config(pt_vals[:3], pt_vals[3])
            header = ["step", "x1", "x2", "x3", "theta"]
            rows.append([0, *pt.x, pt.theta])
            for i in range(1, steps + 1):
                pt = coset.exp_config_action(e, pt, t=dt)
                rows.append([i, *pt.x, pt.theta])
        else:
            pt_vals = _vec(cfg["point"] or "0,0,0,1,0,0,0",
                           "phase point p1,p2,p3,x1,x2,x3,theta", 7)
            pt = coset.Phase(pt_vals[0:3], pt_vals[3:6], pt_vals[6])
            header = ["step", "p1", "p2", "p3", "x1", "x2", "x3", "theta"]
            rows.append([0, *pt.p, *pt.x, pt.theta])
            for i in range(1, steps + 1):
                pt = coset.exp_phase_action(e, pt, t=dt)
                rows.append([i, *pt.p, *pt.x, pt.theta])
    _write_csv(cfg, "coset_orbit.csv", header, rows)
    results = {"n_rows": len(rows), "columns": header,
               "final_row": rows[-1][1:],
               "rows": rows if cfg["format"] == "json" else None}
    _write_json(cfg, "coset_orbit.json", results, True)
    print(f"coset orbit: {kind}, {steps} steps -> PASS")


def run_coherent_overlap(cfg):
    n = cfg["n_levels"]
    hbar = cfg["hbar"]
    pts = np.linspace(cfg["grid_min"], cfg["grid_max"], cfg["grid_points"])
    l1 = coherent.CoherentLabel(cfg["p1"], cfg["x1"])
    rows = []
    worst_gap = 0.0
    worst_self = 0.0
    check = cfg["check_numeric"]
    if check:
        if hbar != 1.0:
            raise ValidationError(
                "numeric cross-check runs in internal units (hbar = 1)")
        s1 = coherent.coherent_state(l1, n).amplitudes
    for p2 in pts:
        for x2 in pts:
            l2 = coherent.CoherentLabel(p2, x2)
            ov = coherent.overlap_analytic(l1, l2, hbar)
            rows.append([cfg["p1"], cfg["x1"], p2, x2,
                         ov.real, ov.imag, abs(ov)])
            if check:
                s2 = coherent.coherent_state(l2, n).amplitudes
                worst_gap = max(worst_gap, abs(complex(np.vdot(s1, s2)) - ov))
            self_ov = coherent.overlap_analytic(l2, l2, hbar)
            worst_self = max(worst_self, abs(self_ov - 1.0))
    ok = worst_self <= 1e-10 and (not check or worst_gap <= cfg["tol"])
    _write_csv(cfg, "coherent_overlap.csv",
               ["p1", "x1", "p2", "x2", "re", "im", "abs"], rows)
    scan = None
    if cfg["residual_scan"]:
        radii = _floats(cfg["residual_scan"])
        scan = []
        for radius in radii:
            res = coherent.overcompleteness_residual(
                n, radius, cfg["residual_step"], n_check=cfg["residual_levels"])
            scan.append([radius, cfg["residual_step"], res.residual])
        _write_csv(cfg, "coherent_residual_scan.csv",
                   ["radius", "step", "residual"], scan)
    results = {"max_numeric_gap": worst_gap if check else None,
               "max_self_overlap_error": worst_self,
               "n_pairs": len(rows),
               "residual_scan": scan,
               "rows": rows if cfg["format"] == "json" else None}
    _write_json(cfg, "coherent_overlap.json", results, ok)
    print(f"coherent overlap: numeric gap "
          f"{worst_gap:.3e} -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise ToleranceError("overlap kernel check failed")


def run_evolve(cfg):
    if cfg["hamiltonian_file"]:
        h_op = fock.load_operator_csv(cfg["hamiltonian_file"])
        n = h_op.n_levels
    else:
        n = cfg["n_levels"]
        h_op = fock.build_hamiltonian(cfg["kind"], n, 1.0, lam=cfg["lam"])
    spec = projective.EvolutionSpec(h_op, cfg["t_final"], cfg["dt"],
                                    method=cfg["method"],
                                    store_every=cfg["store_every"])
    psi0 = coherent.coherent_state(
        coherent.CoherentLabel(cfg["p0"], cfg["x0"]), n)
    straj = projective.schrodinger_evolve(psi0, spec)
    ctraj = projective.hamilton_evolve(projective.to_coordinates(psi0), spec)
    deviation = projective.trajectory_deviation(straj, ctraj)
    norms = straj.norms()
    norm_drift = float(np.max(np.abs(norms - norms[0])))
    energy = ctraj.energy_series(h_op)
    energy_drift = float(np.max(np.abs(energy - energy[0])))
    x_op, p_op = fock.build_xp(n, 1.0)
    _, ray_sens = projective.ray_invariants(psi0, x_op, p_op, h_op,
                                            seed=cfg["seed"])
    if cfg["format"] != "json":
        coord_header = (["t"] + [f"q_{i}" for i in range(n)]
                        + [f"p_{i}" for i in range(n)])
        s = math.sqrt(2.0)
        _write_csv(cfg, "evolve_schrodinger.csv", coord_header,
                   [[t, *(s * st.real), *(s * st.imag)]
                    for t, st in zip(straj.times, straj.states)])
        _write_csv(cfg, "evolve_hamilton.csv", coord_header,
                   [[t, *q, *p] for t, q, p
                    in zip(ctraj.times, ctraj.q, ctraj.p)])
        xs = straj.expectation_series(x_op)
        ps = straj.expectation_series(p_op)
        es = straj.expectation_series(h_op)
        _write_csv(cfg, "evolve_observables.csv",
                   ["t", "x", "p", "h", "norm"],
                   [[t, xv, pv, ev, nv] for t, xv, pv, ev, nv
                    in zip(straj.times, xs, ps, es, norms)])
    ok = (deviation <= cfg["tol"] and norm_drift <= 1e-8
          and energy_drift <= 1e-8 and ray_sens <= 1e-12)
    results = {"max_deviation": deviation, "norm_drift": norm_drift,
               "energy_drift": energy_drift, "ray_sensitivity": ray_sens,
               "n_samples": int(straj.times.size)}
    _write_json(cfg, "evolve.json", results, ok)
    print(f"evolve: deviation {deviation:.3e}, norm drift {norm_drift:.3e}, "
          f"energy drift {energy_drift:.3e} -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise ToleranceError("evolution equivalence check failed")


def _parse_pairs(text):
    if text.strip() == "same":
        lab = coherent.CoherentLabel(0.0, 0.0)
        return [(lab, lab)]
    pairs = []
    for chunk in text.split(";"):
        try:
            left, right = chunk.split(":")
            p1, x1 = (float(v) for v in left.split(","))
            p2, x2 = (float(v) for v in right.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"pair syntax is 'p1,x1:p2,x2[;...]', got {chunk!r}") from exc
        pairs.append((coherent.CoherentLabel(p1, x1),
                      coherent.CoherentLabel(p2, x2)))
    return pairs


def run_contract_sweep(cfg):
    pairs = _parse_pairs(cfg["pairs"])
    spec = contraction.SweepSpec(cfg["hbar_grid"], pairs)
    reports = contraction.overlap_decay_sweep(spec)
    ok = True
    summary = []
    for i, rep in enumerate(reports):
        _write_csv(cfg, f"contract_sweep_pair{i}.csv",
                   ["hbar", "abs_overlap", "offdiag_x", "offdiag_p"],
                   [[h, ov, rx, rp] for h, ov, rx, rp
                    in zip(rep.hbar, rep.abs_overlap, rep.offdiag_x,
                           rep.offdiag_p)])
        gap = rep.max_numeric_gap
        entry = {"pair_index": i,
                 "labels": {"p1": rep.pair[0].p[0], "x1": rep.pair[0].x[0],
                            "p2": rep.pair[1].p[0], "x2": rep.pair[1].x[0]},
                 "fitted_slope": rep.fitted_slope,
                 "slope_stderr": rep.slope_stderr,
                 "expected_slope": rep.expected_slope,
                 "slope_rel_error": rep.slope_rel_error,
                 "max_numeric_gap": None if math.isnan(gap) else gap}
        pair_ok = rep.slope_rel_error <= cfg["tol"]
        if not math.isnan(gap):
            pair_ok = pair_ok and gap <= cfg["numeric_tol"]
        entry["pass"] = pair_ok
        ok = ok and pair_ok
        summary.append(entry)
    _write_json(cfg, "contract_sweep.json", {"pairs": summary}, ok)
    for entry in summary:
        print(f"contract sweep pair {entry['pair_index']}: slope "
              f"{entry['fitted_slope']:.6f} vs {entry['expected_slope']:.6f} "
              f"-> {'PASS' if entry['pass'] else 'FAIL'}")
    if not ok:
        raise ToleranceError("fitted decay slope outside tolerance")


def run_contract_classical(cfg):
    rep = contraction.classical_trajectory_emergence(
        cfg["x0"], cfg["p0"], cfg["hbar_grid"], kind=cfg["kind"],
        lam=cfg["lam"], t_final=cfg["t_final"])
    _write_csv(cfg, "contract_classical.csv", ["hbar", "max_traj_dev"],
               [[h, d] for h, d in zip(rep.hbar, rep.max_deviation)])
    results = {"hbar": rep.hbar, "max_deviation": rep.max_deviation,
               "n_levels": rep.n_levels}
    if cfg["kind"] == "harmonic":
        ok = bool(np.all(rep.max_deviation <= cfg["tol"]))
        results["criterion"] = f"all deviations <= {_fmt(cfg['tol'])}"
    else:
        ratio = float(rep.max_deviation[0] / rep.max_deviation[-1]) \
            if rep.max_deviation[-1] > 0 else math.inf
        mono = bool(np.all(np.diff(rep.max_deviation) <= 0))
        ok = ratio >= cfg["min_ratio"] and mono
        results["first_to_last_ratio"] = ratio
        results["nonincreasing"] = mono
        results["criterion"] = (f"deviation ratio >= {_fmt(cfg['min_ratio'])} "
                                "and nonincreasing")
    _write_json(cfg, "contract_classical.json", results, ok)
    print(f"contract classical ({cfg['kind']}): deviations "
          + " ".join(f"{d:.3e}" for d in rep.max_deviation)
          + f" -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise ToleranceError("classical emergence check failed")


_RUNNERS = {
    "algebra_verify": run_algebra_verify,
    "coset_orbit": run_coset_orbit,
    "coherent_overlap": run_coherent_overlap,
    "evolve": run_evolve,
    "contract_sweep": run_contract_sweep,
    "contract_classical": run_contract_classical,
}


def build_parser():
    """The galq parser, generated from _SCHEMAS and _COMMON."""
    parser = _Parser(prog="galq",
                     description="Galilei-symmetry quantum phase space laboratory")
    parser.add_argument("--version", action="version",
                        version=f"galq {__version__}")
    top = parser.add_subparsers(dest="group", required=True,
                                parser_class=_Parser)
    groups = {}
    for subcommand, schema in _SCHEMAS.items():
        group, _, action = subcommand.partition("_")
        if not action:
            sp = top.add_parser(group, help=_HELP[group])
        else:
            if group not in groups:
                groups[group] = top.add_parser(
                    group, help=_HELP[group]).add_subparsers(
                        dest="action", required=True, parser_class=_Parser)
            sp = groups[group].add_parser(action, help=_HELP[subcommand])
        sp.set_defaults(subcommand=subcommand)
        for dest, flag in {**schema, **_COMMON}.items():
            name = "--" + dest.replace("_", "-")
            if isinstance(flag.default, bool):
                sp.add_argument(name, action=argparse.BooleanOptionalAction,
                                help=flag.help)
            else:
                sp.add_argument(name, type=flag.conv, choices=flag.choices,
                                help=flag.help)
        sp.add_argument("--config", help="key = value config file")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help/--version or flag errors
        return int(exc.code or 0)
    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        cfg = _resolve_config(args.subcommand, args, file_cfg)
        os.makedirs(cfg["outdir"], exist_ok=True)
        _RUNNERS[cfg["subcommand"]](cfg)
    except ToleranceError as exc:
        print(f"galq: tolerance failure: {exc}", file=sys.stderr)
        return 2
    except (GalqError, OSError) as exc:
        print(f"galq: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
