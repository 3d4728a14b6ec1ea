"""Command-line harness: every experiment as a reproducible run.

Subcommands: ``algebra verify``, ``coset orbit``, ``coherent overlap``,
``evolve``, ``contract sweep``, ``contract classical``.

Output contract
  * every run ends in :func:`_finish`, the one place that opens output
    files and decides PASS from the run's gates: it writes a JSON summary
    {"config", "results", "pass"} and the plot-ready data files (CSV, and
    ``algebra verify``'s tables), or nothing when a result is not finite;
  * every output embeds the fully resolved config and the tool version;
  * identical configs (same seed) produce byte-identical outputs;
  * exit code 0 on success, 1 on input/validation errors, 2 when a gate
    fails (a results value past its bound; stderr names each such gate).

Config precedence: command-line flags > ``--config`` file (``key = value``
lines, ``#`` comments; a key that is not a flag of the subcommand, or a
key set twice, is an error) > built-in defaults.  The single honored
environment variable is GALQ_OUTDIR, which overrides the output directory
unless ``--outdir`` is given explicitly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, algebra, coherent, contraction, coset, fock, projective
from .errors import GalqError, ParseError, ToleranceError, ValidationError

ENV_OUTDIR = "GALQ_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the exit-code contract
    reserves 2 for tolerance failures, so remap to 1.  A word that starts
    with "-" and a digit or "." (``--point -1,0,0,0``, ``--x0 -1e-1``) is a
    value, not an unknown flag: no galq flag starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x):
    """Shortest round-trip decimal form of a float, or an int as it is;
    deterministic across runs."""
    return str(x) if isinstance(x, int) else repr(float(x))


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()  # Python lists and numbers
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def parse_config_file(path):
    """Plain-text ``key = value`` pairs; values stay strings until a flag
    type converts them.  A key set twice raises ParseError."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", line_no)
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in out:
                raise ParseError(f"duplicate config key {key!r}", line_no)
            out[key] = val.strip()
    return out


def _float(text):
    """A float flag's value; NaN and infinity are rejected as input."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not finite")
    return val


def _floats(text):
    return [_float(v) for v in str(text).split(",")]


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
}

# Gate bounds that no flag sets; --tol, --numeric-tol, --min-ratio set others
DRIFT_TOL = 1e-8  # evolve: norm_drift and energy_drift of RK4
RAY_TOL = 1e-12  # evolve: ray_sensitivity
SELF_OVERLAP_TOL = 1e-10  # coherent overlap: max_self_overlap_error

_SCHEMAS = {
    "algebra_verify": {
        "k": _Flag(_floats, [10.0], help="comma-separated contraction scales"),
        "tol": _Flag(_float, 1e-12, help="residual tolerance"),
        "table": _Flag(str, "", help="verify a serialized table file instead"),
    },
    "coset_orbit": {
        "coset": _Flag(str, "phase", ("spacetime", "config", "phase")),
        "steps": _Flag(int, 20),
        "dt": _Flag(_float, 0.1),
        "point": _Flag(str, "", help="comma-separated start coordinates"),
        "b": _Flag(_float, 0.0, help="time translation rate"),
        "v": _Flag(str, "0,0,0", help="boost rate vx,vy,vz"),
        "a": _Flag(str, "0,0,0", help="translation rate ax,ay,az"),
        "rot": _Flag(str, "0,0,0", help="rotation rate wx,wy,wz (spacetime)"),
        "omega": _Flag(str, "0,0,0",
                       help="rotation rate wx,wy,wz (config/phase)"),
        "pbar": _Flag(str, "0,0,0", help="momentum translation rate"),
        "xbar": _Flag(str, "0,0,0", help="position translation rate"),
        "thetabar": _Flag(_float, 0.0, help="phase rate"),
    },
    "coherent_overlap": {
        "n_levels": _Flag(int, 128),
        "hbar": _Flag(_float, 1.0),
        "p1": _Flag(_float, 0.0),
        "x1": _Flag(_float, 0.0),
        "grid_min": _Flag(_float, -2.0),
        "grid_max": _Flag(_float, 2.0),
        "grid_points": _Flag(int, 9),
        "check_numeric": _Flag(_bool, True),
        "tol": _Flag(_float, 1e-8),
        "residual_scan": _Flag(str, "", help="comma-separated label radii for "
                               "an overcompleteness residual scan"),
        "residual_step": _Flag(_float, 0.25),
        "residual_levels": _Flag(int, 16),
    },
    "evolve": {
        "kind": _Flag(str, "harmonic", fock.HAMILTONIAN_KINDS),
        "lam": _Flag(_float, 0.1, help="quartic coupling"),
        "n_levels": _Flag(int, 32),
        "t_final": _Flag(_float, 10.0),
        "dt": _Flag(_float, 1e-3),
        "method": _Flag(str, "rk4", ("rk4",)),
        "x0": _Flag(_float, 1.0, help="initial coherent label x"),
        "p0": _Flag(_float, 0.5, help="initial coherent label p"),
        "store_every": _Flag(int, 100),
        "tol": _Flag(_float, 1e-6),
        "hamiltonian_file": _Flag(str, "", help="custom Hamiltonian CSV "
                                  "(fock.save_operator_csv layout)"),
    },
    "contract_sweep": {
        "pairs": _Flag(str, "0,0:0,1", help="'p1,x1:p2,x2[;...]'"),
        "hbar_grid": _Flag(_floats, list(contraction.DEFAULT_HBAR_GRID)),
        "tol": _Flag(_float, 1e-3, help="slope relative tolerance"),
        "numeric_tol": _Flag(_float, 1e-8),
    },
    "contract_classical": {
        "kind": _Flag(str, "harmonic", ("harmonic", "quartic")),
        "lam": _Flag(_float, 0.1),
        "x0": _Flag(_float, 1.0),
        "p0": _Flag(_float, 0.0),
        "t_final": _Flag(_float, 2.0),
        "hbar_grid": _Flag(_floats, [1.0, 0.1, 0.01, 0.001]),
        "tol": _Flag(_float, 1e-6),
        "min_ratio": _Flag(_float, 10.0),
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
    A config-file key must name one of the subcommand's flags, and its
    value passes the same conversion and choices as that flag."""
    schema = {**_SCHEMAS[subcommand], **_COMMON}
    unknown = sorted(set(file_cfg) - set(schema))
    if unknown:
        raise ValidationError(
            f"unknown config key {', '.join(map(repr, unknown))}: not a flag "
            f"of galq {subcommand.replace('_', ' ')}")
    cfg = {"subcommand": subcommand, "version": __version__}
    for dest, flag in schema.items():
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
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, list):
            val = ",".join(_fmt(v) for v in val)
        elif isinstance(val, float):
            val = _fmt(val)
        yield f"# {key} = {val}"


def _csv(header, rows):
    """A CSV file's lines: the header, then one line per row.  rows is a
    2-D float array, or an iterable of rows of numbers."""
    yield ",".join(header)
    if isinstance(rows, np.ndarray):
        for row in rows:
            yield ",".join(map(repr, row.tolist()))
    else:
        for row in rows:
            yield ",".join(map(_fmt, row))


def _nonfinite_key(obj, key):
    """Key path of the first NaN or infinity in a _jsonable tree, or None."""
    if isinstance(obj, dict):
        items = ((f"{key}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{key}[{j}]", v) for j, v in enumerate(obj))
    else:
        return key if isinstance(obj, float) and not math.isfinite(obj) else None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)


class _Gate(NamedTuple):
    """A results value and its bound: value <= bound, or >= when lower is
    set, so a NaN fails; None, not measured (null in results), passes."""

    name: str  # the results key that holds value
    value: float | None
    bound: float
    lower: bool = False

    def fails(self):
        v, b = self.value, self.bound
        return v is not None and not (v >= b if self.lower else v <= b)


def _finish(cfg, results, files, checks):
    """End a run (see the output contract above).  A NaN or infinity in the
    results raises before any file is opened (_float keeps them out of the
    config).  Then each data file in files (name -> iterable of lines) is
    streamed under the config lines, ``<subcommand>.json`` gets {"config",
    "results", "pass"} as strict JSON, each (summary line, gates) of checks
    is printed with PASS when all its gates pass, and ToleranceError names
    every gate that failed, if one did."""
    summary = f"{cfg['subcommand']}.json"
    results = _jsonable(results)
    bad = _nonfinite_key(results, "results")
    if bad is not None:
        raise GalqError(f"{summary} not written: {bad} is not finite")
    failed = [g for _, gates in checks for g in gates if g.fails()]
    outputs = {name: itertools.chain(_config_lines(cfg), lines)
               for name, lines in files.items()}
    doc = {"config": _jsonable(cfg), "results": results, "pass": not failed}
    outputs[summary] = [json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False)]
    for name, lines in outputs.items():
        with open(os.path.join(cfg["outdir"], name), "w", encoding="utf-8",
                  newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
    for line, gates in checks:
        print(line, "->", "FAIL" if any(map(_Gate.fails, gates)) else "PASS")
    if failed:
        raise ToleranceError("; ".join(
            f"{g.name} {g.value:.3e} {'<' if g.lower else '>'} {_fmt(g.bound)}"
            for g in failed))


# A run that would store more than this (1 GiB, the bound of
# coherent.RESIDUAL_BYTES and contraction.EIGENBASIS_BYTES) is refused
# before any work; each caller states its bytes per stored row.
_ROWS_BYTES = 2**30


def _check_rows(n_rows, row_bytes, what):
    if n_rows * row_bytes > _ROWS_BYTES:
        raise ValidationError(
            f"{n_rows} {what} need ~{n_rows * row_bytes / 2**30:.3g} GiB, "
            f"over the {_ROWS_BYTES / 2**30:.0f} GiB limit")


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
    blocks = []  # each ends in a newline; a blank line separates them
    if cfg["table"]:
        with open(cfg["table"], "r", encoding="utf-8") as fh:
            tables = {"custom": algebra.loads(fh.read())}
    else:
        tables = {"g3s": algebra.g3s_table(), "hr3": algebra.hr3_table()}
    worst = ("", 0.0)
    gates = []
    for name, tbl in tables.items():
        has_xp = "X_1" in tbl.names and "P_1" in tbl.names
        entry = {"dim": tbl.dim, "jacobi_residual": algebra.jacobi_defect(tbl)}
        blocks.append(algebra.dumps(tbl, f"table {name}"))
        for k in cfg["k"]:
            ctbl = algebra.contract(tbl, algebra.ContractionParams(k=k))
            entry[f"jacobi_residual_k={_fmt(k)}"] = algebra.jacobi_defect(ctbl)
            if has_xp:
                br = algebra.bracket("X_1", "P_1", ctbl)
                entry[f"x1p1_coeff_I_k={_fmt(k)}"] = br.get("I", 0.0)
            blocks.append(algebra.dumps(
                ctbl, f"table {name} contracted at k={_fmt(k)}"))
        if algebra.default_scaled_set(tbl):
            lim = algebra.contraction_limit(tbl)
            entry["jacobi_residual_limit"] = algebra.jacobi_defect(lim)
            entry["limit_x1p1"] = algebra.bracket("X_1", "P_1", lim) \
                if has_xp else {}
            entry["limit_central_defect"] = algebra.central_defect(lim)
            blocks.append(algebra.dumps(
                lim, f"table {name} contraction limit"))
        results["tables"][name] = entry
        for key, val in entry.items():
            if key.startswith("jacobi"):
                gates.append(_Gate(f"tables.{name}.{key}", val, tol))
                if val > worst[1]:
                    worst = (f"{name}:{key}", val)
    results.update(worst_identity=worst[0], worst_residual=worst[1],
                   tolerance=tol)
    _finish(cfg, results,
            {"algebra_tables.txt": "\n".join(blocks).splitlines()},
            [(f"algebra verify: worst residual {worst[1]:.3e} "
              f"({worst[0] or 'none'})", gates)])


def run_coset_orbit(cfg):
    kind = cfg["coset"]
    steps, dt = cfg["steps"], cfg["dt"]
    if steps < 1 or dt <= 0:
        raise ValidationError("steps must be >= 1 and dt positive")
    # a row peaks at 328 bytes on phase space's 8 columns, 257 on the 5 of
    # the others (tracemalloc, 5000 to 20000 steps)
    _check_rows(steps + 1, 340, "orbit rows")
    if kind == "spacetime":
        rot = _vec(cfg["rot"], "rot")
        with np.errstate(over="ignore"):  # the element refuses an inf
            g = coset.GalileiElement(
                B=cfg["b"] * dt, V=_vec(cfg["v"], "v") * dt,
                R=coset.expm(coset.omega_from_vector(rot * dt)),
                A=_vec(cfg["a"], "a") * dt)
        pt_vals = _vec(cfg["point"] or "0,0,0,0", "spacetime point t,x1,x2,x3", 4)
        pt = coset.SpaceTime(pt_vals[0], pt_vals[1:])
        names = ["t", "x1", "x2", "x3"]
        step = functools.partial(coset.apply_galilei, g)
    else:
        e = coset.InfinitesimalElement(
            omega=coset.omega_from_vector(_vec(cfg["omega"], "omega")),
            pbar=_vec(cfg["pbar"], "pbar"), xbar=_vec(cfg["xbar"], "xbar"),
            thetabar=cfg["thetabar"])
        if kind == "config":
            pt_vals = _vec(cfg["point"] or "0,0,0,0",
                           "config point x1,x2,x3,theta", 4)
            pt = coset.Config(pt_vals[:3], pt_vals[3])
            names = ["x1", "x2", "x3", "theta"]
        else:
            pt_vals = _vec(cfg["point"] or "0,0,0,1,0,0,0",
                           "phase point p1,p2,p3,x1,x2,x3,theta", 7)
            pt = coset.Phase(pt_vals[0:3], pt_vals[3:6], pt_vals[6])
            names = ["p1", "p2", "p3", "x1", "x2", "x3", "theta"]
        # one exponential per orbit
        step = functools.partial(coset.apply_matrix,
                                 coset.exp_generator(e, pt, t=dt))
    header = ["step", *names]
    rows = [[0, *coset.coordinates(pt)]]
    for i in range(1, steps + 1):
        pt = step(pt)
        rows.append([i, *coset.coordinates(pt)])
    results = {"n_rows": len(rows), "columns": header,
               "final_row": rows[-1][1:]}
    _finish(cfg, results, {"coset_orbit.csv": _csv(header, rows)},
            [(f"coset orbit: {kind}, {steps} steps", [])])


def run_coherent_overlap(cfg):
    n = cfg["n_levels"]
    hbar = cfg["hbar"]
    fock._check_levels(n)
    if cfg["grid_points"] < 1:
        raise ValidationError(
            f"--grid-points must be >= 1, got {cfg['grid_points']}")
    # a row peaks at 213-217 bytes (tracemalloc, 40 to 120 grid points)
    _check_rows(cfg["grid_points"] ** 2, 220, "overlap rows")
    try:  # the text is echoed as given
        radii = _floats(cfg["residual_scan"]) if cfg["residual_scan"] else []
    except ValueError as exc:
        raise ValidationError(f"residual_scan: {exc}") from exc
    check = cfg["check_numeric"]
    if check and hbar != 1.0:
        raise ValidationError(
            "numeric cross-check runs in internal units (hbar = 1)")
    scan = []  # before the grid, so that a refused scan costs no overlap
    for radius in radii:
        res = coherent.overcompleteness_residual(
            n, radius, cfg["residual_step"], n_check=cfg["residual_levels"])
        scan.append([radius, cfg["residual_step"], res.residual, res.warning])
    pts = np.linspace(cfg["grid_min"], cfg["grid_max"], cfg["grid_points"])
    l1 = coherent.CoherentLabel(cfg["p1"], cfg["x1"])
    rows, worst_gap, worst_self = [], 0.0, 0.0
    s1 = coherent.coherent_state(l1, n).amplitudes if check else None
    for p2 in pts:
        for x2 in pts:
            l2 = coherent.CoherentLabel(p2, x2)
            ov = coherent.overlap_analytic(l1, l2, hbar)
            if not np.isfinite(ov):
                raise GalqError(
                    f"coherent_overlap.csv not written: the kernel at "
                    f"p2={_fmt(p2)}, x2={_fmt(x2)} is not finite")
            rows.append([cfg["p1"], cfg["x1"], p2, x2,
                         ov.real, ov.imag, abs(ov)])
            # np.maximum keeps a NaN, which max() drops, so _finish refuses it
            if check:
                s2 = coherent.coherent_state(l2, n).amplitudes
                worst_gap = np.maximum(worst_gap,
                                       abs(complex(np.vdot(s1, s2)) - ov))
            self_ov = coherent.overlap_analytic(l2, l2, hbar)
            worst_self = np.maximum(worst_self, abs(self_ov - 1.0))
    gap = worst_gap if check else None
    results = {"max_numeric_gap": gap, "max_self_overlap_error": worst_self,
               "n_pairs": len(rows), "residual_scan": scan or None}
    files = {"coherent_overlap.csv": _csv(
        ["p1", "x1", "p2", "x2", "re", "im", "abs"], rows)}
    if scan:
        files["coherent_residual_scan.csv"] = _csv(
            ["radius", "step", "residual"], [r[:3] for r in scan])
    _finish(cfg, results, files,
            [("coherent overlap: numeric gap "
              + (f"{gap:.3e}" if check else "not checked"),
              [_Gate("max_self_overlap_error", worst_self, SELF_OVERLAP_TOL),
               _Gate("max_numeric_gap", gap, cfg["tol"])])])


def run_evolve(cfg):
    h_op = fock.load_operator_csv(cfg["hamiltonian_file"]) \
        if cfg["hamiltonian_file"] else fock.build_hamiltonian(
            cfg["kind"], cfg["n_levels"], 1.0, lam=cfg["lam"])
    n = h_op.n_levels
    spec = projective.EvolutionSpec(h_op, cfg["t_final"], cfg["dt"],
                                    store_every=cfg["store_every"])
    # a sample peaks at up to 80 (N + 1) bytes (tracemalloc, 1000 to 8000
    # samples on 16 to 512 levels)
    _check_rows(-(-spec.n_steps // spec.store_every) + 1, 80 * (n + 1),
                "stored samples")
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
    results = {"max_deviation": deviation, "norm_drift": norm_drift,
               "energy_drift": energy_drift, "ray_sensitivity": ray_sens,
               "n_samples": int(straj.times.size),
               "edge_mass": fock.edge_mass(straj.states)}
    coord_header = (["t"] + [f"q_{i}" for i in range(n)]
                    + [f"p_{i}" for i in range(n)])
    # the small table first: its temporaries are freed before the
    # trajectory table is built, so the two never add to the peak memory
    files = {
        "evolve_observables.csv": _csv(
            ["t", "x", "p", "h", "norm"],
            np.column_stack((straj.times, straj.expectation_series(x_op),
                             straj.expectation_series(p_op),
                             straj.expectation_series(h_op), norms))),
        "evolve_schrodinger.csv": _csv(coord_header, np.column_stack((
            straj.times,
            *projective.amplitudes_to_coordinates(straj.states)))),
    }
    gates = [_Gate(key, results[key], bound) for key, bound in (
        ("max_deviation", cfg["tol"]), ("norm_drift", DRIFT_TOL),
        ("energy_drift", DRIFT_TOL), ("ray_sensitivity", RAY_TOL))]
    _finish(cfg, results, files,
            [(f"evolve: deviation {deviation:.3e}, norm drift "
              f"{norm_drift:.3e}, energy drift {energy_drift:.3e}", gates)])


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        try:
            left, right = chunk.split(":")
            p1, x1 = (_float(v) for v in left.split(","))
            p2, x2 = (_float(v) for v in right.split(","))
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
    summary, checks, files = [], [], {}
    for i, rep in enumerate(reports):
        gap = rep.max_numeric_gap
        entry = {"pair_index": i,
                 "labels": {"p1": rep.pair[0].p[0], "x1": rep.pair[0].x[0],
                            "p2": rep.pair[1].p[0], "x2": rep.pair[1].x[0]},
                 "fitted_slope": rep.fitted_slope,
                 "slope_stderr": rep.slope_stderr,
                 "expected_slope": rep.expected_slope,
                 "slope_rel_error": rep.slope_rel_error,
                 "max_numeric_gap": gap,
                 "n_levels": rep.n_levels}
        gates = [_Gate(f"pairs[{i}].slope_rel_error", rep.slope_rel_error,
                       cfg["tol"]),
                 _Gate(f"pairs[{i}].max_numeric_gap", gap, cfg["numeric_tol"])]
        entry["pass"] = not any(map(_Gate.fails, gates))
        summary.append(entry)
        checks.append((f"contract sweep pair {i}: slope "
                       f"{rep.fitted_slope:.6f} vs {rep.expected_slope:.6f}",
                       gates))
        files[f"contract_sweep_pair{i}.csv"] = _csv(
            ["hbar", "abs_overlap", "offdiag_x", "offdiag_p"],
            zip(rep.hbar, rep.abs_overlap, rep.offdiag_x, rep.offdiag_p))
    _finish(cfg, {"pairs": summary}, files, checks)


def run_contract_classical(cfg):
    if cfg["kind"] == "quartic":
        # each of these makes every deviation roundoff or exactly 0, so
        # their ratio and monotonicity mean nothing
        if cfg["t_final"] == 0:
            raise ValidationError(
                "--t-final must be > 0 for --kind quartic: at t = 0 there "
                "is no dynamics to compare")
        if cfg["lam"] == 0:
            raise ValidationError(
                "--lam must be > 0 for --kind quartic: at lam = 0 the flow "
                "is harmonic and there is no classical limit to approach")
        if cfg["x0"] == 0 and cfg["p0"] == 0:
            raise ValidationError(
                "--x0 and --p0 must not both be 0 for --kind quartic: the "
                "origin is a fixed point of both flows")
        # the ratio and monotonicity checks need the deviation to shrink
        grid = cfg["hbar_grid"]
        if len(grid) < 2:
            raise ValidationError("need at least two hbar points to compare")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("hbar grid must be strictly descending")
    rep = contraction.classical_trajectory_emergence(
        cfg["x0"], cfg["p0"], cfg["hbar_grid"], kind=cfg["kind"],
        lam=cfg["lam"], t_final=cfg["t_final"])
    results = {"hbar": rep.hbar, "max_deviation": rep.max_deviation,
               "n_levels": rep.n_levels, "edge_mass": rep.edge_mass}
    if cfg["kind"] == "harmonic":
        gates = [_Gate(f"max_deviation[{i}]", d, cfg["tol"])
                 for i, d in enumerate(rep.max_deviation)]
        results["criterion"] = f"all deviations <= {_fmt(cfg['tol'])}"
    else:
        # no ratio when the last deviation is 0, which passes it
        ratio = float(rep.max_deviation[0] / rep.max_deviation[-1]) \
            if rep.max_deviation[-1] > 0 else None
        # nonincreasing: the deviations' largest step is <= 0
        step = np.max(np.diff(rep.max_deviation))
        gates = [_Gate("first_to_last_ratio", ratio, cfg["min_ratio"], True),
                 _Gate("nonincreasing", step, 0.0)]
        results.update(first_to_last_ratio=ratio, nonincreasing=step <= 0,
                       criterion=f"deviation ratio >= {_fmt(cfg['min_ratio'])}"
                       " and nonincreasing")
    _finish(cfg, results,
            {"contract_classical.csv": _csv(
                ["hbar", "max_traj_dev"], zip(rep.hbar, rep.max_deviation))},
            [("contract classical ({}): deviations {}".format(
                cfg["kind"], " ".join(f"{d:.3e}" for d in rep.max_deviation)),
              gates)])


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


@functools.lru_cache(maxsize=None)
def _shared_parser():
    """The parser of :func:`main`, built once per process: a build takes
    ~1.5 ms, and parse_args keeps no state in the parser between calls."""
    return build_parser()


def main(argv=None):
    parser = _shared_parser()
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
