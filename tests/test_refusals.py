"""Input refusals that no other test reaches: each raises its exception
class with its message."""

import dataclasses

import numpy as np
import pytest

from galq import algebra, cli, coherent, coset, fock, projective
from galq.errors import ParseError, ValidationError

GENERATORS = "generators: A B\n"


def _spec():
    return projective.EvolutionSpec(
        fock.build_hamiltonian("harmonic", 4, 1.0), 0.1, 0.01)


def _config_without_equals():
    with open("run.cfg", "w", encoding="utf-8") as fh:
        fh.write("seed = 1\nnot a pair\n")
    return cli.parse_config_file("run.cfg")


def _non_square_operator_csv():
    with open("op.csv", "w", encoding="utf-8") as fh:
        fh.write("re_0,im_0\n1,0\n0,0\n")
    return fock.load_operator_csv("op.csv")


REFUSALS = {
    # algebra
    "table-duplicate-names": (
        lambda: algebra.StructureTable(["A", "A"], {}),
        ValidationError, "generator names must be unique"),
    "loads-duplicate-generators": (
        lambda: algebra.loads(GENERATORS + GENERATORS),
        ParseError, "line 2: duplicate generators line"),
    "loads-empty-generators": (
        lambda: algebra.loads("generators:\n"),
        ParseError, "line 1: empty generator list"),
    "loads-unparseable-bracket": (
        lambda: algebra.loads(GENERATORS + "A B = 1\n"),
        ParseError, "line 2: unparseable bracket line 'A B = 1'"),
    "loads-duplicate-bracket": (
        lambda: algebra.loads(GENERATORS + "[A,B] = 1*A\n[A,B] = 1*A\n"),
        ParseError, "line 3: duplicate bracket [A,B]"),
    "loads-no-generators": (
        lambda: algebra.loads("# nothing\n"),
        ParseError, "line 1: missing generators line"),
    # cli
    "config-line-without-equals": (
        _config_without_equals,
        ParseError, "line 2: expected key = value, got 'not a pair'"),
    "vec-bad-number": (
        lambda: cli._vec("1,x,2", "v"),
        ValidationError, "v: could not convert string to float: 'x'"),
    "vec-wrong-count": (
        lambda: cli._vec("1,2", "v"),
        ValidationError, "v must have 3 comma-separated components"),
    # coherent
    "label-d-0": (
        lambda: coherent.CoherentLabel(0.0, 0.0, d=0),
        ValidationError, "axis count d must be >= 1"),
    # coset
    "vec-shape": (
        lambda: coset.GalileiElement(V=[1.0, 2.0]),
        ValidationError, "V must have 3 component(s), got shape (2,)"),
    "delete-attribute": (
        lambda: delattr(coset.GalileiElement(), "B"),
        dataclasses.FrozenInstanceError, "cannot delete field 'B'"),
    "R-not-3x3": (
        lambda: coset.GalileiElement(R=np.eye(2)),
        ValidationError, "R must be a 3x3 matrix"),
    "omega-not-3x3": (
        lambda: coset.InfinitesimalElement(omega=np.zeros((2, 2))),
        ValidationError, "omega must be a 3x3 matrix"),
    "coordinates-of-other-type": (
        lambda: coset.coordinates(object()),
        ValidationError, "unsupported coset point object"),
    # fock
    "operator-shape": (
        lambda: fock.FockOperator(3, np.eye(2)),
        ValidationError, "matrix shape (2, 2) does not match n_levels=3"),
    "state-shape": (
        lambda: fock.StateVector(3, np.ones(2)),
        ValidationError, "amplitude shape (2,) does not match n_levels=3"),
    "commutator-hbar-tags": (
        lambda: fock.commutator_defect(fock.build_xp(4, 1.0)[0],
                                       fock.build_xp(4, 0.5)[1]),
        ValidationError, "operators carry different hbar conventions"),
    "operator-csv-not-square": (
        _non_square_operator_csv,
        ValidationError, "CSV at op.csv is not a square complex matrix"),
    # projective
    "coordinates-shape": (
        lambda: projective.PhaseCoordinates(3, np.zeros(2), np.zeros(3)),
        ValidationError, "coordinate shapes must match n_levels"),
    "store-every-0": (
        lambda: projective.EvolutionSpec(
            fock.build_hamiltonian("harmonic", 4, 1.0), 0.1, 0.01,
            store_every=0),
        ValidationError, "store_every must be >= 1"),
    "state-dimension": (
        lambda: projective.schrodinger_evolve(coherent.coherent_state(
            coherent.CoherentLabel(0.0, 0.0), 8), _spec()),
        ValidationError, "state and Hamiltonian dimensions differ"),
    "coordinates-dimension": (
        lambda: projective.hamilton_evolve(projective.PhaseCoordinates(
            3, np.zeros(3), np.zeros(3)), _spec()),
        ValidationError, "coordinates and Hamiltonian dimensions differ"),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(tmp_path, monkeypatch, call, exc, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
