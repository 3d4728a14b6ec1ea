"""The public names of galq that nothing in galq refers to.

Each such top-level function or class must be listed in UNCALLED with the
claim, acceptance criterion or benchmark use that keeps it, so a new public
name that nothing calls fails here until it is either used, removed or
listed with a reason.
"""

import ast
from pathlib import Path

import galq

UNCALLED = {
    "algebra.unscale":
        "inverse of contract: the 1/k exponent rule is checked as a round "
        "trip, contract then unscale gives the table back (test_algebra)",
    "coherent.displacement":
        "the displacement operator exp(i(pX - xP + theta I)) itself, which "
        "coherent_state takes one column of; its unitarity and Weyl "
        "relation are tested, and ROADMAP items 3 and 12 act with it",
    "coherent.weyl_phase":
        "the cocycle of U(l1) U(l2), checked against the displacement "
        "products (test_coherent); ROADMAP item 3's one cocycle source",
    "coset.compose":
        "the Galilei group law, acceptance criterion 02, and the kernels "
        "benchmark's group-law operations",
    "coset.contracted_action":
        "the infinitesimal coset action with the cocycle scaled by "
        "hbar = 1/k^2 and its k -> infinity limit, where theta decouples "
        "(test_coset's test_contracted_action_* tests)",
    "fock.commutator_defect":
        "the corner-confined truncated [X, P] defect, acceptance "
        "criterion 03",
    "fock.save_operator_csv":
        "writes the operator CSV that evolve --hamiltonian-file reads "
        "(load_operator_csv); its round trip is tested",
    "projective.equivalence_report":
        "Schrodinger/Hamilton flow equivalence, acceptance criterion 06, "
        "and the benchmark's warm-up",
    "projective.hamiltonian_function":
        "the Hamiltonian function on (q, p), whose finite differences "
        "acceptance criterion 06 checks the gradients against",
    "projective.hamiltonian_gradients":
        "the Hamilton-flow gradients, acceptance criterion 06",
    "contraction.diagonalization_diagnostic":
        "the off-diagonal suppression ratio of a label set, acceptance "
        "criterion 08; the sweep reads its pairs' ratios from the same "
        "private helper",
}


def uncalled_public_names():
    """Qualified names of the top-level public functions and classes in
    src/galq whose name no expression in src/galq mentions.  Names are
    matched by spelling alone, so a use of another name spelled the same
    hides one; no name that is used is ever reported."""
    defined, used = {}, set()
    for path in sorted(Path(galq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name, bare in defined.items() if bare not in used)


def test_every_uncalled_public_name_is_listed_with_a_reason():
    assert uncalled_public_names() == sorted(UNCALLED)
    assert all(UNCALLED.values())
