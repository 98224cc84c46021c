"""The object-array-of-`Jet` layout stays inside `geometry` (and `jets`).

The modules above `geometry` reach the components and coefficients of a
tensor of jets only through its helpers (`jet_values`, `coeff_max`,
`truncate_jets`, `identity_jets`, `contract_value`, ...), so that the storage
format can be replaced in one module.  This test parses them and rejects
component loops (`np.ndindex`) and direct coefficient access (`.coeffs`,
`.truncate`).
"""

import ast
from pathlib import Path

import pytest

import paraherm

SRC = Path(paraherm.__file__).resolve().parent
MODULES = ("connections", "parastructure", "brackets", "deformations", "models", "cli")
FORBIDDEN = {"ndindex", "coeffs", "truncate"}


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            yield node.lineno, node.id


@pytest.mark.parametrize("module", MODULES)
def test_jet_layout_stays_in_geometry(module):
    path = SRC / f"{module}.py"
    found = sorted(_uses(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{module}.py touches the jet layout at (line, name): {found}"
