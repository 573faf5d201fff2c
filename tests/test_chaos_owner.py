"""Only ``chaos.py`` knows how a chaos expansion lays out its coefficients.

An expansion is one vector over the multi-indices of its axes, degree by
degree in graded colex order.  ``chaos.py`` owns that layout: no other
library module reads the ``.coeffs`` dict view or names the index tables
``_indices`` and ``_positions`` that the layout is built from.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ouchaos"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "chaos.py")
LAYOUT_NAMES = {"_indices", "_positions"}


def layout_uses(source):
    """Line of each ``.coeffs`` read and of each name, attribute or import of
    ``_indices`` or ``_positions`` in the module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr == "coeffs" or node.attr in LAYOUT_NAMES):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names
                      if alias.name in LAYOUT_NAMES]
    return sorted(lines)


def test_the_check_finds_each_kind_of_use():
    source = ("from .chaos import ChaosExpansion, _indices\n"
              "v = [e.coeffs.get(a) for a in _indices(3, 2)]\n"
              "p = chaos._positions(3, 2)\n"
              "n = e.max_degree\n")
    assert layout_uses(source) == [1, 2, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_chaos_knows_the_coefficient_layout(path):
    assert layout_uses(path.read_text(encoding="utf-8")) == []
