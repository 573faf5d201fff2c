"""Only ``numerics.py`` marks arrays read-only.

A value that a cache or an object shares with every caller must not be
writable, and ``numerics._read_only`` is the one place that decides what
that means: every array, also inside nested tuples.  Other modules call it
instead of setting ``.flags.writeable`` themselves.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ouchaos"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "numerics.py")


def writeable_assignments(source):
    """Line of each assignment to a ``.flags.writeable`` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "writeable"
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "flags")


def test_the_check_finds_a_writeable_assignment():
    source = ("a.flags.writeable = False\n"
              "ok = b.flags.writeable\n"
              "c.flags.writeable = d.flags.writeable = False\n")
    assert writeable_assignments(source) == [1, 3, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numerics_sets_writeable(path):
    assert writeable_assignments(path.read_text(encoding="utf-8")) == []
