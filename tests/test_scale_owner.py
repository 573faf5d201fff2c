"""Only ``gaussian.py`` turns covariance eigenvalues into square-root scales.

Q^{1/2} and its pseudo-inverse decide what lies on the support of a measure
and what on its kernel.  ``SpectralGaussian.scale`` and ``.inv_scale`` own
that decision, so no other library module reads ``.eigenvalues``.

``cli.py`` is exempt: the classical Mehler kernel of ``mehler-demo`` scales
its grid by the unmasked covariance on purpose, and masking it would change
that command's CSV for measures with eigenvalues below ``KERNEL_TOL``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ouchaos"
OWNER_AND_EXEMPT = {"gaussian.py", "cli.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in OWNER_AND_EXEMPT)


def eigenvalue_reads(source):
    """Line of each ``.eigenvalues`` attribute the module reads."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "eigenvalues")


def test_the_check_finds_an_eigenvalue_read():
    source = "import math\nx = math.sqrt(g.eigenvalues[0])\ny = g.scale\n"
    assert eigenvalue_reads(source) == [2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_gaussian_reads_eigenvalues(path):
    assert eigenvalue_reads(path.read_text(encoding="utf-8")) == []
