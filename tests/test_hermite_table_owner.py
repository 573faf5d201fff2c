"""Only ``_basis_table`` and ``hermite_phi`` build Hermite tables in ``chaos``.

Every Phi_alpha the library evaluates or projects onto is a product of
He_k(xi)/sqrt(k!) read from one ``_basis_table``: ``eval_expansion`` and
``phi_alpha``, the sum-factorised basis and the Monte Carlo projection.
``hermite_phi`` keeps its public normalisation phi_n = He_n/n!, so it reads
the recurrence ``_phi_table`` directly; nothing else does.
"""

import ast
import pathlib

CHAOS = pathlib.Path(__file__).resolve().parent.parent / "src" / "ouchaos" / "chaos.py"


def table_callers(source):
    """Names of the functions whose bodies call ``_phi_table``."""
    return sorted(
        fn.name for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_phi_table" for node in ast.walk(fn)))


def test_the_check_finds_a_table_call():
    source = ("def a(x):\n    return _phi_table(x, 2)\n"
              "def b(x):\n    return [_phi_table(v, 1) for v in x]\n"
              "def c(x):\n    return a(x)\n")
    assert table_callers(source) == ["a", "b"]


def test_only_the_basis_table_and_hermite_phi_build_tables():
    assert table_callers(CHAOS.read_text(encoding="utf-8")) == [
        "_basis_table", "hermite_phi"]
