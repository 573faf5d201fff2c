"""Every imported name in the package and its tests is used, and so is
every private helper of the package.

pyflakes, ruff and flake8 are not dependencies, so the check walks the
syntax tree itself: a name bound by an import statement must be read
somewhere in its module, or be listed in the module's ``__all__``; a
``_private`` name defined at module level in the package must be read
somewhere in the package.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ouchaos").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "tau")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source):
    """(line, name) of each ``_private`` function, class or variable a module
    defines at its top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def names_read(source):
    """Every name the module reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_the_check_finds_an_unread_private_name():
    source = ("_A = 1\n_B = 2\ndef _f():\n    return _A\n"
              "class _C:\n    pass\n__all__ = []\n")
    assert private_definitions(source) == [(1, "_A"), (2, "_B"), (3, "_f"),
                                           (5, "_C")]
    assert names_read(source) & {"_A", "_B", "_f", "_C"} == {"_A"}


def test_every_private_name_of_the_package_is_read():
    package = sorted((ROOT / "src" / "ouchaos").glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in package}
    read = set().union(*(names_read(source) for source in sources.values()))
    unread = [(name, line, private) for name, source in sources.items()
              for line, private in private_definitions(source)
              if private not in read]
    assert unread == []
