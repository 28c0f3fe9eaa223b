"""Every module-level function and class in the package has a caller.

A caller is a reference from elsewhere in the package (outside the
definition's own body), a reference from the scripts or the benchmark
harness (string constants included, so that a name the harness looks up by
string counts), or an entry of the lazy namespace.  A helper that only the
tests use belongs in the tests.
"""

import ast
import pathlib

import selzeta

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names(node):
    """Identifiers that node refers to: names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _strings(node):
    return {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _node_references(trees):
    """For each top-level node of the package, the names it uses.  A module's
    top-level imports only bind names, so they are left out."""
    return {
        node: _names(node)
        for tree in trees
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    }


def uncalled(root):
    """module.name of each package definition under root with no caller."""
    package = sorted((root / "src" / "selzeta").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package}
    outside = set()
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            outside |= _names(tree) | _strings(tree)
    exported = {name for names in selzeta._SOURCES.values() for name in names}
    references = _node_references(trees.values())
    missing = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name in exported or name in outside:
                continue
            # a reference inside the definition's own body does not count
            if not any(name in names for other, names in references.items() if other is not node):
                missing.append(f"{module}.{name}")
    return missing


def test_every_package_definition_has_a_caller_outside_the_tests():
    assert uncalled(ROOT) == []


def test_census_names_a_helper_that_only_calls_itself(tmp_path):
    package = tmp_path / "src" / "selzeta"
    package.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (package / "core.py").write_text(
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def by_name():\n    return used()\n\n\n"
        "class _Unused:\n    pass\n"
    )
    (tmp_path / "scripts" / "run.py").write_text('HOOKS = ("by_name",)\n')
    assert uncalled(tmp_path) == ["core.helper", "core._Unused"]
