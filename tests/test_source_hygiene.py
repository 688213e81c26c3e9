"""Source hygiene of the package: no dead imports, no orphaned helpers.

Parsed with ``ast`` only, so the check costs milliseconds and imports
nothing.  An import must be used in its module or re-exported through
``__all__``; a module-level ``_private`` function or class must be named
somewhere else in the package (another module may import it, as the CLI
does ``_completed``); so must a public one, unless ``stefansim.__all__``
exports it and the README's "Python API" section documents it, or the
benchmark's span tracer wraps it (``perfbench/spans.py``, read as text),
so that no entry point exists only for the tests; every exported name is
documented there; no setting takes its default from a literal at the use
site; runs step in one loop: ``harness.simulate`` is the one function
that names ``advance``, the stepper's kappa bootstrap aside; and a
snapshot is read by attribute, never by a key naming its field or ``"v"``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stefansim"
MODULES = sorted(SRC.glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _used_names(tree: ast.Module, skip=()) -> set:
    """Every Name and attribute name outside the ``skip`` nodes.

    An import is not a use, and neither is the name of an annotated field
    in a class body (a dataclass field such as
    ``EnergyReport.dissipation_residual``): it names the field.
    """
    skipped = {id(node) for node in skip}
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ClassDef):
            skipped |= {id(stmt.target) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)}
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_import_is_used_or_exported():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _used_names(tree) | _exported(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def _unreferenced(private: bool) -> list:
    """``module:line name`` of each module-level function or class, private
    or public, that no code of the package names: neither its defining
    module, the definition itself aside, nor another module.  The imports
    of ``__init__`` are exports, not uses."""
    trees = {path.name: _tree(path) for path in MODULES}
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private or node.name.startswith("__"):
                continue
            used = _used_names(tree, skip=(node,))
            for other, other_tree in trees.items():
                if other != name:
                    used |= _used_names(other_tree)
            if node.name not in used:
                orphans.append(f"{name}:{node.lineno} {node.name}")
    return orphans


def test_every_private_helper_is_referenced():
    orphans = _unreferenced(private=True)
    assert not orphans, "unreferenced private helpers: " + ", ".join(orphans)


def _traced_names() -> set:
    """Every module-level name in the ``TRACED`` table of ``SPANS``: a
    function, or the class of a traced method."""
    for node in _tree(SPANS).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {attr.split(".")[0]
                    for _, _, attr in ast.literal_eval(node.value)}
    raise AssertionError(f"no TRACED table in {SPANS}")


def _documented() -> set:
    """Every name in backticks in the README's "Python API" section."""
    section = re.search(r"^## Python API\n(.*?)(?=^## |\Z)", README.read_text(),
                        re.M | re.S)
    return set(re.findall(r"`(\w+)`", section[1])) if section else set()


def test_every_public_name_is_used_exported_or_traced():
    # a public function or class that only tests call is API with no user;
    # an export counts as a use only when the README documents it
    exported = _exported(_tree(SRC / "__init__.py"))
    documented = _documented()
    reached = (exported & documented) | _traced_names()
    orphans = [entry for entry in _unreferenced(private=False)
               if entry.rpartition(" ")[2] not in reached]
    assert not orphans, "public names only tests reach: " + ", ".join(orphans)
    undocumented = sorted(exported - documented)
    assert not undocumented, ("exported names missing from the README's "
                              "Python API section: " + ", ".join(undocumented))


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_no_setting_default_at_a_use_site():
    # settings.get(key, <literal>) would be a second home for the default
    # that harness.default_config() holds
    sites = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "settings"
                    and len(node.args) == 2 and _is_literal(node.args[1])):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, "literal setting defaults: " + ", ".join(sites)


def _naming_functions(name: str) -> set:
    """``module:function`` of each function whose own body names ``name``,
    as a variable or an attribute (a call, or a reference passed on); a
    nested function or method is its own scope, dotted under its owner."""
    found = set()

    def visit(node, module: str, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.add(f"{module}:{scope or '<module>'}")
            visit(child, module, scope)

    for path in MODULES:
        visit(_tree(path), path.name, "")
    return found


def test_simulate_is_the_one_run_loop():
    # every run steps inside harness.simulate; the one other loop is the
    # kappa datum's bootstrap, whose micro-steps fit the Robin data
    assert _naming_functions("advance") == {"harness.py:simulate",
                                            "stepper.py:_bootstrap_beta"}


def _record_fields(module: str, cls: str) -> set:
    """The annotated field names of class ``cls`` in ``module``."""
    for node in _tree(SRC / module).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)}
    raise AssertionError(f"no class {cls} in {module}")


def test_snapshots_are_read_by_attribute():
    # a stored run reads as data: its fields by attribute, its velocity by
    # a visible velocity() call, never through a subscript that hides one
    names = _record_fields("stepper.py", "Snapshot") | {"v"}
    sites = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and node.slice.value in names):
                sites.append(f"{path.name}:{node.lineno} [{node.slice.value!r}]")
    assert not sites, "snapshot fields read by key: " + ", ".join(sites)
