"""Dead-code guard: every top-level def or class of the package, and every
non-dunder method or property of its classes, is exported or referred to by
the package or the benchmark (tests do not count); a method or property
counts as used only through an attribute access (``x.name``), so a local
variable of the same name does not keep it.  Every module-level import of a
module is used by that module.  Every ``assert`` and ``raise AssertionError``
in the package is listed with the reason construction cannot stand in for it."""

import ast
from pathlib import Path

import toric3d

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toric3d"

# kept without a caller, each for a stated reason
KEPT = {
    ("_kernels", "solve"): "part of the documented one-elimination API (rank, nullspace, solve)",
    ("cli", "_Parser.error"): "argparse's hook for usage errors, called by argparse itself",
    ("lattice", "dual_edge_of_face"): "the inverse the duality test pairs with primal_face_of_edge",
    ("sectors", "run_script"): "executes the repair script that classify reports",
    ("sectors", "SectorVerdict.is_ground_state"): "public verdict property, the counterpart of is_ground_sector",
}

# runtime self-checks kept, each for a stated reason; a check that re-tests
# what construction already guarantees is deleted instead
ASSERTIONS = {
    ("sectors", "_case_two"): (
        "two-string solutions with the larger set first, size profiles (3, 2)"
        " and (4, 2), must not reach it; only canonical forms do, and those put"
        " a two-direction set first: it encodes as (1, 2) or (1, 4), a larger"
        " set at best as (1, 6)"
    ),
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names (imports included) and the attribute names ``tree`` uses."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attributes


def _referenced(modules: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """Every name and every attribute name used by the package or the benchmark."""
    trees = list(modules.values()) + [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))
    ]
    names, attributes = set(toric3d.__all__), set()
    for tree in trees:
        n, a = _references(tree)
        names |= n
        attributes |= a
    return names, attributes


def test_no_unused_top_level_names():
    modules = _modules()
    names, attributes = _referenced(modules)
    referenced = names | attributes
    unused = {
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    }
    assert unused == {key for key in KEPT if "." not in key[1]}


def test_no_unused_methods():
    modules = _modules()
    _, referenced = _referenced(modules)
    unused = {
        (module, f"{node.name}.{item.name}")
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("__")
        and item.name not in referenced
    }
    assert unused == {key for key in KEPT if "." in key[1]}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    unused = set()
    for module, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.add((module, name))
    assert unused == set()


def _is_assertion(node: ast.AST) -> bool:
    """An ``assert``, or a ``raise`` of ``AssertionError`` (class or call)."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _assertion_scopes(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, innermost enclosing function)`` of each assertion, with
    ``<module>`` outside every function."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if _is_assertion(child):
                found.add((module, scope))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "<module>")
    return found


def test_assertions_are_listed():
    found = set()
    for module, tree in _modules().items():
        found |= _assertion_scopes(module, tree)
    assert found == set(ASSERTIONS)
