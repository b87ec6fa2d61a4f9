"""Dead-code guard: every top-level def or class of the package is exported
or referred to by the package or the benchmark (tests do not count)."""

import ast
from pathlib import Path

import toric3d

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toric3d"

# kept without a caller, each for a stated reason
KEPT = {
    ("_kernels", "solve"): "part of the documented one-elimination API (rank, nullspace, solve)",
    ("lattice", "dual_edge_of_face"): "the inverse the duality test pairs with primal_face_of_edge",
    ("sectors", "run_script"): "executes the repair script that classify reports",
}


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_no_unused_top_level_names():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set(toric3d.__all__)
    for tree in modules.values():
        referenced |= _references(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = {
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    }
    assert unused == set(KEPT)
