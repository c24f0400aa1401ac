"""The package's public surface: every export resolves, and nothing public is dead code."""

import ast
from pathlib import Path

import nfisac

PKG_ROOT = Path(__file__).resolve().parent.parent
SRC = PKG_ROOT / "src" / "nfisac"


def _references(tree: ast.AST, skip=None) -> set:
    """Names a module reads, imports or spells as a string, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_export_resolves():
    assert len(set(nfisac.__all__)) == len(nfisac.__all__)
    for name in nfisac.__all__:
        assert hasattr(nfisac, name), name


def test_every_public_definition_has_a_caller():
    # a public top-level function or class must be used somewhere besides its
    # own definition, in src/ or perfbench/, the package's exports aside, so
    # a test-only path cannot slip in: test oracles live in tests/oracles.py
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    perfbench = set()
    for p in sorted((PKG_ROOT / "perfbench").glob("*.py")):
        perfbench |= _references(ast.parse(p.read_text(encoding="utf-8")))
    others = {p: _references(tree) for p, tree in modules.items() if p.name != "__init__.py"}
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = node.name in perfbench or node.name in _references(tree, skip=node)
            used = used or any(node.name in refs for p, refs in others.items() if p != path)
            if not used:
                unused.append(node.name)
    assert unused == []
