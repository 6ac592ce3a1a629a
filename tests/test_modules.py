"""Module boundaries: which private names one module may import from another."""

import ast
from pathlib import Path

import plumbook

# (importing module, imported module, name); this list may only shrink
PRIVATE_IMPORTS = {
    ("arcs", "surface", "_Geometry"),
    ("arcs", "surface", "_geometry"),
    ("openbook", "surface", "_canonical_data"),
    ("openbook", "surface", "_geometry"),
    ("cli", "surface", "_geometry"),
}


def private_imports(stem, source):
    """(stem, module, name) for every underscore name that source, the text
    of plumbook module stem, imports from another plumbook module."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module != "plumbook" and not module.startswith("plumbook."):
                continue
            module = module[len("plumbook."):]
        for alias in node.names:
            if alias.name.startswith("_"):
                yield stem, module, alias.name


def test_no_new_private_imports():
    # plumbing, for one, reaches the checker through openbook.certified_book
    found = set()
    for path in Path(plumbook.__file__).parent.glob("*.py"):
        found.update(private_imports(path.stem, path.read_text(encoding="utf-8")))
    assert found <= PRIVATE_IMPORTS, sorted(found - PRIVATE_IMPORTS)
    source = "from .openbook import _check\nfrom plumbook.arcs import Arc, _key\n"
    assert sorted(private_imports("plumbing", source)) == [
        ("plumbing", "arcs", "_key"),
        ("plumbing", "openbook", "_check"),
    ]
