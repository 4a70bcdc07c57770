"""Every name a module imports is referenced in that module.

An AST scan of the package, the scripts and the tests; package ``__init__.py``
files are exempt, because their imports are re-exports.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src/treebsde", "scripts", "tests")
                 for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names
                         if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\ne(x)\n") \
        == [(1, "os"), (2, "d")]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert len(found) > 20
    assert {k: v for k, v in found.items() if v} == {}
