"""Every field of a package dataclass is read by program code.

An AST scan: each field of an ``@dataclass`` class in a ``src/treebsde``
module must be read as an attribute (``obj.field``) somewhere in ``src``,
``scripts`` or ``perfbench``. Tests do not count, as in ``test_knobs.py``: a
report field only tests read feeds no verdict, so it feeds one or goes.
Attributes are matched by name alone, whatever the receiver.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/treebsde").glob("*.py"))
READERS = sorted(path for top in ("src", "scripts", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))

# Read only by tests today; the list may only shrink.
ALLOWED = {
    "bsde.BSDESolution.Z",
    "dynutil.ComparisonReport.checked",
    "dynutil.ComparisonReport.worst_slack",
}


def dataclass_fields(source: str) -> list:
    """(class, field) of each annotated field of a top-level @dataclass class."""
    def is_dataclass(dec):
        target = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [(node.name, stmt.target.id) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attributes_read(source: str) -> set:
    """The names read as an attribute of anything."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_scan_finds_a_field_nothing_reads():
    fields = dataclass_fields(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    value: float\n"
        "    hidden: int = 0\n"
        "    NOTE = 'no annotation, no field'\n"
        "@dataclasses.dataclass\n"
        "class S:\n"
        "    count: int\n"
        "class Plain:\n"
        "    x: int\n")
    assert fields == [("R", "value"), ("R", "hidden"), ("S", "count")]
    # a store is no read, and neither is a keyword at construction
    read = attributes_read("r = R(value=1.0, hidden=2)\nprint(r.value)\ns.count = 3\n")
    assert [f for f in fields if f[1] not in read] == [("R", "hidden"), ("S", "count")]


def test_every_dataclass_field_is_read_by_program_code():
    read = set().union(*(attributes_read(path.read_text(encoding="utf-8"))
                         for path in READERS))
    found = [(path.stem, cls, name) for path in PACKAGE
             for cls, name in dataclass_fields(path.read_text(encoding="utf-8"))]
    assert len(found) > 100
    # equality: a field that program code now reads leaves the list
    assert {f"{module}.{cls}.{name}" for module, cls, name in found
            if name not in read} == ALLOWED
