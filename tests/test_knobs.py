"""Every defaulted parameter of the public API is passed by some call site.

An AST scan: a parameter with a default, on a public function of a
``src/treebsde`` module or on a public method of a public class there, must be
passed by position or by keyword at some call in ``src``, ``scripts``,
``perfbench`` or ``tests``. Calls are matched by the called name alone, and a
call with ``*args`` or ``**kwargs`` passes everything. A default that no
caller changes is a constant, not a parameter.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(path for path in (ROOT / "src/treebsde").glob("*.py")
                 if not path.name.startswith("_"))
CALLERS = sorted(path for top in ("src", "scripts", "perfbench", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def defaulted(source: str) -> list:
    """(function, parameter, position) of each defaulted parameter; position is
    the number of arguments a call passes before it, None if keyword-only."""
    found = []

    def visit(body, in_class):
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef) and not in_class:
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                pos = args.posonlyargs + args.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                first = len(pos) - len(args.defaults)
                found.extend((node.name, a.arg, i - bound)
                             for i, a in enumerate(pos) if i >= first)
                found.extend((node.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None)

    visit(ast.parse(source).body, False)
    return found


def calls(source: str) -> dict:
    """Called name -> [(positional count, keyword names, passes everything)]."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name is None:
            continue
        star = (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        out.setdefault(name, []).append(
            (len(node.args), {k.arg for k in node.keywords}, star))
    return out


def unpassed(definitions: list, sites: dict) -> list:
    """The (function, parameter) pairs of definitions that no site passes."""
    def passes(npos, keywords, star, param, position):
        return star or param in keywords or (position is not None and npos > position)

    return [(fn, param) for fn, param, position in definitions
            if not any(passes(*site, param, position) for site in sites.get(fn, ()))]


def test_scan_finds_a_parameter_no_call_passes():
    definitions = defaulted(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def _g(a=1): pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2): pass\n"
        "    @staticmethod\n"
        "    def s(x=1): pass\n"
        "class _H:\n"
        "    def h(self, z=1): pass\n")
    assert definitions == [("f", "b", 1), ("f", "c", None), ("f", "d", None),
                           ("m", "x", 0), ("m", "y", 1), ("s", "x", 0)]
    sites = calls("f(0, 5, d=1)\nobj.m(7)\ns(**kw)\n")
    assert unpassed(definitions, sites) == [("f", "c"), ("m", "y")]


def test_every_defaulted_public_parameter_is_passed_somewhere():
    sites = {}
    for path in CALLERS:
        for name, found in calls(path.read_text(encoding="utf-8")).items():
            sites.setdefault(name, []).extend(found)
    definitions = {path.stem: defaulted(path.read_text(encoding="utf-8"))
                   for path in PACKAGE}
    assert sum(map(len, definitions.values())) > 50
    assert {f"{module}.{fn}:{param}" for module, found in definitions.items()
            for fn, param in unpassed(found, sites)} == set()
