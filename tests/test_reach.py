"""Every public function and class of the package is reached by program code.

An AST scan: a public top-level function or class of a ``src/treebsde``
module must be referenced, by name or as an attribute, from ``src`` outside
its own definition, from ``scripts`` or from ``perfbench``, or be re-exported
by ``treebsde/__init__.py``. Tests do not count: a name only tests reach
either feeds a verdict one day or goes. References are matched by name alone.

A second scan keeps the per-policy search for caller-supplied terminal data:
every call of ``maximize_over_policies`` in ``src/treebsde`` passes
``terminal_rv=``. A third keeps the per-policy loops, ``maximize_over_policies``
and ``PolicySpace.policies``, in ``bsde.maximize_over_policies`` and
``master.check_forward_dpp``.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(path for path in (ROOT / "src/treebsde").glob("*.py")
                 if not path.name.startswith("_"))
OUTSIDE = sorted([path for path in (ROOT / "src/treebsde").glob("_*.py")]
                 + [path for top in ("scripts", "perfbench")
                    for path in (ROOT / top).rglob("*.py")])

# Reached only from tests today; the list may only shrink.
ALLOWED = {
    "bsde.envelope_bsde",
    "bsde.reachable_set",
    "dynutil.check_comparison",
    "dynutil.static_utility",
}


def definitions(source: str) -> list:
    """(name, first line, last line) of each public top-level function or class."""
    return [(node.name, node.lineno, node.end_lineno) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(source: str) -> list:
    """(name, line) of each name read and each attribute accessed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def exported(source: str) -> set:
    """The names an ``__init__`` module imports, and so re-exports."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreached(package: dict, outside: list, exports: set) -> set:
    """module.name of each public definition in package (module -> source) that
    no other source and no line of its module outside the definition references."""
    refs = {module: references(source) for module, source in package.items()}
    names_outside = {name for source in outside for name, _ in references(source)}
    found = set()
    for module, source in package.items():
        elsewhere = names_outside | {name for other, other_refs in refs.items()
                                     if other != module for name, _ in other_refs}
        for name, first, last in definitions(source):
            if name in exports or name in elsewhere:
                continue
            if any(ref == name and not first <= line <= last for ref, line in refs[module]):
                continue
            found.add(f"{module}.{name}")
    return found


def calls(source: str, func: str) -> list:
    """(line, keyword names) of each call of func, by name or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == func:
                out.append((node.lineno, {kw.arg for kw in node.keywords}))
    return sorted(out)


def test_call_scan_reads_keywords_by_name_and_attribute():
    source = ("f(1, terminal_rv=rv)\n"
              "m.f(2)\n"
              "g(3, terminal_rv=rv)\n"
              "f(*args, **kw)\n")
    assert calls(source, "f") == [(1, {"terminal_rv"}), (2, set()), (4, {None})]


def test_per_policy_searches_take_caller_terminal_data():
    """maximize_over_policies runs one solve_bsde per policy; a search from the
    problem's own terminal data belongs on the batched bsde._search."""
    found = [(path.name, line, keywords)
             for path in sorted((ROOT / "src/treebsde").glob("*.py"))
             for line, keywords in calls(path.read_text(encoding="utf-8"),
                                         "maximize_over_policies")]
    assert found
    assert [(name, line) for name, line, keywords in found
            if "terminal_rv" not in keywords] == []


def callers(source: str, funcs) -> set:
    """The top-level function, or Class.method, around each call of a name in
    funcs (by name or as an attribute); a class body's own calls give Class
    and module-level calls ``<module>``."""
    scopes = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                        else node.name, item) for item in node.body]
        else:
            scopes.append((node.name if isinstance(node, ast.FunctionDef)
                           else "<module>", node))
    return {scope for scope, node in scopes for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) in funcs}


def test_caller_scan_names_the_enclosing_definition():
    source = ("def outer():\n"
              "    def inner():\n"
              "        return f(1)\n"
              "    return inner\n"
              "class K:\n"
              "    def method(self):\n"
              "        return self.space.f()\n"
              "    x = f(2)\n"
              "def other():\n"
              "    return g(f)\n"
              "f(3)\n")
    assert callers(source, {"f"}) == {"outer", "K.method", "K", "<module>"}
    assert callers(source, {"g", "h"}) == {"other"}


# Functions that may call the per-policy loops; the set may only shrink. The
# benchmark counts solves and policies through maximize_over_policies.
PER_POLICY = {"bsde.maximize_over_policies", "master.check_forward_dpp"}


def test_per_policy_loops_stay_in_their_functions():
    """Each policy of maximize_over_policies or PolicySpace.policies costs one
    solve_bsde; every other search runs on the batched kernel."""
    found = {f"{path.stem}.{scope}"
             for path in sorted((ROOT / "src/treebsde").glob("*.py"))
             for scope in callers(path.read_text(encoding="utf-8"),
                                  {"maximize_over_policies", "policies"})}
    assert found == PER_POLICY


def test_scan_finds_a_definition_nothing_else_reaches():
    package = {
        "a": ("def used(): pass\n"
              "def only_itself(n):\n"
              "    return only_itself(n - 1)\n"
              "class K:\n"
              "    def make(self):\n"
              "        return K()\n"
              "def _private(): pass\n"
              "def exported(): pass\n"
              "def in_module(): pass\n"
              "X = in_module\n"),
        "b": "def by_script(): pass\nused()\n",
    }
    outside = ["import m\nm.by_script()\n"]
    exports = exported("from a import exported\n")
    assert exports == {"exported"}
    assert unreached(package, outside, exports) == {"a.only_itself", "a.K"}


def test_every_public_definition_is_reached_or_allowlisted():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    outside = [path.read_text(encoding="utf-8") for path in OUTSIDE]
    exports = exported((ROOT / "src/treebsde/__init__.py").read_text(encoding="utf-8"))
    assert sum(len(definitions(source)) for source in package.values()) > 100
    # equality: an allowlisted name that code now reaches leaves the list
    assert unreached(package, outside, exports) == ALLOWED
