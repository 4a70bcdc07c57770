"""Every defaulted parameter of the public API is passed by program code.

An AST scan: a parameter with a default, on a public function of a
``src/treebsde`` module or on a public method of a public class there, must be
passed by position or by keyword at some call in ``src``, ``scripts`` or
``perfbench``. Tests do not count, as in ``test_reach.py``: a default that no
program caller changes is a constant, not a parameter. Calls are matched by
the called name alone, after resolving ``from m import f as g`` aliases, and a
call with ``*args`` or ``**kwargs`` passes everything.

A second scan finds constants in disguise: a defaulted parameter to which
every program call passes the same literal, with none leaving it out, is a
constant too, and belongs in the function body.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(path for path in (ROOT / "src/treebsde").glob("*.py")
                 if not path.name.startswith("_"))
CALLERS = sorted(path for top in ("src", "scripts", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))

# Test seams: parameters only tests pass today; the list may only shrink.
ALLOWED = {
    "bsde.envelope_bsde:skip_probes",
    "dynutil.check_linear_comparison:pairs",
    "dynutil.make_comparison_pairs:count",
    "dynutil.verify_tau_bound:pilot_paths",
    "lattice.path_functional:current_value_only",
    "master.path_derivative_probe:threshold",
}

# Parameters every program call passes the same literal; the list may only shrink.
CONSTANT = {
    "bsde.maximize_over_policies:start_level",
    "duality.export_dual_grid_csv:levels",
    "duality.solve_dual_hjb:levels",
    "dynutil.check_linear_comparison:tol",
}


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
    """Called name -> [(positional argument nodes, keyword name -> value node,
    passes everything)]; a name bound by ``from m import f as g`` is called as f."""
    tree = ast.parse(source)
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.asname}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None)
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        if name is None:
            continue
        star = (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        out.setdefault(name, []).append(
            (node.args, {k.arg: k.value for k in node.keywords if k.arg}, star))
    return out


def unpassed(definitions: list, sites: dict) -> list:
    """The (function, parameter) pairs of definitions that no site passes."""
    def passes(args, keywords, star, param, position):
        return star or param in keywords or (position is not None
                                             and len(args) > position)

    return [(fn, param) for fn, param, position in definitions
            if not any(passes(*site, param, position) for site in sites.get(fn, ()))]


def constant(definitions: list, sites: dict) -> list:
    """The (function, parameter) pairs of definitions to which some site passes
    a literal and every site passes the same one."""
    def literal(args, keywords, star, param, position):
        """repr of the literal a site passes; None if it may pass anything else."""
        node = keywords.get(param)
        if node is None and position is not None and len(args) > position:
            node = args[position]
        if star or node is None:
            return None
        try:
            return repr(ast.literal_eval(node))
        except (ValueError, TypeError, SyntaxError):
            return None

    return [(fn, param) for fn, param, position in definitions
            if len(passed := {literal(*site, param, position)
                              for site in sites.get(fn, ())}) == 1
            and None not in passed]


def program_sites() -> dict:
    """calls() over every program source, merged."""
    sites = {}
    for path in CALLERS:
        for name, found in calls(path.read_text(encoding="utf-8")).items():
            sites.setdefault(name, []).extend(found)
    return sites


def package_definitions() -> dict:
    """Module stem -> defaulted() of each public package module."""
    return {path.stem: defaulted(path.read_text(encoding="utf-8")) for path in PACKAGE}


def test_scan_finds_a_parameter_no_call_passes():
    definitions = defaulted(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def _g(a=1): pass\n"
        "def main(argv=None): pass\n"
        "def seam(a, only_tests=False): pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2): pass\n"
        "    @staticmethod\n"
        "    def s(x=1): pass\n"
        "class _H:\n"
        "    def h(self, z=1): pass\n")
    assert definitions == [("f", "b", 1), ("f", "c", None), ("f", "d", None),
                           ("main", "argv", 0), ("seam", "only_tests", 1),
                           ("m", "x", 0), ("m", "y", 1), ("s", "x", 0)]
    # cli_main is main under its alias; only a test would pass only_tests
    program = calls("from pkg.cli import main as cli_main\n"
                    "f(0, 5, d=1)\nobj.m(7)\ns(**kw)\ncli_main(['run'])\nseam(1)\n")
    assert unpassed(definitions, program) == [("f", "c"), ("seam", "only_tests"),
                                              ("m", "y")]


def test_every_defaulted_public_parameter_is_passed_somewhere():
    sites, definitions = program_sites(), package_definitions()
    assert sum(map(len, definitions.values())) > 40
    # equality: a seam that program code now passes leaves the list
    assert {f"{module}.{fn}:{param}" for module, found in definitions.items()
            for fn, param in unpassed(found, sites)} == ALLOWED


def test_scan_finds_a_parameter_every_call_passes_the_same_literal():
    definitions = defaulted(
        "def f(a, tol=1e-9, *, mode='x', levels=None, seed=0): pass\n"
        "def g(flag=False): pass\n"
        "def h(flag=False): pass\n"
        "def k(x=1): pass\n"
        "def unused(x=1): pass\n")
    program = calls("f(1, 1e-10, mode='euler', levels=(0,), seed=s)\n"
                    "f(2, tol=1.0e-10, mode='euler', levels=(0, 1), seed=1)\n"
                    "g(**kw)\ng(flag=True)\nobj.h(True)\nk(x=2)\nk()\n")
    # seed: one site passes a name; g: a ** site may pass anything; k: one
    # site omits x; unused: no site at all
    assert constant(definitions, program) == [("f", "tol"), ("f", "mode"),
                                              ("h", "flag")]


def test_no_defaulted_public_parameter_takes_one_literal_everywhere():
    sites, definitions = program_sites(), package_definitions()
    # equality: a listed parameter that program code stops fixing leaves the list
    assert {f"{module}.{fn}:{param}" for module, found in definitions.items()
            for fn, param in constant(found, sites)} == CONSTANT
