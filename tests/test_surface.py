"""Guard against test-only public code in ``src/gmpflow``.

Every public top-level function, class, constant, method and property
must be reachable from ``gmpflow.cli`` or ``gmpflow.acceptance``, or be
a test oracle listed in ``ORACLES``.  Reachability is read from the
source by name: a reached body, or module-level code, reaches every
top-level definition whose name it mentions and every method or
property whose name it uses as an attribute.  That over-approximates
the call graph, so the check never flags code that runs, while a
definition that only tests use shows up.
"""

import ast
from pathlib import Path

import gmpflow

PACKAGE = Path(gmpflow.__file__).resolve().parent
ROOTS = ("cli", "acceptance")

# Kept although the package never calls them.  Each entry names the test
# that uses it as the reference for code that stays.
ORACLES = {
    "__init__.__version__": "the package version string",
    "jacobi.lanczos_from_measure": (
        "test_construct.py::TestGmpToJacobiMeasure::"
        "test_matches_dense_spectral_measure_route and test_jacobi.py::"
        "TestLanczosFromMeasure, the dense measure route to the coefficients "
        "of gmp_to_jacobi_measure; perfbench traces it by name"
    ),
}


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _definitions(sources):
    """Top-level definitions and methods by key ("module.name" or
    "module.Class.method"), and the other module-level statements."""
    defs, module_code = {}, []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                for item in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{mod}.{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[f"{mod}.{target.id}"] = node
            else:
                module_code.append(node)
    return defs, module_code


def _mentions(nodes) -> tuple[set[str], set[str]]:
    """Names used bare (or imported) and names used as attributes."""
    bare, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                bare.add(sub.id)
            elif isinstance(sub, ast.alias):
                bare.add(sub.name.rsplit(".", 1)[-1])
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return bare, attrs


def _body(node) -> list:
    """What a reached definition runs: a class brings its bases,
    decorators, class-level statements and special methods; its other
    methods and its properties are reached on their own."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return node.bases + node.keywords + node.decorator_list + [
        item
        for item in node.body
        if not isinstance(item, ast.FunctionDef)
        or item.name.startswith("__")
    ]


def _is_public(key: str) -> bool:
    """No leading underscore; module dunders such as ``__version__`` count,
    special methods come with their class."""
    name = key.rsplit(".", 1)[-1]
    return not name.startswith("_") or (key.count(".") == 1 and name.endswith("__"))


def unreached(sources=None) -> list[str]:
    defs, module_code = _definitions(sources or package_sources())
    reached = {key for key in defs if key.split(".")[0] in ROOTS} | set(ORACLES)
    frontier = [defs[key] for key in reached if key in defs] + module_code
    while frontier:
        bare, attrs = _mentions(node for item in frontier for node in _body(item))
        frontier = []
        for key, node in defs.items():
            name = key.rsplit(".", 1)[-1]
            is_method = key.count(".") == 2
            if key not in reached and (name in attrs or (not is_method and name in bare)):
                reached.add(key)
                frontier.append(node)
    return sorted(key for key in defs if key not in reached and _is_public(key))


def test_every_public_definition_is_reached_from_cli_or_acceptance():
    assert unreached() == []


def test_oracles_exist():
    defs, _ = _definitions(package_sources())
    assert set(ORACLES) <= set(defs)


def test_a_test_only_function_or_method_is_flagged():
    sources = package_sources()
    sources["finitegap"] += (
        "\n\ndef eval_psi(gapset, x):\n    return eval_pa(gapset, x)\n"
    )
    sources["gmp"] = sources["gmp"].replace(
        "    def scalar_index(",
        "    def interior_js(self):\n        return range(self.j_min + 1, self.j_max)\n\n"
        "    @property\n    def n_interior(self):\n        return self.n_blocks - 2\n\n"
        "    def scalar_index(",
    )
    assert unreached(sources) == [
        "finitegap.eval_psi",
        "gmp.GmpWindow.interior_js",
        "gmp.GmpWindow.n_interior",
    ]
