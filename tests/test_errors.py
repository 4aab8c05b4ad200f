"""``errors.check``, the one rule that holds a value against its bound,
and a scan that keeps every tolerance comparison in ``src/gmpflow``
going through it; and a scan that keeps every finiteness test of an
input going through the entry rule ``finitegap.check_entries``."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gmpflow.errors import NumericalError, ValidationError, WindowError, check

SRC = Path(__file__).resolve().parents[1] / "src" / "gmpflow"
BOUND_SUFFIXES = ("_TOL", "_REL", "_FLOOR")
# Comparisons that stay outside ``check``: the pivot rules, whose
# exceptions carry the pivot (PIVOT_REL_TOL, and lower_cholesky_like's
# 1e-14), and the distance-to-singularity rules, whose messages name the
# input that sits too close.
KEPT_BOUNDS = {"PIVOT_REL_TOL", "POLE_REL_TOL", "POLE_SUPPORT_REL", "SPECTRUM_GAP_REL",
               "GAP_REL_TOL"}
KEPT_LITERALS = {("lower_cholesky_like", 1e-14)}
FINITENESS_TESTS = {"isfinite", "isnan", "isinf"}
# Finiteness tests outside the entry rule, on computed values: numkit's
# ValueError contracts and the ks reports, and a command line tolerance,
# which is an option and not a record.
KEPT_FINITENESS = {
    "finitegap.py:check_entries", "numkit.py:solve", "numkit.py:solve_tridiagonal",
    "numkit.py:bisect_root", "ks.py:KsFunctionalReport.__post_init__",
    "ks.py:KsDiagnostics.__post_init__", "cli.py:_tolerance",
}


class TestCheck:
    def test_value_at_its_bound_passes(self):
        check("x", 1.0, 1.0)
        check("x", 1.0, 1.0, floor=True)

    def test_scalar_above_a_ceiling(self):
        with pytest.raises(NumericalError, match=r"^residual 2\.500e-06 exceeds 1\.000e-08$"):
            check("residual", 2.5e-6, 1e-8)

    def test_scalar_below_a_floor(self):
        with pytest.raises(NumericalError, match=r"^pivot -1\.000e-20 is below 1\.000e-14$"):
            check("pivot", -1e-20, 1e-14, floor=True)
        check("pivot", 1e-20, -1e-14, floor=True)

    @pytest.mark.parametrize("floor", [False, True])
    @pytest.mark.parametrize("value, limit", [(np.nan, 1.0), (0.0, np.nan)])
    def test_nan_is_refused(self, value, limit, floor):
        with pytest.raises(NumericalError, match=r"^x \S+ (exceeds|is below) \S+$") as got:
            check("x", value, limit, floor=floor)
        assert "nan" in str(got.value)

    def test_infinity_is_refused_by_a_floor(self):
        # a value that overflowed holds no margin; a ceiling refuses +inf as it is
        with pytest.raises(NumericalError, match=r"^x inf is not finite$"):
            check("x", np.array([2.0, np.inf]), 1.0, floor=True)
        with pytest.raises(NumericalError, match=r"^x -inf is below 1\.000e\+00$"):
            check("x", -np.inf, 1.0, floor=True)
        with pytest.raises(NumericalError, match=r"^x inf exceeds 1\.000e\+00$"):
            check("x", np.inf, 1.0)
        check("x", -np.inf, 1.0)

    def test_array_names_its_first_failing_entry(self):
        # the limit broadcasts along rows; flat entries 1, 2 and 3 fail
        value = np.array([[0.0, 3.0], [5.0, 4.0]])
        with pytest.raises(NumericalError, match=r"^entry 1 3\.000e\+00 exceeds 2\.000e\+00$"):
            check(lambda i: f"entry {i}", value, np.array([1.0, 2.0]))

    def test_nothing_is_named_on_success(self):
        named = []
        check(lambda i: named.append(i), np.zeros(3), 1.0)
        check(lambda i: named.append(i), np.ones(3), np.zeros(3), floor=True)
        assert named == []

    @pytest.mark.parametrize("exc", [ValidationError, WindowError])
    def test_exception_class(self, exc):
        with pytest.raises(exc, match=r"^weight 1\.000e\+00 exceeds 5\.000e-01$") as got:
            check("weight", 1.0, 0.5, exc)
        assert type(got.value) is exc


def _bounds(node: ast.AST) -> set:
    """The bound-like terms of every comparison under ``node``: names
    ending in a tolerance suffix and float literals strictly between -1
    and 1 but not 0 (a comparison with 0.0 is a sign rule, one with 1.0
    a range), outside the arguments of calls such as ``max(1.0, scale)``."""
    found = set()
    for cmp in (n for n in ast.walk(node) if isinstance(n, ast.Compare)):
        todo = [cmp.left, *cmp.comparators]
        while todo:
            n = todo.pop()
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if isinstance(name, str) and name.endswith(BOUND_SUFFIXES):
                found.add(name)
            if isinstance(n, ast.Constant) and isinstance(n.value, float) and 0 < abs(n.value) < 1:
                found.add(n.value)
            todo += [] if isinstance(n, ast.Call) else ast.iter_child_nodes(n)
    return found


def tolerance_raises(path: Path) -> list[str]:
    """Each ``if`` of ``path`` whose body raises or returns (a verdict
    handed to the caller) and whose test compares with a bound, directly
    or through a name assigned from such a comparison in the same
    function, unless every bound is a kept one."""
    found = []
    funcs = [n for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn in funcs:
        tainted: dict[str, set] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _bounds(node.value):
                for target in (t for t in node.targets if isinstance(t, ast.Name)):
                    tainted[target.id] = _bounds(node.value)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.If)
                    and any(isinstance(s, (ast.Raise, ast.Return)) for s in node.body)):
                continue
            bounds = _bounds(node.test).union(*(tainted.get(n.id, set()) for n in ast.walk(
                node.test) if isinstance(n, ast.Name)))
            kept = KEPT_BOUNDS | {v for f, v in KEPT_LITERALS if f == fn.name}
            if bounds - kept:
                found.append(f"{path.name}:{node.lineno} {fn.name} {sorted(map(str, bounds))}")
    return found


def test_every_tolerance_comparison_refuses_through_check():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in tolerance_raises(path)]
    assert found == []


def test_scan_sees_direct_and_assigned_comparisons(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def direct(x):\n"
        "    if x > READOUT_TOL:\n"
        "        raise ValueError\n"
        "def assigned(x):\n"
        "    bad = np.flatnonzero(x > 1e-8)\n"
        "    if bad.size:\n"
        "        raise ValueError\n"
        "def sign(x):\n"
        "    if not 0.0 < x < 1.0:\n"
        "        raise ValueError\n"
        "def kept(x):\n"
        "    if x <= POLE_REL_TOL * max(1.0, abs(x)):\n"
        "        raise ValueError\n"
        "def returned(rows, x):\n"
        "    if norm(x) <= FLAG_RANK_REL * norm(rows):\n"
        "        return False\n"
        "    return True\n"
        "def looped(x):\n"
        "    for _ in range(9):\n"
        "        if x <= SOLVE_TARGET:\n"
        "            break\n"
    )
    assert [hit.split()[1] for hit in tolerance_raises(path)] == ["direct", "assigned", "returned"]


def finiteness_tests(path: Path) -> list[str]:
    """``<file>:<class.function>`` of each call of ``path`` to a function
    named in ``FINITENESS_TESTS`` (``np.isfinite``, ``math.isnan``, ...)."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FINITENESS_TESTS:
                    found.append(f"{path.name}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_every_input_finiteness_test_is_the_entry_rule():
    found = {hit for path in sorted(SRC.glob("*.py")) for hit in finiteness_tests(path)}
    assert sorted(found - KEPT_FINITENESS) == []
    assert "finitegap.py:check_entries" in found  # the scan reads the package


def test_finiteness_scan_sees_functions_methods_and_module_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\n"
        "OK = math.isfinite(1.0)\n"
        "def direct(x):\n"
        "    if not np.isfinite(x).all():\n"
        "        raise ValueError\n"
        "class Record:\n"
        "    def __post_init__(self):\n"
        "        bad = [isnan(v) for v in self.values]\n"
        "    def method(self):\n"
        "        return np.abs(self.x).max()\n"
    )
    assert finiteness_tests(path) == [
        "sample.py:<module>", "sample.py:direct", "sample.py:Record.__post_init__"
    ]
