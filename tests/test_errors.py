"""``errors.check``, the one rule that holds a value against its bound,
and a scan that keeps every tolerance comparison in ``src/gmpflow``
going through it; ``errors.read_numbers``, the one reader of a JSON
record, and ``errors.check_entries``, the one number rule through which
every record constructor takes its numbers, in process as from JSON: a
leaf that is not a number, a ragged row and an offset that is not an
integer are each a ``ValidationError`` naming it, whatever the caller
passes, and a record built from numpy scalars dumps as JSON; a scan
that keeps every finiteness test of an input going through that rule;
and a scan that keeps every catch of what malformed record data raises
inside the one reader."""

import ast
import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmpflow.construct import gram_D
from gmpflow.errors import (NumericalError, ValidationError, WindowError, check, check_entries,
                            read_numbers)
from gmpflow.finitegap import DeltaData, GapSet
from gmpflow.gmp import GmpBlock, GmpWindow
from gmpflow.jacobi import DiscreteMeasure, JacobiWindow

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
    "errors.py:check_entries", "numkit.py:solve", "numkit.py:solve_tridiagonal",
    "numkit.py:bisect_root", "ks.py:KsFunctionalReport.__post_init__",
    "ks.py:KsDiagnostics.__post_init__", "cli.py:_tolerance",
}
RECORD_CATCHES = {"KeyError", "TypeError", "ValueError"}
# Catches of those outside the reader, on text that is not a record: the
# command line options, and a file's text before it parses.
KEPT_CATCHES = {"cli.py:_tolerance", "cli.py:_seed", "cli.py:_load_json"}


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


class TestReadNumbers:
    WINDOW = {"C": [0.5], "j_min": -1, "blocks": [{"p": [1.0, 2.0], "q": [0.0, 3]}] * 3}

    def test_fitting_record_is_one_array(self):
        P = read_numbers(self.WINDOW, "blocks[].p[]")
        assert P.shape == (3, 2) and P.dtype == float and P.tolist() == [[1.0, 2.0]] * 3
        assert read_numbers(self.WINDOW, "blocks[].q[]")[0].tolist() == [0.0, 3.0]
        assert read_numbers(self.WINDOW, "blocks[].p[2]").shape == (3, 2)
        assert read_numbers({"x": np.float64(0.5)}, "x") == 0.5
        assert type(read_numbers({"x": 2}, "x")) is float
        # NaN and Infinity are numbers; the entry rule judges them
        assert np.isnan(read_numbers({"x": [1e400, math.nan]}, "x[]")[1])

    def test_empty_lists_keep_their_axes(self):
        assert read_numbers({"gaps": []}, "gaps[][2]").shape == (0, 2)
        assert read_numbers({"blocks": []}, "blocks[].p[]").shape == (0, 0)
        assert read_numbers({"blocks": [{"p": []}] * 2}, "blocks[].p[]").shape == (2, 0)

    @pytest.mark.parametrize("value, spelled", [
        (True, "true"), (None, "null"), ("0.5", '"0.5"'), ([], "[]"), ({}, "{}"), ([1.0], "[1.0]"),
    ])
    def test_leaf_that_is_not_a_number_is_named(self, value, spelled):
        blocks = [{"p": [1.0, 2.0], "q": [0.0, 0.0]}, {"p": [1.0, value], "q": [0.0, 0.0]}]
        with pytest.raises(ValidationError) as info:
            read_numbers({"blocks": blocks}, "blocks[].p[]")
        assert str(info.value) == f"blocks[1].p[1] = {spelled} is not a number"

    @pytest.mark.parametrize("record, spec, message", [
        ({"c0": 0.0}, "lambda0", "lambda0 is missing"),
        ([1.0], "lambda0", "record = [1.0] is not an object"),
        ({"blocks": [{"p": [1.0]}, 3]}, "blocks[].p[]", "blocks[1] = 3 is not an object"),
        ({"blocks": [{"p": [1.0]}, {"q": [1.0]}]}, "blocks[].p[]", "blocks[1].p is missing"),
        ({"C": 0.5}, "C[]", "C = 0.5 is not a list"),
        ({"C": "0.5"}, "C[]", 'C = "0.5" is not a list'),
        ({"blocks": [{"p": [1.0]}, {"p": [1.0, 2.0]}]}, "blocks[].p[]",
         "blocks[1].p has 2 entries, not 1"),
        ({"gaps": [[-1.0, 0.0, 1.0]]}, "gaps[][2]", "gaps[0] has 3 entries, not 2"),
        ({"x": [2.0, 10**400]}, "x[]", "x[1] = 100000000000... (401 characters) is too large "
         "for a double"),
        # the outermost fault first, and the first in file order within a level
        ({"x": [[None], [1.0, 2.0]]}, "x[][]", "x[1] has 2 entries, not 1"),
        ({"x": [[1.0, "a"], [None, 2.0]]}, "x[][]", 'x[0][1] = "a" is not a number'),
        ({"x": [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0]]}, "x[][]", "x[1] has 2 entries, not 1"),
    ], ids=["missing", "record", "not-an-object", "missing-in-a-list", "not-a-list",
            "string-not-a-list", "ragged", "not-a-pair", "past-a-double", "shape-first",
            "first-leaf", "first-ragged"])
    def test_record_that_does_not_fit_is_named(self, record, spec, message):
        with pytest.raises(ValidationError) as info:
            read_numbers(record, spec)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [3, -3.0, 2**53, -float(2**53)])
    def test_integer(self, value):
        got = read_numbers({"j_min": value}, "j_min", int)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value, why", [
        (1.5, "is not an integer"), (math.nan, "is not an integer"),
        (math.inf, "is not an integer"), (False, "is not an integer"), ("3", "is not an integer"),
        (2**53 + 1, "is not an integer of magnitude at most 2**53"),
        (-1e308, "is not an integer of magnitude at most 2**53"),
    ])
    def test_integer_refused(self, value, why):
        with pytest.raises(ValidationError) as info:
            read_numbers({"j_min": value}, "j_min", int)
        assert str(info.value) == f"j_min = {json.dumps(value)} {why}"


# A valid in-process input of each record constructor, its arguments as
# nested lists, and a leaf that is not the first: (its path in the
# arguments, its name in the messages).
RECORDS = {
    "GmpBlock": (GmpBlock, ([1.0, 0.5], [0.0, 0.0]), (0, 1), "p[1]"),
    "GmpWindow": (GmpWindow, ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [0.5], -1),
                  (1, 1, 0), "blocks[1].q[0]"),
    "JacobiWindow": (JacobiWindow, ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], -1), (1, 2), "b[2]"),
    "DiscreteMeasure": (DiscreteMeasure, ([-1.0, 1.0], [0.5, 0.5]), (0, 1), "points[1]"),
    "GapSet": (GapSet, (-2.0, 2.0, [[-1.5, -1.0], [1.0, 1.5]]), (2, 1, 0), "gaps[1][0]"),
    "DeltaData": (DeltaData, (1.0, 0.0, [[-0.5, 1.0], [0.5, 2.0]]), (2, 0, 1), "poles[0].lambda"),
}


def replaced(args, path, value):
    """A deep copy of ``args`` with the entry at ``path`` replaced by ``value``."""
    args = list(copy.deepcopy(args))
    node = args
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] = value
    return args


def gram_poles(poles):
    """``construct.gram_D`` of a two-point measure, which reads ``poles``."""
    return gram_D(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]), poles)


def leaf_paths(node, path=()):
    """The paths of the numbers in nested lists."""
    if isinstance(node, list):
        for i, x in enumerate(node):
            yield from leaf_paths(x, path + (i,))
    else:
        yield path


class TestCheckEntries:
    @pytest.mark.parametrize("value, why", [
        ("x", "is not a number"), (True, "is not a number"), (None, "is not a number"),
        ([1.0], "is not a number"), ("0.5", "is not a number"),
        (10**400, "is too large for a double"),
    ], ids=["str", "bool", "none", "list", "numeric-str", "huge-int"])
    @pytest.mark.parametrize("record", RECORDS)
    def test_leaf_that_is_not_a_number_is_named(self, record, value, why):
        make, args, path, name = RECORDS[record]
        with pytest.raises(ValidationError) as info:
            make(*replaced(args, path, value))
        assert str(info.value) == f"{name} = {value!r} {why}"

    def test_first_fault_in_file_order(self):
        # blocks in order, p before q; a non-number and NaN alike
        P, Q = [[1.0, 1.0], [1.0, "x"]], [[0.0, math.nan], [0.0, 0.0]]
        with pytest.raises(ValidationError, match=r"^blocks\[0\]\.q\[1\] = nan is not a number$"):
            GmpWindow(P, Q, [0.5])
        Q[0][1] = 0.0
        with pytest.raises(ValidationError, match=r"^blocks\[1\]\.p\[1\] = 'x' is not a number$"):
            GmpWindow(P, Q, [0.5])

    @pytest.mark.parametrize("make, args, message", [
        (GmpWindow, ([[1.0, 2.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]], [0.5]),
         "P and Q must be 2-d arrays of equal shape"),
        (GmpWindow, ([[1.0, 2.0], [1.0, [2.0]]], [[0.0, 0.0], [0.0, 0.0]], [0.5]),
         "blocks[1].p[1] = [2.0] is not a number"),
        (GmpBlock, ([1.0, [2.0]], [0.0, 0.0]), "p[1] = [2.0] is not a number"),
        (GmpBlock, (np.ones((2, 2)), [[0.0, 0.0], [0.0]]),
         "p and q must be nonempty vectors of equal length"),
        (JacobiWindow, ([1.0, [2.0]], [0.0, 0.0]), "a[1] = [2.0] is not a number"),
        (JacobiWindow, ([[1.0], [1.0, 2.0]], [0.0, 0.0]), "a[0] = [1.0] is not a number"),
        (DiscreteMeasure, ([0.0, 1.0], [0.5, (0.5,)]), "weights[1] = (0.5,) is not a number"),
        (gram_poles, (0.5,), "poles = 0.5 is not a list of numbers"),
        (gram_poles, ([[0.5], [1.0, 2.0]],), "poles[0] = [0.5] is not a number"),
    ], ids=["ragged-rows", "list-for-number", "block-list", "stack-ragged", "jacobi-list",
            "jacobi-rows", "measure-tuple", "poles-number", "poles-rows"])
    def test_ragged_input_is_refused(self, make, args, message):
        with pytest.raises(ValidationError) as info:
            make(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("offset, why", [
        (-4.5, "is not an integer"), (2.5, "is not an integer"), (True, "is not an integer"),
        ("3", "is not an integer"), (None, "is not an integer"),
        (2**53 + 1, "is not an integer of magnitude at most 2**53"),
    ])
    def test_offset_that_is_not_an_integer_is_named(self, offset, why):
        with pytest.raises(ValidationError) as info:
            GmpWindow([[1.0, 1.0]], [[0.0, 0.0]], [0.5], j_min=offset)
        assert str(info.value) == f"j_min = {offset!r} {why}"
        with pytest.raises(ValidationError) as info:
            JacobiWindow([1.0, 1.0], [0.0, 0.0], n_min=offset)
        assert str(info.value) == f"n_min = {offset!r} {why}"

    @pytest.mark.parametrize("offset", [np.int64(-3), np.int32(-3), -3.0, np.float64(-3.0)])
    def test_integral_offset_is_stored_as_int(self, offset):
        window = GmpWindow([[1.0, 1.0]], [[0.0, 0.0]], [0.5], j_min=offset)
        jacobi = JacobiWindow([1.0, 1.0], [0.0, 0.0], n_min=offset)
        assert type(window.j_min) is int and type(jacobi.n_min) is int
        assert window.j_min == jacobi.n_min == -3
        json.dumps([window.to_json(), jacobi.to_json()])

    def test_numpy_scalars_are_read_as_python_floats(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a float32 cast
            gaps = GapSet(np.float32(-2.0), np.int64(2), [(np.float32(-1.0), np.float16(1.0))])
            delta = DeltaData(np.float32(2.0), np.int32(0), [(np.float32(0.5), np.int64(1))])
        assert (type(gaps.b0), type(gaps.a0), type(delta.lambda0), type(delta.c0)) == (float,) * 4
        assert gaps.gaps == ((-1.0, 1.0),) and delta.poles == ((0.5, 1.0),)
        window = GmpWindow(np.ones((2, 2), np.float32), np.zeros((2, 2), int), [np.float32(0.5)])
        assert window.P.dtype == window.Q.dtype == window.c.dtype == float
        json.dumps([gaps.to_json(), delta.to_json(), window.to_json()])

    def test_values_come_back_as_read_only_copies(self):
        given = np.array([1.0, 2.0])
        x, y = check_entries({"x": given, "y": [3, np.float32(4.0)]}, "{key}[{0}]")
        assert x.tolist() == [1.0, 2.0] and y.tolist() == [3.0, 4.0]
        assert not x.flags.writeable and not y.flags.writeable and given.flags.writeable
        assert check_entries({"a": 1, "b": np.float64(2.0)}) == [1.0, 2.0]

    def test_values_of_other_shapes_are_left_to_the_caller(self):
        # not judged, whatever their entries: the caller's shape rule refuses them
        x, y = check_entries({"x": [math.nan], "y": [1.0, 2.0]}, "{key}[{0}]")
        assert x.shape == (1,) and y.shape == (2,)
        ragged, = check_entries({"x": [[1.0], [1.0, "x"]]}, "{key}[{0}][{1}]")
        assert ragged.shape == () and np.isnan(ragged)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(record=st.sampled_from(sorted(RECORDS)), data=st.data())
    def test_any_input_is_a_record_or_a_validation_error(self, record, data):
        make, args, _, _ = RECORDS[record]
        paths = list(leaf_paths(list(args)))
        rows = sorted({p[:-1] for p in paths if len(p) > 1})
        path = data.draw(st.sampled_from(paths + rows))
        number = st.one_of(st.floats(), st.integers(-2**1100, 2**1100), st.booleans(),
                           st.sampled_from([np.float32(0.5), np.int64(3), np.bool_(True),
                                            np.float16(-2.0), np.int32(-1), np.float64(1e300)]))
        value = data.draw(st.one_of(
            number, st.none(), st.text(max_size=3), st.lists(number, max_size=3),
            st.lists(st.lists(number, max_size=2), max_size=2), st.just(np.array([1.0, 2.0]))))
        try:
            built = make(*replaced(args, path, value))
        except ValidationError:
            return
        if hasattr(built, "to_json"):
            json.dumps(built.to_json())


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


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def scopes_of(path: Path, hit) -> list[str]:
    """``<file>:<class.function>`` (``<module>`` outside any) of each node
    of ``path`` for which ``hit`` holds."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                found.append(f"{path.name}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def finiteness_tests(path: Path) -> list[str]:
    """The scope of each call of ``path`` to a function named in
    ``FINITENESS_TESTS`` (``np.isfinite``, ``math.isnan``, ...)."""
    return scopes_of(path, lambda n: isinstance(n, ast.Call) and _name(n.func) in FINITENESS_TESTS)


def record_catches(path: Path) -> list[str]:
    """The scope of each ``except`` clause of ``path`` that names one of
    ``RECORD_CATCHES``, alone or in a tuple."""
    def hit(node: ast.AST) -> bool:
        caught = getattr(node, "type", None) if isinstance(node, ast.ExceptHandler) else None
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        return any(_name(n) in RECORD_CATCHES for n in names if n is not None)

    return scopes_of(path, hit)


def test_every_input_finiteness_test_is_the_entry_rule():
    found = {hit for path in sorted(SRC.glob("*.py")) for hit in finiteness_tests(path)}
    assert sorted(found - KEPT_FINITENESS) == []
    assert "errors.py:check_entries" in found  # the scan reads the package


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


def test_only_the_reader_catches_what_record_data_raises():
    found = {hit for path in sorted(SRC.glob("*.py")) for hit in record_catches(path)}
    assert sorted(found - KEPT_CATCHES) == ["errors.py:read_numbers"]


def test_catch_scan_sees_functions_methods_and_module_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "try:\n"
        "    X = int(TEXT)\n"
        "except ValueError:\n"
        "    X = 0\n"
        "def direct(data):\n"
        "    try:\n"
        "        return float(data['x'])\n"
        "    except (KeyError, TypeError, ValueError) as exc:\n"
        "        raise ValidationError(str(exc)) from exc\n"
        "class Record:\n"
        "    @classmethod\n"
        "    def from_json(cls, data):\n"
        "        try:\n"
        "            return cls(data['x'])\n"
        "        except builtins.KeyError:\n"
        "            return None\n"
        "    def other(self):\n"
        "        try:\n"
        "            return self.x\n"
        "        except (AttributeError, OSError):\n"
        "            return None\n"
        "        except Exception:\n"
        "            return None\n"
        "        except:\n"
        "            return None\n"
    )
    assert record_catches(path) == [
        "sample.py:<module>", "sample.py:direct", "sample.py:Record.from_json"
    ]
