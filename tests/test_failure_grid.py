"""The typed-failure contract of the command line on a fixed grid of bad inputs.

The inputs are the first job of each of perfbench's tiny pools at seed 0
(read-only: its draws are imported, and its files written to a temporary
directory).  Every input file of every call is varied one JSON leaf at a
time: the leaf is replaced by each of ``VALUES``.  Lists longer than
``LONG_LIST`` are varied only at their first and middle entries.  For
every case ``cli.main`` must return 0, 1 or 2 and raise nothing, a
failing exit must write exactly one line to stderr, a successful exit
must write no nan or inf, and no case may raise a warning: ``cli.main``
turns a floating-point overflow, invalid operation or division by zero
into exit 2.  A leaf that is not a number (a bool, null, a string, a list
or an object), an integer too large for a double, and a number that is
NaN, infinite or too large to square each exit 1, naming its JSON path,
wherever a record reads it.

``run_grid`` is also what ``bench/write.py`` runs to record the counts,
and what ``bench/identity.py`` digests case by case.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from gmpflow import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
VALUES = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, 0, -1, True, None, "x", [], [1.0], {}, 3,
    10**400, "0.5",
)
NOT_NUMBERS = ("true", "null", '"x"', '"0.5"', "[]", "{}", "[1.0]")
LONG_LIST = 4
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
INTEGER_FIELDS = ("g", "j_min", "n_min")


def first_jobs(work: Path) -> list[list[str]]:
    """Command lines of the first job of each tiny pool at seed 0, each run
    once as drawn so that later calls find the files earlier ones write."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    calls = []
    for workload in workloads.WORKLOADS:
        for argv in workloads.build_pool(workload, 0, work, tiny=True).jobs[0].calls:
            code, _, err, _ = run_call(argv)
            assert code == 0, f"{argv[0]} failed on its drawn input: {err}"
            calls.append(argv)
    return calls


def input_positions(argv: list[str]) -> list[int]:
    """Positions in argv of the JSON files a call reads."""
    return [i for i, arg in enumerate(argv)
            if arg.endswith(".json") and argv[i - 1] != "--out"]


def leaf_paths(node, path=()):
    """Paths to the leaves varied: all of them, but only the first and
    middle entries of a list longer than ``LONG_LIST``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        picks = range(len(node)) if len(node) <= LONG_LIST else (0, len(node) // 2)
        items = ((i, node[i]) for i in picks)
    else:
        yield path
        return
    for key, child in items:
        yield from leaf_paths(child, path + (key,))


def run_call(argv: list[str]):
    """Exit code (or the uncaught exception), stdout, stderr and the number
    of warnings of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - the contract forbids it; report it
            code = exc
    return code, out.getvalue(), err.getvalue(), len(caught)


def run_grid(work: Path):
    """Yield one record per case: the subcommand, the file and leaf
    varied, the value, the outcome with its stderr (``work`` written as
    ``<work>``) and the contract breaches it shows."""
    for argv in first_jobs(work):
        out_path = work / "grid.out"
        for pos in input_positions(argv):
            source = Path(argv[pos])
            data = json.loads(source.read_text())
            case_path = work / f"grid-{source.name}"
            case_argv = list(argv)
            case_argv[pos] = str(case_path)
            if "--out" in argv:
                case_argv[argv.index("--out") + 1] = str(out_path)
            for leaf in leaf_paths(data):
                parent = data
                for key in leaf[:-1]:
                    parent = parent[key]
                drawn = parent[leaf[-1]]
                for value in VALUES:
                    parent[leaf[-1]] = value
                    case_path.write_text(json.dumps(data))
                    parent[leaf[-1]] = drawn
                    out_path.unlink(missing_ok=True)
                    code, stdout, stderr, n_warnings = run_call(case_argv)
                    output = stdout + (out_path.read_text() if out_path.exists() else "")
                    breaches = []
                    if code not in (0, 1, 2):
                        breaches.append(f"exit {code!r}")
                    elif code and stderr.count("\n") != 1:
                        breaches.append(f"{stderr.count(chr(10))} stderr lines")
                    elif code == 0 and NON_FINITE.search(output):
                        breaches.append("non-finite output")
                    yield {
                        "command": argv[0],
                        "file": source.name,
                        "leaf": list(leaf),
                        "value": json.dumps(value),
                        "exit": code if isinstance(code, int) else type(code).__name__,
                        "stderr": stderr.replace(str(work), "<work>"),
                        "warned": n_warnings > 0,
                        "breaches": breaches,
                    }


def grid_counts(cases) -> dict:
    """Exit-code counts, warning cases per subcommand and non-finite
    exit-0 cases of a grid run."""
    cases = list(cases)
    return {
        "cases": len(cases),
        "exit_counts": dict(sorted(Counter(str(c["exit"]) for c in cases).items())),
        "warning_cases": dict(sorted(Counter(c["command"] for c in cases if c["warned"]).items())),
        "nonfinite_exit0_cases": sum("non-finite output" in c["breaches"] for c in cases),
        "breaches": sum(bool(c["breaches"]) for c in cases),
    }


@pytest.fixture(scope="module")
def grid(tmp_path_factory) -> list[dict]:
    return list(run_grid(tmp_path_factory.mktemp("grid")))


def test_every_case_keeps_the_typed_failure_contract(grid):
    broken = [c for c in grid if c["breaches"]]
    assert not broken, f"{len(broken)} of {len(grid)} cases break the contract: {broken[:5]}"


def test_no_case_warns(grid):
    warned = [c for c in grid if c["warned"]]
    assert not warned, f"{len(warned)} of {len(grid)} cases warn: {warned[:5]}"


def test_grid_covers_every_subcommand_and_input(grid):
    inputs = {(c["command"], c["file"]) for c in grid}
    assert {cmd for cmd, _ in inputs} == {
        "flow", "ks", "gmp2jacobi", "jacobi2gmp", "delta", "iso-solve"
    }
    assert len(inputs) == 9
    assert all(n % len(VALUES) == 0 for n in Counter(c["command"] for c in grid).values())


def leaf_path(leaf) -> str:
    """A leaf's path as the entry rule names it: ``blocks[3].q[1]``,
    ``gaps[0][1]``, ``lambda0``."""
    return leaf[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in leaf[1:])


def test_non_finite_entries_are_named(grid):
    # every leaf but the integer fields, which refuse NaN and inf as not integers
    cases = [c for c in grid if c["value"] in ("NaN", "Infinity", "-Infinity")
             and c["leaf"][0] not in INTEGER_FIELDS]
    assert len(cases) == 171
    for c in cases:
        value = {"NaN": "nan is not a number", "Infinity": "inf is infinite",
                 "-Infinity": "-inf is infinite"}[c["value"]]
        message = f"validation error: {leaf_path(c['leaf'])} = {value}\n"
        assert (c["exit"], c["stderr"]) == (1, message), c


def test_non_numbers_are_named(grid):
    # the reader refuses them before any value rule, in one wording; the
    # integer fields say "integer"
    cases = [c for c in grid if c["value"] in NOT_NUMBERS]
    assert len(cases) == 448
    for c in cases:
        kind = "an integer" if c["leaf"][0] in INTEGER_FIELDS else "a number"
        message = f"validation error: {leaf_path(c['leaf'])} = {c['value']} is not {kind}\n"
        assert (c["exit"], c["stderr"]) == (1, message), c
    huge = [c for c in grid if c["value"] == str(10**400)]
    assert len(huge) == 64
    for c in huge:
        why = ("is not an integer of magnitude at most 2**53" if c["leaf"][0] in INTEGER_FIELDS
               else "is too large for a double")
        message = f"{leaf_path(c['leaf'])} = 100000000000... (401 characters) {why}"
        assert (c["exit"], c["stderr"]) == (1, f"validation error: {message}\n"), c


def test_entries_whose_squares_overflow_are_named(grid):
    # every leaf but the integer fields, which refuse them as too large, and
    # the iso-solve seed's last p entry, which is pinned and never read
    # (1e308 is solved, -1e308 is refused as not positive)
    cases = [c for c in grid if c["value"] in ("1e+308", "-1e+308")
             and c["leaf"][0] not in INTEGER_FIELDS and c["file"] != "seed0.json"]
    seed = [c for c in grid if c["value"] in ("1e+308", "-1e+308")
            and c["file"] == "seed0.json"]
    assert len(cases) == 102 and len(seed) == 12
    for c in cases + [c for c in seed if c["leaf"] != ["p", 2]]:
        message = f"{leaf_path(c['leaf'])} = {c['value']} is too large: its square overflows"
        assert (c["exit"], c["stderr"]) == (1, f"validation error: {message}\n"), c
    solved, refused = (c for c in seed if c["leaf"] == ["p", 2])
    assert (solved["exit"], solved["stderr"]) == (0, "")
    assert refused["stderr"] == "validation error: last p entry must be positive, got -1e+308\n"


def test_vanishing_crossing_bond_is_refused(grid):
    # a[111] is the crossing bond a(0).  At 1e-308 it once gave blocks too
    # large to square, written with exit 0 and unreadable by gmp2jacobi; the
    # refusal names the converted window's entry and the input's bond
    (case,) = [c for c in grid if c["command"] == "jacobi2gmp" and c["leaf"] == ["a", 111]
               and c["value"] == "1e-308"]
    assert case["exit"] == 1
    assert re.fullmatch(r"validation error: converted window: blocks\[\d+\]\.[pq]\[\d+\] = "
                        r"-?\d\.\d+e\+30\d is too large: its square overflows "
                        r"\(crossing bond a\(0\) = 1e-308\)\n", case["stderr"]), case
