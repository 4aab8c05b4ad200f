"""``bench/write.py`` against the package as it stands.

The harness calls the package through its own table of cases, so an API
that moves in ``src/`` breaks it where no package test looks.  This runs
the first case of each family of that table on this tree and on a copy of
``src/gmpflow`` loaded by the harness's base loader (an A/A pair, with no
git call), each call once, in a fresh process: importing the harness pins
BLAS to one thread and puts ``tests/`` and ``perfbench/`` on the path.
The tree's call runs once more under the harness's ``Counting``, whose
tridiagonal solve count each case prints.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """\
import importlib.util, shutil, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("write", sys.argv[1])
write = sys.modules["write"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(write)
import gmpflow
write.WORK = Path(sys.argv[2])
shutil.copytree(write.ROOT / "src" / "gmpflow", write.WORK / "gmpflow")
base = write.load_package(write.WORK / "gmpflow", write.BASE_PACKAGE)
assert base.gmp.GmpWindow is not gmpflow.gmp.GmpWindow
assert base.flow.jacobi_flow_step is not gmpflow.flow.jacobi_flow_step
for family in write.table():
    case = family[0]
    inputs = case.inputs()
    for pkg in (gmpflow, base):
        case.call(pkg, *write.port(pkg, inputs))()
    with write.Counting() as count:
        case.call(gmpflow, *write.port(gmpflow, inputs))()
    solves = count.counters()
    print(case.layer, case.case, solves["solve_tridiagonal_calls"],
          solves["solve_tridiagonal_columns"])
"""


def test_first_case_of_each_family_runs_on_the_tree_and_a_copy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "write.py"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ran = proc.stdout.splitlines()
    assert len(ran) == 16
    assert {line.split()[0] for line in ran} == {"kernel", "operator", "end_to_end"}
    solves = {line.rsplit(" ", 2)[0]: tuple(map(int, line.split()[-2:])) for line in ran}
    # at g = 1, width 5: kappa and its mirror, one half-line solve each,
    # then blocks 1, 2, -2 and -3, each one solve of 2 columns
    assert solves["operator jacobi_to_gmp width=5"] == (6, 10)
    assert solves["operator jacobi_to_gmp acceptance width=5"] == (6, 10)
    assert solves["operator gmp_to_jacobi_measure"] == (0, 0)
