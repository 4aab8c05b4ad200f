"""Print one sha256 per ``gmpflow`` command line call, to check that two
checkouts give byte-identical output.

    python3 bench/identity.py > digests.txt

The calls are every job of perfbench's pools of every workload at seeds
3, 5 and 13, every job of ``narrow_gap_pool(1)``, ``gmp2jacobi`` then
``jacobi2gmp`` on round trips of the Tier-1 tests
(``tests/conftest.roundtrip_inputs``): ``--width 5`` at genus 2 and 4
on 961 blocks, which no perfbench pool reaches, and ``--width 21`` and
``--width 41`` at genus 1 on 241 blocks, too short for either;
``flow --steps 8`` and ``ks --steps 8`` on the 121-block round-trip
windows at genus 4 and 8, past the genus 2 of the ``flow_orbit`` and
``ks_table`` pools (the closed-form check of ``ks`` fills block j-1's
partial chain only at g >= 2), and at genus 4 ``ks --steps 1`` and ``ks
--steps 8 --margin 5``, a one-step run and a margin past 3, which no
other call reaches; ``gmpflow selftest``, and every case of
the typed-failure grid of ``tests/test_failure_grid.py``.  Each runs in
process through ``gmpflow.cli.main`` with BLAS on one thread.  A job's
digest lines hash, for each of its calls, the exit code (or the uncaught
exception), stdout and stderr, together with the bytes of the files that
call wrote (its ``--out`` paths), read right after it; so a moved line
names the call whose bytes changed.  The selftest report is hashed
with its elapsed times stripped.  A grid case's digest hashes its exit
code and stderr, with its work directory written as ``<work>``.  Output
lines are ``<pool>/<job index>/<label> <call index> <sha256>``, and for a
grid case ``grid/<command>:<file>:<leaf>=<value> 0 <sha256>``: a case is
named by its label alone, which is unique, so a change to the grid's
values moves only the lines of the cases it adds or drops.

Running this at two commits and comparing the outputs with ``diff`` is
the byte-identity check.  Inputs are written to a fresh work directory
under ``.bench_run/`` and named by relative paths, so the command line
arguments do not depend on where the checkout lives; nothing is written
under ``perfbench/``, whose input draws are imported.  It takes a few
seconds on a 2-core machine.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GMPFLOW_LOG", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from conftest import roundtrip_inputs  # noqa: E402
from test_failure_grid import run_grid  # noqa: E402
from workloads import WORKLOADS, Job, Pool, build_pool, narrow_gap_pool  # noqa: E402

from gmpflow import cli  # noqa: E402

SEEDS = (3, 5, 13)
NARROW_SEED = 1
# (g, n_blocks, jacobi2gmp widths): 241 blocks at g = 1 cannot carry widths
# 21 and 41, which must be refused, not read off wrong
ROUNDTRIPS = ((2, 961, (5,)), (4, 961, (5,)), (1, 241, (21, 41)))
# (g, n_blocks, options of the ``ks`` calls past ``--steps 8``) of the
# windows that ``flow`` and ``ks`` run on
FLOW_RUNS = ((4, 121, (["--steps", "1"], ["--steps", "8", "--margin", "5"])), (8, 121, ()))
ELAPSED = re.compile(r" \(\d+\.\d\d s\) ")


def run_call(argv: list[str]) -> tuple[str, str, str]:
    """Exit code (or uncaught exception), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(cli.main(argv))
    except Exception as exc:  # noqa: BLE001 - an uncaught error is an outcome too
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        raw = part.encode() if isinstance(part, str) else part
        h.update(len(raw).to_bytes(8, "little") + raw)
    return h.hexdigest()


def call_digest(argv: list[str]) -> str:
    """Digest of one call's outcome and of the files it wrote."""
    result = run_call(argv)
    written = [Path(path) for flag, path in zip(argv, argv[1:]) if flag == "--out"]
    files = [p.read_bytes() if p.is_file() else b"<missing>" for p in written]
    return digest(*result, *files)


def pool_lines(name: str, pool) -> list[str]:
    lines = []
    for i, job in enumerate(pool.jobs):
        for k, argv in enumerate(job.calls):
            lines.append(f"{name}/{i}/{job.label} {k} {call_digest(argv)}")
    return lines


def roundtrip_pool(work: Path) -> Pool:
    """One job per ``ROUNDTRIPS`` (g, n_blocks, widths): the window to
    coefficients and back at each width, inputs written to ``work``."""
    jobs = []
    for g, n_blocks, widths in ROUNDTRIPS:
        d, w = roundtrip_inputs(g, n_blocks)
        window, cmap, mid = (work / f"g{g}-n{n_blocks}{part}.json" for part in ("", ".map", ".jacobi"))
        backs = [work / f"g{g}-n{n_blocks}.back{width}.json" for width in widths]
        window.write_text(json.dumps(w.to_json()))
        cmap.write_text(json.dumps(d.to_json()))
        calls = [["gmp2jacobi", str(window), "--out", str(mid)]] + [
            ["jacobi2gmp", str(mid), str(cmap), "--width", str(width), "--out", str(back)]
            for width, back in zip(widths, backs)]
        jobs.append(Job(f"g{g}-n{n_blocks}", calls, [mid, *backs], check=None))
    return Pool("roundtrip", jobs, {}, 0.0)


def flow_pool(work: Path) -> Pool:
    """One job per ``FLOW_RUNS`` (g, n_blocks, ks options): ``flow --steps
    8``, ``ks --steps 8`` and ``ks`` with each further option list on the
    round-trip window, inputs written to ``work``."""
    jobs = []
    for g, n_blocks, more in FLOW_RUNS:
        d, w = roundtrip_inputs(g, n_blocks)
        window, cmap = (work / f"g{g}-n{n_blocks}{part}.json" for part in ("", ".map"))
        ks_options = [["--steps", "8"], *more]
        outs = [work / f"g{g}-n{n_blocks}.flow.csv"] + [
            work / f"g{g}-n{n_blocks}.ks{k or ''}.csv" for k in range(len(ks_options))]
        window.write_text(json.dumps(w.to_json()))
        cmap.write_text(json.dumps(d.to_json()))
        calls = [["flow", str(window), "--steps", "8", "--out", str(outs[0])]] + [
            ["ks", str(window), str(cmap), *options, "--out", str(out)]
            for options, out in zip(ks_options, outs[1:])]
        jobs.append(Job(f"g{g}-n{n_blocks}", calls, outs, check=None))
    return Pool("flow", jobs, {}, 0.0)


def main() -> int:
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="identity-", dir=ROOT / ".bench_run"))
    home = Path.cwd()
    os.chdir(work)
    try:
        pools = []
        for seed in SEEDS:
            for workload in WORKLOADS:
                name = f"seed{seed}-{workload}"
                Path(name).mkdir()
                pools.append((name, build_pool(workload, seed, Path(name))))
        Path("narrow").mkdir()
        pools.append((f"narrow{NARROW_SEED}", narrow_gap_pool(NARROW_SEED, Path("narrow"))))
        Path("roundtrip").mkdir()
        pools.append(("roundtrip", roundtrip_pool(Path("roundtrip"))))
        Path("flow").mkdir()
        pools.append(("flow", flow_pool(Path("flow"))))
        for name, pool in pools:
            for line in pool_lines(name, pool):
                print(line, flush=True)
        code, out, err = run_call(["selftest"])
        print(f"selftest 0 {digest(code, ELAPSED.sub(' ', out), err)}")
        Path("grid").mkdir()
        labels = set()
        for case in run_grid(Path("grid").resolve()):
            leaf = ".".join(map(str, case["leaf"]))
            label = f"{case['command']}:{case['file']}:{leaf}={case['value']}"
            assert label not in labels, f"two grid cases share the label {label}"
            labels.add(label)
            print(f"grid/{label} 0 {digest(str(case['exit']), case['stderr'])}", flush=True)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
