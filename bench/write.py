"""Write a ``BENCH_*.json`` record of this checkout.

    python3 bench/write.py --out BENCH_6.json

The record holds:

- the final JSON line of ``python3 perfbench/run.py --workload W --seed 5
  --seconds 15`` at ``--trace 0`` and ``--trace 1`` for every workload
  named in ``BENCHMARK.json``, each started through ``/bin/sh`` so that
  its ``peak_rss_mb`` is its own (see ``LAUNCHER``);
- the sweep: every case of ``table()``, one list per family, timed
  against the package of the record's ``base_commit`` ("Timing" below):

  - ``ks.delta_of_gmp`` and ``gmpflow ks --steps 8`` over n_blocks in
    {41, 121, 241}, and 481 at g = 2, at g in {1, 2}, on windows built as
    ``tests/conftest.make_perturbed_window`` builds them around the
    closed-form surface block (``sweep_inputs``);
  - ``construct.gmp_to_jacobi_measure`` on those windows over n_blocks in
    {221, 425, 853, 1281}, and at 961 blocks for g in {8, 16} on the round
    trips of ``tests/conftest.roundtrip_inputs``, each with
    ``flow_digits``, the correct digits of its a(n) and of its b(n) against
    the flow readout of ``flow.flow_run`` at the window's full depth, over
    the n both keep (-log10 of the largest difference over the largest flow
    value, capped at -log10 eps; with the depth and the counts compared),
    ``oracle_err``, the largest difference of its a(n) and of its b(n)
    from ``tests/oracles.longdouble_jacobi``, a long-double Lanczos that
    projects every vector (about 40 s of the sweep), and ``step_us``, its
    best time per Lanczos step of both halves, in microseconds;
  - ``construct.jacobi_to_gmp`` at width 5 over n_blocks in {222, 426,
    854} at g = 1, on coefficient windows drawn as the ``convert`` workload
    draws them, each with the largest end weight (``jacobi.check_ends``) of
    the vectors it checks;
  - ``jacobi_to_gmp`` at widths 5, 9, 15, 21, 41, 61 and 121 over g in {1,
    2, 4, 8, 16} and n_blocks in {241, 481, 961} on the round trips, and
    on the exact oracle ``tests/conftest.torus_window`` (361 and 481 sites
    of surface blocks, which must convert to that block): the verdict
    (``accepted``, or the refusal's error class and message), and the
    largest end weight of the vectors ``jacobi.check_ends`` reads and the
    true deviation of the blocks from their source, both with that rule
    switched off; the time is of the call, accepted or refused;
  - on those coefficient windows but the torus, ``jacobi.spectrum_near``
    at each pole with kappa's radius ``SPECTRUM_MIN_DIST``, and the whole
    spectrum by ``scipy.linalg.eigvalsh_tridiagonal``;
  - ``isospectral.solve_is_point`` over g in {2, 4, 8, 12, 16}, on four
    ``iso_comb`` seeds in one call, with ``per_solve``, the
    ``is_residual`` calls and rows per solve;
  - ``finitegap.delta_from_gaps`` over g in {2, 4, 8, 12, 16}, on eight
    gap sets drawn as ``iso_comb`` draws its wide ones in one call, with
    the worst band-edge error ``|Delta(edge) -/+ 2|``;
  - ``gmp.lambda_sharp`` over g in {1, 2, 4, 8, 12, 16} at 1, 50 and 481
    pairs, on windows of perturbed surface blocks on the poles of the same
    comb maps (``kernel_inputs``), with ``tracemalloc_peak_kb``, the traced
    peak of one call;
  - ``gmp.resolvent_column`` over the same g on the four five-block stacks
    one ``map_run`` passes it, blocks j-2..j+2 at the two central j of the
    482-block window below and of its flow step (``resolvent_inputs``);
  - on the 482-block window of those 481 pairs: ``flow.u_block``,
    ``flow.jacobi_flow_step``, acceptance criterion 4's check
    ``flow_identity_residual(w, jacobi_flow_step(w))`` with the
    ``residual`` it returns (also on a 961-block window at g = 16),
    ``GmpWindow(P, Q, c)`` and ``GmpWindow.from_json`` (the cost of the
    number rule ``errors.check_entries``, which every flow step pays once),
    and ``gmp.validate_gmp``, the class check of a flow state;
- each sweep record is ``{layer, case, n_blocks, g, best_s, median_s,
  repeats, counters, base}`` with its family's fields (and ``sites`` for
  Jacobi windows, ``width`` for the width cells; ``n_blocks`` counts the
  pairs for ``lambda_sharp`` and the blocks of each stack for
  ``resolvent_column``); ``counters`` are ``Counting``'s, from one
  run of this tree;
- a process layer: every subcommand on fixed inputs, and a bare
  ``import gmpflow.cli``, each run as ``PROCESS_RUNS`` fresh Python
  processes after one untimed warm-up.  Each record is ``{layer, case,
  argv, exit, wall_s, import_s, max_rss_mb, scipy_loaded}``: the median
  wall time of the processes as seen from outside, the median time of
  the ``gmpflow.cli`` import and the median max RSS (Linux ``VmHWM``)
  as each process sees them, and whether ``scipy`` was in
  ``sys.modules`` at exit.  The inputs are the g = 1 sweep window and
  map at 41 blocks (``flow --steps 4``, ``ks --steps 8``,
  ``gmp2jacobi``), the g = 1 gap set (``delta``), the first genus-2
  ``iso_comb`` seed (``iso-solve``) and the 222-site ``jacobi2gmp``
  window (``--width 5``); ``selftest`` runs as well.  ``flow --steps
  478`` at g = 8 and ``flow --steps 200`` at g = 16 run on the 961-block
  round trips of ``tests/conftest.roundtrip_inputs``, each next to a
  ``--steps 4`` run of the same window, so that the record shows whether
  a run's peak memory grows with its step count.  Bytecode is cached
  under ``.bench_run/``, as an installed package would have it;
- the counts of the typed-failure grid of ``tests/test_failure_grid.py``
  (every subcommand on perfbench's tiny seed-0 inputs with one JSON leaf
  replaced at a time): cases per exit code, cases that raised a numpy
  warning per subcommand, exit-0 cases that printed nan or inf, and
  cases that break the contract;
- the ``src/`` line count, the wall time of the Tier-1 suite and of
  ``gmpflow selftest``, and each criterion's ``index``, ``name``,
  ``elapsed_s``, ``limit_s`` and ``passed`` from one in-process
  ``acceptance.run_all()``.

Timing.  ``git archive <base_commit> src/gmpflow`` is extracted under
``.bench_run/`` and imported as ``gmpflow_base`` next to ``gmpflow`` (the
package imports relatively).  A case builds its inputs once with this tree
and ports them to each package (``port``), so both calls get the same
numbers.  Each call runs once untimed, this tree's under ``Counting``; then
both run in alternating rounds, the order flipped every round: at least
``MIN_ROUNDS``, more while the case has used less than ``CASE_BUDGET_S``,
at most ``MAX_ROUNDS``.  ``best_s``, ``median_s`` and ``repeats`` are this
tree's; ``base`` holds the ``commit``, the ``ratio``, the median of the
per-round ratios (tree over base), and their ``range``, or, for a case
whose inputs or call raise at the base, ``not_comparable`` with the
exception, and the case is timed alone.  The machine's speed drifts over
more than a round, which the per-round ratio cancels and a ratio of the
two medians would not.  A record written before its change is committed
compares the change with its parent; on a clean tree it is an A/A run.

BLAS runs on one thread.  Temporary files go to ``.bench_run/`` in the
checkout; nothing is written under ``perfbench/``, whose input draws
are imported.  The sweep takes about 270 s on a 2-core machine, the
process layer about 55 s (its four long flow runs about 15 s), the
whole record about 6 minutes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from functools import cache, partial  # noqa: E402
from itertools import chain  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import eigvalsh_tridiagonal  # noqa: E402
from conftest import make_perturbed_window, roundtrip_inputs, torus_window  # noqa: E402
from oracles import longdouble_jacobi  # noqa: E402
from test_failure_grid import grid_counts, run_grid  # noqa: E402
from workloads import ONE_GAP, comb_map, perturbed_window, random_gapset  # noqa: E402
from workloads import surface_seed  # noqa: E402

import gmpflow  # noqa: E402
from gmpflow import acceptance, cli, construct, flow, gmp, isospectral, jacobi, ks  # noqa: E402
from gmpflow import numkit  # noqa: E402
from gmpflow.errors import GmpflowError  # noqa: E402
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta  # noqa: E402
from gmpflow.flow import flow_identity_residual, flow_run, jacobi_flow_step  # noqa: E402
from gmpflow.gmp import GmpBlock, GmpWindow  # noqa: E402

PERFBENCH_SEED = 5
PERFBENCH_SECONDS = 15
SIZES = (41, 121, 241)
# the ks sweep's longer windows, by genus
KS_WIDE = {2: (481,)}
CONVERT_SIZES = (221, 425, 853, 1281)
# gmp_to_jacobi_measure at high genus, on the round-trip windows
CONVERT_WIDE = ((8, 961), (16, 961))
# As in the convert workload: n_blocks / 2 is odd, which keeps the pole at 0
# off the spectrum of the coefficient window.
JACOBI_SIZES = (222, 426, 854)
JACOBI_WIDTH = 5
ACCEPT_GENERA = (1, 2, 4, 8, 16)
ACCEPT_SIZES = (241, 481, 961)
ACCEPT_WIDTHS = (5, 9, 15, 21, 41, 61, 121)
# central sites of tests/conftest.torus_window, an exact jacobi2gmp oracle
TORUS_SITES = (361, 481)
GAP_SETS = {
    1: GapSet(-2.0, 2.0, ((-1.0, 1.0),)),
    2: GapSet(-3.0, 3.0, ((-1.5, -0.7), (0.4, 1.1))),
}
KS_STEPS = 8
ISO_GENERA = (2, 4, 8, 12, 16)
ISO_SEEDS = 4
DELTA_GENERA = (2, 4, 8, 12, 16)
DELTA_SETS = 8
KERNEL_GENERA = (1, 2, 4, 8, 12, 16)
KERNEL_PAIRS = (1, 50, 481)
FLOW_PAIRS = 481
# Criterion 4's check, timed on the kernel windows and on one window at the
# north star's scale, kernel_inputs(16, 960).
IDENTITY_CASE = "flow_identity_residual(w, jacobi_flow_step(w))"
IDENTITY_WIDE = (16, 960)
# Long flow runs on the round-trip windows, (g, n_blocks, steps), each next
# to a 4-step run of the same window: a run keeps a few rows per state, so
# its peak memory should not grow with the step count.
FLOW_LONG = ((8, 961, 478), (16, 961, 200))
# Alternating rounds of this tree and the base per sweep case: at least
# MIN_ROUNDS, more while the case has used less than CASE_BUDGET_S, at most
# MAX_ROUNDS.
MIN_ROUNDS, MAX_ROUNDS, CASE_BUDGET_S = 5, 61, 2.5
BASE_PACKAGE = "gmpflow_base"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
PROCESS_RUNS = 5
# One fresh process: import the CLI, run one command line (none for the
# bare import) and print what the process itself sees as its last line.
# Its max RSS is VmHWM, the peak of its own address space: ru_maxrss of a
# child also counts the parent's pages it ran in before exec.
PROCESS_SCRIPT = """\
import json, re, sys, time
t0 = time.perf_counter()
from gmpflow import cli
import_s = time.perf_counter() - t0
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
hwm_kb = re.search(r"VmHWM:\\s*(\\d+)", open("/proc/self/status").read()).group(1)
print(json.dumps({"exit": code, "import_s": import_s, "scipy_loaded": "scipy" in sys.modules,
                  "max_rss_mb": int(hwm_kb) / 1024}))
"""
# Temporary files of one run, removed at its end.
WORK = ROOT / ".bench_run" / f"write-{os.getpid()}"


# A child's ru_maxrss starts from the RSS of the process it was forked
# from, which perfbench reports as its peak_rss_mb: started from this
# writer, every run would read the writer's size.  The shell forks each run
# from its own small image, and returns its exit code.
LAUNCHER = ["/bin/sh", "-c", '"$@"; exit $?', "sh"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def perfbench_runs() -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(PERFBENCH_SEED), "--seconds", str(PERFBENCH_SECONDS),
                    "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(LAUNCHER + argv, cwd=ROOT, env=_env(),
                                  capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs.append({
                "workload": workload,
                "trace": trace,
                "argv": argv[1:],
                "wall_s": round(time.perf_counter() - t0, 2),
                "result": json.loads(lines[-1]),
            })
            print(f"perfbench {workload} trace={trace}: {runs[-1]['wall_s']} s",
                  file=sys.stderr)
    return runs


@cache
def sweep_inputs(g: int, n_blocks: int) -> tuple[DeltaData, GmpWindow]:
    d = delta_from_gaps(GAP_SETS[g])
    surface = GmpBlock(
        np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0),
        np.append(np.zeros(g), -d.c0),
    )
    return d, make_perturbed_window(surface, d.cs(), half=n_blocks // 2)


def ks_argv(g: int, n_blocks: int) -> tuple[list[str]]:
    """``gmpflow ks`` on the sweep window and map, written to ``WORK``."""
    d, w = sweep_inputs(g, n_blocks)
    window, cmap = WORK / f"ks-g{g}-n{n_blocks}.json", WORK / f"map-g{g}.json"
    window.write_text(json.dumps(w.to_json()) + "\n")
    cmap.write_text(json.dumps(d.to_json()) + "\n")
    return (["ks", str(window), str(cmap), "--steps", str(KS_STEPS),
             "--margin", "3", "--out", str(WORK / "ks.csv")],)


@cache
def jacobi_inputs(n_blocks: int) -> tuple[DeltaData, jacobi.JacobiWindow]:
    """One-gap comb map and a coefficient window drawn as the ``convert``
    workload draws its ``jacobi2gmp`` inputs."""
    rng = np.random.default_rng([PERFBENCH_SEED, n_blocks])
    cmap = comb_map(ONE_GAP)
    window = GmpWindow.from_json(perturbed_window(rng, cmap, n_blocks))
    return DeltaData.from_json(cmap), construct.gmp_to_jacobi_measure(window)


@cache
def roundtrip_jacobi(g: int, n_blocks: int) -> tuple[DeltaData, jacobi.JacobiWindow, GmpWindow]:
    """``roundtrip_inputs(g, n_blocks)``'s comb map, coefficient window and
    block window."""
    d, w = roundtrip_inputs(g, n_blocks)
    return d, construct.gmp_to_jacobi_measure(w), w


def unchecked(J, d: DeltaData, width: int, deviation=None) -> dict:
    """``jacobi_to_gmp(J, d, width)`` with ``jacobi.check_ends`` switched
    off: the largest end weight of the vectors it would check, kappa
    vectors and flag candidates, over as many end sites as each check
    reads (``end_weight``), and ``deviation`` of the window it returns
    (``true_dev``), None where another rule refuses or no ``deviation``
    is given.  For a cell the rule refuses, ``true_dev`` is the error it
    prevented."""
    weights, rule = [], jacobi.check_ends

    def record(vec, what, sites=1):
        mag = np.abs(vec)
        weights.append(float(max(np.max(mag[:sites]), np.max(mag[-sites:])) / np.max(mag)))

    jacobi.check_ends = construct.check_ends = record
    try:
        back = construct.jacobi_to_gmp(J, d, n_blocks=width)
        dev = deviation(back) if deviation else None
    except GmpflowError:
        dev = None
    finally:
        jacobi.check_ends = construct.check_ends = rule
    return {"end_weight": max(weights, default=None), "true_dev": dev}


def block_deviation(source):
    """Largest difference of a converted window's blocks from the same
    blocks of ``source``, a window, or from ``source``, one block."""
    def deviation(back: GmpWindow) -> float:
        if isinstance(source, GmpBlock):
            P, Q = source.p, source.q
        else:
            rows = slice(back.j_min - source.j_min, back.j_max - source.j_min + 1)
            P, Q = source.P[rows], source.Q[rows]
        return float(max(np.max(np.abs(back.P - P)), np.max(np.abs(back.Q - Q))))
    return deviation


def width_record(rec: dict, d: DeltaData, J, source, width: int) -> dict:
    """A ``jacobi_to_gmp`` width cell: the verdict (``accepted``, or the
    refusal's error class and message) and ``unchecked``'s end weight and
    true deviation from ``source``."""
    try:
        construct.jacobi_to_gmp(J, d, n_blocks=width)
        verdict = "accepted"
    except GmpflowError as exc:
        verdict = f"{type(exc).__name__}: {exc}"
    return {"sites": J.size, "verdict": verdict,
            **unchecked(J, d, width, block_deviation(source))}


def convert_quietly(pkg, J, d, width: int) -> None:
    """``pkg``'s ``jacobi_to_gmp``, accepted or refused."""
    with contextlib.suppress(pkg.errors.GmpflowError):
        pkg.construct.jacobi_to_gmp(J, d, n_blocks=width)


def flow_digits(w: GmpWindow) -> dict:
    """Correct digits of ``gmp_to_jacobi_measure(w)`` against the flow
    readout, a(n) for n = 0..depth and b(n) for n = 0..depth - 1 as far as
    the Lanczos half reaches."""
    J = construct.gmp_to_jacobi_measure(w)
    depth = min(-1 - w.j_min, w.j_max - 1)
    traj = flow_run(w, depth)
    plus = slice(J.pos(0), None)
    out = {"depth": depth}
    for name, lanczos, flow in (("a", J.a[plus], traj.a_out), ("b", J.b[plus], traj.b_out)):
        n = min(lanczos.size, flow.size)
        rel = np.max(np.abs(lanczos[:n] - flow[:n])) / np.max(np.abs(flow[:n]))
        out[name] = round(float(-np.log10(max(rel, np.finfo(float).eps))), 2)
        out[f"n_{name}"] = n
    return out


def oracle_err(w: GmpWindow) -> dict:
    """Largest differences of the a(n) and of the b(n) of
    ``gmp_to_jacobi_measure(w)`` from the long-double Lanczos."""
    J = construct.gmp_to_jacobi_measure(w)
    b, a = longdouble_jacobi(w)
    return {"a": float(np.max(np.abs(J.a - a))), "b": float(np.max(np.abs(J.b - b)))}


@cache
def iso_inputs(g: int) -> tuple[DeltaData, list[GmpBlock]]:
    """Reference comb map of a genus-g gap set and ``ISO_SEEDS`` seeds
    near its surface, drawn as the ``iso_comb`` workload draws them."""
    rng = np.random.default_rng([PERFBENCH_SEED, g])
    cmap = comb_map(random_gapset(rng, g, None))
    d = DeltaData.from_json(cmap)

    def residual(p, q):
        return float(np.max(np.abs(isospectral.is_residual(GmpBlock(p, q), d))))

    seeds = [surface_seed(rng, cmap, residual) for _ in range(ISO_SEEDS)]
    return d, [GmpBlock(s["p"], s["q"]) for s in seeds]


def delta_inputs(g: int) -> tuple[list[GapSet]]:
    """``DELTA_SETS`` gap sets of genus g in [-3, 3] without a narrow gap,
    drawn as the ``iso_comb`` workload draws them."""
    rng = np.random.default_rng([PERFBENCH_SEED, g])
    return ([GapSet(*random_gapset(rng, g, None)) for _ in range(DELTA_SETS)],)


def band_edge_error(gapset: GapSet) -> float:
    """Largest distance of the comb map from -2 at the band left ends and
    from 2 at the band right ends."""
    edges = np.ravel(gapset.bands())
    levels = np.tile([-2.0, 2.0], gapset.g + 1)
    return float(np.max(np.abs(eval_delta(delta_from_gaps(gapset), edges) - levels)))


@cache
def kernel_inputs(g: int, n_pairs: int) -> GmpWindow:
    """Window of n_pairs + 1 perturbed surface blocks on the poles of the
    reference comb map of a genus-g gap set drawn as ``iso_comb`` draws it."""
    rng = np.random.default_rng([PERFBENCH_SEED, g, n_pairs])
    d = DeltaData.from_json(comb_map(random_gapset(rng, g, None)))
    p0 = np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0)
    q0 = np.append(np.zeros(g), -d.c0)
    u = rng.uniform(-1.0, 1.0, (2, n_pairs + 1, g + 1))
    return GmpWindow(p0 * (1.0 + 0.05 * u[0]), q0 + 0.05 * u[1], d.cs())


def kernel_window(g: int, n_pairs: int) -> tuple[GmpWindow]:
    return (kernel_inputs(g, n_pairs),)


@cache
def resolvent_inputs(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``resolvent_column``'s arguments in one ``map_run``: the blocks
    j-2..j+2 at the two central j of the 482-block kernel window and of its
    flow step (states 0 and N, j = 0 and 1), as (4, 5, g + 1) stacks."""
    w = kernel_inputs(g, FLOW_PAIRS)
    ends = (w, jacobi_flow_step(w))
    P, Q = (np.stack([getattr(st, key)[i : i + 5] for st in ends for i in (238, 239)])
            for key in "PQ")
    return P, Q, w.c


def pairs(w: GmpWindow) -> tuple[GmpBlock, GmpBlock]:
    """``lambda_sharp``'s blocks of w: the one pair, or the stack of pairs."""
    return (w.block(1), w.block(0)) if w.n_blocks == 2 else (w.rows(1), w.rows(0, -1))


def traced_peak_kb(fn) -> float:
    fn()  # the peak of a warm call, its arguments' first-use caches filled
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e3, 1)


class Case(NamedTuple):
    """One sweep record: its layer, case name and size fields.
    ``inputs()`` builds the case's inputs with this tree's package;
    ``call(pkg, *inputs)``, given them as the package module ``pkg`` holds
    them, returns the call that is timed; ``extras(rec, *inputs)`` returns
    the fields the record takes from this tree alone, given its timing."""

    layer: str
    case: str
    size: dict
    inputs: Callable[[], tuple]
    call: Callable
    extras: Callable = lambda rec, *inputs: {}


def table() -> list[list[Case]]:
    """The sweep: one list of cases per family, each over its grid."""
    def size(g, n_blocks, **more):
        return {"n_blocks": n_blocks, "g": g, **more}

    ks_grid = [(g, n) for g in GAP_SETS for n in SIZES + KS_WIDE.get(g, ())]
    convert_grid = ([(sweep_inputs, g, n) for g in GAP_SETS for n in CONVERT_SIZES]
                    + [(roundtrip_inputs, g, n) for g, n in CONVERT_WIDE])
    accept_grid = [(g, n) for g in ACCEPT_GENERA for n in ACCEPT_SIZES]
    width_grid = ([("acceptance", g, n, partial(roundtrip_jacobi, g, n)) for g, n in accept_grid]
                  + [("torus", 1, sites, partial(torus_window, sites)) for sites in TORUS_SITES])
    # the coefficient windows but the torus
    spectra = ([(1, n, partial(jacobi_inputs, n)) for n in JACOBI_SIZES]
               + [(g, n, inputs) for label, g, n, inputs in width_grid if label != "torus"])
    kernel_grid = [(g, FLOW_PAIRS) for g in KERNEL_GENERA]
    kernel_calls = {
        "u_block": lambda pkg, w: lambda: pkg.flow.u_block(w.P),
        "jacobi_flow_step": lambda pkg, w: lambda: pkg.flow.jacobi_flow_step(w),
        "GmpWindow(P, Q, c)": lambda pkg, w: lambda: pkg.gmp.GmpWindow(w.P, w.Q, w.c),
        "GmpWindow.from_json": lambda pkg, w: partial(pkg.gmp.GmpWindow.from_json, w.to_json()),
        "validate_gmp": lambda pkg, w: lambda: pkg.gmp.validate_gmp(w),
    }
    return [
        [Case("operator", "delta_of_gmp margin=3", size(g, n), partial(sweep_inputs, g, n),
              lambda pkg, d, w: lambda: pkg.ks.delta_of_gmp([w], d, 3))
         for g, n in ks_grid],
        [Case("end_to_end", f"gmpflow ks --steps {KS_STEPS}", size(g, n), partial(ks_argv, g, n),
              lambda pkg, argv: lambda: pkg.cli.main(argv))
         for g, n in ks_grid],
        [Case("operator", "gmp_to_jacobi_measure", size(g, n), partial(inputs, g, n),
              lambda pkg, d, w: lambda: pkg.construct.gmp_to_jacobi_measure(w),
              lambda rec, d, w: {
                  "flow_digits": flow_digits(w), "oracle_err": oracle_err(w),
                  "step_us": 1e6 * rec["best_s"] / rec["counters"]["lanczos_steps"]})
         for inputs, g, n in convert_grid],
        [Case("operator", f"jacobi_to_gmp width={JACOBI_WIDTH}", size(1, n),
              partial(jacobi_inputs, n),
              lambda pkg, d, J: lambda: pkg.construct.jacobi_to_gmp(J, d, n_blocks=JACOBI_WIDTH),
              lambda rec, d, J: {
                  "sites": J.size, "end_weight": unchecked(J, d, JACOBI_WIDTH)["end_weight"]})
         for n in JACOBI_SIZES],
        [Case("operator", f"jacobi_to_gmp {label} width={width}", size(g, n, width=width),
              partial(lambda inputs, width: (*inputs(), width), inputs, width),
              lambda pkg, d, J, source, width: partial(convert_quietly, pkg, J, d, width),
              width_record)
         for label, g, n, inputs in width_grid for width in ACCEPT_WIDTHS],
        [Case("kernel", f"spectrum_near, {g} points", size(g, n), inputs,
              lambda pkg, d, J, *_: lambda: [
                  pkg.jacobi.spectrum_near(J, c, pkg.jacobi.SPECTRUM_MIN_DIST) for c in d.cs()],
              lambda rec, d, J, *_: {"sites": J.size})
         for g, n, inputs in spectra],
        [Case("kernel", "eigvalsh_tridiagonal, whole spectrum", size(g, n), inputs,
              lambda pkg, d, J, *_: partial(eigvalsh_tridiagonal, J.b, J.a[1:]),
              lambda rec, d, J, *_: {"sites": J.size})
         for g, n, inputs in spectra],
        [Case("operator", f"solve_is_point, {ISO_SEEDS} seeds", size(g, 1), partial(iso_inputs, g),
              lambda pkg, d, seeds: lambda: [pkg.isospectral.solve_is_point(d, s) for s in seeds],
              lambda rec, d, seeds: {"per_solve": {
                  key: rec["counters"][key] / ISO_SEEDS
                  for key in ("is_residual_calls", "is_residual_rows")}})
         for g in ISO_GENERA],
        [Case("kernel", f"delta_from_gaps, {DELTA_SETS} sets", size(g, 1), partial(delta_inputs, g),
              lambda pkg, sets: lambda: [pkg.finitegap.delta_from_gaps(gs) for gs in sets],
              lambda rec, sets: {"band_edge_err": max(band_edge_error(gs) for gs in sets)})
         for g in DELTA_GENERA],
        [Case("kernel", "lambda_sharp", size(g, n), partial(kernel_window, g, n),
              lambda pkg, w: partial(pkg.gmp.lambda_sharp, *pairs(w), w.c),
              lambda rec, w: {"tracemalloc_peak_kb": traced_peak_kb(
                  partial(gmp.lambda_sharp, *pairs(w), w.c))})
         for g in KERNEL_GENERA for n in KERNEL_PAIRS],
        [Case("kernel", "resolvent_column, 4 pairs", size(g, 5), partial(resolvent_inputs, g),
              lambda pkg, P, Q, c: partial(pkg.gmp.resolvent_column, P, Q, c))
         for g in KERNEL_GENERA],
        [Case("kernel", IDENTITY_CASE, size(g, n + 1), partial(kernel_window, g, n),
              lambda pkg, w: lambda: pkg.flow.flow_identity_residual(
                  w, pkg.flow.jacobi_flow_step(w)),
              lambda rec, w: {"residual": flow_identity_residual(w, jacobi_flow_step(w))})
         for g, n in kernel_grid + [IDENTITY_WIDE]],
        *[[Case("kernel", case, size(g, n + 1), partial(kernel_window, g, n), call)
           for g, n in kernel_grid] for case, call in kernel_calls.items()],
    ]


def port(pkg, x):
    """``x`` as ``pkg`` holds it: a record of this tree's package through its
    JSON form, a block through its arrays, a list or tuple item by item, and
    anything else as it is."""
    if isinstance(x, (list, tuple)):
        return type(x)(port(pkg, item) for item in x)
    root, _, module = type(x).__module__.partition(".")
    if root != "gmpflow":
        return x
    cls = getattr(getattr(pkg, module), type(x).__name__)
    return cls(x.p, x.q) if isinstance(x, GmpBlock) else cls.from_json(x.to_json())


def load_package(path: Path, name: str):
    """The package in the directory ``path`` imported as ``name``, every
    module of it loaded."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    pkg = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkg)
    for module in sorted(path.glob("*.py")):
        if module.stem != "__init__":
            importlib.import_module(f"{name}.{module.stem}")
    return pkg


def base_package(commit: str):
    """``src/gmpflow`` at ``commit``, extracted under ``WORK``, as
    ``BASE_PACKAGE``."""
    archive = subprocess.run(["git", "archive", commit, "src/gmpflow"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    (WORK / "base").mkdir()
    subprocess.run(["tar", "-x", "-C", str(WORK / "base")], input=archive, check=True)
    return load_package(WORK / "base" / "src" / "gmpflow", BASE_PACKAGE)


class Counting:
    """While installed, counts the calls of the functions of ``SITES`` with
    a size of each: the order of each eigensolve, the states
    ``delta_of_gmp`` maps, the closed-form (state, block) pairs of
    ``resolvent_column``, the right-hand-side columns of each
    ``solve_tridiagonal`` (one O(n) factorization a call), the basis
    entries handed to ``project_out``, the pole evaluations of
    ``lambda_k`` (calls x g x rows) and the rows of ``is_residual``; the
    ``u_block`` calls (one per flow step); the steps of each Lanczos run of
    ``gmp_to_jacobi_measure`` and those that Simon's estimate
    reorthogonalized (its ``project_out`` calls past the
    ``jacobi.LANCZOS_FULL_STEPS`` that always are); the evaluations of the
    bracketed function by ``bisect_root``; and the Gauss-Newton iterations,
    probes less runs (a run probes its start, then one point per iteration
    unless a trial is rejected)."""

    # name: (the module it is looked up in, the size of a call from its
    # arguments, taken before the call, which may raise)
    SITES = {
        "sym_eigen": (numkit, lambda mat: int(np.shape(mat)[0])),
        "solve_tridiagonal": (numkit, lambda diag, off, rhs, z: np.size(rhs) // len(rhs)),
        "delta_of_gmp": (ks, lambda states, *_: len(states)),
        "resolvent_column": (ks, lambda P, *_: len(P)),  # one block stack per pair
        "h_term": (ks, None),
        "lanczos": (construct, None),
        "project_out": (numkit, lambda basis, vec: np.size(basis)),
        "kappa": (construct, None),
        # one per pole and row
        "lambda_k": (isospectral, lambda blk, c: np.size(blk.p) // (blk.g + 1) * blk.g),
        "is_residual": (isospectral, lambda blk, d: np.size(blk.p) // (blk.g + 1)),
        "_gauss_newton": (isospectral, None),
        "_probe": (isospectral, None),
        "bisect_root": (numkit, None),
        "u_block": (flow, None),
    }

    def __enter__(self):
        self.sizes = {name: [] for name in self.SITES}
        self.reorthogonalized, self.bisect_evals = [], 0
        self._saved = {name: getattr(module, name) for name, (module, _) in self.SITES.items()}
        for name, (module, size) in self.SITES.items():
            setattr(module, name, self._counted(name, size))
        return self

    def __exit__(self, *exc):
        for name, (module, _) in self.SITES.items():
            setattr(module, name, self._saved[name])

    def _counted(self, name: str, size):
        fn, sizes = self._saved[name], self.sizes[name]

        def counted(*args, **kwargs):
            if name == "bisect_root":
                args = (self._evaluated(args[0]), *args[1:])
            if name != "lanczos":
                sizes.append(size(*args) if size else 1)
            projected = len(self.sizes["project_out"])
            out = fn(*args, **kwargs)
            if name == "lanczos":  # one product per b(k); per run, the plus half first
                sizes.append(out.size)
                full = min(jacobi.LANCZOS_FULL_STEPS, out.size - 1)
                self.reorthogonalized.append(len(self.sizes["project_out"]) - projected - full)
            return out

        return counted

    def _evaluated(self, f):
        def counted(x):
            self.bisect_evals += 1
            return f(x)

        return counted

    def counters(self) -> dict:
        n = {name: len(sizes) for name, sizes in self.sizes.items()}
        total = {name: sum(sizes) for name, sizes in self.sizes.items()}
        eig_rows = self.sizes["sym_eigen"]
        return {
            "sym_eigen_calls": n["sym_eigen"],
            "sym_eigen_rows_max": max(eig_rows, default=0),
            # the order of each eigensolve, in call order
            "sym_eigen_rows": eig_rows,
            "solve_tridiagonal_calls": n["solve_tridiagonal"],
            "solve_tridiagonal_columns": total["solve_tridiagonal"],
            "delta_of_gmp_calls": n["delta_of_gmp"],
            "delta_of_gmp_states": total["delta_of_gmp"],
            "resolvent_column_calls": n["resolvent_column"],
            "resolvent_column_pairs": total["resolvent_column"],
            "h_term_calls": n["h_term"],
            "lanczos_calls": n["lanczos"],
            "lanczos_steps": total["lanczos"],
            "lanczos_reorthogonalized_steps": self.reorthogonalized,
            "project_out_calls": n["project_out"],
            "project_out_entries": total["project_out"],
            "kappa_calls": n["kappa"],
            "lambda_k_calls": n["lambda_k"],
            "lambda_k_poles": total["lambda_k"],
            "is_residual_calls": n["is_residual"],
            "is_residual_rows": total["is_residual"],
            "gauss_newton_iterations": n["_probe"] - n["_gauss_newton"],
            "bisect_calls": n["bisect_root"],
            "bisect_evals": self.bisect_evals,
            "u_block_calls": n["u_block"],
        }


def timed(tree, base) -> dict:
    """``tree``'s ``best_s``, ``median_s``, ``repeats`` and ``counters``,
    and with a ``base`` call the ``ratio`` and ``range`` of ``base``, from
    alternating rounds (see "Timing" in the module docstring)."""
    with Counting() as count:
        tree()
    runs = [(tree, []), (base, [])] if base else [(tree, [])]
    rounds = 0
    while rounds < MAX_ROUNDS and (
        rounds < MIN_ROUNDS or sum(sum(times) for _, times in runs) < CASE_BUDGET_S
    ):
        for fn, times in runs[::-1] if rounds % 2 else runs:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        rounds += 1
    times = runs[0][1]
    rec = {"best_s": min(times), "median_s": statistics.median(times), "repeats": rounds,
           "counters": count.counters()}
    if base:
        ratios = [t / b for t, b in zip(times, runs[1][1])]
        rec["base"] = {"ratio": round(statistics.median(ratios), 4),
                       "range": [round(min(ratios), 4), round(max(ratios), 4)]}
    return rec


def sweep(base, commit: str) -> list[dict]:
    """Every case of ``table()``, timed against the package ``base`` of
    ``commit``."""
    records = []
    for case in chain.from_iterable(table()):
        inputs = case.inputs()
        try:
            base_call = case.call(base, *port(base, inputs))
            base_call()
            reason = None
        except Exception as exc:  # the base's API differs
            base_call, reason = None, f"{type(exc).__name__}: {exc}"
        rec = {"layer": case.layer, "case": case.case, **case.size,
               **timed(case.call(gmpflow, *port(gmpflow, inputs)), base_call)}
        rec["base"] = {"commit": commit, **rec.get("base", {"not_comparable": reason})}
        rec.update(case.extras(rec, *inputs))
        records.append(rec)
        print(f"{case.case} {case.size}: best {rec['best_s'] * 1e3:.3f} ms, "
              f"base {rec['base'].get('ratio', reason)}", file=sys.stderr)
    return records


def process_inputs() -> dict[str, list[str]]:
    """Command lines of every subcommand on the fixed inputs named in the
    module docstring, keyed by case; outputs go to one file in ``WORK``."""
    d, w = sweep_inputs(1, SIZES[0])
    d_iso, seeds = iso_inputs(ISO_GENERA[0])
    d_jac, J = jacobi_inputs(JACOBI_SIZES[0])
    files = {
        "gapset": GAP_SETS[1].to_json(),
        "map": d.to_json(),
        "window": w.to_json(),
        "iso-map": d_iso.to_json(),
        "seed": {"p": seeds[0].p.tolist(), "q": seeds[0].q.tolist()},
        "jacobi": J.to_json(),
        "jacobi-map": d_jac.to_json(),
    }
    for g, n_blocks, _ in FLOW_LONG:
        files[f"roundtrip-{g}"] = roundtrip_inputs(g, n_blocks)[1].to_json()
    path = {}
    for name, data in files.items():
        path[name] = str(WORK / f"process-{name}.json")
        Path(path[name]).write_text(json.dumps(data) + "\n")
    out = ["--out", str(WORK / "process-out")]
    return {
        "import gmpflow.cli": [],
        "delta": ["delta", path["gapset"], *out],
        "flow --steps 4": ["flow", path["window"], "--steps", "4", *out],
        f"ks --steps {KS_STEPS}":
            ["ks", path["window"], path["map"], "--steps", str(KS_STEPS), *out],
        "iso-solve": ["iso-solve", path["iso-map"], path["seed"], *out],
        "gmp2jacobi": ["gmp2jacobi", path["window"], *out],
        f"jacobi2gmp --width {JACOBI_WIDTH}":
            ["jacobi2gmp", path["jacobi"], path["jacobi-map"], "--width", str(JACOBI_WIDTH), *out],
        "selftest": ["selftest", *out],
        **{f"flow --steps {n} (g={g}, {n_blocks} blocks)":
           ["flow", path[f"roundtrip-{g}"], "--steps", str(n), *out]
           for g, n_blocks, steps in FLOW_LONG for n in (steps, 4)},
    }


def process_layer() -> list[dict]:
    env = _env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    records = []
    for case, argv in process_inputs().items():
        cmd = [sys.executable, "-c", PROCESS_SCRIPT, *argv]
        walls, seen = [], []
        for run in range(PROCESS_RUNS + 1):  # run 0 warms the caches
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  check=True, timeout=300)
            if run:
                walls.append(time.perf_counter() - t0)
                seen.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rec = {
            "layer": "process",
            "case": case,
            "argv": argv,
            "exit": seen[0]["exit"],
            "wall_s": statistics.median(walls),
            "import_s": statistics.median(s["import_s"] for s in seen),
            "max_rss_mb": statistics.median(s["max_rss_mb"] for s in seen),
            "scipy_loaded": seen[0]["scipy_loaded"],
        }
        records.append(rec)
        print(f"process {case}: {rec['wall_s']:.3f} s, {rec['max_rss_mb']:.1f} MB, "
              f"scipy {rec['scipy_loaded']}", file=sys.stderr)
    return records


def timed_command(argv: list[str]) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"argv": argv[1:], "wall_s": round(time.perf_counter() - t0, 2),
            "exit": proc.returncode, "summary": tail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args()
    WORK.mkdir(parents=True, exist_ok=True)

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests"],
                           cwd=ROOT, capture_output=True, text=True).stdout.strip()
    record = {
        "base_commit": head,
        "uncommitted_changes": bool(dirty),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }
    t0 = time.perf_counter()
    try:
        record["sweep"] = sweep(base_package(head), head)
        record["sweep_wall_s"] = round(time.perf_counter() - t0, 2)
        record["process"] = process_layer()
        (WORK / "grid").mkdir()
        record["failure_grid"] = grid_counts(run_grid(WORK / "grid"))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record["selftest"] = timed_command([sys.executable, "-m", "gmpflow.cli", "selftest"])
    record["selftest"]["criteria"] = [
        {key: rep[key] for key in ("index", "name", "elapsed_s", "limit_s", "passed")}
        for rep in acceptance.run_all()
    ]
    record["tier1"] = timed_command(TIER1)
    record["perfbench"] = perfbench_runs()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
