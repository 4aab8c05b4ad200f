"""Write a ``BENCH_*.json`` record of this checkout.

    python3 bench/write.py --out BENCH_6.json

The record holds:

- the final JSON line of ``python3 perfbench/run.py --workload W --seed 5
  --seconds 15`` at ``--trace 0`` and ``--trace 1`` for every workload
  named in ``BENCHMARK.json``, each started through ``/bin/sh`` so that
  its ``peak_rss_mb`` is its own (see ``LAUNCHER``);
- a scale sweep of ``ks.delta_of_gmp`` and of ``gmpflow ks --steps 8``
  over n_blocks in {41, 121, 241}, and 481 at g = 2, and of
  ``construct.gmp_to_jacobi_measure`` over n_blocks in {221, 425, 853,
  1281}, each at g in {1, 2}, on windows built as
  ``tests/conftest.make_perturbed_window`` builds them around the
  closed-form surface block ``p = (sqrt(lambda_k / lambda0)..., 1 /
  lambda0)``, ``q = (0..., -c0)``, and of ``gmp_to_jacobi_measure`` at
  961 blocks for g in {8, 16} on the round trips of
  ``tests/conftest.roundtrip_inputs``; each ``gmp_to_jacobi_measure``
  record also holds ``flow_digits``, the correct digits of its a(n) and
  of its b(n) against the flow readout of ``flow.flow_run(w, depth)`` at
  the largest depth the window allows, over the n both routes keep:
  -log10(max |difference| / max |flow value|), capped at -log10 of the
  double epsilon, with the depth and the number of a(n) and b(n)
  compared; ``oracle_err``, the largest difference of its a(n) and
  of its b(n) from ``tests/oracles.longdouble_jacobi``, a long-double
  Lanczos that projects every vector against all earlier ones (about
  40 s of the sweep); and ``step_us``, its best time over the Lanczos
  steps of both halves, in microseconds;
- a sweep of ``construct.jacobi_to_gmp`` at width 5 (``gmpflow jacobi2gmp
  --width 5``) over n_blocks in {222, 426, 854} at g = 1, on coefficient
  windows built as the ``convert`` workload builds them: perfbench's
  ``perturbed_window`` around its one-gap comb map, then
  ``gmp_to_jacobi_measure``, each with the largest end weight
  (``jacobi.check_ends``) of the vectors it checks; next to it, on the
  same windows,
  ``jacobi.spectrum_near`` at the pole with kappa's radius
  ``SPECTRUM_MIN_DIST`` against the whole spectrum by
  ``scipy.linalg.eigvalsh_tridiagonal``;
- an acceptance sweep of ``construct.jacobi_to_gmp`` at widths 5, 9,
  15, 21, 41, 61 and 121 over g in {1, 2, 4, 8, 16} and n_blocks in
  {241, 481, 961}, on the round trips of ``tests/conftest.roundtrip_inputs``
  (perfbench's random gap set and ``perturbed_window``, then
  ``gmp_to_jacobi_measure``), and on the exact oracle
  ``tests/conftest.torus_window`` (361 and 481 sites of a window of
  surface blocks, which must convert to that block): each record holds
  the verdict (``accepted``, or the refusal's error class and message),
  the largest end weight of the vectors ``jacobi.check_ends`` reads and
  the true deviation of the blocks from their source, both from a run
  with that rule switched off, and the time of the call, accepted or
  refused; next to it, on the round trips' coefficient windows,
  ``jacobi.spectrum_near`` at each of the g poles against the whole
  spectrum, as above;
- a sweep of ``isospectral.solve_is_point`` over g in {2, 4, 8, 12, 16},
  on seeds drawn as the ``iso_comb`` workload draws them (a gap set of
  genus g in [-3, 3], its reference comb map, and the surface block with
  every entry perturbed until the seed residual is below 1), four seeds
  per genus in one timed call, each record with ``per_solve``: the
  ``is_residual`` calls and the residual rows they evaluate, per solve;
- a kernel sweep of ``finitegap.delta_from_gaps`` over g in {2, 4, 8,
  12, 16}, on gap sets drawn as the ``iso_comb`` workload draws its wide
  ones, eight sets per genus in one timed call, with the worst band-edge
  error ``|Delta(edge) -/+ 2|`` over the eight maps;
- a kernel sweep of ``gmp.lambda_sharp`` (all g pair functionals of one
  pair of blocks, or of a stack of pairs) over g in {1, 2, 4, 8, 12, 16},
  at 1, 50 and 481 pairs, on the poles of the same comb maps and a window
  of surface blocks with every entry perturbed by up to 5%, each record
  with ``tracemalloc_peak_kb``, the traced peak of one call;
- a kernel sweep of ``flow.u_block`` (the rotation blocks of every row
  of a window), ``flow.jacobi_flow_step``, acceptance criterion 4's
  check ``flow.flow_identity_residual(w, jacobi_flow_step(w))`` (the
  step against ``flow.conjugate_shift`` of the window's band blocks,
  each record with the ``residual`` it returns), the construction of a
  ``GmpWindow`` from its float arrays ``(P, Q, c)`` and from its JSON
  form by ``GmpWindow.from_json`` (the cost of the number rule
  ``errors.check_entries``, which every flow step pays once), and
  ``gmp.validate_gmp`` (the class check of a flow state) over the same
  genera, on the 482-block window of those 481 pairs, and criterion 4's
  check once more on a 961-block window at g = 16;
- each sweep record is ``{layer, case, n_blocks, g, best_s, median_s,
  counters}`` (``sites`` too for the Jacobi windows, ``band_edge_err``
  for the comb maps; ``n_blocks`` counts the pairs for
  ``lambda_sharp``), the counters (eigensolves with the order of each,
  ``delta_of_gmp`` calls with the states they map, ``resolvent_column``
  calls with the closed-form (state, block) pairs they hold, ``ks.h_term``
  calls, Lanczos runs and steps with the steps of each run that Simon's
  estimate reorthogonalized past the ``jacobi.LANCZOS_FULL_STEPS`` that
  always are, the ``numkit.project_out`` calls with the basis entries they
  are handed (each read by two products in each of its two passes),
  ``kappa`` calls of
  ``construct``, ``lambda_k`` calls of ``isospectral`` with the pole
  evaluations they make, calls x g x rows, ``is_residual`` calls with
  the rows they evaluate, Gauss-Newton iterations (probes less runs), and
  ``numkit.bisect_root`` calls with their evaluations of the bracketed
  function) taken from one extra run;
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

BLAS runs on one thread.  Temporary files go to ``.bench_run/`` in the
checkout; nothing is written under ``perfbench/``, whose input draws
are imported.  The sweep takes about 105 s on a 2-core machine, the
process layer about 55 s (its four long flow runs about 15 s), the
whole record about 5 minutes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

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

from gmpflow import acceptance, cli, construct, gmp, isospectral, jacobi, ks, numkit  # noqa: E402
from gmpflow.errors import GmpflowError  # noqa: E402
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta  # noqa: E402
from gmpflow.flow import flow_identity_residual, flow_run, jacobi_flow_step, u_block  # noqa: E402
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
# Timed repeats per sweep case: at least MIN_REPEATS, more while the case
# has used less than CASE_BUDGET_S, at most MAX_REPEATS.
MIN_REPEATS, MAX_REPEATS, CASE_BUDGET_S = 3, 15, 1.5
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


def sweep_inputs(g: int, n_blocks: int):
    d = delta_from_gaps(GAP_SETS[g])
    surface = GmpBlock(
        np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0),
        np.append(np.zeros(g), -d.c0),
    )
    return d, make_perturbed_window(surface, d.cs(), half=n_blocks // 2)


def jacobi_inputs(n_blocks: int):
    """One-gap comb map and a coefficient window drawn as the ``convert``
    workload draws its ``jacobi2gmp`` inputs."""
    rng = np.random.default_rng([PERFBENCH_SEED, n_blocks])
    cmap = comb_map(ONE_GAP)
    window = GmpWindow.from_json(perturbed_window(rng, cmap, n_blocks))
    return DeltaData.from_json(cmap), construct.gmp_to_jacobi_measure(window)


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


def convert_record(g: int, n_blocks: int, w: GmpWindow) -> dict:
    case = "gmp_to_jacobi_measure"
    rec = {"layer": "operator", "case": case, "n_blocks": n_blocks, "g": g}
    rec.update(timed(lambda: construct.gmp_to_jacobi_measure(w)))
    rec["flow_digits"] = flow_digits(w)
    rec["oracle_err"] = oracle_err(w)
    rec["step_us"] = 1e6 * rec["best_s"] / rec["counters"]["lanczos_steps"]
    print(f"{case} g={g} n={n_blocks}: best {rec['best_s']:.4f} s, "
          f"{rec['step_us']:.1f} us per Lanczos step, "
          f"flow digits a {rec['flow_digits']['a']}, b {rec['flow_digits']['b']}, "
          f"oracle error a {rec['oracle_err']['a']:.1e}, b {rec['oracle_err']['b']:.1e}",
          file=sys.stderr)
    return rec


def width_records(J, d: DeltaData, base: dict, label: str, deviation) -> list[dict]:
    """``jacobi_to_gmp`` on J at every width of ``ACCEPT_WIDTHS``: the
    verdict (``accepted``, or the refusal's error class and message),
    ``unchecked``'s end weight and true deviation, and the time of the
    call, accepted or refused."""
    records = []
    for width in ACCEPT_WIDTHS:
        def convert():
            with contextlib.suppress(GmpflowError):
                construct.jacobi_to_gmp(J, d, n_blocks=width)

        try:
            construct.jacobi_to_gmp(J, d, n_blocks=width)
            verdict = "accepted"
        except GmpflowError as exc:
            verdict = f"{type(exc).__name__}: {exc}"
        rec = {"layer": "operator", "case": f"jacobi_to_gmp {label} width={width}", **base,
               "width": width, "verdict": verdict, **unchecked(J, d, width, deviation)}
        rec.update(timed(convert))
        records.append(rec)
        print(f"jacobi_to_gmp {label} g={d.g} n={base['n_blocks']} width={width}: {verdict}, "
              f"end weight {rec['end_weight']}, true deviation {rec['true_dev']}", file=sys.stderr)
    return records


def acceptance_sweep() -> list[dict]:
    records = []
    for g in ACCEPT_GENERA:
        for n_blocks in ACCEPT_SIZES:
            d, w = roundtrip_inputs(g, n_blocks)
            J = construct.gmp_to_jacobi_measure(w)
            base = {"n_blocks": n_blocks, "g": g, "sites": J.size}
            records += width_records(J, d, base, "acceptance", block_deviation(w))
            records += spectrum_records(J, d, base)
    for sites in TORUS_SITES:
        d, J, block = torus_window(sites)
        base = {"n_blocks": sites, "g": d.g, "sites": J.size}
        records += width_records(J, d, base, "torus", block_deviation(block))
    return records


def spectrum_records(J, d: DeltaData, base: dict) -> list[dict]:
    """``jacobi.spectrum_near`` at each pole of d with kappa's radius,
    timed next to the whole spectrum of J."""
    records, off = [], J.a[1:]
    spectra = {
        f"spectrum_near, {d.g} points": lambda: [
            jacobi.spectrum_near(J, c, jacobi.SPECTRUM_MIN_DIST) for c in d.cs()],
        "eigvalsh_tridiagonal, whole spectrum": lambda: eigvalsh_tridiagonal(J.b, off),
    }
    for case, fn in spectra.items():
        rec = {"layer": "kernel", "case": case, **base}
        rec.update(timed(fn))
        records.append(rec)
        print(f"{case} g={d.g} n={base['n_blocks']}: best {rec['best_s'] * 1e3:.2f} ms",
              file=sys.stderr)
    return records


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


def delta_inputs(g: int) -> list[GapSet]:
    """``DELTA_SETS`` gap sets of genus g in [-3, 3] without a narrow gap,
    drawn as the ``iso_comb`` workload draws them."""
    rng = np.random.default_rng([PERFBENCH_SEED, g])
    return [GapSet(*random_gapset(rng, g, None)) for _ in range(DELTA_SETS)]


def band_edge_error(gapset: GapSet) -> float:
    """Largest distance of the comb map from -2 at the band left ends and
    from 2 at the band right ends."""
    edges = np.ravel(gapset.bands())
    levels = np.tile([-2.0, 2.0], gapset.g + 1)
    return float(np.max(np.abs(eval_delta(delta_from_gaps(gapset), edges) - levels)))


def kernel_inputs(g: int, n_pairs: int) -> GmpWindow:
    """Window of n_pairs + 1 perturbed surface blocks on the poles of the
    reference comb map of a genus-g gap set drawn as ``iso_comb`` draws it."""
    rng = np.random.default_rng([PERFBENCH_SEED, g, n_pairs])
    d = DeltaData.from_json(comb_map(random_gapset(rng, g, None)))
    p0 = np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0)
    q0 = np.append(np.zeros(g), -d.c0)
    u = rng.uniform(-1.0, 1.0, (2, n_pairs + 1, g + 1))
    return GmpWindow(p0 * (1.0 + 0.05 * u[0]), q0 + 0.05 * u[1], d.cs())


class Counting:
    """Counts eigensolves, ``delta_of_gmp`` calls with their mapped states,
    ``resolvent_column`` calls with their closed-form pairs, ``h_term`` calls, the
    Lanczos runs of ``gmp_to_jacobi_measure`` with their steps and the
    steps of each that Simon's estimate reorthogonalized, the
    ``numkit.project_out`` calls with the basis entries handed to them, the
    ``kappa`` calls of ``construct``, the ``lambda_k`` and ``is_residual``
    calls of ``isospectral`` with their pole evaluations and residual rows,
    its Gauss-Newton runs and probes (each run probes its start, then one
    point per iteration unless a trial is rejected), and the
    ``numkit.bisect_root`` calls with their evaluations of the bracketed
    function while installed."""

    def __init__(self):
        self.eig_rows: list[int] = []
        self.delta_calls = 0
        self.delta_states = 0
        self.closed_calls = 0
        self.closed_pairs = 0
        self.h_term_calls = 0
        self.lanczos_sizes: list[int] = []
        self.lanczos_reorthogonalized: list[int] = []
        self.project_calls = 0
        self.project_entries = 0
        self.kappa_calls = 0
        self.lambda_k_calls = 0
        self.lambda_k_poles = 0
        self.residual_calls = 0
        self.residual_rows = 0
        self.gauss_newton_runs = 0
        self.probes = 0
        self.bisect_calls = 0
        self.bisect_evals = 0

    def __enter__(self):
        self._eig, self._delta, self._h_term = numkit.sym_eigen, ks.delta_of_gmp, ks.h_term
        self._closed = ks.resolvent_column
        self._bisect, self._project = numkit.bisect_root, numkit.project_out
        self._lanczos, self._kappa = construct.lanczos, construct.kappa
        self._lambda_k, self._residual = isospectral.lambda_k, isospectral.is_residual
        self._gauss_newton, self._probe = isospectral._gauss_newton, isospectral._probe

        def eig(mat):
            self.eig_rows.append(int(np.shape(mat)[0]))
            return self._eig(mat)

        def delta(states, *args, **kwargs):
            self.delta_calls += 1
            self.delta_states += len(states)
            return self._delta(states, *args, **kwargs)

        def closed(P, Q, c):
            self.closed_calls += 1
            self.closed_pairs += len(P)  # one block stack per pair
            return self._closed(P, Q, c)

        def h_term(*args):
            self.h_term_calls += 1
            return self._h_term(*args)

        def lanczos(*args):  # (band, start, depth)
            before = self.project_calls
            win = self._lanczos(*args)
            self.lanczos_sizes.append(win.size)
            full = min(jacobi.LANCZOS_FULL_STEPS, win.size - 1)
            self.lanczos_reorthogonalized.append(self.project_calls - before - full)
            return win

        def project(basis, vec):
            self.project_calls += 1
            self.project_entries += np.size(basis)
            return self._project(basis, vec)

        def kappa(*args, **kwargs):
            self.kappa_calls += 1
            return self._kappa(*args, **kwargs)

        def lambda_k(*args):
            vals = self._lambda_k(*args)
            self.lambda_k_calls += 1
            self.lambda_k_poles += np.size(vals)  # one per pole and row
            return vals

        def residual(blk, d):
            self.residual_calls += 1
            self.residual_rows += np.size(blk.p) // (blk.g + 1)
            return self._residual(blk, d)

        def gauss_newton(*args):
            self.gauss_newton_runs += 1
            return self._gauss_newton(*args)

        def probe(*args):
            self.probes += 1
            return self._probe(*args)

        def bisect(f, lo, hi):
            def counted(x):
                self.bisect_evals += 1
                return f(x)

            self.bisect_calls += 1
            return self._bisect(counted, lo, hi)

        numkit.sym_eigen, numkit.bisect_root, numkit.project_out = eig, bisect, project
        # map_run, delta_of_gmp and functional_report look the names up in ks
        ks.delta_of_gmp, ks.h_term, ks.resolvent_column = delta, h_term, closed
        construct.lanczos, construct.kappa = lanczos, kappa
        isospectral.lambda_k, isospectral.is_residual = lambda_k, residual
        isospectral._gauss_newton, isospectral._probe = gauss_newton, probe
        return self

    def __exit__(self, *exc):
        numkit.sym_eigen, numkit.bisect_root = self._eig, self._bisect
        numkit.project_out = self._project
        ks.delta_of_gmp, ks.h_term, ks.resolvent_column = self._delta, self._h_term, self._closed
        construct.lanczos, construct.kappa = self._lanczos, self._kappa
        isospectral.lambda_k, isospectral.is_residual = self._lambda_k, self._residual
        isospectral._gauss_newton, isospectral._probe = self._gauss_newton, self._probe

    def counters(self) -> dict:
        return {
            "sym_eigen_calls": len(self.eig_rows),
            "sym_eigen_rows_max": max(self.eig_rows, default=0),
            # the order of each eigensolve, in call order
            "sym_eigen_rows": self.eig_rows,
            "delta_of_gmp_calls": self.delta_calls,
            "delta_of_gmp_states": self.delta_states,
            "resolvent_column_calls": self.closed_calls,
            "resolvent_column_pairs": self.closed_pairs,
            "h_term_calls": self.h_term_calls,
            "lanczos_calls": len(self.lanczos_sizes),
            # one operator product per coefficient b(k)
            "lanczos_steps": sum(self.lanczos_sizes),
            # per run: the plus half, then the minus half of each conversion
            "lanczos_reorthogonalized_steps": self.lanczos_reorthogonalized,
            "project_out_calls": self.project_calls,
            "project_out_entries": self.project_entries,
            "kappa_calls": self.kappa_calls,
            "lambda_k_calls": self.lambda_k_calls,
            "lambda_k_poles": self.lambda_k_poles,
            "is_residual_calls": self.residual_calls,
            "is_residual_rows": self.residual_rows,
            "gauss_newton_iterations": self.probes - self.gauss_newton_runs,
            "bisect_calls": self.bisect_calls,
            "bisect_evals": self.bisect_evals,
        }


def timed(fn) -> dict:
    with Counting() as count:
        fn()
    times = []
    while len(times) < MAX_REPEATS and (
        len(times) < MIN_REPEATS or sum(times) < CASE_BUDGET_S
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {
        "best_s": min(times),
        "median_s": statistics.median(times),
        "repeats": len(times),
        "counters": count.counters(),
    }


def sweep(work: Path) -> list[dict]:
    records = []
    for g in GAP_SETS:
        for n_blocks in SIZES + KS_WIDE.get(g, ()):
            d, w = sweep_inputs(g, n_blocks)
            window = work / f"ks-g{g}-n{n_blocks}.json"
            cmap = work / f"map-g{g}.json"
            window.write_text(json.dumps(w.to_json()) + "\n")
            cmap.write_text(json.dumps(d.to_json()) + "\n")
            argv = ["ks", str(window), str(cmap), "--steps", str(KS_STEPS),
                    "--margin", "3", "--out", str(work / "ks.csv")]
            cases = {
                ("operator", "delta_of_gmp margin=3"): lambda: ks.delta_of_gmp([w], d, 3),
                ("end_to_end", f"gmpflow ks --steps {KS_STEPS}"): lambda: cli.main(argv),
            }
            for (layer, case), fn in cases.items():
                rec = {"layer": layer, "case": case, "n_blocks": n_blocks, "g": g}
                rec.update(timed(fn))
                records.append(rec)
                print(f"{case} g={g} n={n_blocks}: best {rec['best_s']:.4f} s",
                      file=sys.stderr)
        records += [convert_record(g, n, sweep_inputs(g, n)[1]) for n in CONVERT_SIZES]
    records += [convert_record(g, n, roundtrip_inputs(g, n)[1]) for g, n in CONVERT_WIDE]
    for n_blocks in JACOBI_SIZES:
        d, J = jacobi_inputs(n_blocks)
        case = f"jacobi_to_gmp width={JACOBI_WIDTH}"
        base = {"n_blocks": n_blocks, "g": 1, "sites": J.size}
        rec = {"layer": "operator", "case": case, **base,
               "end_weight": unchecked(J, d, JACOBI_WIDTH)["end_weight"]}
        rec.update(timed(lambda: construct.jacobi_to_gmp(J, d, n_blocks=JACOBI_WIDTH)))
        records.append(rec)
        print(f"{case} n={n_blocks}: best {rec['best_s']:.4f} s", file=sys.stderr)
        records += spectrum_records(J, d, base)
    records += acceptance_sweep()
    for g in ISO_GENERA:
        d, seeds = iso_inputs(g)
        case = f"solve_is_point, {ISO_SEEDS} seeds"
        rec = {"layer": "operator", "case": case, "n_blocks": 1, "g": g}
        rec.update(timed(lambda: [isospectral.solve_is_point(d, s) for s in seeds]))
        rec["per_solve"] = {key: rec["counters"][key] / ISO_SEEDS
                            for key in ("is_residual_calls", "is_residual_rows")}
        records.append(rec)
        print(f"{case} g={g}: best {rec['best_s']:.4f} s", file=sys.stderr)
    for g in DELTA_GENERA:
        sets = delta_inputs(g)
        case = f"delta_from_gaps, {DELTA_SETS} sets"
        rec = {"layer": "kernel", "case": case, "n_blocks": 1, "g": g}
        rec.update(timed(lambda: [delta_from_gaps(gs) for gs in sets]))
        rec["band_edge_err"] = max(band_edge_error(gs) for gs in sets)
        records.append(rec)
        print(f"{case} g={g}: best {rec['best_s'] * 1e3:.2f} ms, "
              f"band edge {rec['band_edge_err']:.1e}", file=sys.stderr)
    for g in KERNEL_GENERA:
        for n_pairs in KERNEL_PAIRS:
            w = kernel_inputs(g, n_pairs)
            nxt, this = (w.block(1), w.block(0)) if n_pairs == 1 else (w.rows(1), w.rows(0, -1))
            rec = {"layer": "kernel", "case": "lambda_sharp", "n_blocks": n_pairs, "g": g}
            rec.update(timed(lambda: gmp.lambda_sharp(nxt, this, w.c)))
            tracemalloc.start()
            gmp.lambda_sharp(nxt, this, w.c)
            rec["tracemalloc_peak_kb"] = round(tracemalloc.get_traced_memory()[1] / 1e3, 1)
            tracemalloc.stop()
            records.append(rec)
            print(f"lambda_sharp g={g} pairs={n_pairs}: best {rec['best_s'] * 1e6:.0f} us",
                  file=sys.stderr)
        w = kernel_inputs(g, FLOW_PAIRS)
        data = w.to_json()
        for case, fn in (("u_block", lambda: u_block(w.P)),
                         ("jacobi_flow_step", lambda: jacobi_flow_step(w)),
                         (IDENTITY_CASE, lambda: flow_identity_residual(w, jacobi_flow_step(w))),
                         ("GmpWindow(P, Q, c)", lambda: GmpWindow(w.P, w.Q, w.c)),
                         ("GmpWindow.from_json", lambda: GmpWindow.from_json(data)),
                         ("validate_gmp", lambda: gmp.validate_gmp(w))):
            records.append(kernel_record(case, fn, w))
    wide = kernel_inputs(*IDENTITY_WIDE)
    records.append(kernel_record(IDENTITY_CASE,
                                 lambda: flow_identity_residual(wide, jacobi_flow_step(wide)), wide))
    return records


def kernel_record(case: str, fn, w: GmpWindow) -> dict:
    """A kernel sweep record of ``fn`` on the window ``w``; the flow identity's
    also holds the ``residual`` it returns."""
    rec = {"layer": "kernel", "case": case, "n_blocks": w.n_blocks, "g": w.g}
    rec.update(timed(fn))
    if case == IDENTITY_CASE:
        rec["residual"] = fn()
    print(f"{case} g={w.g} n={w.n_blocks}: best {rec['best_s'] * 1e3:.2f} ms", file=sys.stderr)
    return rec


def process_inputs(work: Path) -> dict[str, list[str]]:
    """Command lines of every subcommand on the fixed inputs named in the
    module docstring, keyed by case; outputs go to one file in ``work``."""
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
        path[name] = str(work / f"process-{name}.json")
        Path(path[name]).write_text(json.dumps(data) + "\n")
    out = ["--out", str(work / "process-out")]
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


def process_layer(work: Path) -> list[dict]:
    env = _env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    records = []
    for case, argv in process_inputs(work).items():
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
    work = ROOT / ".bench_run" / f"write-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

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
        record["sweep"] = sweep(work)
        record["sweep_wall_s"] = round(time.perf_counter() - t0, 2)
        record["process"] = process_layer(work)
        (work / "grid").mkdir()
        record["failure_grid"] = grid_counts(run_grid(work / "grid"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
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
