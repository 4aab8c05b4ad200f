"""Benchmark of the gmpflow desk workflow, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One client in one process runs
a closed loop: each job is an in-process ``gmpflow.cli.main`` call (or
two) on JSON files drawn from ``--seed``, and the next job starts only
when the previous one has finished and been checked.  A run makes a
fixed number of whole passes over the workload's input pool, one per
``PASS_SECONDS`` of ``--seconds``, so all runs time the same jobs.  Times
are scaled to a reference machine speed by a short probe run before and
after each job (see ``probe``); the raw wall times go to the details.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, with the relative cost of tracing as
``trace.overhead_frac``.  The last line of standard output is the JSON
result; details go to ``.bench_out/`` in the checkout.  BLAS runs on one
thread.
"""

import os
import time


def process_age() -> float:
    """Seconds since this process started (Linux, 10 ms resolution)."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


# Process start on the perf_counter clock: set-up time includes the
# interpreter's own start-up.
T_START = time.perf_counter() - process_age()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Cold set-ups per run, this process's own included: each is a fresh
# process, and setup_s is their median.  A single cold set-up varied by
# 30% between runs on a shared machine.
SETUP_PROCESSES = 2
ACCURACY_CAP = 16.0

# Machine-speed probe: 3x3 products in a Python loop and 60x60 symmetric
# eigensolves, the two kinds of work the jobs do.  PROBE_REF_S is its
# time on an unloaded 2-core x86 box.  On a shared machine other tenants
# slow every job of a run alike, by up to 50%.  Scaled by PROBE_REF_S
# over the probes around each job, the job medians of five ks_table runs
# moved 6% where the raw ones moved 30%.
PROBE_REF_S = 0.008
_PROBE_SMALL = np.random.default_rng(0).standard_normal((3, 3))
_PROBE_SYM = np.random.default_rng(1).standard_normal((60, 60))
_PROBE_SYM = _PROBE_SYM + _PROBE_SYM.T


def probe() -> float:
    t0 = time.perf_counter()
    for _ in range(3000):
        _PROBE_SMALL @ _PROBE_SMALL
    for _ in range(10):
        np.linalg.eigh(_PROBE_SYM)
    return time.perf_counter() - t0


END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_frac": "ratio",
    "accuracy_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "flow.jacobi_flow_step.calls": "count",
    "flow.jacobi_flow_step.self_ms": "ms",
    "flow.jacobi_flow_step.unique_frac": "ratio",
    "flow.u_block.calls": "count",
    "flow.u_block.self_ms": "ms",
    "flow.flow_run.self_ms": "ms",
    "flow.extract_jacobi.self_ms": "ms",
    "gmp.build_block_B.calls": "count",
    "gmp.build_block_B.self_ms": "ms",
    "gmp.validate_gmp.self_ms": "ms",
    "gmp.lambda_sharp.calls": "count",
    "gmp.lambda_sharp.self_ms": "ms",
    "flow.self_share": "ratio",
    "gmp.self_share": "ratio",
    "ks.delta_of_gmp.calls": "count",
    "ks.delta_of_gmp.self_ms": "ms",
    "ks.delta_of_gmp.unique_frac": "ratio",
    "ks.telescoping_check.calls": "count",
    "ks.telescoping_check.self_ms": "ms",
    "ks.functional_report.self_ms": "ms",
    "ks.ks_diagnostics.self_ms": "ms",
    "ks.h_term.calls": "count",
    "numkit.sym_eigen.calls": "count",
    "numkit.sym_eigen.self_ms": "ms",
    "numkit.sym_eigen.n_mean": "rows",
    "numkit.sym_eigen.unique_frac": "ratio",
    "gmp.assemble_dense.calls": "count",
    "gmp.assemble_dense.self_ms": "ms",
    "gmp.resolvent_column.self_ms": "ms",
    "ks.self_share": "ratio",
    "numkit.solve.calls": "count",
    "numkit.solve.self_ms": "ms",
    "numkit.solve.n_mean": "rows",
    "numkit.gflop": "GFLOP",
    "jacobi.kappa.calls": "count",
    "jacobi.kappa.self_ms": "ms",
    "jacobi.angle_plus.calls": "count",
    "construct.jacobi_to_gmp.self_ms": "ms",
    "numkit.self_share": "ratio",
    "jacobi.self_share": "ratio",
    "jacobi.lanczos_from_measure.calls": "count",
    "jacobi.lanczos_from_measure.self_ms": "ms",
    "construct.gmp_to_jacobi_measure.self_ms": "ms",
    "construct.self_share": "ratio",
    "finitegap.delta_from_gaps.calls": "count",
    "finitegap.delta_from_gaps.self_ms": "ms",
    "finitegap.delta_from_gaps.fail_frac": "ratio",
    "numkit.bisect_root.calls": "count",
    "numkit.bisect_root.self_ms": "ms",
    "isospectral.solve_is_point.self_ms": "ms",
    "isospectral.solve_is_point.fail_frac": "ratio",
    "isospectral.is_residual.calls": "count",
    "gmp.lambda_k.calls": "count",
    "finitegap.self_share": "ratio",
    "isospectral.self_share": "ratio",
    "cli.self_ms": "ms",
    "cli.fail_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class JobResult:
    index: int
    label: str
    seconds: float
    failure: str | None = None
    checks: list = field(default_factory=list)
    output: bytes = b""
    speed: float = 1.0  # PROBE_REF_S over the probe time around the job

    @property
    def scaled(self) -> float:
        """Job time at the reference machine speed."""
        return self.seconds * self.speed

    @property
    def ok(self) -> bool:
        return self.failure is None and all(err <= bound for _, err, bound in self.checks)

    @property
    def error(self) -> float | None:
        return max(err for _, err, _ in self.checks) if self.checks else None


def run_job(cli_main, job, index: int, tracer=None, job_id: int = 0) -> JobResult:
    """Run one job; only the gmpflow calls are timed, the check is not."""
    stdouts = []
    failure = None
    t0 = time.perf_counter()
    # Every call runs even after one fails, so a job's time does not
    # depend on where it failed.
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.call(job_id) if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli_main(argv)
        except Exception as exc:  # noqa: BLE001 - an uncaught error fails the job
            failure = failure or f"{type(exc).__name__}: {exc}"
            continue
        if code != 0:
            failure = failure or f"exit {code}: {err.getvalue().strip()}"
        stdouts.append(out.getvalue())
    res = JobResult(index, job.label, time.perf_counter() - t0, failure)
    if failure is None:
        try:
            res.checks = job.check(stdouts)
            res.output = "".join(stdouts).encode() + b"".join(
                path.read_bytes() for path in job.outputs
            )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.checks = [(f"unreadable output ({exc})", math.inf, 0.0)]
    return res


class Loop:
    """Closed-loop client: whole passes over the pool, one job at a time."""

    def __init__(self, cli_main, pool):
        self.cli_main = cli_main
        self.pool = pool
        self.results: list[JobResult] = []
        self.first_output: dict[int, bytes] = {}

    def record(self, res: JobResult) -> None:
        if res.failure is None:
            first = self.first_output.setdefault(res.index, res.output)
            if first != res.output:
                res.checks.append(("rerun output differs", math.inf, 0.0))

    def one_pass(self, tracer=None) -> None:
        base = len(self.results)
        before = probe()
        for index, job in enumerate(self.pool.jobs):
            res = run_job(self.cli_main, job, index, tracer, base + index)
            after = probe()
            res.speed = PROBE_REF_S / (0.5 * (before + after))
            before = after
            self.record(res)
            self.results.append(res)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its
    value: the eleventh-largest time, or the largest of fewer than 11."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return 100.0, ordered[-1]
    return 100.0 * (1.0 - 10.0 / len(ordered)), ordered[-11]


def typical_times(results: list[JobResult]) -> dict[int, float]:
    """Each input's median scaled time over its runs."""
    runs: dict[int, list[float]] = {}
    for r in results:
        runs.setdefault(r.index, []).append(r.scaled)
    return {i: statistics.median(v) for i, v in runs.items()}


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "src_lines": src_lines,
    }


def import_program():
    """Import gmpflow from this checkout's src/, or fail."""
    if not (SRC / "gmpflow" / "cli.py").is_file():
        raise SystemExit(f"gmpflow sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmpflow.cli

    if Path(gmpflow.cli.__file__).resolve().parent != SRC / "gmpflow":
        raise SystemExit(f"imported gmpflow from {gmpflow.cli.__file__}, not {SRC}")
    return gmpflow.cli.main


def setup(cli_main, workload: str, seed: int, work: Path):
    """Draw the pool and run one warm-up job.  Returns the loop and the
    time from process start to here, when the first timed job can start,
    without the probes and scaled by their median: the load of a shared
    machine can change in the middle of a set-up."""
    from workloads import build_pool

    probes = [probe()]
    pool = build_pool(workload, seed, work)
    probes.append(probe())
    loop = Loop(cli_main, pool)
    loop.record(run_job(cli_main, pool.jobs[0], 0))
    elapsed = time.perf_counter() - T_START - sum(probes)
    probes.append(probe())
    speed = PROBE_REF_S / statistics.median(probes)
    # Jobs should find a heap like a fresh process's: the pool and
    # references made so far are left out of garbage collection.
    gc.collect()
    gc.freeze()
    return loop, elapsed * speed


def fresh_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=150,
    )
    return float(done.stdout.split()[-1])


def end_to_end(loop: Loop, seconds: float, setup_s: float) -> tuple[dict, dict]:
    passes = max(1, round(seconds / loop.pool.pass_seconds))
    for _ in range(passes):
        loop.one_pass()
    res = loop.results
    typical = typical_times(res)
    passed = dict.fromkeys(typical, 0)
    for r in res:
        passed[r.index] += r.ok
    correct = [typical[i] for i in typical if passed[i] == passes] or list(typical.values())
    pct, tail_s = tail(list(typical.values()))
    errors = [r.error for r in res if r.error is not None]
    digits = min(
        (ACCURACY_CAP if e == 0 else max(0.0, min(ACCURACY_CAP, -math.log10(e))) for e in errors),
        default=0.0,
    )
    values = {
        "jobs_per_s": sum(passed.values()) / passes / sum(typical.values()),
        "job_p50_s": statistics.median(correct),
        "job_tail_s": tail_s,
        "ok_frac": sum(r.ok for r in res) / len(res),
        "accuracy_digits": digits,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": passes,
        "inputs": len(typical),
        "job_tail_percentile": pct,
        "wall_job_p50_s": statistics.median(r.seconds for r in res),
        "median_speed": statistics.median(r.speed for r in res),
    }
    return values, notes


def traced(loop: Loop, seconds: float, out_stem: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; the overhead compares the
    inputs' typical scaled times in the two modes."""
    from tracer import Tracer

    tracer = Tracer()
    plain, with_trace = [], []
    for _ in range(max(1, round(seconds / (2.0 * loop.pool.pass_seconds)))):
        first = len(loop.results)
        loop.one_pass()
        plain += loop.results[first:]
        first = len(loop.results)
        tracer.install()
        try:
            loop.one_pass(tracer)
        finally:
            tracer.uninstall()
        with_trace += loop.results[first:]
    tracer.save(OUT / f"{out_stem}.spans.npz")
    layer = tracer.layer_metrics()
    res = loop.results
    layer["cli.fail_frac"] = sum(not r.ok for r in res) / len(res)
    layer["trace.overhead_frac"] = (
        sum(typical_times(with_trace).values()) / sum(typical_times(plain).values()) - 1.0
    )
    values = {name: layer[name] for name in PER_LAYER}
    return values, {"traced_jobs": len(res) // 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and stop")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    cli_main = import_program()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_run" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        loop, setup_s = setup(cli_main, args.workload, args.seed, work)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            values, notes = traced(loop, args.seconds, stem)
            units = PER_LAYER
        else:
            setup_s = statistics.median([setup_s] + [
                fresh_setup(args.workload, args.seed) for _ in range(SETUP_PROCESSES - 1)
            ])
            values, notes = end_to_end(loop, args.seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = loop.results
    failures = [r for r in res if not r.ok]
    env = environment()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        **notes,
        "jobs": [
            {"label": r.label, "seconds": r.seconds, "failure": r.failure, "checks": r.checks}
            for r in res
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"# gmpflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("# environment " + json.dumps(env))
    print(f"# jobs: {len(res)} attempted, {len(failures)} failed; "
          + ", ".join(f"{k} {v:.4g}" for k, v in notes.items()))
    for r in failures[:5]:
        reason = r.failure or "; ".join(f"{n} {e:.3g} > {b:.0e}" for n, e, b in r.checks if e > b)
        print(f"# failed {r.label}: {reason}")
    for name, value in values.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        # No job of a timed pool fails at the recorded program version
        # (the self-test keeps the known failing inputs), so any failure,
        # rerun difference included, is a wrong answer.
        "correct": not failures,
        "attempted": len(res),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
