"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic span tree, that
the input generator is a function of the seed, that tracing rebinds and
restores every imported name, that two tiny passes of every workload
succeed with byte-identical reruns, that the narrow-gap sets left out of
``iso_comb`` fail exactly as recorded, and that the metric names agree
with ``BENCHMARK.json``.
"""

import json
import shutil
import sys
import unittest

import run  # first: pins the BLAS threads before numpy is imported
import numpy as np
import tracer
import workloads

CLI_MAIN = run.import_program()

# Jobs that fail at the recorded program version.  No job of the tiny
# pools fails.  Of the narrow-gap sets (seed 1), which the timed pools
# leave out, g2-narrow1 misses the band-edge bound and g8-narrow7 is
# refused by the comb map's pole-residual validation.  A change to the
# program that moves these must update them and say why.
NARROW_SEED = 1
NARROW_BASELINE_FAILS = ["g2-narrow1", "g8-narrow7"]


def _work(name):
    path = run.ROOT / ".bench_run" / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # root [0, 100] holds A [10, 40] and B [50, 70]; A holds A1 [15, 20].
        own = tracer.self_times([0, 10, 15, 50], [100, 40, 20, 70], [-1, 0, 1, 0])
        self.assertEqual(own.tolist(), [100 - 30 - 20, 30 - 5, 5, 20])

    def test_layer_metrics_per_job(self):
        names = [tracer.ROOT, "flow.jacobi_flow_step", "numkit.sym_eigen"]
        spans = {
            "name_id": np.array([0, 1, 2, 1, 0, 1]),
            "start_ns": np.array([0, 1, 2, 5, 10, 11]) * 1_000_000,
            "end_ns": np.array([10, 4, 3, 6, 20, 19]) * 1_000_000,
            "parent": np.array([-1, 0, 1, 0, -1, 4]),
            "job": np.array([0, 0, 0, 0, 1, 1]),
            "failed": np.array([0, 0, 0, 0, 0, 1]),
            "order": np.array([0, 0, 10, 0, 0, 0]),
            "flop": np.array([0.0, 0.0, 9e3, 0.0, 0.0, 0.0]),
            "digest": np.array([0, 7, 3, 7, 0, 7]),
        }
        m = tracer.layer_metrics(names, spans)
        self.assertEqual(m["flow.jacobi_flow_step.calls"], 1.5)
        # job 0 repeats digest 7, job 1 sees it once: 2 distinct of 3
        self.assertAlmostEqual(m["flow.jacobi_flow_step.unique_frac"], 2 / 3)
        self.assertAlmostEqual(m["flow.jacobi_flow_step.fail_frac"], 1 / 3)
        self.assertAlmostEqual(m["flow.jacobi_flow_step.self_ms"], (2 + 1 + 8) / 2)
        self.assertAlmostEqual(m["cli.self_ms"], (6 + 2) / 2)
        self.assertAlmostEqual(m["numkit.sym_eigen.n_mean"], 10.0)
        self.assertAlmostEqual(m["flow.self_share"], 11 / 20)
        self.assertAlmostEqual(m["numkit.self_share"], 1 / 20)
        self.assertAlmostEqual(m["numkit.gflop"], 9e3 / 1e9 / 2)


class Generator(unittest.TestCase):
    def test_same_seed_same_pool_other_seed_other_pool(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                work = _work(name)
                try:
                    a = workloads.build_pool(name, 11, work, tiny=True).inputs
                    b = workloads.build_pool(name, 11, work, tiny=True).inputs
                    c = workloads.build_pool(name, 12, work, tiny=True).inputs
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_reference_comb_map_matches_program_on_wide_gaps(self):
        from gmpflow.finitegap import GapSet, delta_from_gaps

        for gapset in (workloads.ONE_GAP, workloads.TWO_GAP):
            ref = workloads.comb_map(gapset)
            got = delta_from_gaps(GapSet(*gapset)).to_json()
            self.assertAlmostEqual(ref["lambda0"], got["lambda0"], delta=1e-13)
            self.assertAlmostEqual(ref["c0"], got["c0"], delta=1e-13)
            for r, g in zip(ref["poles"], got["poles"]):
                self.assertAlmostEqual(r["c"], g["c"], delta=1e-13)
                self.assertAlmostEqual(r["lambda"], g["lambda"], delta=1e-12)

    def test_surface_block_has_zero_residual(self):
        from gmpflow.finitegap import DeltaData
        from gmpflow.gmp import GmpBlock
        from gmpflow.isospectral import is_residual

        rng = np.random.default_rng(5)
        for g in (2, 8):
            cmap = workloads.comb_map(workloads.random_gapset(rng, g, None))
            p, q = workloads.surface_block(cmap)
            res = is_residual(GmpBlock(p, q), DeltaData.from_json(cmap))
            self.assertLess(float(np.max(np.abs(res))), 1e-12)


class Tracing(unittest.TestCase):
    def test_install_rebinds_imported_names_and_uninstall_restores(self):
        import gmpflow.cli
        import gmpflow.flow

        before = gmpflow.cli.flow_run
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(gmpflow.cli.flow_run, before)
            self.assertIs(gmpflow.cli.flow_run, gmpflow.flow.flow_run)
        finally:
            t.uninstall()
        self.assertIs(gmpflow.cli.flow_run, before)

    def test_traced_job_records_nested_spans(self):
        work = _work("trace")
        try:
            pool = workloads.build_pool("ks_table", 0, work, tiny=True)
            t = tracer.Tracer()
            t.install()
            try:
                res = run.run_job(CLI_MAIN, pool.jobs[0], 0, t, job_id=0)
            finally:
                t.uninstall()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertTrue(res.ok, res.failure or res.checks)
        m = t.layer_metrics()
        self.assertEqual(m["ks.telescoping_check.calls"], 1)
        self.assertGreater(m["ks.delta_of_gmp.calls"], 0)
        self.assertGreater(m["numkit.sym_eigen.n_mean"], 0)
        shares = sum(m[f"{mod}.self_share"] for mod in tracer.MODULES)
        self.assertAlmostEqual(shares, 1.0, delta=1e-9)


class TinyPass(unittest.TestCase):
    def test_no_job_fails_and_reruns_agree(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                work = _work(name)
                try:
                    loop = run.Loop(CLI_MAIN, workloads.build_pool(name, 0, work, tiny=True))
                    loop.one_pass()
                    loop.one_pass()
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                failed = [(r.label, r.failure, r.checks) for r in loop.results if not r.ok]
                self.assertEqual(failed, [])


class KnownFailures(unittest.TestCase):
    def test_narrow_gap_sets_fail_as_recorded(self):
        work = _work("narrow")
        try:
            loop = run.Loop(CLI_MAIN, workloads.narrow_gap_pool(NARROW_SEED, work))
            loop.one_pass()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = sorted(r.label for r in loop.results if not r.ok)
        self.assertEqual(failed, NARROW_BASELINE_FAILS, [
            (r.label, r.failure, r.checks) for r in loop.results
        ])


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    sys.exit(unittest.main())
