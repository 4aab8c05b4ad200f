"""End-to-end checks of the command line front end.

Every subcommand runs in process through ``main`` with JSON files in a
temporary directory, so exit codes, streams and output bytes are all
observable.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import make_perturbed_window

from gmpflow import cli
from gmpflow.errors import NumericalError
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps
from gmpflow.gmp import GmpBlock, GmpWindow
from gmpflow.isospectral import solve_is_point
from gmpflow.jacobi import JacobiWindow


def write_json(path, data) -> str:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)


def estar_gapset_file(tmp_path) -> str:
    return write_json(
        tmp_path / "gapset.json",
        {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, 1.0]]},
    )


def estar_delta_file(tmp_path) -> str:
    out = tmp_path / "deltadata.json"
    assert cli.main(["delta", estar_gapset_file(tmp_path), "--out", str(out)]) == 0
    return str(out)


def p1_window_file(tmp_path, n_blocks: int = 15, j_min: int = -7) -> str:
    blk = {"p": [math.sqrt(2.0), 0.5], "q": [0.0, 0.0]}
    return write_json(
        tmp_path / "p1window.json",
        {"g": 1, "C": [0.0], "j_min": j_min, "blocks": [blk] * n_blocks},
    )


def period2_jacobi_file(tmp_path) -> str:
    ns = np.arange(-107, 107)
    a = np.where(ns % 2 == 0, 1.5, 0.5)
    return write_json(
        tmp_path / "period2.json",
        {"n_min": -107, "a": a.tolist(), "b": [0.0] * ns.size},
    )


def csv_columns(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {
        name: [row[i] for row in rows] for i, name in enumerate(header)
    }


class TestDelta:
    def test_emits_map_and_edge_summary(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = cli.main(["delta", estar_gapset_file(tmp_path), "--out", str(out)])
        assert code == 0
        d = DeltaData.from_json(json.loads(out.read_text()))
        assert d.g == 1
        assert d.lambda0 == pytest.approx(2.0, abs=1e-12)
        assert d.poles[0][1] == pytest.approx(4.0, abs=1e-9)
        summary = capsys.readouterr().out
        for edge, val in ((-2, -2), (-1, 2), (1, -2), (2, 2)):
            line = next(
                ln for ln in summary.splitlines() if f"Delta({edge})" in ln
            )
            assert float(line.split("=")[-1]) == pytest.approx(val, abs=1e-12)

    def test_stdout_json_when_no_out(self, tmp_path, capsys):
        assert cli.main(["delta", estar_gapset_file(tmp_path)]) == 0
        captured = capsys.readouterr()
        d = DeltaData.from_json(json.loads(captured.out))
        assert d.g == 1
        assert "band edge values" in captured.err

    def test_overlapping_gaps_name_the_pair(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, 0.5], [0.0, 1.0]]},
        )
        assert cli.main(["delta", path]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "gap 1" in err and "(0.0, 1.0)" in err

    def test_broken_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"b0": -2.0,\n', encoding="utf-8")
        assert cli.main(["delta", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["delta", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestFlow:
    def test_magic_readout_columns(self, tmp_path, capsys):
        code = cli.main(["flow", p1_window_file(tmp_path), "--steps", "6"])
        assert code == 0
        text = capsys.readouterr().out
        cols = csv_columns(text)
        a = [float(v) for v in cols["a"]]
        assert a == pytest.approx([1.5, 0.5, 1.5, 0.5, 1.5, 0.5], abs=1e-12)
        assert [float(v) for v in cols["b"]] == pytest.approx([0.0] * 6, abs=1e-12)
        assert [float(v) for v in cols["lambda_1"]] == pytest.approx(
            [4.0] * 6, abs=1e-9
        )
        assert all(float(v) > 1.0 for v in cols["validity_min_1"])
        assert max(abs(float(v)) for v in cols["shift_dist_eta"]) < 1e-12
        assert cols["n"] == [str(n) for n in range(6)]

    def test_seventeen_digit_numbers(self, tmp_path, capsys):
        assert cli.main(["flow", p1_window_file(tmp_path), "--steps", "2"]) == 0
        cols = csv_columns(capsys.readouterr().out)
        assert cols["a"][0] == "1.5000000000000002"

    def test_reruns_are_byte_identical(self, tmp_path):
        win = p1_window_file(tmp_path)
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        for out in (out1, out2):
            args = ["flow", win, "--steps", "5", "--out", str(out)]
            assert cli.main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reruns_are_byte_identical_at_size(self, tmp_path):
        d = delta_from_gaps(GapSet(-2.0, 2.0, ((-1.2, -0.4), (0.5, 1.1))))
        surface = GmpBlock(
            np.append(np.sqrt(d.lams() / d.lambda0), 1.0 / d.lambda0),
            [0.0, 0.0, -d.c0],
        )
        w = make_perturbed_window(surface, d.cs(), half=120)
        assert (w.n_blocks, w.g) == (241, 2)
        win = write_json(tmp_path / "wide.json", w.to_json())
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        for out in (out1, out2):
            args = ["flow", win, "--steps", "6", "--out", str(out)]
            assert cli.main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_pair_functional_leaves_the_class(self, tmp_path, capsys):
        huge = {"p": [1e160, 1.0], "q": [1e160, -0.5]}
        win = write_json(
            tmp_path / "huge.json",
            {"g": 1, "C": [0.0], "j_min": -4, "blocks": [huge] * 9},
        )
        assert cli.main(["flow", win, "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert "state 0 left the class" in err
        assert "k=1 is not finite (block -4)" in err

    def test_header_records_options(self, tmp_path, capsys):
        args = ["flow", p1_window_file(tmp_path), "--steps", "3", "--eta", "0.5"]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert text.startswith("# gmpflow flow\n# options: ")
        assert "steps=3" in text and "eta=0.5" in text and "seed=none" in text

    def test_width_exhaustion_reports_max_steps(self, tmp_path, capsys):
        assert cli.main(["flow", p1_window_file(tmp_path), "--steps", "50"]) == 1
        err = capsys.readouterr().err
        assert "maximal feasible step count is 6" in err

    def test_bad_eta_rejected(self, tmp_path, capsys):
        args = ["flow", p1_window_file(tmp_path), "--steps", "2", "--eta", "1.5"]
        assert cli.main(args) == 1
        assert "eta" in capsys.readouterr().err


class TestKs:
    def test_magic_columns_vanish(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["ks", win, d, "--steps", "3"]) == 0
        text = capsys.readouterr().out
        cols = csv_columns(text)
        for name, vals in cols.items():
            if name == "n":
                continue
            assert max(abs(float(v)) for v in vals) < 1e-8, name
        assert text.rstrip().endswith("# diverging: none")

    def test_telescoping_residual_column(self, tmp_path, capsys):
        win = p1_window_file(tmp_path, n_blocks=31, j_min=-15)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["ks", win, d, "--steps", "5"]) == 0
        cols = csv_columns(capsys.readouterr().out)
        resid = [abs(float(v)) for v in cols["telescope_resid"]]
        assert len(resid) == 5
        assert max(resid) < 1e-8

    def test_drifting_window_is_flagged(self, tmp_path, capsys):
        blocks = [
            {"p": [math.sqrt(2.0) + 0.04 * j, 0.5], "q": [0.0, 0.0]}
            for j in range(-15, 16)
        ]
        win = write_json(
            tmp_path / "drift.json",
            {"g": 1, "C": [0.0], "j_min": -15, "blocks": blocks},
        )
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["ks", win, d, "--steps", "6"]) == 0
        footer = capsys.readouterr().out.rstrip().splitlines()[-1]
        assert footer.startswith("# diverging: ")
        assert footer != "# diverging: none"

    def test_pole_order_of_map_is_irrelevant(self, tmp_path):
        # the map is put into the window's pole order before any per-pole
        # column is computed, so a reversed map writes the same table
        d = delta_from_gaps(GapSet(-2.0, 2.0, ((-1.2, -0.4), (0.5, 1.1))))
        seed = GmpBlock([0.4, 0.4, 1.0 / d.lambda0], [0.0, 0.0, 0.0])
        w = make_perturbed_window(solve_is_point(d, seed).block, d.cs())
        win = write_json(tmp_path / "twogap.json", w.to_json())
        maps = {
            "map": d.to_json(),
            "reversed": DeltaData(d.lambda0, d.c0, d.poles[::-1]).to_json(),
        }
        for name, data in maps.items():
            args = ["ks", win, write_json(tmp_path / f"{name}.json", data)]
            args += ["--steps", "4", "--out", str(tmp_path / f"{name}.csv")]
            assert cli.main(args) == 0
        got = (tmp_path / "reversed.csv").read_bytes()
        assert got == (tmp_path / "map.csv").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        win = p1_window_file(tmp_path)
        d = estar_delta_file(tmp_path)
        out1, out2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
        for out in (out1, out2):
            args = ["ks", win, d, "--steps", "3", "--out", str(out)]
            assert cli.main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestIsoSolve:
    def test_projects_seed_onto_surface(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(
            tmp_path / "seed.json", {"p": [1.43, 0.5], "q": [0.02, -0.01]}
        )
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_residual"] < 1e-9
        assert data["block"]["p"][1] == pytest.approx(0.5, abs=1e-12)
        assert len(data["residual"]) == 2 + 1

    def test_far_seed_rejected(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(
            tmp_path / "seed.json", {"p": [9.0, 0.5], "q": [3.0, -2.0]}
        )
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 1
        assert "residual" in capsys.readouterr().err

    def test_malformed_block_rejected(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(tmp_path / "seed.json", {"p": [1.4, 0.5]})
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 1
        assert "malformed block data" in capsys.readouterr().err


class TestConversions:
    def test_jacobi2gmp_recovers_magic_blocks(self, tmp_path, capsys):
        win = period2_jacobi_file(tmp_path)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["jacobi2gmp", win, d, "--width", "4"]) == 0
        w = GmpWindow.from_json(json.loads(capsys.readouterr().out))
        assert w.n_blocks == 4
        for j in range(w.j_min, w.j_max + 1):
            blk = w.block(j)
            assert blk.p == pytest.approx([math.sqrt(2.0), 0.5], abs=1e-10)
            assert blk.q == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_gmp2jacobi_reads_off_coefficients(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        assert cli.main(["gmp2jacobi", win]) == 0
        J = JacobiWindow.from_json(json.loads(capsys.readouterr().out))
        assert J.size == 15
        interior = [J.a_at(n) for n in range(J.n_min + 1, J.n_max + 1)]
        assert interior == pytest.approx(
            [1.5 if n % 2 == 0 else 0.5 for n in range(J.n_min + 1, J.n_max + 1)],
            abs=1e-12,
        )

    def test_roundtrip_through_files(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        d = estar_delta_file(tmp_path)
        jpath = tmp_path / "j.json"
        assert cli.main(["gmp2jacobi", win, "--out", str(jpath)]) == 0
        data = json.loads(jpath.read_text())
        ns = np.arange(-107, 107)
        a = np.where(ns % 2 == 0, 1.5, 0.5)
        wide = write_json(
            tmp_path / "wide.json",
            {"n_min": -107, "a": a.tolist(), "b": [0.0] * ns.size},
        )
        capsys.readouterr()
        assert cli.main(["jacobi2gmp", wide, d, "--width", "3"]) == 0
        w = GmpWindow.from_json(json.loads(capsys.readouterr().out))
        src = GmpWindow.from_json(json.loads((tmp_path / "p1window.json").read_text()))
        for j in range(w.j_min, w.j_max + 1):
            assert w.block(j).p == pytest.approx(src.block(0).p, abs=1e-10)


class TestSelftest:
    def test_fresh_build_passes(self, tmp_path, capsys):
        t0 = time.perf_counter()
        code = cli.main(["selftest"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 120.0
        lines = out.rstrip().splitlines()
        assert lines[0] == "gmpflow selftest (seed: default)"
        assert lines[-1] == "11 of 11 criteria passed"
        assert sum(1 for ln in lines if ": PASS" in ln) == 11

    def test_seed_recorded_in_header(self, capsys):
        assert cli.main(["selftest", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "gmpflow selftest (seed: 5)"

    def test_rotation_sign_bug_fails_flow_identity(self, capsys, monkeypatch):
        import gmpflow.flow as flow

        orig = flow.rotation_o
        monkeypatch.setattr(flow, "rotation_o", lambda phi: orig(-phi))
        code = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        line = next(ln for ln in out.splitlines() if "flow orbit" in ln)
        assert "FAIL" in line
        assert "flow identity residual" in line


class TestHarness:
    def test_numerical_errors_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(w):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli, "gmp_to_jacobi_measure", boom)
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 2
        assert "numerical error: synthetic breakdown" in capsys.readouterr().err

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["flow"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_env_var_raises_verbosity(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GMPFLOW_LOG", "info")
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "INFO gmpflow.cli" in err

    def test_default_logging_is_quiet(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GMPFLOW_LOG", raising=False)
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 0
        assert "INFO" not in capsys.readouterr().err
