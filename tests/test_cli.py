"""End-to-end checks of the command line front end.

Every subcommand runs in process through ``main`` with JSON files in a
temporary directory, so exit codes, streams and output bytes are all
observable.
"""

import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_estar_gapset,
    make_p1_block,
    make_p1_window,
    make_perturbed_window,
    roundtrip_inputs,
    sum_rule_window,
)
from oracles import sum_rule_spectral_side

from gmpflow import cli, flow, isospectral, ks, numkit
from gmpflow.errors import NumericalError
from gmpflow.finitegap import DeltaData, GapSet, delta_from_gaps
from gmpflow.flow import flow_run
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense
from gmpflow.isospectral import solve_is_point
from gmpflow.jacobi import JacobiWindow, dist_eta


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


def flow_never_runs(*args, **kwargs):
    """Stands in for ``flow_run`` or ``flow_states`` where an option must
    be refused first."""
    raise AssertionError("the flow ran before its options were checked")


def twogap_window(half: int = 20) -> tuple[DeltaData, GmpWindow]:
    """Comb map of a two-gap set and a window of 2*half+1 blocks around
    its surface block, perturbed away from block 0."""
    d = delta_from_gaps(GapSet(-2.0, 2.0, ((-1.2, -0.4), (0.5, 1.1))))
    seed = GmpBlock([0.4, 0.4, 1.0 / d.lambda0], [0.0, 0.0, 0.0])
    return d, make_perturbed_window(solve_is_point(d, seed).block, d.cs(), half=half)


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


def reference_flow_table(w: GmpWindow, steps: int, eta: float) -> list[str]:
    """Header and rows of ``flow``'s table spelled as one header list and
    one row loop over the steps, independent of ``cmd_flow``'s columns."""
    g = w.g
    traj = flow_run(w, steps)
    header = ["n", "a", "b"]
    header.extend(f"lambda_{k}" for k in range(1, g + 1))
    header.extend(f"validity_min_{k}" for k in range(1, g + 1))
    header.append("shift_dist_eta")
    per, n_a, n_b = g + 1, traj.a_out.size, traj.b_out.size
    rows = []
    for n in range(steps):
        row = [str(n), cli._fmt(traj.a_out[n]), cli._fmt(traj.b_out[n])]
        row.extend(cli._fmt(v) for v in traj.lambdas[n])
        row.extend(cli._fmt(v) for v in traj.validity_min[n])
        da = dist_eta(traj.a_out[n : max(n, n_a - per)], traj.a_out[n + per :], eta)
        db = dist_eta(traj.b_out[n : max(n, n_b - per)], traj.b_out[n + per :], eta)
        row.append(cli._fmt(math.hypot(da, db)))
        rows.append(row)
    return [",".join(line) for line in [header, *rows]]


def reference_ks_table(w: GmpWindow, d: DeltaData, steps: int, margin: int) -> list[str]:
    """Header and rows of ``ks``'s table spelled as one header list and one
    row loop over the steps, independent of ``cmd_ks``'s columns."""
    states, run = ks.map_run(w, d, steps, margin)
    rep = ks.telescoping_check(run)["report"]
    diag = ks.ks_diagnostics(states, d, ks.DIVERGENCE_SLOPE)
    drop_partials = np.cumsum(rep.step_drops)
    j_top = min(db.j_hi for db in run)
    header = ["n", "h_origin", f"hplus_rows_0_to_{j_top}", "delta_jh", "drop_partial",
              "telescope_resid"]
    for name, arr in diag.values.items():
        if arr.ndim == 2:
            header.extend(f"{name}_{k}" for k in range(1, arr.shape[1] + 1))
        else:
            header.append(name)
        header.append(f"{name}_sqsum")
    rows = []
    for n in range(steps):
        row = [str(n)] + [cli._fmt(v) for v in (
            rep.h_origin[n], np.cumsum(rep.terms(n, 0, j_top))[-1], rep.step_drops[n],
            drop_partials[n], rep.residuals[n])]
        for name, arr in diag.values.items():
            sq = diag.sq_partials[name]
            if arr.ndim == 2:
                row.extend(cli._fmt(v) for v in arr[n])
                row.append(cli._fmt(float(np.sum(sq[n]))))
            else:
                row.extend([cli._fmt(arr[n]), cli._fmt(sq[n])])
        rows.append(row)
    return [",".join(line) for line in [header, *rows]]


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

    def test_integer_past_the_digit_limit_is_refused(self, tmp_path, capsys):
        # json.load refuses it with a bare ValueError, not a JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text('{"b0": %s, "a0": 2.0, "gaps": []}' % ("1" * 5000), encoding="utf-8")
        assert cli.main(["delta", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {path} holds an integer of more than 4300 digits\n")

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

    def test_tails_shorter_than_a_block_have_no_shift_to_compare(self, tmp_path, capsys):
        # at g = 2 the shift moves the readout by 3 entries, past the 3 a's
        # and 2 b's of two steps: every row compares two empty tails
        d, w = twogap_window()
        assert cli.main(["flow", write_json(tmp_path / "w.json", w.to_json()), "--steps", "2"]) == 0
        assert csv_columns(capsys.readouterr().out)["shift_dist_eta"] == ["0", "0"]

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

    def test_non_finite_pair_functional_leaves_the_class(self, tmp_path, capsys):
        huge = {"p": [1e154, 1.0], "q": [1e154, -0.5]}
        win = write_json(
            tmp_path / "huge.json",
            {"g": 1, "C": [0.0], "j_min": -4, "blocks": [huge] * 9},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["flow", win, "--steps", "2"]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "state 0 left the class" in err
        assert "k=1 (block -4) inf" in err
        assert err == (
            "validation error: state 0 left the class: "
            "pair functional at k=1 (block -4) inf is not finite\n"
        )

    def test_per_pole_columns_print_the_trajectory_arrays(self, tmp_path, capsys):
        d, w = twogap_window()
        win = write_json(tmp_path / "twogap.json", w.to_json())
        assert cli.main(["flow", win, "--steps", "4"]) == 0
        cols = csv_columns(capsys.readouterr().out)
        traj = flow_run(w, 4)
        for k in (1, 2):
            assert cols[f"lambda_{k}"] == [cli._fmt(v) for v in traj.lambdas[:4, k - 1]]
            assert cols[f"validity_min_{k}"] == [
                cli._fmt(v) for v in traj.validity_min[:4, k - 1]
            ]

    def test_tol_equal_to_the_smallest_functional_is_refused(self, tmp_path, capsys):
        # the class floor is strict: a run whose smallest pair functional
        # equals --tol leaves the class, one double less lets it pass
        d, w = twogap_window()
        win = write_json(tmp_path / "twogap.json", w.to_json())
        minima = flow_run(w, 4).validity_min.min(1)
        n, tie = int(np.argmin(minima)), float(minima.min())
        assert cli.main(["flow", win, "--steps", "4", "--tol", cli._fmt(tie)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: state {n} left the class: pair functional at k=")
        assert err.endswith(f" {tie:.3e} is below {np.nextafter(tie, np.inf):.3e}\n")
        below = cli._fmt(np.nextafter(tie, -np.inf))
        assert cli.main(["flow", win, "--steps", "4", "--tol", below]) == 0

    def test_header_records_options(self, tmp_path, capsys):
        args = ["flow", p1_window_file(tmp_path), "--steps", "3", "--eta", "0.5"]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert text.startswith("# gmpflow flow\n# options: ")
        assert "steps=3" in text and "eta=0.5" in text and "seed=none" in text

    def test_width_exhaustion_reports_max_steps(self, tmp_path, capsys):
        assert cli.main(["flow", p1_window_file(tmp_path), "--steps", "50"]) == 1
        assert capsys.readouterr().err == (
            "validation error: window [-7, 7] is exhausted by 50 step(s); "
            "the maximal feasible step count is 6\n"
        )

    @pytest.mark.parametrize("j_min", [2, -20])
    def test_window_without_core_blocks_is_refused(self, tmp_path, capsys, j_min):
        # the readout needs blocks -1..1 at every step; no negative step count
        assert cli.main(["flow", p1_window_file(tmp_path, 3, j_min), "--steps", "1"]) == 1
        assert capsys.readouterr().err == (
            f"validation error: window [{j_min}, {j_min + 2}] lacks the readout's blocks -1..1\n"
        )

    def test_zero_steps_rejected(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        assert cli.main(["flow", win, "--steps", "0"]) == 1
        assert capsys.readouterr() == ("", "validation error: n_steps must be at least 1\n")

    def test_genus_zero_window(self, tmp_path, capsys):
        # p = (1), q = (0): the free Jacobi matrix, a = 1 and b = 0 at every step
        blocks = [{"p": [1.0], "q": [0.0]}] * 41
        win = write_json(tmp_path / "g0.json", {"C": [], "j_min": -20, "blocks": blocks})
        assert cli.main(["flow", win, "--steps", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "n,a,b,shift_dist_eta"
        assert lines[3:] == [f"{n},1,0,0" for n in range(8)]

    def test_bad_eta_rejected(self, tmp_path, capsys):
        args = ["flow", p1_window_file(tmp_path), "--steps", "2", "--eta", "1.5"]
        assert cli.main(args) == 1
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["1.5", "0", "1", "nan", "-0.1"])
    def test_bad_eta_refused_before_the_flow(self, tmp_path, capsys, monkeypatch, eta):
        monkeypatch.setattr(cli, "flow_run", flow_never_runs)
        args = ["flow", p1_window_file(tmp_path), "--steps", "2", "--eta", eta]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"validation error: eta must lie in (0, 1), got {float(eta)}\n"
        )


class TestKs:
    @pytest.mark.parametrize("margin", ["2", "0", "-1"])
    def test_bad_margin_refused_before_the_flow(self, tmp_path, capsys, monkeypatch, margin):
        monkeypatch.setattr(ks, "flow_states", flow_never_runs)
        win, d = p1_window_file(tmp_path), estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["ks", win, d, "--steps", "2", "--margin", margin]) == 1
        assert capsys.readouterr().err == (
            "validation error: margin below 3 cannot clear the wrap seam\n"
        )

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

    KS_HEADERS = {
        1: [
            "n", "h_origin", "hplus_rows_0_to_1", "delta_jh", "drop_partial",
            "telescope_resid", "p_next_1", "p_next_sqsum", "p_prev_1",
            "p_prev_sqsum", "q_next_1", "q_next_sqsum", "q_prev_1", "q_prev_sqsum",
            "trailing_p", "trailing_p_sqsum", "pairing", "pairing_sqsum",
            "lambda_gap_1", "lambda_gap_sqsum",
        ],
        2: [
            "n", "h_origin", "hplus_rows_0_to_13", "delta_jh", "drop_partial",
            "telescope_resid", "p_next_1", "p_next_2", "p_next_sqsum", "p_prev_1",
            "p_prev_2", "p_prev_sqsum", "q_next_1", "q_next_2", "q_next_sqsum",
            "q_prev_1", "q_prev_2", "q_prev_sqsum", "trailing_p", "trailing_p_sqsum",
            "pairing", "pairing_sqsum", "lambda_gap_1", "lambda_gap_2",
            "lambda_gap_sqsum",
        ],
    }

    @pytest.mark.parametrize("g", [1, 2])
    def test_header_names_every_family_in_order(self, tmp_path, capsys, g):
        if g == 1:
            win, cmap, steps = p1_window_file(tmp_path), estar_delta_file(tmp_path), "3"
        else:
            d, w = twogap_window()
            win = write_json(tmp_path / "twogap.json", w.to_json())
            cmap, steps = write_json(tmp_path / "map.json", d.to_json()), "4"
        capsys.readouterr()
        assert cli.main(["ks", win, cmap, "--steps", steps]) == 0
        header = capsys.readouterr().out.splitlines()[2]
        assert header.split(",") == self.KS_HEADERS[g]

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
        d, w = twogap_window()
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

    @pytest.mark.parametrize("rel", [3e-6, 1e-9])
    def test_map_with_nearby_poles_rejected(self, tmp_path, capsys, rel):
        # within np.allclose's default rtol these poles used to pass: at
        # 3e-6 the mapped operator lost its band structure (exit 2), at
        # 1e-9 the table was written for the wrong map (exit 0)
        d, w = twogap_window()
        moved = DeltaData(d.lambda0, d.c0, [(c * (1 + rel), lam) for c, lam in d.poles])
        win = write_json(tmp_path / "twogap.json", w.to_json())
        cmap = write_json(tmp_path / "moved.json", moved.to_json())
        capsys.readouterr()
        assert cli.main(["ks", win, cmap, "--steps", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"validation error: window poles differ from the map poles by "
                            r"\d\.\d{3}e-\d\d exceeds 1\.000e-12\n", err)

    def test_each_state_is_mapped_once(self, tmp_path, monkeypatch):
        # 9 states of the run: one delta_of_gmp call maps states 0 and 8,
        # and states 1..8 are each carried once from the state before; the
        # shift comparison reads the same mapped blocks
        mapped, carried = [], []
        honest_delta, honest_carry = ks.delta_of_gmp, ks.carry_blocks

        def delta(states, *args):
            mapped.append([st.j_min for st in states])
            return honest_delta(states, *args)

        def carry(window, *args):
            carried.append(window.j_min)
            return honest_carry(window, *args)

        monkeypatch.setattr(ks, "delta_of_gmp", delta)
        monkeypatch.setattr(ks, "carry_blocks", carry)
        d, w = twogap_window()
        assert w.n_blocks == 41
        args = ["ks", write_json(tmp_path / "w.json", w.to_json())]
        args += [write_json(tmp_path / "d.json", d.to_json()), "--steps", "8"]
        assert cli.main(args + ["--out", str(tmp_path / "ks.csv")]) == 0
        assert mapped == [[-20, -12]]
        assert carried == list(range(-20, -12))

    def test_each_step_builds_its_rotations_once(self, tmp_path, monkeypatch):
        # the flow step's u_block call, and no other: the carry conjugates
        # by the rotations of the step that made its state
        calls = []
        honest = flow.u_block

        def counting(p, tails=None):
            calls.append(np.shape(p))
            return honest(p, tails)

        monkeypatch.setattr(flow, "u_block", counting)
        d, w = twogap_window()
        args = ["ks", write_json(tmp_path / "w.json", w.to_json())]
        args += [write_json(tmp_path / "d.json", d.to_json()), "--steps", "8"]
        assert cli.main(args + ["--out", str(tmp_path / "ks.csv")]) == 0
        assert calls == [(39 - 2 * n, 3) for n in range(8)]
        assert not hasattr(ks, "u_block")

    def test_eight_steps_make_two_eigensolves(self, tmp_path, monkeypatch):
        # the ends of the run, states 0 and 8, and no other
        calls = []
        orig = numkit.sym_eigen

        def counting(mat):
            calls.append(mat.shape)
            return orig(mat)

        monkeypatch.setattr(numkit, "sym_eigen", counting)
        d, w = twogap_window()
        args = ["ks", write_json(tmp_path / "w.json", w.to_json())]
        args += [write_json(tmp_path / "d.json", d.to_json()), "--steps", "8"]
        assert cli.main(args + ["--out", str(tmp_path / "ks.csv")]) == 0
        assert calls == [(123, 123), (75, 75)]

    def test_entropy_terms_come_from_one_call(self, tmp_path, monkeypatch):
        # every row term of every state, for the table and the telescoping
        # residuals alike, comes from one stacked h_term call
        calls = []
        orig = ks.h_term

        def counting(*blocks):
            calls.append(np.shape(blocks[0]))
            return orig(*blocks)

        monkeypatch.setattr(ks, "h_term", counting)
        d, w = twogap_window()
        args = ["ks", write_json(tmp_path / "w.json", w.to_json())]
        args += [write_json(tmp_path / "d.json", d.to_json()), "--steps", "8"]
        assert cli.main(args + ["--out", str(tmp_path / "ks.csv")]) == 0
        assert len(calls) == 1

    def test_narrowest_window_for_eight_steps(self, tmp_path, capsys):
        # state 8 of blocks -12..11 spans -4..3, whose trusted rows with
        # margin 3 are exactly -1..0
        d, w = twogap_window(half=12)
        dpath = write_json(tmp_path / "d.json", d.to_json())
        cases = {
            (-12, 11): None,
            (-11, 11): "state 8 trusted range [0, 0] misses blocks -1..0",
            (-12, 10): "state 8 trusted range [-1, -1] misses blocks -1..0",
            (-8, 11): "window [-8, 11] is exhausted by 8 step(s); "
            "the maximal feasible step count is 7",
        }
        for (lo, hi), message in cases.items():
            rows = slice(lo + 12, hi + 13)
            sub = GmpWindow(w.P[rows], w.Q[rows], w.c, lo)
            win = write_json(tmp_path / "w.json", sub.to_json())
            code = cli.main(["ks", win, dpath, "--steps", "8"])
            err = capsys.readouterr().err
            if message is None:
                assert (code, err) == (0, "")
            else:
                assert (code, err) == (1, f"validation error: {message}\n")

    @pytest.mark.parametrize("seed", range(3))
    def test_genus_zero_window(self, tmp_path, capsys, seed):
        # the Killip-Simon case: a gap-free map and a random 41-block window
        rng = np.random.default_rng(seed)
        w = GmpWindow(rng.uniform(0.5, 1.5, (41, 1)), rng.uniform(-0.5, 0.5, (41, 1)), (), -20)
        win = write_json(tmp_path / "g0.json", w.to_json())
        d = write_json(tmp_path / "g0map.json", {"lambda0": 1.0, "c0": 0.0, "poles": []})
        assert cli.main(["ks", win, d, "--steps", "8"]) == 0
        cols = csv_columns(capsys.readouterr().out)
        assert cols["n"] == [str(n) for n in range(8)]
        assert max(abs(float(v)) for v in cols["telescope_resid"]) <= 1e-15

    def test_genus_zero_entropy_is_the_sum_rule(self, tmp_path, capsys):
        # rows 0..j_top hold every row off the free pattern, so half the
        # printed entropy is the Killip-Simon sum rule's spectral side
        w = sum_rule_window(np.random.default_rng(3))
        win = write_json(tmp_path / "g0.json", w.to_json())
        d = write_json(tmp_path / "g0map.json", {"lambda0": 1.0, "c0": 0.0, "poles": []})
        assert cli.main(["ks", win, d, "--steps", "1"]) == 0
        (entropy,) = csv_columns(capsys.readouterr().out)["hplus_rows_0_to_32"]
        mat = assemble_dense(w)
        spectral = sum_rule_spectral_side(np.diag(mat, 1), np.diag(mat))
        assert abs(float(entropy) / 2 - spectral) <= 1e-12

    def test_single_step_has_no_telescoping(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["ks", win, d, "--steps", "1"]) == 0
        assert csv_columns(capsys.readouterr().out)["telescope_resid"] == ["0"]

    def test_reruns_are_byte_identical(self, tmp_path):
        win = p1_window_file(tmp_path)
        d = estar_delta_file(tmp_path)
        out1, out2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
        for out in (out1, out2):
            args = ["ks", win, d, "--steps", "3", "--out", str(out)]
            assert cli.main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestTables:
    """Each table's columns against its header list and row loop, byte for
    byte, on 41-block windows of the round-trip inputs."""

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_columns_match_header_and_row_loop(self, tmp_path, g):
        d, w = roundtrip_inputs(g, 41)
        win = write_json(tmp_path / "window.json", w.to_json())
        cmap = write_json(tmp_path / "map.json", d.to_json())
        flow_csv, ks_csv = tmp_path / "flow.csv", tmp_path / "ks.csv"
        assert cli.main(["flow", win, "--steps", "6", "--out", str(flow_csv)]) == 0
        assert cli.main(["ks", win, cmap, "--steps", "8", "--out", str(ks_csv)]) == 0
        flow_lines = flow_csv.read_text().splitlines()
        assert flow_lines[2:] == reference_flow_table(w, 6, 0.9)
        ks_lines = ks_csv.read_text().splitlines()
        assert ks_lines[2:-1] == reference_ks_table(w, d, 8, 3)
        assert ks_lines[-1].startswith("# diverging: ")


class TestTolerance:
    """``--tol`` must be finite and nonnegative: nan turned the divergence
    check off and let a nan floor fail with a misleading comparison, and a
    negative value flagged every family or let nonpositive pair
    functionals through the validity floor."""

    @pytest.mark.parametrize(
        "command, value",
        [("ks", "nan"), ("ks", "-1"), ("flow", "-1"), ("flow", "nan"), ("flow", "abc"),
         ("ks", "abc")],
        ids=["ks-nan", "ks-negative", "flow-negative", "flow-nan", "flow-text", "ks-text"],
    )
    def test_rejected_with_its_name(self, tmp_path, capsys, command, value):
        argv = [command, p1_window_file(tmp_path)]
        if command == "ks":
            argv.append(estar_delta_file(tmp_path))
        capsys.readouterr()
        out = tmp_path / "unwritten.csv"
        assert cli.main(argv + ["--steps", "2", "--tol", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"validation error: argument --tol: must be finite and >= 0, "
            f"got '{value}'\n"
        )
        assert not out.exists()

    def test_zero_is_accepted(self, tmp_path, capsys):
        win = p1_window_file(tmp_path)
        assert cli.main(["flow", win, "--steps", "2", "--tol", "0"]) == 0
        assert "tol=0 " in capsys.readouterr().out


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

    def test_solved_residual_is_not_recomputed(self, tmp_path, monkeypatch):
        d = estar_delta_file(tmp_path)
        seed = write_json(tmp_path / "seed.json", {"p": [1.43, 0.5], "q": [0.02, -0.01]})
        solved, late_calls = [], []
        is_residual = isospectral.is_residual

        def solve(*args):
            pt = solve_is_point(*args)
            solved.append(pt)
            return pt

        def residual(*args):
            late_calls.extend(solved)
            return is_residual(*args)

        monkeypatch.setattr(cli, "solve_is_point", solve)
        monkeypatch.setattr(isospectral, "is_residual", residual)
        assert cli.main(["iso-solve", d, seed, "--out", str(tmp_path / "pt.json")]) == 0
        assert len(solved) == 1
        assert late_calls == []

    def test_far_seed_rejected(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(
            tmp_path / "seed.json", {"p": [9.0, 0.5], "q": [3.0, -2.0]}
        )
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 1
        assert "residual" in capsys.readouterr().err

    def test_non_finite_seed_residual_rejected(self, tmp_path, capsys):
        cmap = write_json(
            tmp_path / "map.json",
            {"lambda0": 1, "c0": 0, "poles": [{"c": 0, "lambda": 1}]},
        )
        # entries below the square limit whose residual overflows
        seed = write_json(
            tmp_path / "seed.json", {"p": [1e150, 1.0], "q": [1e150, -1e150]}
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["iso-solve", cmap, seed]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "validation error: seed residual inf too large; "
            "start closer to the surface\n"
        )

    @pytest.mark.parametrize("p, q, entry", [
        ([1e200, 1.0], [1e200, -1e200], "p[0] = 1e+200"),
        ([1.0, 1.0], [1.0, -1e200], "q[1] = -1e+200"),
    ])
    def test_seed_entry_too_large_to_square_rejected(self, tmp_path, capsys, p, q, entry):
        # as in every other input; the last p entry is pinned, not read
        cmap = write_json(
            tmp_path / "map.json",
            {"lambda0": 1, "c0": 0, "poles": [{"c": 0, "lambda": 1}]},
        )
        seed = write_json(tmp_path / "seed.json", {"p": p, "q": q})
        assert cli.main(["iso-solve", cmap, seed]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {entry} is too large: its square overflows\n"
        )

    def test_pinned_entry_needs_only_to_be_finite(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(tmp_path / "seed.json", {"p": [1.43, 1e308], "q": [0.02, -0.01]})
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 0
        assert json.loads(capsys.readouterr().out)["block"]["p"][1] == 0.5
        seed = write_json(tmp_path / "seed.json", {"p": [1.43, math.inf], "q": [0.02, -0.01]})
        assert cli.main(["iso-solve", d, seed]) == 1
        assert capsys.readouterr().err == "validation error: p[1] = inf is infinite\n"

    @pytest.mark.parametrize("p, q, err", [
        ([1e200, 1.0], [math.nan, 0.0], "p[0] = 1e+200 is too large: its square overflows"),
        ([1e200, math.inf], [0.1, 0.0], "p[0] = 1e+200 is too large: its square overflows"),
        ([1.4, math.nan], [1e200, 0.0], "p[1] = nan is not a number"),
        ([1.4, -1.0], [1e200, 0.0], "q[0] = 1e+200 is too large: its square overflows"),
        ([[1.43, 0.5]], [[0.02, -0.01]], "p[0] = [1.43, 0.5] is not a number"),
    ], ids=["nan-after-huge", "inf-pinned-after-huge", "nan-pinned", "sign-after-huge", "stack"])
    def test_first_bad_seed_entry_in_file_order_is_named(self, tmp_path, capsys, p, q, err):
        # p[:-1] and q must be small enough to square, the pinned p_g only
        # finite, and then positive; a seed is one block
        d = estar_delta_file(tmp_path)
        seed = write_json(tmp_path / "seed.json", {"p": p, "q": q})
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 1
        assert capsys.readouterr().err == f"validation error: {err}\n"

    def test_malformed_block_rejected(self, tmp_path, capsys):
        d = estar_delta_file(tmp_path)
        seed = write_json(tmp_path / "seed.json", {"p": [1.4, 0.5]})
        capsys.readouterr()
        assert cli.main(["iso-solve", d, seed]) == 1
        assert capsys.readouterr().err == "validation error: q is missing\n"


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

    def test_width_the_window_cannot_carry_is_refused(self, tmp_path, capsys):
        # 41 blocks read off the 241-block round trip's coefficients would be
        # off by 0.64; the first flag vector to reach the window's ends is named
        d, w = roundtrip_inputs(1, 241)
        window = write_json(tmp_path / "w.json", w.to_json())
        cmap = write_json(tmp_path / "map.json", d.to_json())
        coefficients = str(tmp_path / "J.json")
        assert cli.main(["gmp2jacobi", window, "--out", coefficients]) == 0
        assert cli.main(["jacobi2gmp", coefficients, cmap, "--width", "41"]) == 1
        assert capsys.readouterr() == ("", (
            "validation error: window too short for the flag vector at block 8 slot 0: "
            "end weight 3.706e-07 exceeds 2.000e-07\n"))

    def test_starting_vector_check_is_reachable(self, tmp_path, capsys):
        # block 0's p in the subnormal range keeps too few bits for p0 / a0
        # to be a unit vector
        data = make_p1_window(9, -4).to_json()
        data["blocks"][4]["p"] = [1.3e-318, 0.7e-318]
        window = write_json(tmp_path / "tiny.json", data)
        assert cli.main(["gmp2jacobi", window]) == 2
        assert capsys.readouterr() == ("", (
            "numerical error: starting vector norm deviates from 1 by 1.311e-06 "
            "exceeds 1.000e-12\n"))

    @pytest.mark.parametrize("site", [0, 1], ids=["stored-bond", "inner-bond"])
    def test_overflowing_coefficients_rejected(self, tmp_path, capsys, site):
        data = json.loads(Path(period2_jacobi_file(tmp_path)).read_text())
        data["a"][site] = 1e308
        win = write_json(tmp_path / "huge.json", data)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["jacobi2gmp", win, d, "--width", "3"]) == 1
        assert capsys.readouterr() == (
            "", f"validation error: a[{site}] = 1e+308 is too large: its square overflows\n"
        )

    def test_overflowing_spectral_diameter_rejected(self, tmp_path, capsys):
        # a spectral diameter of about 2e308 is out of reach: every
        # coefficient must be small enough to square
        data = json.loads(Path(period2_jacobi_file(tmp_path)).read_text())
        data["b"][0], data["b"][-1] = -1e308, 1e308
        win = write_json(tmp_path / "huge.json", data)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["jacobi2gmp", win, d, "--width", "3"]) == 1
        assert capsys.readouterr() == (
            "", "validation error: b[0] = -1e+308 is too large: its square overflows\n"
        )

    @pytest.mark.parametrize(
        "field, literal, message",
        [
            ("c0", "NaN", "c0 = nan is not a number"),
            ("lambda0", "NaN", "lambda0 = nan is not a number"),
            ("lambda", "Infinity", "poles[0].lambda = inf is infinite"),
            ("c", "Infinity", "poles[0].c = inf is infinite"),
        ],
        ids=["c0-nan", "lambda0-nan", "lambda-inf", "c-inf"],
    )
    def test_non_finite_map_rejected(self, tmp_path, capsys, field, literal, message):
        entries = {"lambda0": "1.0", "c0": "0.0", "c": "0.0", "lambda": "1.0"}
        entries[field] = literal
        cmap = tmp_path / "map.json"
        cmap.write_text(
            '{"lambda0": %(lambda0)s, "c0": %(c0)s, '
            '"poles": [{"c": %(c)s, "lambda": %(lambda)s}]}\n' % entries
        )
        win = period2_jacobi_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["jacobi2gmp", win, str(cmap), "--width", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize(
        "second, message",
        [(0.0, "poles at 0.0 and 0.0 coincide"),
         (1e-13, "poles at 0.0 and 1e-13 coincide")],
        ids=["equal", "1e-13-apart"],
    )
    @pytest.mark.parametrize("command", ["jacobi2gmp", "iso-solve"])
    def test_coincident_poles_rejected(self, tmp_path, capsys, command, second, message):
        poles = [{"c": 0.0, "lambda": 1.0}, {"c": second, "lambda": 1.0}]
        cmap = write_json(tmp_path / "map.json", {"lambda0": 1.0, "c0": 0.0, "poles": poles})
        if command == "jacobi2gmp":
            argv = ["jacobi2gmp", period2_jacobi_file(tmp_path), cmap, "--width", "3"]
        else:
            seed = {"p": [0.5, 0.5, 1.0], "q": [0.0, 0.0, 0.0]}
            argv = ["iso-solve", cmap, write_json(tmp_path / "seed.json", seed)]
        capsys.readouterr()
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("command", ["flow", "gmp2jacobi"])
    def test_window_with_coincident_poles_rejected(self, tmp_path, capsys, command):
        blk = {"p": [0.5, 0.5, 1.0], "q": [0.0, 0.0, 0.0]}
        win = write_json(
            tmp_path / "w.json", {"g": 2, "C": [0.0, 0.0], "j_min": -7, "blocks": [blk] * 15}
        )
        capsys.readouterr()
        assert cli.main([command, win]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "validation error: poles at 0.0 and 0.0 coincide\n"

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([{"p": [1.0, 1.0], "q": [0.0, 0.0]}, {"p": [1.0, 1.0, 1.0], "q": [0.0, 0.0, 0.0]}],
             "blocks[1].p has 3 entries, not 2"),
            ([{"p": [1.0, 1.0], "q": [0.0]}], "P and Q must be 2-d arrays of equal shape"),
            ([{"p": [[1.0, 1.0]], "q": [[0.0, 0.0]]}], "blocks[0].p[0] = [1.0, 1.0] is not a number"),
            ([{"p": [], "q": []}], "p and q must be nonempty vectors of equal length"),
        ],
        ids=["ragged-gap-counts", "p-q-length-mismatch", "nested-rows", "empty-rows"],
    )
    @pytest.mark.parametrize("command", ["flow", "gmp2jacobi"])
    def test_malformed_window_shape_rejected(self, tmp_path, capsys, command, blocks, message):
        data = {"g": 1, "C": [0.0], "j_min": -7, "blocks": blocks * 15}
        capsys.readouterr()
        assert cli.main([command, write_json(tmp_path / "w.json", data)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"validation error: {message}\n"

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

    def test_vanishing_crossing_bond_names_the_converted_window(self, tmp_path, capsys):
        # block 0's q grows like 1 / a(0): at a(0) = 1e-200 the converted
        # blocks overflow when squared, and the refusal says whose they are
        blk = GmpBlock([math.sqrt(2.0), 0.5], [0.0, 0.0])
        w = make_perturbed_window(blk, [0.0], half=111)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        jpath = tmp_path / "j.json"
        assert cli.main(["gmp2jacobi", write_json(tmp_path / "w.json", w.to_json()),
                         "--out", str(jpath)]) == 0
        data = json.loads(jpath.read_text())
        data["a"][-data["n_min"]] = 1e-200
        win = write_json(tmp_path / "tiny-bond.json", data)
        d = estar_delta_file(tmp_path)
        capsys.readouterr()
        assert cli.main(["jacobi2gmp", win, d, "--width", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"validation error: converted window: blocks\[\d+\]\.[pq]\[\d+\] = "
                            r"-?\d\.\d+e\+19\d is too large: its square overflows "
                            r"\(crossing bond a\(0\) = 1e-200\)\n", err), err

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

    def test_reruns_are_byte_identical_at_size(self, tmp_path):
        # BLAS on one thread, as reruns are specified; each run is a fresh
        # process so that the thread count is set before numpy loads
        blk = GmpBlock([math.sqrt(2.0), 0.5], [0.0, 0.0])
        w = make_perturbed_window(blk, [0.0], half=111)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        assert (w.n_blocks, w.j_min) == (222, -111)
        win = write_json(tmp_path / "wide.json", w.to_json())
        d = estar_delta_file(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        outputs = []
        for run in (1, 2):
            jpath, bpath = tmp_path / f"j{run}.json", tmp_path / f"b{run}.json"
            for args in (
                ["gmp2jacobi", win, "--out", str(jpath)],
                ["jacobi2gmp", str(jpath), d, "--width", "5", "--out", str(bpath)],
            ):
                cmd = [sys.executable, "-m", "gmpflow.cli", *args]
                assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
            outputs.append((jpath.read_bytes(), bpath.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0][1])["blocks"]) == 5


    def test_gmp2jacobi_is_independent_of_blas_threads(self, tmp_path):
        blk = GmpBlock([math.sqrt(2.0), 0.5], [0.0, 0.0])
        w = make_perturbed_window(blk, [0.0], half=213)
        w = GmpWindow(w.P[:-1], w.Q[:-1], w.c, w.j_min)
        assert w.n_blocks == 426
        win = write_json(tmp_path / "wide.json", w.to_json())
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out = tmp_path / f"j{threads}.json"
            cmd = [sys.executable, "-m", "gmpflow.cli", "gmp2jacobi", win, "--out", str(out)]
            assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["b"]) == 426


class TestWindowIndex:
    """Past 2**53 a JSON number names no one integer: such a window index
    is refused by its name in one short line, whatever its size."""

    SPELLED = {1e308: "1e+308", -1e308: "-1e+308", 2**53 + 2: "9007199254740994",
               -(10**400): "-10000000000... (402 characters)"}

    @pytest.mark.parametrize(
        "value", [1e308, -1e308, 2**53 + 2, pytest.param(-(10**400), id="-10**400")]
    )
    @pytest.mark.parametrize("command", ["flow", "ks", "gmp2jacobi", "jacobi2gmp"])
    def test_refused_by_name(self, tmp_path, capsys, command, value):
        if command == "jacobi2gmp":
            data = json.loads(Path(period2_jacobi_file(tmp_path)).read_text())
            field, argv = "n_min", [estar_delta_file(tmp_path)]
        else:
            data = json.loads(Path(p1_window_file(tmp_path)).read_text())
            field, argv = "j_min", [estar_delta_file(tmp_path)] if command == "ks" else []
        capsys.readouterr()
        win = write_json(tmp_path / "far.json", dict(data, **{field: value}))
        assert cli.main([command, win, *argv]) == 1
        assert capsys.readouterr().err == (
            f"validation error: {field} = {self.SPELLED[value]} "
            f"is not an integer of magnitude at most 2**53\n"
        )


class TestColdStart:
    def test_commands_without_a_scipy_call_do_not_import_it(self, tmp_path):
        d = delta_from_gaps(make_estar_gapset())
        files = {
            "gapset": make_estar_gapset().to_json(),
            "map": d.to_json(),
            "window": make_perturbed_window(make_p1_block(), d.cs(), half=10).to_json(),
            "seed": {"p": [1.43, 0.5], "q": [0.02, -0.01]},
        }
        path = {name: write_json(tmp_path / f"{name}.json", data)
                for name, data in files.items()}
        out = str(tmp_path / "out")
        argvs = [
            ["delta", path["gapset"], "--out", out],
            ["flow", path["window"], "--steps", "2", "--out", out],
            ["ks", path["window"], path["map"], "--steps", "2", "--out", out],
            ["iso-solve", path["map"], path["seed"], "--out", out],
            ["gmp2jacobi", path["window"], "--out", out],
        ]
        script = (
            "import json, sys\n"
            "from gmpflow import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(argvs), proc.stderr
        assert not scipy_loaded


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

    def test_negative_seed_rejected_before_any_criterion(self, capsys, monkeypatch):
        from gmpflow import acceptance

        def never(*args):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(acceptance, "run_criterion", never)
        capsys.readouterr()
        assert cli.main(["selftest", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: argument --seed: must be an integer >= 0, got '-1'\n"
        )

    @pytest.mark.parametrize("seed", ["x", "1.5"])
    def test_non_integer_seed_rejected(self, capsys, seed):
        assert cli.main(["selftest", "--seed", seed]) == 1
        assert capsys.readouterr() == ("", (
            f"validation error: argument --seed: must be an integer >= 0, got '{seed}'\n"))

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


class TestMalformedNumbers:
    """A string where a number belongs is a validation error that names it
    by its path, not a crash."""

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("flow", {"g": 1, "C": [0.0], "j_min": 0, "blocks": [
                {"p": [1.0, "x"], "q": [0.0, 0.0]}]}, 'blocks[0].p[1] = "x" is not a number'),
            ("jacobi2gmp", {"n_min": -2, "a": [1.0, "x", 1.0], "b": [0.0] * 3},
             'a[1] = "x" is not a number'),
            ("delta", {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, "x"]]},
             'gaps[0][1] = "x" is not a number'),
            ("ks", {"lambda0": "x", "c0": 0.0, "poles": []}, 'lambda0 = "x" is not a number'),
            ("iso-solve", {"p": [1.4, "x"], "q": [0.0, 0.0]}, 'p[1] = "x" is not a number'),
        ],
        ids=["window", "jacobi-window", "gap-set", "comb-map", "seed-block"],
    )
    def test_string_entry_rejected(self, tmp_path, capsys, command, data, message):
        bad = write_json(tmp_path / "bad.json", data)
        argv = {
            "flow": ["flow", bad],
            "jacobi2gmp": ["jacobi2gmp", bad, "unread.json"],
            "delta": ["delta", bad],
            "ks": ["ks", p1_window_file(tmp_path), bad],
            "iso-solve": ["iso-solve", estar_delta_file(tmp_path), bad],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"


class TestOverflowingEntries:
    """A gap endpoint, map entry, window pole, block entry or Jacobi
    coefficient whose square overflows is a validation error that names
    the entry, raised when the file is read."""

    @pytest.mark.parametrize("entry, value", [("b0", -1e308), ("a0", 1e308)])
    def test_gap_set_endpoint_is_named(self, tmp_path, capsys, entry, value):
        # a diameter near 1e308 once made a wide gap "numerically zero length"
        gapset = {"b0": -2.0, "a0": 2.0, "gaps": [[-1.0, 1.0]], entry: value}
        capsys.readouterr()
        assert cli.main(["delta", write_json(tmp_path / "huge.json", gapset)]) == 1
        assert capsys.readouterr() == (
            "", f"validation error: {entry} = {value:.6g} is too large: its square overflows\n"
        )

    @pytest.mark.parametrize(
        "command, entry, value",
        [
            ("ks", "lambda0", 1e308),
            ("ks", "c0", -1e308),
            ("ks", "poles[0].lambda", 1e308),
            ("jacobi2gmp", "poles[0].c", -1e308),
            ("jacobi2gmp", "c0", 1e308),
            ("gmp2jacobi", "C[0]", 1e308),
            ("gmp2jacobi", "C[0]", -1e308),
        ],
    )
    def test_entry_is_named(self, tmp_path, capsys, command, entry, value):
        window = json.loads(Path(p1_window_file(tmp_path)).read_text())
        cmap = json.loads(Path(estar_delta_file(tmp_path)).read_text())
        if entry == "C[0]":
            window["C"][0] = value
        elif entry.startswith("poles[0]."):
            cmap["poles"][0][entry.split(".")[1]] = value
        else:
            cmap[entry] = value
        win = write_json(tmp_path / "big-window.json", window)
        dmap = write_json(tmp_path / "big-map.json", cmap)
        argv = {
            "ks": ["ks", win, dmap, "--steps", "1"],
            "jacobi2gmp": ["jacobi2gmp", period2_jacobi_file(tmp_path), dmap, "--width", "3"],
            "gmp2jacobi": ["gmp2jacobi", win],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"validation error: {entry} = {value:.6g} is too large: its square overflows\n"
        )


    @pytest.mark.parametrize(
        "command, i, key, k, value",
        [
            ("flow", 3, "q", 1, 1e308),
            ("ks", 0, "p", 0, -1e308),
            ("gmp2jacobi", 7, "p", 1, 1e308),
            ("gmp2jacobi", 14, "q", 0, -1e200),
        ],
    )
    def test_block_entry_is_named(self, tmp_path, capsys, command, i, key, k, value):
        window = json.loads(Path(p1_window_file(tmp_path)).read_text())
        window["blocks"][i][key][k] = value
        win = write_json(tmp_path / "big-window.json", window)
        argv = {
            "flow": ["flow", win, "--steps", "2"],
            "ks": ["ks", win, estar_delta_file(tmp_path), "--steps", "1"],
            "gmp2jacobi": ["gmp2jacobi", win],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"validation error: blocks[{i}].{key}[{k}] = {value:.6g} is too large: "
            "its square overflows\n"
        )

    def test_window_of_huge_blocks_is_refused_at_its_first_entry(self, tmp_path, capsys):
        huge = {"p": [1e160, 1.0], "q": [1e160, -0.5]}
        win = write_json(
            tmp_path / "huge.json",
            {"g": 1, "C": [0.0], "j_min": -4, "blocks": [huge] * 9},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["flow", win, "--steps", "2"]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == (
            "", "validation error: blocks[0].p[0] = 1e+160 is too large: its square overflows\n"
        )


class TestFileFaults:
    """An input file that is not UTF-8 or nests its arrays too deeply for
    the JSON decoder, and an ``--out`` path inside a missing directory or
    naming a directory, end in one stderr line and exit 1, for every
    subcommand."""

    @staticmethod
    def argv(command, tmp_path, monkeypatch) -> list[str]:
        if command == "selftest":
            from gmpflow import acceptance

            monkeypatch.setattr(acceptance, "run_all", lambda seed: [])
            return ["selftest"]
        files = {
            "delta": lambda: [estar_gapset_file(tmp_path)],
            "flow": lambda: [p1_window_file(tmp_path)],
            "ks": lambda: [p1_window_file(tmp_path), estar_delta_file(tmp_path)],
            "iso-solve": lambda: [estar_delta_file(tmp_path), write_json(
                tmp_path / "seed.json", {"p": [1.43, 0.5], "q": [0.0, 0.0]})],
            "jacobi2gmp": lambda: [period2_jacobi_file(tmp_path), estar_delta_file(tmp_path)],
            "gmp2jacobi": lambda: [p1_window_file(tmp_path)],
        }[command]()
        steps = ["--steps", "2"] if command in ("flow", "ks") else []
        return [command, *files, *steps]

    COMMANDS = ["delta", "flow", "ks", "iso-solve", "jacobi2gmp", "gmp2jacobi", "selftest"]
    INPUTS = [(c, i) for c, n in zip(COMMANDS, [1, 1, 2, 2, 2, 1, 0]) for i in range(n)]

    @pytest.mark.parametrize("command, index", INPUTS)
    def test_input_not_utf8(self, tmp_path, capsys, monkeypatch, command, index):
        argv = self.argv(command, tmp_path, monkeypatch)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        argv[1 + index] = str(bad)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", (
            f"validation error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"))

    @pytest.mark.parametrize("command, index", INPUTS)
    def test_input_nested_too_deeply(self, tmp_path, capsys, monkeypatch, command, index):
        argv = self.argv(command, tmp_path, monkeypatch)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 3000, encoding="utf-8")
        argv[1 + index] = str(deep)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"validation error: {deep} is nested too deeply\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch, command):
        argv = self.argv(command, tmp_path, monkeypatch)
        out = tmp_path / "missing" / "out.txt"
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"validation error: cannot write {out}: [Errno 2] No such file or directory: "
            f"'{out}'\n"))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_names_a_directory(self, tmp_path, capsys, monkeypatch, command):
        argv = self.argv(command, tmp_path, monkeypatch)
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", (
            f"validation error: cannot write {tmp_path}: [Errno 21] Is a directory: "
            f"'{tmp_path}'\n"))


class TestHarness:
    def test_numerical_errors_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(w):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli, "gmp_to_jacobi_measure", boom)
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 2
        assert "numerical error: synthetic breakdown" in capsys.readouterr().err

    @pytest.mark.parametrize("command, callee", [("ks", "map_run"), ("flow", "flow_run"),
                                                 ("gmp2jacobi", "gmp_to_jacobi_measure")])
    def test_running_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch, command,
                                             callee):
        # numpy's _ArrayMemoryError is a MemoryError
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.99 GiB for an array with shape (16337, 16337)")

        argv = TestFileFaults.argv(command, tmp_path, monkeypatch)
        monkeypatch.setattr(cli, callee, boom)
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"numerical error: gmpflow {command} ran out of memory\n")

    def test_ks_without_room_for_its_eigensolve_exits_two(self, tmp_path):
        # the dense matrix of 4,001 blocks at g = 1 (order 8,002) needs 512 MB,
        # past the 384 MB address space of the child, whose imports take
        # about 150 MB of it; the limit is set in the child alone
        def limited():
            resource.setrlimit(resource.RLIMIT_AS, (384 * 2**20, 384 * 2**20))

        win = p1_window_file(tmp_path, n_blocks=4001, j_min=-2000)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        cmd = [sys.executable, "-m", "gmpflow.cli", "ks", win, estar_delta_file(tmp_path),
               "--steps", "1"]
        proc = subprocess.run(cmd, env=env, preexec_fn=limited, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "numerical error: gmpflow ks ran out of memory\n"

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["flow"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_every_subcommand_takes_out(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert len(sub.choices) == 7
        for name, parser in sub.choices.items():
            assert isinstance(parser, cli._Parser), name  # usage errors exit 1
            out = parser._option_string_actions["--out"]
            assert (out.default, out.help) == (None, "output path (default stdout)"), name

    def test_parser_is_built_once(self, tmp_path, capsys):
        cli.main(["gmp2jacobi", p1_window_file(tmp_path)])
        built = cli.build_parser.cache_info().misses
        assert cli.main(["flow"]) == 1
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 0
        assert cli.build_parser.cache_info().misses == built == 1

    def test_env_var_raises_verbosity(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GMPFLOW_LOG", "info")
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "INFO gmpflow.cli" in err

    def test_default_logging_is_quiet(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GMPFLOW_LOG", raising=False)
        assert cli.main(["gmp2jacobi", p1_window_file(tmp_path)]) == 0
        assert "INFO" not in capsys.readouterr().err
