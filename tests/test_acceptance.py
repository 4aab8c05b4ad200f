"""Acceptance suite: every desk-scale criterion must pass its tolerance.

Each criterion runs as one parametrized test and prints its one-line
report, so a verbose run shows one pass/fail line per criterion.
"""

import dataclasses
import re

import pytest

from gmpflow import acceptance


CASES = list(enumerate(acceptance.CRITERIA, start=1))
IDS = [
    f"{i:02d}_{row[0].__name__.removeprefix('criterion_')}" for i, row in CASES
]


@pytest.mark.parametrize("index,row", CASES, ids=IDS)
def test_criterion(index, row):
    rep = acceptance.run_criterion(index)
    status = "PASS" if rep["passed"] else "FAIL"
    line = (
        f"criterion {rep['index']:2d} {rep['name']}: {status} "
        f"({rep['elapsed_s']:.2f} s) {rep['details']}"
    )
    print(line)
    assert rep["index"] == index
    assert rep["passed"], line


def test_reports_are_well_formed():
    reports = acceptance.run_all()
    assert [rep["index"] for rep in reports] == list(range(1, 12))
    assert len({rep["name"] for rep in reports}) == len(reports)
    for rep in reports:
        assert rep["elapsed_s"] <= rep["limit_s"]
        assert rep["details"]


def test_format_report_summarizes():
    reports = [
        {
            "index": 1,
            "name": "demo",
            "passed": True,
            "elapsed_s": 0.01,
            "limit_s": 1.0,
            "details": "dev 0.0e+00 (<= 1e-10)",
        },
        {
            "index": 2,
            "name": "other",
            "passed": False,
            "elapsed_s": 0.02,
            "limit_s": 1.0,
            "details": "dev 1.0e+00 (<= 1e-10)",
        },
    ]
    text = acceptance.format_report(reports)
    lines = text.splitlines()
    assert lines[0].startswith("criterion  1 demo: PASS")
    assert lines[1].startswith("criterion  2 other: FAIL")
    assert lines[-1] == "1 of 2 criteria passed"


def test_run_all_accepts_seed():
    reports = acceptance.run_all(seed=5)
    assert all(rep["passed"] for rep in reports)


def test_transfer_criterion_fails_when_draws_raise(monkeypatch):
    def broken(*args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(acceptance, "transfer_via_resolvent", broken)
    rep = acceptance.run_criterion(2)
    assert not rep["passed"]
    assert f"0 block sets in {acceptance.TRANSFER_MAX_DRAWS} draws" in rep["details"]


def test_transfer_criterion_fails_when_determinant_drifts(monkeypatch):
    # a product scaled by 1 + 1e-9 has its determinant off by about 2e-9
    exact = acceptance.transfer_matrix
    monkeypatch.setattr(acceptance, "transfer_matrix", lambda *args: exact(*args) * (1.0 + 1e-9))
    rep = acceptance.run_criterion(2)
    assert not rep["passed"]
    dev = re.search(r"determinant deviation (\S+) \(<= 1e-10\)", rep["details"])
    assert dev and 1.9e-9 < float(dev.group(1)) < 2.1e-9
    assert "100 block sets in" in rep["details"] and ", 0 raised" in rep["details"]


def test_telescoping_criterion_checks_the_ledger_drop(monkeypatch):
    # only the ledger's first drop is off; the criterion's own drop and
    # the other residuals are untouched
    check = acceptance.telescoping_check

    def off_by_1e6(run):
        report = check(run)
        ledger = report["report"]
        drops = ledger.step_drops.copy()
        drops[0] += 1e-6
        return {**report, "report": dataclasses.replace(ledger, step_drops=drops)}

    monkeypatch.setattr(acceptance, "telescoping_check", off_by_1e6)
    rep = acceptance.run_criterion(6)
    assert not rep["passed"]
    assert "independent drop vs ledger 1.00e-06 (<= 1e-08)" in rep["details"]
    assert "one-step drop residual" in rep["details"]


def test_run_criterion_captures_errors(monkeypatch):
    def boom():
        raise RuntimeError("synthetic failure")

    rows = ((boom, "boom", 1.0, None),) + acceptance.CRITERIA[1:]
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    rep = acceptance.run_criterion(1)
    assert not rep["passed"]
    assert "synthetic failure" in rep["details"]


def test_raising_criterion_reports_its_own_number(monkeypatch):
    def broken(*args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(acceptance, "GmpBlock", broken)
    reports = acceptance.run_all()
    assert [rep["index"] for rep in reports] == list(range(1, 12))
    assert reports[1]["limit_s"] == 5.0
    line = acceptance.format_report(reports).splitlines()[1]
    assert line == (
        "criterion  2 transfer matrix algebra: FAIL (0.00 s) error: synthetic failure"
    )
