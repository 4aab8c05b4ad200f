"""Command line front end for the desk workflow.

Subcommands: ``delta`` builds a comb map from a gap set, ``jacobi2gmp``
and ``gmp2jacobi`` convert between coefficient windows and block
windows, ``flow`` runs the renormalization step and tabulates the
readout, ``ks`` tabulates the entropy and summability diagnostics,
``iso-solve`` projects a seed block onto the surface, and ``selftest``
runs the acceptance suite.

All commands are deterministic given their inputs and options; numbers
are written with 17 significant digits, and with BLAS on one thread
identical reruns produce byte-identical output.  ``GMPFLOW_LOG`` sets
the stderr log level (``debug``, ``info``, ``warning``, ``quiet``).
Exit codes: 0 success, 1 input validation failure, 2 numerical failure;
a floating-point overflow, invalid operation or division by zero that
no check anticipates is a numerical failure too.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from .construct import gmp_to_jacobi_measure, jacobi_to_gmp
from .errors import NumericalError, ValidationError
from .finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta
from .flow import flow_run
from .gmp import VALIDITY_FLOOR, GmpBlock, GmpWindow
from .isospectral import solve_is_point
from .jacobi import JacobiWindow, dist_eta
from .ks import DIVERGENCE_SLOPE, ks_diagnostics, map_chain, telescoping_check

log = logging.getLogger("gmpflow.cli")

LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "quiet": logging.ERROR,
}

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tolerance(text: str) -> float:
    """A ``--tol`` value; nan would disable its check, a negative one skew it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A ``selftest --seed`` value: the random draws need an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON (line {exc.lineno}: {exc.msg})"
        ) from exc


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", out)


def _dump_json(data: dict, out: str | None) -> None:
    _write_text(json.dumps(data, indent=2) + "\n", out)


def _csv_text(command, options, header, rows, footer=()) -> str:
    lines = [f"# gmpflow {command}", f"# options: {options}"]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _load_block(path: str) -> GmpBlock:
    data = _load_json(path)
    try:
        p, q = np.array(data["p"], dtype=float), np.array(data["q"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed block data in {path}: {exc}") from exc
    return GmpBlock(p, q)


def cmd_delta(args: argparse.Namespace) -> int:
    """Gap set JSON in, comb map JSON plus a band edge summary out."""
    gs = GapSet.from_json(_load_json(args.gapset))
    d = delta_from_gaps(gs)
    log.info("delta: %d gap(s), slope %s", d.g, _fmt(d.lambda0))
    _dump_json(d.to_json(), args.out)
    edges = np.ravel(gs.bands())  # b0, a1, b1, ..., a0
    summary = [
        f"comb map with {d.g} pole(s): "
        f"slope {_fmt(d.lambda0)}, offset {_fmt(d.c0)}"
    ]
    for k, (c, lam) in enumerate(d.poles):
        summary.append(f"  pole {k + 1}: c = {_fmt(c)}, weight = {_fmt(lam)}")
    summary.append("band edge values:")
    for e, v in zip(edges, eval_delta(d, edges)):
        summary.append(f"  Delta({_fmt(e)}) = {_fmt(v)}")
    stream = sys.stdout if args.out else sys.stderr
    stream.write("\n".join(summary) + "\n")
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    """Run the flow and tabulate readout and diagnostics as CSV.

    One row per step n = 0..N-1: the coefficient readout a(n), b(n),
    the pair functionals and validity minima of state n, and the
    eta-weighted distance between the remaining readout tail and its
    own (g+1)-shift (zero along a periodic orbit).
    """
    w = GmpWindow.from_json(_load_json(args.window))
    g = w.g
    floor = VALIDITY_FLOOR if args.tol is None else args.tol
    traj = flow_run(w, args.steps, floor=floor)
    log.info("flow: %d blocks, %d steps", w.n_blocks, args.steps)
    header = ["n", "a", "b"]
    header.extend(f"lambda_{k}" for k in range(1, g + 1))
    header.extend(f"validity_min_{k}" for k in range(1, g + 1))
    header.append("shift_dist_eta")
    per = g + 1
    n_a = traj.a_out.size
    n_b = traj.b_out.size
    rows = []
    for n in range(args.steps):
        row = [str(n), _fmt(traj.a_out[n]), _fmt(traj.b_out[n])]
        row.extend(_fmt(v) for v in traj.lambdas[n])
        row.extend(_fmt(v) for v in traj.validity_min[n])
        da = dist_eta(traj.a_out[n : n_a - per], traj.a_out[n + per :], args.eta)
        db = dist_eta(traj.b_out[n : n_b - per], traj.b_out[n + per :], args.eta)
        row.append(_fmt(math.hypot(da, db)))
        rows.append(row)
    options = (
        f"steps={args.steps} eta={_fmt(args.eta)} tol={_fmt(floor)} seed=none"
    )
    _write_text(_csv_text("flow", options, header, rows), args.out)
    return 0


def cmd_ks(args: argparse.Namespace) -> int:
    """Tabulate the entropy functional and summability families as CSV.

    One row per step n = 0..N-1: the origin entropy of state n, its
    spatial partial sum over the shared trusted rows, the one-step drop
    and its running sum, the n-step telescoping residual, and each
    coefficient family with its running sum of squares.  A footer line
    names the families whose running sums fail the boundedness check.
    """
    w = GmpWindow.from_json(_load_json(args.window))
    d = DeltaData.from_json(_load_json(args.delta))
    traj = flow_run(w, args.steps)
    run = map_chain(traj.states, d, args.margin)
    rep = telescoping_check(run)["report"]  # the run's entropy ledger
    slope_tol = DIVERGENCE_SLOPE if args.tol is None else args.tol
    diag = ks_diagnostics(traj.states, d, slope_tol)
    drop_partials = np.cumsum(rep.step_drops)
    j_top = min(db.j_hi for db in run)
    log.info(
        "ks: %d blocks, %d steps, trusted rows 0..%d", w.n_blocks, args.steps, j_top
    )
    header = [
        "n",
        "h_origin",
        f"hplus_rows_0_to_{j_top}",
        "delta_jh",
        "drop_partial",
        "telescope_resid",
    ]
    for name, arr in diag.values.items():
        if arr.ndim == 2:
            header.extend(f"{name}_{k}" for k in range(1, arr.shape[1] + 1))
        else:
            header.append(name)
        header.append(f"{name}_sqsum")
    rows = []
    for n in range(args.steps):
        row = [
            str(n),
            _fmt(rep.h_origin[n]),
            _fmt(np.cumsum(rep.terms(n, 0, j_top))[-1]),
            _fmt(rep.step_drops[n]),
            _fmt(drop_partials[n]),
            _fmt(rep.residuals[n]),
        ]
        for name, arr in diag.values.items():
            sq = diag.sq_partials[name]
            if arr.ndim == 2:
                row.extend(_fmt(v) for v in arr[n])
                row.append(_fmt(float(np.sum(sq[n]))))
            else:
                row.append(_fmt(arr[n]))
                row.append(_fmt(sq[n]))
        rows.append(row)
    flagged = sorted(name for name, bad in diag.diverging.items() if bad)
    footer = ["# diverging: " + (",".join(flagged) if flagged else "none")]
    options = (
        f"steps={args.steps} margin={args.margin} tol={_fmt(slope_tol)} seed=none"
    )
    _write_text(_csv_text("ks", options, header, rows, footer), args.out)
    return 0


def cmd_iso_solve(args: argparse.Namespace) -> int:
    """Project a seed block onto the surface of a comb map."""
    d = DeltaData.from_json(_load_json(args.delta))
    seed = _load_block(args.seed_block)
    pt = solve_is_point(d, seed)
    res = pt.residual()
    log.info("iso-solve: residual %s", _fmt(float(np.max(np.abs(res)))))
    _dump_json(
        {
            "block": {"p": pt.block.p.tolist(), "q": pt.block.q.tolist()},
            "residual": res.tolist(),
            "max_residual": float(np.max(np.abs(res))),
        },
        args.out,
    )
    return 0


def cmd_jacobi2gmp(args: argparse.Namespace) -> int:
    """Convert a two-sided coefficient window to a block window."""
    J = JacobiWindow.from_json(_load_json(args.window))
    d = DeltaData.from_json(_load_json(args.delta))
    w = jacobi_to_gmp(J, d, n_blocks=args.width)
    log.info("jacobi2gmp: %d sites -> %d blocks", J.size, w.n_blocks)
    _dump_json(w.to_json(), args.out)
    return 0


def cmd_gmp2jacobi(args: argparse.Namespace) -> int:
    """Read a block window off as a two-sided coefficient window."""
    w = GmpWindow.from_json(_load_json(args.window))
    J = gmp_to_jacobi_measure(w)
    log.info("gmp2jacobi: %d blocks -> %d sites", w.n_blocks, J.size)
    _dump_json(J.to_json(), args.out)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run the acceptance suite; nonzero exit if any criterion fails."""
    from . import acceptance

    reports = acceptance.run_all(args.seed)
    seed_note = "default" if args.seed is None else str(args.seed)
    text = (
        f"gmpflow selftest (seed: {seed_note})\n"
        + acceptance.format_report(reports)
        + "\n"
    )
    _write_text(text, args.out)
    return 0 if all(rep["passed"] for rep in reports) else 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the validation exit code."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache  # once per process; each cmd_* looks up what it calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmpflow",
        description="Finite-gap block operators: construction, flow, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("delta", help="build a comb map from a gap set")
    q.add_argument("gapset", help="gap set JSON file")
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_delta)

    q = sub.add_parser("flow", help="run the flow and tabulate the readout")
    q.add_argument("window", help="block window JSON file")
    q.add_argument("--steps", type=int, default=4, help="number of flow steps")
    q.add_argument(
        "--eta", type=float, default=0.9, help="weight base of the tail distance"
    )
    q.add_argument(
        "--tol", type=_tolerance, default=None, help="validity floor override"
    )
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("ks", help="tabulate entropy and summability diagnostics")
    q.add_argument("window", help="block window JSON file")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument("--steps", type=int, default=4, help="number of flow steps")
    q.add_argument(
        "--margin", type=int, default=3, help="rows dropped at the window edges"
    )
    q.add_argument(
        "--tol", type=_tolerance, default=None, help="divergence slope override"
    )
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_ks)

    q = sub.add_parser("iso-solve", help="project a seed block onto the surface")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument("seed_block", help="seed block JSON file with p and q")
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_iso_solve)

    q = sub.add_parser(
        "jacobi2gmp", help="convert a coefficient window to a block window"
    )
    q.add_argument("window", help="coefficient window JSON file")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument(
        "--width", type=int, default=5, help="number of blocks to build"
    )
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_jacobi2gmp)

    q = sub.add_parser(
        "gmp2jacobi", help="read a block window off as coefficients"
    )
    q.add_argument("window", help="block window JSON file")
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_gmp2jacobi)

    q = sub.add_parser("selftest", help="run the acceptance suite")
    q.add_argument(
        "--seed", type=_seed, default=None, help="rebase the random-instance draws"
    )
    q.add_argument("--out", default=None, help="output path (default stdout)")
    q.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("GMPFLOW_LOG", "warning").strip().lower()
    logging.basicConfig(
        stream=sys.stderr,
        level=LOG_LEVELS.get(level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (NumericalError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
