"""Command line front end for the desk workflow.

Subcommands: ``delta`` builds a comb map from a gap set, ``jacobi2gmp``
and ``gmp2jacobi`` convert between coefficient windows and block
windows, ``flow`` runs the renormalization step and tabulates the
readout, ``ks`` tabulates the entropy and summability diagnostics of one
mapped flow run (``ks.map_run``), ``iso-solve`` projects a seed block
onto the surface, and ``selftest`` runs the acceptance suite.  Every
subcommand takes ``--out`` from one shared parent parser; ``flow`` and
``ks`` share another for the window and ``--steps``, and write CSV
tables of ``(name, values)`` columns.

All commands are deterministic given their inputs and options; numbers
are written with 17 significant digits, and with BLAS on one thread
identical reruns produce byte-identical output.  ``GMPFLOW_LOG=info``
(or ``debug``) logs progress to stderr; any other value, or none, logs
only warnings.
Exit codes: 0 success, 1 input validation failure (an unreadable input
or unwritable ``--out`` file too), 2 numerical failure; a floating-point
overflow, invalid operation or division by zero that no check
anticipates is one too, and so is running out of memory.
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
from .errors import DOUBLE_MAX, NumericalError, ValidationError, check_entries, read_numbers
from .finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta
from .flow import flow_run
from .gmp import VALIDITY_FLOOR, GmpBlock, GmpWindow
from .isospectral import solve_is_point
from .jacobi import JacobiWindow, check_eta, dist_eta
from .ks import DIVERGENCE_SLOPE, ks_diagnostics, map_run, telescoping_check

log = logging.getLogger("gmpflow.cli")


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON (line {exc.lineno}: {exc.msg})"
        ) from exc
    except ValueError as exc:  # the only other: an integer past int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"{path} holds an integer of more than {limit} digits") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path} is nested too deeply") from exc


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}") from exc
        log.info("wrote %s", out)


def _dump_json(data: dict, out: str | None) -> None:
    _write_text(json.dumps(data, indent=2) + "\n", out)


def _csv_text(command, options, columns, footer=()) -> str:
    """A CSV table of ``(name, values)`` columns: the names as header, then
    one row per value of the first column, row i holding each column's
    i-th value."""
    names, values = zip(*columns)
    lines = [f"# gmpflow {command}", f"# options: {options}", ",".join(names)]
    lines.extend(
        ",".join(_fmt(col[i]) for col in values) for i in range(len(values[0]))
    )
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _load_block(path: str) -> GmpBlock:
    """The ``iso-solve`` seed, one block.  Its first bad entry in file order
    is refused: iso-solve pins p_g to 1 / lambda0 and reads only the other
    entries, so only they must be small enough to square."""
    data = _load_json(path)
    p, q = read_numbers(data, "p[]"), read_numbers(data, "q[]")
    check_entries({"p": p[:-1]}, "p[{0}]")
    check_entries({"p": p[-1] if p.size else 0.0}, f"p[{p.size - 1}]", limit=DOUBLE_MAX)
    check_entries({"q": q}, "q[{0}]")
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
    check_eta(args.eta)
    traj = flow_run(w, args.steps, floor=args.tol)
    log.info("flow: %d blocks, %d steps", w.n_blocks, args.steps)
    steps, per, a, b = range(args.steps), w.g + 1, traj.a_out, traj.b_out
    columns = [("n", steps), ("a", a), ("b", b)]
    for name, arr in (("lambda", traj.lambdas), ("validity_min", traj.validity_min)):
        columns += [(f"{name}_{k}", col) for k, col in enumerate(arr.T, 1)]
    tail = [  # the distance of the readout tails after step n from their shifts
        math.hypot(*(dist_eta(x[n : max(n, x.size - per)], x[n + per :], args.eta)
                     for x in (a, b)))
        for n in steps
    ]
    columns.append(("shift_dist_eta", tail))
    options = f"steps={args.steps} eta={_fmt(args.eta)} tol={_fmt(args.tol)} seed=none"
    _write_text(_csv_text("flow", options, columns), args.out)
    return 0


def cmd_ks(args: argparse.Namespace) -> int:
    """Tabulate the entropy functional and summability families as CSV.

    One ``map_run`` call steps the window and maps its states 0..N, with
    no readout (``ks`` prints no a(n), b(n)): two eigensolves, at the
    ends, and the states between carried along the flow.
    One row per step n = 0..N-1: the origin entropy of state n, its
    spatial partial sum over the shared trusted rows, the one-step drop
    and its running sum, the n-step telescoping residual, and each
    coefficient family with its running sum of squares.  A footer line
    names the families whose running sums fail the boundedness check.
    """
    w = GmpWindow.from_json(_load_json(args.window))
    d = DeltaData.from_json(_load_json(args.delta))
    states, run = map_run(w, d, args.steps, args.margin)
    rep = telescoping_check(run)["report"]  # the run's entropy ledger
    diag = ks_diagnostics(states, d, args.tol)
    j_top = min(db.j_hi for db in run)
    log.info(
        "ks: %d blocks, %d steps, trusted rows 0..%d", w.n_blocks, args.steps, j_top
    )
    steps = range(args.steps)
    columns = [
        ("n", steps),
        ("h_origin", rep.h_origin),
        (f"hplus_rows_0_to_{j_top}", [np.cumsum(rep.terms(n, 0, j_top))[-1] for n in steps]),
        ("delta_jh", rep.step_drops),
        ("drop_partial", np.cumsum(rep.step_drops)),
        ("telescope_resid", rep.residuals),
    ]
    for name, arr in diag.values.items():
        sq = diag.sq_partials[name]
        if arr.ndim == 2:
            columns += [(f"{name}_{k}", col) for k, col in enumerate(arr.T, 1)]
            columns.append((f"{name}_sqsum", np.sum(sq, axis=1)))
        else:
            columns += [(name, arr), (f"{name}_sqsum", sq)]
    flagged = sorted(name for name, bad in diag.diverging.items() if bad)
    footer = ["# diverging: " + (",".join(flagged) if flagged else "none")]
    options = f"steps={args.steps} margin={args.margin} tol={_fmt(args.tol)} seed=none"
    _write_text(_csv_text("ks", options, columns, footer), args.out)
    return 0


def cmd_iso_solve(args: argparse.Namespace) -> int:
    """Project a seed block onto the surface of a comb map."""
    d = DeltaData.from_json(_load_json(args.delta))
    seed = _load_block(args.seed_block)
    pt = solve_is_point(d, seed)
    res = pt.residual()
    worst = float(np.max(np.abs(res)))
    log.info("iso-solve: residual %s", _fmt(worst))
    _dump_json(
        {
            "block": {"p": pt.block.p.tolist(), "q": pt.block.q.tolist()},
            "residual": res.tolist(),
            "max_residual": worst,
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("window", help="block window JSON file")
    run.add_argument("--steps", type=int, default=4, help="number of flow steps")
    add_command = functools.partial(sub.add_parser, parents=[out])

    q = add_command("delta", help="build a comb map from a gap set")
    q.add_argument("gapset", help="gap set JSON file")
    q.set_defaults(func=cmd_delta)

    q = add_command("flow", parents=[out, run], help="run the flow and tabulate the readout")
    q.add_argument(
        "--eta", type=float, default=0.9, help="weight base of the tail distance"
    )
    q.add_argument(
        "--tol", type=_tolerance, default=VALIDITY_FLOOR, help="validity floor override"
    )
    q.set_defaults(func=cmd_flow)

    q = add_command("ks", parents=[out, run], help="tabulate entropy and summability diagnostics")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument(
        "--margin", type=int, default=3, help="rows dropped at the window edges"
    )
    q.add_argument(
        "--tol", type=_tolerance, default=DIVERGENCE_SLOPE, help="divergence slope override"
    )
    q.set_defaults(func=cmd_ks)

    q = add_command("iso-solve", help="project a seed block onto the surface")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument("seed_block", help="seed block JSON file with p and q")
    q.set_defaults(func=cmd_iso_solve)

    q = add_command("jacobi2gmp", help="convert a coefficient window to a block window")
    q.add_argument("window", help="coefficient window JSON file")
    q.add_argument("delta", help="comb map JSON file")
    q.add_argument("--width", type=int, default=5, help="number of blocks to build; refused "
                   "(exit 1) where the window is too short to carry them")
    q.set_defaults(func=cmd_jacobi2gmp)

    q = add_command("gmp2jacobi", help="read a block window off as coefficients")
    q.add_argument("window", help="block window JSON file")
    q.set_defaults(func=cmd_gmp2jacobi)

    q = add_command("selftest", help="run the acceptance suite")
    q.add_argument(
        "--seed", type=_seed, default=None, help="rebase the random-instance draws"
    )
    q.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    verbose = os.environ.get("GMPFLOW_LOG", "").strip().lower() in ("info", "debug")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (NumericalError, FloatingPointError, MemoryError) as exc:
        why = f"gmpflow {args.command} ran out of memory" if isinstance(exc, MemoryError) else exc
        sys.stderr.write(f"numerical error: {why}\n")
        return 2
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
