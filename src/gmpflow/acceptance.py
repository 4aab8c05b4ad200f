"""Desk-scale acceptance checks, one callable per criterion.

Each criterion function returns its labeled residuals with their bounds
and a note.  ``CRITERIA`` names, numbers and time-limits them, and
:func:`run_criterion` times, checks and reports each one.  The test suite
asserts the reports one by one and the command line ``selftest`` prints
them, so there is a single source of truth for what the package claims
to get right.
"""

from __future__ import annotations

import time

import numpy as np

from . import numkit
from .construct import (
    gmp_to_jacobi_measure,
    gram_D,
    jacobi_to_gmp,
    multiplication_matrix,
    one_sided_coupling,
    tau_basis,
)
from .finitegap import DeltaData, GapSet, delta_from_gaps, eval_delta
from .flow import flow_identity_residual, flow_run, jacobi_flow_step
from .gmp import (
    GmpBlock,
    GmpWindow,
    pattern_defect,
    transfer_matrix,
    transfer_via_resolvent,
)
from .isospectral import IsPoint
from .jacobi import DiscreteMeasure, JacobiWindow, kappa, kappa_pairing, spectral_extent
from .ks import (
    delta_J_H,
    delta_of_gmp,
    density_identity,
    functional_report,
    ks_diagnostics,
    map_chain,
    telescoping_check,
)

SQRT2 = np.sqrt(2.0)
# Random draws the transfer criterion may spend on its 100 block sets.
TRANSFER_MAX_DRAWS = 1000


def _estar_delta() -> DeltaData:
    return delta_from_gaps(GapSet(-2.0, 2.0, ((-1.0, 1.0),)))


def _p1_block() -> GmpBlock:
    return GmpBlock((SQRT2, 0.5), (0.0, 0.0))


def _p1_window(n_blocks: int, j_min: int) -> GmpWindow:
    return GmpWindow(np.tile((SQRT2, 0.5), (n_blocks, 1)), np.zeros((n_blocks, 2)), (0.0,), j_min)


def _decaying_window(eps: float = 0.03, n_blocks: int = 21, rate: float = 0.5):
    half = n_blocks // 2
    js = range(-half, n_blocks - half)
    P = [(SQRT2 + eps * rate ** abs(j), 0.5) for j in js]
    Q = [(eps / 3.0 * 0.7 ** abs(j), 0.0) for j in js]
    return GmpWindow(P, Q, (0.0,), j_min=-half)


def _random_perturbed_window(rng, n_blocks: int, j_min: int, base: float = 0.05):
    eps = np.array([base * 0.6 ** abs(j) for j in range(j_min, j_min + n_blocks)])
    u = rng.uniform(-1.0, 1.0, (n_blocks, 4)).T
    P = np.column_stack([SQRT2 + eps * u[0], 0.5 - 0.4 * eps * u[1]])
    Q = np.column_stack([eps * u[2] / 3.0, -eps * u[3] / 5.0])
    return GmpWindow(P, Q, (0.0,), j_min=j_min)


def _period2_jacobi(n_min: int = -107, n_max: int = 106) -> JacobiWindow:
    ns = np.arange(n_min, n_max + 1)
    a = np.where(ns % 2 == 0, 1.5, 0.5).astype(float)
    return JacobiWindow(a, np.zeros(ns.size), n_min=n_min)


def criterion_comb_reconstruction() -> tuple[list, str]:
    """Comb map data and boundary values for the symmetric one-gap set."""
    d = _estar_delta()
    checks = [
        ("slope", abs(d.lambda0 - 2.0), 1e-10),
        ("offset", abs(d.c0), 1e-10),
        ("pole", abs(d.cs()[0]), 1e-10),
        ("weight", abs(d.lams()[0] - 4.0), 1e-10),
    ]
    for x, want in ((1.0, -2.0), (-1.0, 2.0), (2.0, 2.0), (-2.0, -2.0)):
        checks.append(
            (f"map at {x:+.0f}", abs(float(eval_delta(d, x)) - want), 1e-10)
        )
    return checks, ""


def criterion_transfer_algebra(seed: int = 211) -> tuple[list, str]:
    """Unit determinant and product-versus-resolvent agreement."""
    rng = np.random.default_rng(seed)
    worst_det = 0.0
    worst_dev = 0.0
    count = 0
    draws = 0
    raised = 0
    while count < 100 and draws < TRANSFER_MAX_DRAWS:
        draws += 1
        g = int(rng.integers(1, 4))
        p = rng.uniform(-1.2, 1.2, g + 1)
        p[-1] = rng.uniform(0.3, 1.5)
        blk = GmpBlock(p, rng.uniform(-1.0, 1.0, g + 1))
        c = np.sort(rng.uniform(-2.0, 2.0, g))
        if g > 1 and np.min(np.diff(c)) < 0.05:
            continue
        z = float(rng.uniform(2.5, 6.0))
        try:
            direct = transfer_matrix(blk, c, z)
            via = transfer_via_resolvent(blk, c, z)
        except Exception:
            raised += 1
            continue
        det = float(np.linalg.det(direct.value))
        worst_det = max(worst_det, abs(det - 1.0))
        scale = max(1.0, float(np.max(np.abs(direct.value))))
        worst_dev = max(
            worst_dev, float(np.max(np.abs(direct.value - via.value))) / scale
        )
        count += 1
    checks = [
        ("determinant deviation", worst_det, 1e-10),
        ("route disagreement", worst_dev, 1e-9),
    ]
    if count < 100 or raised:
        checks.append(("block sets short or raised", float(100 - count + raised), 0.0))
    return checks, f"{count} block sets in {draws} draws, {raised} raised"


def criterion_magic_pattern() -> tuple[list, str]:
    """Mapped periodic operator equals the two-shift pattern.

    The window holds 40 copies of a surface block centred on block 0, and
    its 20 central block rows are compared with identity couplings and
    zero diagonal blocks.
    """
    d = _estar_delta()
    IsPoint(_p1_block(), d)  # refuses a block off the surface
    db = delta_of_gmp(_p1_window(40, j_min=-20), d, 10)
    deviation = max(np.max(np.abs(db.v_blocks - np.eye(2))), np.max(np.abs(db.w_blocks)))
    checks = [("central row deviation", float(deviation), 1e-8)]
    return checks, f"{db.w_blocks.shape[0] * 2} rows"


def _period2_band_edges() -> np.ndarray:
    """Band edges of the alternating-bond chain from the transfer trace."""

    def excess(x):  # trace of [[x/1.5, -0.5/1.5], [1, 0]] @ [[x/0.5, -1.5/0.5], [1, 0]]
        return (x / 1.5) * (x / 0.5) - 0.5 / 1.5 - 1.5 / 0.5 - np.array([-2.0, -2.0, 2.0, 2.0])

    return np.sort(numkit.bisect_root(excess, [-1.5, 0.5, -2.5, 1.5], [-0.5, 1.5, -1.5, 2.5]))


def criterion_flow_orbit() -> tuple[list, str]:
    """Ten-step orbit of the canonical block and its band cross-check."""
    w = _p1_window(23, j_min=-11)
    ident = flow_identity_residual(w, jacobi_flow_step(w))
    checks = [("flow identity residual", ident, 1e-8)]
    if ident <= 1e-8:
        traj = flow_run(w, 10)
        a_dev = max(
            abs(traj.a_out[n] - (1.5 if n % 2 == 0 else 0.5)) for n in range(11)
        )
        b_dev = float(np.max(np.abs(traj.b_out)))
        lam_dev = float(np.max(np.abs(traj.lambdas - 4.0)))
        edges = _period2_band_edges()
        band_dev = float(
            np.max(np.abs(edges - np.array([-2.0, -1.0, 1.0, 2.0])))
        )
        checks += [
            ("bond readout deviation", a_dev, 1e-10),
            ("diagonal readout deviation", b_dev, 1e-10),
            ("conserved weight deviation", lam_dev, 1e-10),
            ("band edge deviation", band_dev, 1e-10),
        ]
    return checks, ""


def criterion_route_agreement(seed: int = 37) -> tuple[list, str]:
    """Stepping then reading off equals reading off then shifting."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        w = _random_perturbed_window(rng, n_blocks=120, j_min=-60)
        J = gmp_to_jacobi_measure(w)
        traj = flow_run(w, 6)
        for n in range(7):
            worst = max(worst, abs(J.a_at(n) - traj.a_out[n]))
        for n in range(6):
            worst = max(worst, abs(J.b_at(n) - traj.b_out[n]))
    checks = [("route disagreement", worst, 1e-6)]
    return checks, "20 windows"


def criterion_telescoping() -> tuple[list, str]:
    """One-step drop identity and the n-step shift comparison."""
    d = _estar_delta()
    w = _decaying_window(0.05, 27)
    j_top = 4
    run = map_chain(flow_run(w, 5).states, d, 3)
    report = telescoping_check(run)
    ledger = report["report"]
    # the drop of the stepped window mapped on its own, against the
    # ledger's; then rows 0..j_top before the step, against the drop plus
    # the same rows after it less the share of the last column they cover
    drop = delta_J_H(w, d)
    lhs = np.cumsum(ledger.terms(0, 0, j_top))[-1]
    rhs = (
        drop
        + np.cumsum(ledger.terms(1, 0, j_top))[-1]
        - run[1].column_shares(j_top, j_top)[0, -1]
    )
    checks = [
        ("independent drop vs ledger", abs(drop - ledger.step_drops[0]), 1e-8),
        ("one-step drop residual", abs(lhs - rhs), 1e-8),
        ("shift comparison residual", report["residual"], 1e-8),
        ("determinant chain residual", report["det_residual"], 1e-8),
    ]
    return checks, ""


def criterion_kappa() -> tuple[list, str]:
    """Pairing identity, norm-derivative match, two-sided bounds."""
    ns = np.arange(-90, 91)
    win = JacobiWindow(np.ones(ns.size), np.zeros(ns.size), n_min=-90)
    b_bumped = np.zeros(ns.size)
    b_bumped[win.pos(7)] = 0.3
    other = JacobiWindow(np.ones(ns.size), b_bumped, n_min=-90)
    c = 3.0
    lhs, rhs = kappa_pairing(win, other, c)
    kap = kappa(win, c)
    h = 1e-5
    phi_prime = (kappa(win, c + h).phi - kappa(win, c - h).phi) / (2.0 * h)
    dist = float(spectral_extent(win, c)[2][0])
    a0 = win.a_at(0)
    lower = min(a0**2, 1.0) / (abs(c) + win.norm_bound()) ** 2
    upper = max(a0**2, 1.0) / dist**2
    checks = [
        ("pairing residual", abs(lhs - rhs), 1e-8),
        ("norm versus derivative", abs(kap.norm_sq - phi_prime), 1e-6),
        ("derivative below lower bound", lower - phi_prime, 0.0),
        ("derivative above upper bound", phi_prime - upper, 0.0),
    ]
    return checks, ""


def criterion_density(seed: int = 83) -> tuple[list, str]:
    """Preimage determinant identities for random pole data."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in (1, 2, 3):
        for y in (-1.3, 0.7):
            c = np.sort(rng.uniform(-3.0, 3.0, g))
            while g > 1 and np.min(np.diff(c)) < 0.4:
                c = np.sort(rng.uniform(-3.0, 3.0, g))
            lam = rng.uniform(0.2, 2.0, g)
            rep = density_identity(c, lam, y)
            worst = max(worst, rep["det_w_residual"], rep["deriv_residual"])
    checks = [("identity residual", worst, 1e-9)]
    return checks, "g = 1..3"


def criterion_one_sided_build() -> tuple[list, str]:
    """Gram example, block pattern, and diagonal pinning of the build."""
    d = _estar_delta()
    m = DiscreteMeasure(
        np.array([-2.0, -1.5, 1.5, 2.0]), np.full(4, 0.25)
    )
    D = gram_D(m, (0.0,))
    d_dev = float(
        np.max(np.abs(D - np.array([[1.0, 0.0], [0.0, 25.0 / 72.0]])))
    )
    rb = tau_basis(m, d, depth=2)
    mm = multiplication_matrix(rb)
    off = pattern_defect(mm, one_sided_coupling(rb.g))
    # the diagonal of the first block carries the pole of the map
    d_shift = delta_from_gaps(GapSet(-1.0, 3.0, ((0.0, 2.0),)))
    m2 = DiscreteMeasure(
        np.array([-0.9, -0.5, 2.3, 2.9]), np.full(4, 0.25)
    )
    rb2 = tau_basis(m2, d_shift, depth=2)
    mm2 = multiplication_matrix(rb2)
    pole_dev = abs(
        mm2[1, 1] - rb2.m_vec[1] * rb2.L[0, 1] - d_shift.cs()[0]
    )
    checks = [
        ("Gram example deviation", d_dev, 1e-12),
        ("off-pattern entry", off, 1e-9),
        ("diagonal pole deviation", pole_dev, 1e-10),
    ]
    return checks, ""


def criterion_roundtrips(seed: int = 13) -> tuple[list, str]:
    """Window to coefficients and back, both readout routes."""
    d = _estar_delta()
    w = jacobi_to_gmp(_period2_jacobi(), d, n_blocks=5)
    ref = _p1_block()
    p1_dev = max(
        float(
            np.max(
                np.abs(
                    np.r_[w.block(j).p, w.block(j).q] - np.r_[ref.p, ref.q]
                )
            )
        )
        for j in range(w.j_min, w.j_max + 1)
    )
    rng = np.random.default_rng(seed)
    wp = _random_perturbed_window(rng, n_blocks=222, j_min=-111)
    J = gmp_to_jacobi_measure(wp)
    back = jacobi_to_gmp(J, d, n_blocks=5)
    block_dev = 0.0
    for j in range(back.j_min, back.j_max + 1):
        orig = wp.block(j)
        got = back.block(j)
        block_dev = max(
            block_dev,
            float(np.max(np.abs(got.p - orig.p))),
            float(np.max(np.abs(got.q - orig.q))),
        )
    J2 = gmp_to_jacobi_measure(back)
    measure_dev = max(
        abs(J2.b_at(n) - J.b_at(n)) for n in range(J2.n_min, J2.n_max + 1)
    )
    measure_dev = max(
        measure_dev,
        max(
            abs(J2.a_at(n) - J.a_at(n))
            for n in range(J2.n_min + 1, J2.n_max + 1)
        ),
    )
    traj = flow_run(back, 1)
    flow_dev = max(
        abs(traj.a_out[0] - J.a_at(0)),
        abs(traj.a_out[1] - J.a_at(1)),
        abs(traj.b_out[0] - J.b_at(0)),
    )
    checks = [
        ("canonical block recovery", p1_dev, 1e-6),
        ("block roundtrip deviation", block_dev, 1e-6),
        ("measure route deviation", measure_dev, 1e-6),
        ("flow route deviation", flow_dev, 1e-6),
    ]
    return checks, ""


def criterion_functional() -> tuple[list, str]:
    """Vanishing on the surface, boundedness, and divergence flagging."""
    d = _estar_delta()
    w = _p1_window(27, j_min=-13)
    traj = flow_run(w, 4)
    rep = functional_report(map_chain(traj.states, d, 3))
    surface_dev = max(
        float(np.max(np.abs(rep.row_terms[0]))),
        float(np.max(np.abs(rep.h_origin))),
        float(np.max(np.abs(rep.step_drops))),
    )
    diag0 = ks_diagnostics(traj.states, d)
    surface_diag = max(
        float(np.max(np.abs(arr))) for arr in diag0.values.values()
    )
    diag1 = ks_diagnostics(flow_run(_decaying_window(0.01, 19), 6).states, d)
    bounded_ok = 0.0 if not any(diag1.diverging.values()) else 1.0
    states = tuple(
        GmpWindow(np.tile((SQRT2 + 0.2 * m, 0.5), (5, 1)), np.zeros((5, 2)), (0.0,), j_min=-2)
        for m in range(9)
    )
    diag2 = ks_diagnostics(states, d)
    flagged_ok = 0.0 if any(diag2.diverging.values()) else 1.0
    checks = [
        ("surface functional", surface_dev, 1e-10),
        ("surface diagnostics", surface_diag, 1e-9),
        ("bounded case flagged", bounded_ok, 0.5),
        ("drifting case missed", flagged_ok, 0.5),
    ]
    return checks, ""


# (criterion, name, time limit in s, offset of its draws from --seed, or
# None for a criterion without random draws); row i is criterion i + 1
CRITERIA = (
    (criterion_comb_reconstruction, "comb map reconstruction", 0.1, None),
    (criterion_transfer_algebra, "transfer matrix algebra", 5.0, 0),
    (criterion_magic_pattern, "magic formula", 5.0, None),
    (criterion_flow_orbit, "flow orbit", 1.0, None),
    (criterion_route_agreement, "commuting diagram", 30.0, 1),
    (criterion_telescoping, "telescoping identities", 10.0, None),
    (criterion_kappa, "kappa machinery", 5.0, None),
    (criterion_density, "density identities", 1.0, 2),
    (criterion_one_sided_build, "one-sided construction", 1.0, None),
    (criterion_roundtrips, "conversion roundtrips", 30.0, 3),
    (criterion_functional, "sum-rule functional", 10.0, None),
)


def run_criterion(index: int, seed: int | None = None) -> dict:
    """Time, check and report criterion ``index`` (1-based); ``seed``
    rebases its random draws.  An exception fails the criterion with the
    error as its details, under the same name and time limit."""
    fn, name, limit_s, offset = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        checks, note = fn() if seed is None or offset is None else fn(seed + offset)
    except Exception as exc:  # noqa: BLE001 - a failed check must not abort the suite
        ok, details = False, f"error: {exc}"
    else:
        ok = all(value <= bound for _, value, bound in checks)
        parts = [f"{label} {value:.2e} (<= {bound:.0e})" for label, value, bound in checks]
        details = "; ".join(parts + [note] if note else parts)
    elapsed = time.perf_counter() - t0
    return {
        "index": index,
        "name": name,
        "passed": bool(ok and elapsed <= limit_s),
        "elapsed_s": elapsed,
        "limit_s": limit_s,
        "details": details,
    }


def run_all(seed: int | None = None) -> list[dict]:
    """Run every criterion; ``seed`` rebases the random-instance draws."""
    return [run_criterion(i, seed) for i in range(1, len(CRITERIA) + 1)]


def format_report(reports) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        lines.append(
            f"criterion {rep['index']:2d} {rep['name']}: {status} "
            f"({rep['elapsed_s']:.2f} s) {rep['details']}"
        )
    n_pass = sum(1 for rep in reports if rep["passed"])
    lines.append(f"{n_pass} of {len(reports)} criteria passed")
    return "\n".join(lines)
