"""Shared fixtures: canonical small inputs used across the test modules."""

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from gmpflow import numkit
from gmpflow.construct import gmp_to_jacobi_measure
from gmpflow.finitegap import DeltaData, GapSet
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense
from gmpflow.jacobi import DiscreteMeasure, JacobiWindow


def make_estar_gapset() -> GapSet:
    """[-2, 2] with the single gap (-1, 1)."""
    return GapSet(-2.0, 2.0, ((-1.0, 1.0),))


def make_p1_block() -> GmpBlock:
    """One-gap block with p = (sqrt(2), 1/2) and q = (0, 0)."""
    return GmpBlock(
        p=np.array([np.sqrt(2.0), 0.5]),
        q=np.array([0.0, 0.0]),
    )


def stack_window(blocks, c, j_min: int = 0) -> GmpWindow:
    """Window over a sequence of blocks, their p and q stacked as rows."""
    blocks = tuple(blocks)
    return GmpWindow([b.p for b in blocks], [b.q for b in blocks], c, j_min)


def wrapped_dense(w: GmpWindow) -> np.ndarray:
    """Dense window matrix with its last slot coupled to the first block
    through that block's interaction vector: the operator whose comb map
    ``ks.delta_of_gmp`` takes."""
    mat = assemble_dense(w)
    mat[-1, : w.g + 1] = mat[: w.g + 1, -1] = w.P[0]
    return mat


def solved_comb_map(mat: np.ndarray, d: DeltaData) -> np.ndarray:
    """The comb map of a matrix from one dense solve per pole."""
    n = mat.shape[0]
    mapped = d.lambda0 * mat + d.c0 * np.eye(n)
    for ck, lk in d.poles:
        mapped += lk * np.linalg.solve(ck * np.eye(n) - mat, np.eye(n))
    return mapped


def reference_blocks(mapped: np.ndarray, w: GmpWindow, margin: int):
    """Coupling and diagonal blocks of the mapped window over its trusted
    range, sliced one block at a time and sign-normalised block by block."""
    per = w.g + 1
    j_lo, j_hi = w.j_min + margin, w.j_max - margin

    def block(row, col):
        r, c = (row - w.j_min) * per, (col - w.j_min) * per
        return mapped[r : r + per, c : c + per]

    eps_prev = np.ones(per)
    eps_chain, v_blocks = [], []
    for j in range(j_lo, j_hi + 2):
        raw = block(j - 1, j)
        eps_here = eps_prev * np.sign(np.diag(raw))
        v_blocks.append(np.outer(eps_prev, eps_here) * raw)
        eps_chain.append(eps_here)
        eps_prev = eps_here
    w_blocks = [
        np.outer(eps_chain[i], eps_chain[i]) * block(j, j)
        for i, j in enumerate(range(j_lo, j_hi + 1))
    ]
    return v_blocks, w_blocks


def make_p1_window(n_blocks: int = 5, j_min: int = -2) -> GmpWindow:
    """Constant-block window built from copies of the canonical block."""
    return stack_window([make_p1_block()] * n_blocks, np.array([0.0]), j_min)


def random_gapset(rng: np.random.Generator, g_max: int = 4) -> GapSet:
    """Random gap set with well-separated endpoints inside [-3, 3]."""
    g = int(rng.integers(0, g_max + 1))
    while True:
        pts = np.sort(rng.uniform(-3.0, 3.0, size=2 * g + 2))
        if np.min(np.diff(pts)) > 0.15:
            break
    gaps = tuple((pts[2 * k + 1], pts[2 * k + 2]) for k in range(g))
    return GapSet(pts[0], pts[-1], gaps)


def make_perturbed_window(
    center: GmpBlock, c, half: int = 20, seed: int = 3
) -> GmpWindow:
    """Window of 2*half+1 blocks around ``center`` with perturbations
    decaying geometrically away from block 0; the trailing p stays put."""
    rng = np.random.default_rng(seed)
    keep_trailing = np.ones(center.g + 1)
    keep_trailing[-1] = 0.0
    blocks = []
    for j in range(-half, half + 1):
        eps = 0.05 * 0.6 ** abs(j)
        blocks.append(
            GmpBlock(
                center.p + eps * rng.uniform(-1.0, 1.0, center.g + 1) * keep_trailing,
                center.q + eps * rng.uniform(-1.0, 1.0, center.g + 1),
            )
        )
    return stack_window(blocks, c, j_min=-half)


def _workloads():
    """perfbench's input draws, imported without leaving it on the path."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def roundtrip_inputs(g: int, n_blocks: int) -> tuple[DeltaData, GmpWindow]:
    """Comb map and block window of a ``jacobi2gmp`` round trip at genus g:
    perfbench's ``random_gapset`` (no narrow gap) with its reference comb
    map, and its ``perturbed_window`` of ``n_blocks`` blocks, drawn from
    ``np.random.default_rng([11, g, n_blocks])``."""
    workloads = _workloads()
    rng = np.random.default_rng([11, g, n_blocks])
    cmap = workloads.comb_map(workloads.random_gapset(rng, g, None))
    window = workloads.perturbed_window(rng, cmap, n_blocks)
    return DeltaData.from_json(cmap), GmpWindow.from_json(window)


@functools.lru_cache(maxsize=1)
def _torus_coefficients() -> tuple[DeltaData, JacobiWindow, GmpBlock]:
    workloads = _workloads()
    cmap = workloads.comb_map(workloads.random_gapset(np.random.default_rng([7, 1]), 1, None))
    # base 0: every block is the surface block, and the draws are unused
    w = GmpWindow.from_json(workloads.perturbed_window(np.random.default_rng(0), cmap, 961, 0.0))
    return DeltaData.from_json(cmap), gmp_to_jacobi_measure(w), w.block(0)


def torus_window(sites: int) -> tuple[DeltaData, JacobiWindow, GmpBlock]:
    """An exact ``jacobi2gmp`` oracle: the comb map of perfbench's
    ``random_gapset(default_rng([7, 1]), 1, None)``, the central ``sites``
    sites (from -(sites // 2)) of ``gmp2jacobi`` of its ``perturbed_window``
    of 961 blocks at ``base=0.0``, which are all its surface block, and
    that block: every width converts the window to it or is refused."""
    d, J, block = _torus_coefficients()
    i = J.pos(-(sites // 2))
    return d, JacobiWindow(J.a[i : i + sites], J.b[i : i + sites], -(sites // 2)), block


def sum_rule_window(rng: np.random.Generator) -> GmpWindow:
    """A genus-0 window of 30 free blocks (p = 1, q = 0) on each side of 6
    random sites, blocks 1..6: a in [0.6, 1.5] and b in [-0.8, 0.8], where
    the coupling into block j is p_j and its diagonal p_j q_j."""
    p, b = np.ones(66), np.zeros(66)
    p[30:36], b[30:36] = rng.uniform(0.6, 1.5, 6), rng.uniform(-0.8, 0.8, 6)
    return GmpWindow(p[:, None], (b / p)[:, None], (), j_min=-29)


def periodic_jacobi(N: int, seed) -> tuple[np.ndarray, np.ndarray, GapSet]:
    """a(0..N-1) in [0.6, 1.4] and b(0..N-1) in [-0.8, 0.8] of a period-N
    Jacobi matrix, drawn in that order from ``np.random.default_rng(seed)``
    (a Generator is drawn from as it stands), and the gap set of its band
    edges: the eigenvalues of the N x N matrices with +-a(0) added at the
    corners, the periodic and the antiperiodic Floquet matrix."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.6, 1.4, N), rng.uniform(-0.8, 0.8, N)
    floquet = np.diag(b) + np.diag(a[1:], 1) + np.diag(a[1:], -1)
    corner = np.zeros((N, N))
    corner[0, -1] = corner[-1, 0] = a[0]
    edges = np.sort(np.concatenate([np.linalg.eigvalsh(floquet + s * corner) for s in (1.0, -1.0)]))
    return a, b, GapSet(edges[0], edges[-1], tuple(zip(edges[1:-1:2], edges[2:-1:2])))


def half_line_measures(w: GmpWindow) -> list[tuple[DiscreteMeasure, int]]:
    """Spectral measures of the two halves of the window's dense matrix at
    the start vectors of ``gmp_to_jacobi_measure``, each with the depth
    that function uses, plus half first: the dense eigensolve route to the
    same coefficients."""
    A = assemble_dense(w)
    i0 = w.scalar_index(0, 0)
    v_plus = A[i0:, i0 - 1] / np.linalg.norm(w.block(0).p)
    measures = []
    for mat, start in ((A[i0:, i0:], v_plus), (A[:i0, :i0], np.eye(1, i0, i0 - 1)[0])):
        vals, vecs = numkit.sym_eigen(mat)
        wts = (vecs.T @ start) ** 2
        keep = wts > 0.0
        measure = DiscreteMeasure(vals[keep], wts[keep] / np.sum(wts[keep]))
        measures.append((measure, mat.shape[0] // (w.g + 1) - 1))
    return measures


@pytest.fixture
def estar_gapset() -> GapSet:
    return make_estar_gapset()


@pytest.fixture
def p1_block() -> GmpBlock:
    return make_p1_block()


@pytest.fixture
def p1_window() -> GmpWindow:
    return make_p1_window()
