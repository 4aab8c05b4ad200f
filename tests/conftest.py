"""Shared fixtures: canonical small inputs used across the test modules."""

import numpy as np
import pytest

from gmpflow import numkit
from gmpflow.finitegap import DeltaData, GapSet
from gmpflow.gmp import GmpBlock, GmpWindow, assemble_dense
from gmpflow.jacobi import DiscreteMeasure


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
