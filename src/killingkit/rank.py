"""Numerical rank decisions and the order-by-order stabilisation loop shared
by the Killing kernel and the infinitesimal holonomy."""
from __future__ import annotations

from collections import namedtuple

import numpy as np

# Entries this far below the curvature scale are floating-point residue of
# exact cancellations; rank decisions zero them first so a mathematically
# zero matrix cannot seed its own (junk) sigma_max.
ROUNDOFF_CLEAN = 1e-12


def clean_matrix(matrix, scale):
    floor = ROUNDOFF_CLEAN * max(1.0, scale) ** 2
    return np.where(np.abs(matrix) <= floor, 0.0, matrix)


def data_scale(curv, *extra):
    """Magnitude of the raw curvature inputs, the reference for rank floors."""
    vals = [1.0, float(np.abs(curv.g).max()), float(np.abs(curv.ginv).max()),
            float(np.abs(curv.gamma_jets.value()).max()),
            float(np.abs(curv.riemann).max())]
    vals.extend(float(x) for x in extra)
    return max(vals)


# margin: sigma_max, smallest_kept, largest_cut; row and null: orthonormal rows
# spanning the row space and its complement
RankDecision = namedtuple("RankDecision", "rank margin row null")


def numerical_rank(matrix, tol):
    """Rank at the threshold tol * sigma_max, from one SVD; an all-zero or
    empty matrix has rank 0 and needs none."""
    ncols = matrix.shape[1]
    if matrix.size == 0 or not np.any(matrix):
        margin = {"sigma_max": 0.0, "smallest_kept": None, "largest_cut": 0.0}
        return RankDecision(0, margin, np.zeros((0, ncols)), np.eye(ncols))
    _, s, vh = np.linalg.svd(matrix, full_matrices=False)
    smax = float(s[0])
    rank = int(np.sum(s > tol * smax))
    margin = {"sigma_max": smax,
              "smallest_kept": float(s[rank - 1]) if rank else None,
              "largest_cut": float(s[rank]) if rank < len(s) else 0.0}
    null = vh[rank:]
    if len(vh) < ncols:  # a wide matrix: the thin SVD leaves part of the null space out
        q, _ = np.linalg.qr(vh.T, mode="complete")
        null = np.vstack([null, q[:, len(vh):].T])
    return RankDecision(rank, margin, vh[:rank], null)


def stabilise(stack_at, m_max, tol):
    """Rank ``stack_at(m)`` for m = 0, 1, ... until two orders in a row agree.

    Returns the decision at each order, the stabilisation order (the first of
    the two, or None when the rank still changes at m_max) and the last stack.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    decisions = []
    for m in range(m_max + 1):
        stack = stack_at(m)
        decisions.append(numerical_rank(stack, tol))
        if m >= 1 and decisions[-1].rank == decisions[-2].rank:
            return decisions, m - 1, stack
    return decisions, None, stack
