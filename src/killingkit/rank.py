"""Numerical rank decisions and the order-by-order stabilisation loop shared
by the Killing kernel, the infinitesimal holonomy and a product's slot
matrices.  Each order's new block is ranked under the previous decision's
``factor``, which has the Gram matrix of every block before it.

Ranks are decided on matrices with no units (``CurvatureData.unit_frames``),
so one absolute threshold serves every chart."""
from __future__ import annotations

from collections import namedtuple

import numpy as np

# margin: sigma_max, smallest_kept, largest_cut; row and null: orthonormal rows
# spanning the row space and its complement; factor: S Vh, of the same Gram matrix
RankDecision = namedtuple("RankDecision", "rank margin row null factor")


def numerical_rank(block, tol, previous=None):
    """Rank at the absolute threshold tol of ``block`` under the ``factor`` of
    the decision ``previous``, if any: [A; B] and [S Vh; B] have one Gram
    matrix, so one rank, margin and null space.  The number of singular
    values above tol, from one SVD; an all-zero or empty matrix has rank 0
    and needs none, and an all-zero or empty block adds nothing to
    ``previous``, which is returned as it is."""
    if previous is not None and not np.any(block):
        return previous
    matrix = block if previous is None else np.vstack([previous.factor, block])
    ncols = matrix.shape[1]
    if matrix.size == 0 or not np.any(matrix):
        margin = {"sigma_max": 0.0, "smallest_kept": None, "largest_cut": 0.0}
        return RankDecision(0, margin, np.zeros((0, ncols)), np.eye(ncols),
                            np.zeros((0, ncols)))
    _, s, vh = np.linalg.svd(matrix, full_matrices=False)
    smax = float(s[0])
    rank = int(np.sum(s > tol))
    margin = {"sigma_max": smax,
              "smallest_kept": float(s[rank - 1]) if rank else None,
              "largest_cut": float(s[rank]) if rank < len(s) else 0.0}
    null = vh[rank:]
    if len(vh) < ncols:  # a wide matrix: the thin SVD leaves part of the null space out
        q, _ = np.linalg.qr(vh.T, mode="complete")
        null = np.vstack([null, q[:, len(vh):].T])
    return RankDecision(rank, margin, vh[:rank], null, s[:, None] * vh)


def fixed_basis(rows):
    """An orthonormal basis of the span of the orthonormal ``rows``, chosen
    by a fixed rule, so that rounding in the rows cannot turn it within the
    span: the standard basis vectors, in order, projected onto the span and
    orthonormalised one after the other, each turned to meet its standard
    vector positively.  A projection that the vectors before it leave with
    less than 1/(2 sqrt(m)) of unit length (m coordinates) is skipped: the
    projections left over then hold less than a quarter in all, so the rule
    always finds as many vectors as the span has dimensions.  A span that
    holds every standard vector gets the standard basis itself."""
    if len(rows) == 0:
        return rows
    floor = 0.5 / np.sqrt(rows.shape[1])
    picked = []
    for v in rows.T:   # the projection of a standard vector, over the rows
        for _ in range(2):   # twice is enough (Gram-Schmidt with reorthogonalisation)
            for w in picked:
                v = v - (w @ v) * w
        norm = np.linalg.norm(v)
        if norm > floor:
            picked.append(v / norm)
            if len(picked) == len(rows):
                break
    return np.array(picked) @ rows


def stabilise(decide, m_max, count):
    """Take the rank decisions of ``count`` points in lockstep, for
    m = 0, 1, ...: ``decide(m, active, previous)`` returns the decision at
    order m of each point listed in ``active``, given each one's decision at
    order m - 1 in ``previous`` (None at m = 0), and a point leaves once two
    orders in a row agree.

    Returns, for each point, its decision at each order and its
    stabilisation order (the first of the two, or None when the rank still
    changes at m_max).
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    decisions = [[] for _ in range(count)]
    orders = [None] * count
    active = list(range(count))
    for m in range(m_max + 1):
        previous = [decisions[k][-1] if m else None for k in active]
        for k, decision in zip(active, decide(m, active, previous)):
            decisions[k].append(decision)
            if m >= 1 and decision.rank == decisions[k][-2].rank:
                orders[k] = m - 1
        active = [k for k in active if orders[k] is None]
        if not active:
            break
    return list(zip(decisions, orders))
