"""Infinitesimal holonomy at a point and parallel-vector detection.

The generators are the curvature endomorphisms and their covariant
derivatives, span-closed order by order until the dimension stops growing.
Tangent vectors annihilated by every generator are the candidates for
parallel vector fields; on an analytic, simply connected chart each candidate
extends to an actual parallel field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureData
from .rank import numerical_rank, stabilise


@dataclass
class HolonomyReport:
    """Span of curvature endomorphisms at a point, order by order."""

    point: tuple
    dims: list
    dimension: int
    stabilization_order: object  # int, or None when not stabilized
    gaps: list                   # per order: the margin of its rank decision
    generators: np.ndarray       # (dim, n, n), Frobenius-orthonormal in the unit frame
    candidates: np.ndarray       # (k, n) rows spanning the joint kernel
    bracket_closure_enlarges: bool
    nullity: int
    warnings: list
    tol: float

    @property
    def stable(self):
        return self.stabilization_order is not None


def infinitesimal_holonomy(spec, point=None, m_max=10, tol=1e-8):
    """Span the endomorphism values of the curvature and its covariant
    derivatives at a point, one derivative order at a time.

    Order m ranks the values of orders 0..m, taken from curvature built at jet
    order m + 2, in its unit frame.  Stops at the first order that adds
    nothing; warns when the span is still growing at m_max.
    """
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    n = spec.dim
    iu, ju = np.triu_indices(n, k=1)
    curv = None

    def stack_at(m):
        nonlocal curv
        curv = CurvatureData.compute(spec, p, m_max=m)
        # endomorphism slots (l, k) to the back, one row per (i<j, z...)
        return np.vstack([np.moveaxis(arr, (0, 1), (-2, -1))[iu, ju].reshape(-1, n * n)
                          for arr in curv.unit_frame.covR])

    decisions, stab_order, rows = stabilise(stack_at, m_max, tol)
    warnings = []
    if stab_order is None:
        warnings.append(
            f"unstable: holonomy span still growing at order m_max={m_max}")
    span = decisions[-1]
    frame = curv.unit_frame
    generators = span.row.reshape(span.rank, n, n)
    candidates = numerical_rank(generators.reshape(-1, n), tol).null
    return HolonomyReport(point=tuple(map(float, p)), dims=[d.rank for d in decisions],
                          dimension=span.rank, stabilization_order=stab_order,
                          gaps=[dict(d.margin, order=m) for m, d in enumerate(decisions)],
                          generators=frame.e @ generators @ frame.einv,
                          candidates=candidates @ frame.e.T,
                          bracket_closure_enlarges=_bracket_check(generators, rows,
                                                                  span.rank, tol),
                          nullity=nullity(curv, tol), warnings=warnings, tol=tol)


def _bracket_check(generators, rows, rank, tol):
    """Would adding commutators of the generators to ``rows``, whose rank is
    ``rank``, enlarge the span?"""
    k = len(generators)
    if k < 2:
        return False
    n = generators.shape[1]
    brackets = []
    for i in range(k):
        for j in range(i + 1, k):
            gi, gj = generators[i], generators[j]
            brackets.append((gi @ gj - gj @ gi).reshape(n * n))
    enlarged = np.vstack([rows, np.array(brackets)])
    return bool(numerical_rank(enlarged, tol).rank > rank)


def nullity(curv, tol=1e-8):
    """Dimension of the space of tangent vectors killed by contraction into
    the first two-form slot of the curvature, ranked in the unit frame."""
    n = curv.n
    rm = curv.unit_frame.covR[0]
    mat = np.moveaxis(rm, 2, -1).reshape(-1, n)  # rows (l,k,j) x col i
    return n - numerical_rank(mat, tol).rank


@dataclass
class ParallelVerdict:
    """Outcome of the parallel-vector-field detector."""

    kind: str                   # no_parallel_field | has_parallel_field | inconclusive
    basis: np.ndarray
    holonomy: HolonomyReport
    warnings: list


def parallel_field_check(spec, point=None, m_max=10, tol=1e-8):
    """Detect parallel vector fields through the holonomy kernel.

    Downgraded to ``inconclusive`` when the span never stabilises or the
    chart lacks the analytic flag.
    """
    report = infinitesimal_holonomy(spec, point, m_max, tol)
    warnings = list(report.warnings)
    if not spec.assumptions.analytic:
        warnings.append("analytic flag absent: infinitesimal holonomy may be "
                        "smaller than the full holonomy; verdict withheld")
    if not spec.assumptions.simply_connected:
        warnings.append("simply_connected flag absent: kernel vectors extend "
                        "only locally")
    if not report.stable or not spec.assumptions.analytic:
        kind = "inconclusive"
    elif len(report.candidates) == 0:
        kind = "no_parallel_field"
    else:
        kind = "has_parallel_field"
    return ParallelVerdict(kind=kind, basis=report.candidates,
                           holonomy=report, warnings=warnings)
