"""Infinitesimal holonomy at a point and parallel-vector detection.

The generators are the curvature endomorphisms and their covariant
derivatives, span-closed order by order until the dimension stops growing.
Tangent vectors annihilated by every generator are the candidates for
parallel vector fields; on an analytic, simply connected chart each candidate
extends to an actual parallel field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import frame_ladder, unpack
from .killing import so_basis
from .rank import fixed_basis, numerical_rank, stabilise


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

    @property
    def stable(self):
        return self.stabilization_order is not None


def infinitesimal_holonomy(spec, point=None, m_max=10, tol=1e-8, frames=None):
    """Span the endomorphism values of the curvature and its covariant
    derivatives at a point, one derivative order at a time.

    Order m ranks covR[m]'s ``endomorphism_rows`` on order m - 1's decision,
    in the unit frame of ``frames``, a
    ``frame_ladder`` of the chart at the point alone: by default a new one,
    whose first computation is the depth order 1 reads;
    ``decomposition_check`` passes the ladder its Killing trace has read.
    Stops at the first order that adds nothing; warns when the span is still
    growing at m_max.
    """
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    if frames is None:
        frames = frame_ladder(spec, p[None], min(1, m_max))
    n = spec.dim
    [(decisions, stab_order)] = stabilise(
        lambda m, _, previous: [numerical_rank(endomorphism_rows(frames(m)[0], m), tol,
                                               previous[0])], m_max, 1)
    warnings = []
    if stab_order is None:
        warnings.append(
            f"unstable: holonomy span still growing at order m_max={m_max}")
    span = decisions[-1]
    [frame] = frames(len(decisions) - 1)
    # the span's rows are so(p, q) coordinates over so_basis(signs) / sqrt(2),
    # an orthonormal basis of so(p, q) among the endomorphisms; bases by a
    # fixed rule, which rounding in the rows cannot turn: the generators from
    # that basis, the candidates from the frame's axes
    so_rows = so_basis(frame.signs).reshape(-1, n * n) / np.sqrt(2.0)
    generators = (fixed_basis(span.row) @ so_rows).reshape(span.rank, n, n)
    candidates = fixed_basis(numerical_rank(generators.reshape(-1, n), tol).null)
    # nullity: the vectors killed by contraction into the curvature's first
    # two-form slot, rows (l, k, j) x column i
    killed = numerical_rank(np.moveaxis(unpack(frame.covR[0], n), 2, -1).reshape(-1, n), tol)
    return HolonomyReport(point=tuple(map(float, p)), dims=[d.rank for d in decisions],
                          dimension=span.rank, stabilization_order=stab_order,
                          gaps=[dict(d.margin, order=m) for m, d in enumerate(decisions)],
                          generators=frame.e @ generators @ frame.einv,
                          candidates=candidates @ frame.e.T,
                          bracket_closure_enlarges=_bracket_check(generators, span, tol,
                                                                  so_rows),
                          nullity=n - killed.rank, warnings=warnings)


def endomorphism_rows(frame, m):
    """The rows order m adds to the holonomy span: covR[m] of the ``UnitFrame``
    ``frame``, one row per (Q, z..), each the endomorphism of its two-form
    and derivative slots in so(p, q) coordinates.  The lowered entry of
    covR[m] at the pair P = (l, k) is the endomorphism's coordinate on
    so_basis(signs)[P]; times sqrt(2) it is the coordinate on the
    orthonormal basis so_basis(signs) / sqrt(2), so a row has the length of
    the endomorphism's n x n entries, and the rank is at most C(n, 2)."""
    rows = np.moveaxis(frame.covR[m], 0, -1)
    return np.sqrt(2.0) * rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])


def _bracket_check(generators, span, tol, so_rows):
    """Would adding commutators of the generators, in the so(p, q)
    coordinates of the orthonormal ``so_rows``, to the rows ranked by the
    decision ``span`` enlarge the span?"""
    if len(generators) < 2:
        return False
    i, j = np.triu_indices(len(generators), k=1)
    brackets = generators[i] @ generators[j] - generators[j] @ generators[i]
    return bool(numerical_rank(brackets.reshape(len(i), -1) @ so_rows.T, tol,
                               span).rank > span.rank)


@dataclass
class ParallelVerdict:
    """Outcome of the parallel-vector-field detector."""

    kind: str                   # no_parallel_field | has_parallel_field | inconclusive
    basis: np.ndarray
    holonomy: HolonomyReport
    warnings: list


def parallel_field_check(spec, point=None, m_max=10, tol=1e-8, frames=None):
    """Detect parallel vector fields through the holonomy kernel, read from
    ``frames`` as ``infinitesimal_holonomy`` reads it.

    Downgraded to ``inconclusive`` when the span never stabilises or the
    chart lacks the analytic flag.
    """
    report = infinitesimal_holonomy(spec, point, m_max, tol, frames)
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
