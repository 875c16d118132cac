"""Product charts, the splitting test for their isometry algebras, and the
plane-wave cross construction that defeats naive splitting.

The decomposition question: does the isometry-algebra dimension of a product
equal the sum over its factors?  It does whenever one factor admits no
parallel vector field (on analytic, simply connected charts); a product of
two plane-wave charts, each carrying a parallel null direction, produces one
extra field mixing the factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metricdsl
from .curvature import CurvatureData, frame_ladder, unpack
from .holonomy import parallel_field_check
from .killing import _kernel_trace, bundle_dim, kernel_report, tower_level
from .metricdsl import Assumptions, Const, Coord, ManifoldSpec, make_spec
from .rank import RankDecision, numerical_rank, stabilise


@dataclass(frozen=True)
class ProductSpec:
    """A block-diagonal combination of two charts with prefixed coordinates."""

    combined: ManifoldSpec
    factors: tuple
    blocks: tuple        # (range, range) of coordinate indices per factor

    @property
    def dim(self):
        return self.combined.dim


def product_metric(a, b):
    """Block-diagonal product chart: the first factor's coordinates and
    parameters prefixed with a_, the second's with b_; assumption flags are
    the conjunction."""
    prefixes = ("a_", "b_")
    coord_names = [prefix + c for spec, prefix in zip((a, b), prefixes) for c in spec.coords]
    n = a.dim + b.dim
    zero = Const(0.0)
    grid = [[zero] * n for _ in range(n)]
    for spec, off in ((a, 0), (b, a.dim)):
        subs = {i: Coord(coord_names[off + i], off + i) for i in range(spec.dim)}
        for i in range(spec.dim):
            for j in range(spec.dim):
                grid[off + i][off + j] = metricdsl.substitute_coords(spec.metric[i][j], subs)
    params = tuple((prefix + name, value)
                   for spec, prefix in zip((a, b), prefixes) for name, value in spec.params)
    assumptions = Assumptions(
        analytic=a.assumptions.analytic and b.assumptions.analytic,
        simply_connected=(a.assumptions.simply_connected
                          and b.assumptions.simply_connected))
    combined = make_spec(
        name=f"product_{a.name}_{b.name}",
        coords=coord_names,
        metric=grid,
        params=params,
        base_point=tuple(a.base_point) + tuple(b.base_point),
        assumptions=assumptions)
    return ProductSpec(combined=combined, factors=(a, b),
                       blocks=(range(0, a.dim), range(a.dim, n)))


def mixed_curvature_residuals(prod, m_max=3):
    """Largest mixed component of each covariant derivative of the curvature
    at the product's base point, over the largest component (at least 1).

    Read from covR[m] in pair form, [P, Q, z..]: an entry is mixed when its
    indices (those of the pairs P and Q, and z..) lie in both factors.  For
    a genuine product every mixed component vanishes.  On a
    ``product_metric`` chart the residual is zero by construction: the cross
    metric entries are the literal 0, so every mixed jet is a sum of
    products with an exact zero.  So it checks the product construction,
    not the curvature chain.
    """
    spec = prod.combined
    curv = CurvatureData.compute(spec, m_max=m_max)
    block_of = np.zeros(spec.dim, dtype=int)
    block_of[list(prod.blocks[1])] = 1
    r, s = np.triu_indices(spec.dim, k=1)
    lows = np.minimum(block_of[r], block_of[s])    # of each pair's two indices
    highs = np.maximum(block_of[r], block_of[s])
    residuals = []
    for cov in curv.covR:
        slots = [block_of] * (cov.ndim - 2)
        mixed = (reduce(np.minimum, np.ix_(lows, lows, *slots))
                 != reduce(np.maximum, np.ix_(highs, highs, *slots)))
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        residuals.append(float(np.abs(cov[mixed]).max(initial=0.0)) / scale)
    return residuals


@dataclass
class DecompositionReport:
    """Outcome of comparing a product's isometry dimension to its factors."""

    dim_product: int
    dim_a: int
    dim_b: int
    excess: int
    parallel: tuple      # (p_a, p_b): nullities of the factors' slot matrices
    verdict_a: str
    verdict_b: str
    inconclusive: bool
    product_report: object
    factor_reports: tuple
    verdicts: tuple
    warnings: list


def slot_matrix(frame, m):
    """The rows that order m adds to the matrix whose null space is par: the
    tangent vectors that give zero in every slot of every nabla^k R, k <= m.
    From the ``UnitFrame`` ``frame`` of a chart: covR[m] unpacked, lowered,
    each of its slots in turn moved last and taken as the columns.  The
    lowered tensor is antisymmetric in its slots 0 and 1 and in 2 and 3,
    and symmetric under the swap of the two pairs, so the blocks of the four
    curvature slots have one Gram matrix: the slot-0 block weighted by 2
    stands for all four, and the m derivative slots follow, (1 + m)
    n^(3 + m) rows in all."""
    n = len(frame.signs)
    low = unpack(frame.covR[m], n)
    return np.vstack([2.0 * np.moveaxis(low, 0, -1).reshape(-1, n)]
                     + [np.moveaxis(low, s, -1).reshape(-1, n) for s in range(4, low.ndim)])


def _joint_margin(decisions):
    """The margin of several rank decisions read together: the largest
    singular value, the smallest one kept and the largest one cut."""
    margins = [d.margin for d in decisions]
    kept = [g["smallest_kept"] for g in margins if g["smallest_kept"] is not None]
    return {"sigma_max": max(g["sigma_max"] for g in margins),
            "smallest_kept": min(kept) if kept else None,
            "largest_cut": max(g["largest_cut"] for g in margins)}


def decomposition_check(a, b, m_max=10, tol=1e-8):
    """Compare the product's stabilised kernel dimension with the factor sum.

    No nabla^m R of a product mixes the factors, so its tower is block
    diagonal: the germs (xi_a, A_aa) and (xi_b, A_bb) meet only their own
    factor's tower, and the mixed part A_ab is in the kernel exactly when its
    image lies in par_a and that of its adjoint in par_b, a space of
    dimension p_a p_b (``slot_matrix``).  So order m of the product's trace
    is dims_a[m] + dims_b[m] + p_a[m] p_b[m], ranked in each factor's own
    unit frame; no product chart is built.  Each p is checked against the
    factor's holonomy candidates, and a mismatch leaves the answer
    inconclusive.

    Each factor's curvature comes from one ``frame_ladder``, which its
    Killing trace, its slot matrices and its holonomy verdict all read, so
    each depth is computed once; the product's trace reuses the rank
    decisions of the factors' traces, and past a factor's last order ranks
    its next level on them, as its trace would have.
    """
    specs = (a, b)
    ladders = [frame_ladder(spec, [spec.base_point], min(2, m_max + 1)) for spec in specs]
    traces = [_kernel_trace(spec, [spec.base_point], m_max, tol, frames)[0]
              for spec, frames in zip(specs, ladders)]
    towers = [list(decisions) for _, decisions, _ in traces]
    slots = [None, None]

    def decide(m, _, __):
        for k, ladder in enumerate(ladders):
            [frame] = ladder(m + 1)
            slots[k] = numerical_rank(slot_matrix(frame, m), tol, slots[k])
            if m == len(towers[k]):
                towers[k].append(numerical_rank(tower_level(frame, m), tol, towers[k][-1]))
        here = [tower[m] for tower in towers]
        mixed = a.dim * b.dim - (a.dim - slots[0].rank) * (b.dim - slots[1].rank)
        return [RankDecision(here[0].rank + here[1].rank + mixed,
                             _joint_margin(here + slots), None, None, None)]

    [trace] = stabilise(decide, m_max, 1)
    rep_p = kernel_report(*trace, tuple(a.base_point) + tuple(b.base_point),
                          bundle_dim(a.dim + b.dim),
                          a.assumptions.analytic and b.assumptions.analytic, m_max, tol)
    (rep_a, _, _), (rep_b, _, _) = traces
    parallel = tuple(spec.dim - s.rank for spec, s in zip(specs, slots))
    verdicts = tuple(parallel_field_check(spec, m_max=m_max, tol=tol, frames=frames)
                     for spec, frames in zip(specs, ladders))
    warnings = {w for r in (rep_a, rep_b, rep_p) + verdicts for w in r.warnings}
    mismatched = False
    for side, spec, p, verdict in zip("ab", specs, parallel, verdicts):
        if p != len(verdict.basis):
            mismatched = True
            warnings.add(f"factor {side} ({spec.name}): {p} parallel directions in the "
                         f"curvature slots but {len(verdict.basis)} holonomy candidates; "
                         "excess undecided")
    return DecompositionReport(
        dim_product=rep_p.stabilized_dim,
        dim_a=rep_a.stabilized_dim,
        dim_b=rep_b.stabilized_dim,
        excess=rep_p.stabilized_dim - rep_a.stabilized_dim - rep_b.stabilized_dim,
        parallel=parallel,
        verdict_a=verdicts[0].kind,
        verdict_b=verdicts[1].kind,
        inconclusive=mismatched or not (rep_a.stable and rep_b.stable and rep_p.stable),
        product_report=rep_p,
        factor_reports=(rep_a, rep_b),
        verdicts=verdicts,
        warnings=sorted(warnings))


def cw_counterexample(q_plus=(1.0,), q_minus=(-1.0,)):
    """The product of two plane-wave charts with the cross vector field.

    Each factor has one x-direction per entry of its q list and carries the
    parallel null direction along its v-coordinate; the returned field
    t_plus * d/dv_minus - t_minus * d/dv_plus is Killing on the product but
    projects to neither factor.
    """
    prod = product_metric(*(metricdsl.builtin("cahen_wallach", n=len(q), q=q)
                            for q in (q_plus, q_minus)))
    components = ["0"] * prod.dim
    components[prod.combined.coord_index("a_v")] = "-b_t"
    components[prod.combined.coord_index("b_v")] = "a_t"
    return prod, components
