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
from .curvature import CurvatureData
from .holonomy import parallel_field_check
from .killing import PreconditionError, germ_kernel_residual, killing_dimension
from .metricdsl import Assumptions, Const, ManifoldSpec, SpecError, make_spec


@dataclass(frozen=True)
class ProductSpec:
    """A block-diagonal combination of two charts with prefixed coordinates."""

    combined: ManifoldSpec
    factors: tuple
    prefixes: tuple
    blocks: tuple        # (range, range) of coordinate indices per factor
    renames: tuple       # per factor: sorted (name, prefixed name) pairs

    @property
    def dim(self):
        return self.combined.dim


def product_metric(a, b, prefixes=("a_", "b_")):
    """Block-diagonal product chart; assumption flags are the conjunction."""
    renames = []
    coord_names = []
    for spec, prefix in zip((a, b), prefixes):
        mapping = {c: prefix + c for c in spec.coords}
        renames.append(mapping)
        coord_names.extend(mapping[c] for c in spec.coords)
    if len(set(coord_names)) != len(coord_names):
        raise SpecError("coordinate name collision after prefixing")
    n = a.dim + b.dim
    zero = Const(0.0)
    grid = [[zero] * n for _ in range(n)]
    for k, (spec, off) in enumerate(((a, 0), (b, a.dim))):
        index_map = {i: i + off for i in range(spec.dim)}
        for i in range(spec.dim):
            for j in range(spec.dim):
                grid[off + i][off + j] = metricdsl.rename_coords(
                    spec.metric[i][j], index_map, renames[k])
    params = tuple((prefixes[k] + name, value)
                   for k, spec in enumerate((a, b)) for name, value in spec.params)
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
    return ProductSpec(combined=combined, factors=(a, b), prefixes=tuple(prefixes),
                       blocks=(range(0, a.dim), range(a.dim, n)),
                       renames=tuple(tuple(sorted(m.items())) for m in renames))


def mixed_curvature_residuals(prod, m_max=3, point=None):
    """Largest mixed component of each covariant derivative of the curvature.

    For a genuine product every component with slots from both factors must
    vanish; values are scaled by the largest component of the full tensor.
    """
    spec = prod.combined
    curv = CurvatureData.compute(spec, point=point, m_max=m_max)
    block_of = np.zeros(spec.dim, dtype=int)
    block_of[list(prod.blocks[1])] = 1
    residuals = []
    for arr in curv.covR:
        grids = np.meshgrid(*[block_of] * arr.ndim, indexing="ij", sparse=True)
        mixed = reduce(np.minimum, grids) != reduce(np.maximum, grids)
        scale = max(1.0, float(np.abs(arr).max()))
        worst = float(np.abs(arr[mixed]).max()) if mixed.any() else 0.0
        residuals.append(worst / scale)
    return residuals


@dataclass
class DecompositionReport:
    """Outcome of comparing a product's isometry dimension to its factors."""

    dim_product: int
    dim_a: int
    dim_b: int
    excess: int
    verdict_a: str
    verdict_b: str
    inconclusive: bool
    product_report: object
    factor_reports: tuple
    verdicts: tuple
    warnings: list


def decomposition_check(a, b, m_max=10, tol=1e-8):
    """Compare the product's stabilised kernel dimension with the factor sum."""
    rep_a = killing_dimension(a, m_max=m_max, tol=tol)
    rep_b = killing_dimension(b, m_max=m_max, tol=tol)
    prod = product_metric(a, b)
    rep_p = killing_dimension(prod.combined, m_max=m_max, tol=tol)
    verdict_a = parallel_field_check(a, m_max=m_max, tol=tol)
    verdict_b = parallel_field_check(b, m_max=m_max, tol=tol)
    inconclusive = not (rep_a.stable and rep_b.stable and rep_p.stable)
    warnings = sorted(set(rep_a.warnings + rep_b.warnings + rep_p.warnings
                          + verdict_a.warnings + verdict_b.warnings))
    return DecompositionReport(
        dim_product=rep_p.stabilized_dim,
        dim_a=rep_a.stabilized_dim,
        dim_b=rep_b.stabilized_dim,
        excess=rep_p.stabilized_dim - rep_a.stabilized_dim - rep_b.stabilized_dim,
        verdict_a=verdict_a.kind,
        verdict_b=verdict_b.kind,
        inconclusive=inconclusive,
        product_report=rep_p,
        factor_reports=(rep_a, rep_b),
        verdicts=(verdict_a, verdict_b),
        warnings=warnings)


def cw_counterexample(n_plus=1, q_plus=(1.0,), n_minus=1, q_minus=(-1.0,)):
    """The product of two plane-wave charts with the cross vector field.

    Each factor carries the parallel null direction along its v-coordinate;
    the returned field t_plus * d/dv_minus - t_minus * d/dv_plus is Killing
    on the product but projects to neither factor.
    """
    a = metricdsl.builtin("cahen_wallach", n=n_plus, q=list(np.atleast_1d(q_plus)))
    b = metricdsl.builtin("cahen_wallach", n=n_minus, q=list(np.atleast_1d(q_minus)))
    prod = product_metric(a, b)
    components = ["0"] * prod.dim
    components[prod.combined.coord_index("a_v")] = "-b_t"
    components[prod.combined.coord_index("b_v")] = "a_t"
    return prod, components


@dataclass
class MixedBlockReport:
    """Residuals of the cross-factor curvature contractions along a germ."""

    residuals_minus: list   # per k: (grad^k R of factor b)(A X_plus, X_minus)
    residuals_plus: list    # per k: (grad^k R of factor a)(X_plus, A X_minus)
    max_residual: float
    passed: bool
    tol: float


def _restrict(arr, idx):
    for ax in range(arr.ndim):
        arr = np.take(arr, idx, axis=ax)
    return arr


def mixed_block_check(prod, germ, k_max=2, tol=1e-8, point=None):
    """For a germ in the stabilised kernel, every contraction of a factor's
    curvature derivatives with the germ's cross-block must vanish."""
    spec = prod.combined
    membership = germ_kernel_residual(spec, germ, point=point, m_max=2)
    if membership > tol * 10:
        raise PreconditionError(
            f"germ is not in the integrability kernel (residual {membership:.3g}); "
            "mixed-block check refused")
    curv = CurvatureData.compute(spec, point=point, m_max=k_max)
    plus = np.array(list(prod.blocks[0]))
    minus = np.array(list(prod.blocks[1]))
    a = germ.a
    res_minus, res_plus = [], []
    for arr in curv.covR:
        scale = max(1.0, float(np.abs(arr).max())) * max(1.0, float(np.abs(a).max()))
        sub = _restrict(arr, minus)
        hit = np.einsum("lkaj...,ai->lkij...", sub, a[np.ix_(minus, plus)])
        res_minus.append(float(np.abs(hit).max()) / scale)
        sub = _restrict(arr, plus)
        hit = np.einsum("lkia...,aj->lkij...", sub, a[np.ix_(plus, minus)])
        res_plus.append(float(np.abs(hit).max()) / scale)
    worst = max(res_minus + res_plus)
    return MixedBlockReport(residuals_minus=res_minus, residuals_plus=res_plus,
                            max_residual=worst, passed=worst <= tol, tol=tol)
