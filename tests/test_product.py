import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import germ_kernel_residual, product_trace_by_full_tower
from test_killing import field_germ, sample

from killingkit import killing, product
from killingkit.curvature import CurvatureData
from killingkit.killing import (KillingGerm, kernel_germs, sample_field, verify_killing,
                                wedge)
from killingkit.metricdsl import builtin, known_killing_fields, parse_manifold
from killingkit.product import (cw_counterexample, decomposition_check,
                                mixed_curvature_residuals, product_metric, slot_matrix)
from killingkit.rank import numerical_rank

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def test_product_of_lines_is_plane():
    e1 = builtin("euclidean", n=1)
    prod = product_metric(e1, e1)
    assert prod.dim == 2
    assert prod.combined.coords == ("a_x1", "b_x1")
    assert np.allclose(prod.combined.metric_values((0.0, 0.0)), np.eye(2))
    assert prod.combined.assumptions.analytic


def test_product_block_structure():
    sp = builtin("sphere2")
    hy = builtin("hyperbolic2")
    prod = product_metric(sp, hy)
    assert prod.dim == 4
    g = prod.combined.metric_values(prod.combined.base_point)
    assert np.abs(g[:2, 2:]).max() == 0.0
    assert list(prod.blocks[0]) == [0, 1]
    assert list(prod.blocks[1]) == [2, 3]
    # factor base points concatenate
    assert prod.combined.base_point == tuple(sp.base_point) + tuple(hy.base_point)


def test_product_block_law():
    sp = builtin("sphere2")
    hy = builtin("hyperbolic2")
    res = mixed_curvature_residuals(product_metric(sp, hy), m_max=2)
    assert max(res) <= 1e-9


def test_decomposition_of_sphere_times_hyperbolic():
    rep = decomposition_check(builtin("sphere2"), builtin("hyperbolic2"))
    assert (rep.dim_a, rep.dim_b, rep.dim_product) == (3, 3, 6)
    assert rep.excess == 0
    assert rep.verdict_a == "no_parallel_field"
    assert rep.verdict_b == "no_parallel_field"
    assert not rep.inconclusive


def test_flat_factors_do_not_split():
    e1 = builtin("euclidean", n=1)
    rep = decomposition_check(e1, e1)
    assert (rep.dim_a, rep.dim_b, rep.dim_product) == (1, 1, 3)
    assert rep.excess == 1


def test_splitting_holds_with_one_clean_factor():
    # one factor without parallel fields forces zero excess, even when the
    # other factor carries one
    sp = builtin("sphere2")
    cw = builtin("cahen_wallach", n=1, q=1.0)
    rep = decomposition_check(sp, cw)
    assert rep.verdict_a == "no_parallel_field"
    assert rep.verdict_b == "has_parallel_field"
    assert rep.excess == 0
    assert rep.dim_product == rep.dim_a + rep.dim_b == 7


def test_monotonicity_of_product_dimension():
    pairs = [
        (builtin("sphere2"), builtin("hyperbolic2")),
        (builtin("euclidean", n=1), builtin("sphere2")),
        (builtin("cahen_wallach", n=1, q=1.0), builtin("cahen_wallach", n=1, q=-1.0)),
    ]
    for a, b in pairs:
        rep = decomposition_check(a, b)
        assert rep.dim_product >= rep.dim_a + rep.dim_b


def test_counterexample_field_is_killing_but_projections_fail():
    prod, field = cw_counterexample((1.0,), (-1.0,))
    spec = prod.combined
    pts = sample(spec)
    assert verify_killing(sample_field(spec, field, pts), tol=1e-10).passed
    # zero out either factor's components: no longer Killing
    iv_a = spec.coord_index("a_v")
    iv_b = spec.coord_index("b_v")
    proj_a = list(field)
    proj_a[iv_b] = "0"
    proj_b = list(field)
    proj_b[iv_a] = "0"
    assert not verify_killing(sample_field(spec, proj_a, pts), tol=1e-10).passed
    assert not verify_killing(sample_field(spec, proj_b, pts), tol=1e-10).passed


def test_counterexample_excess():
    prod, field = cw_counterexample((1.0,), (-1.0,))
    rep = decomposition_check(prod.factors[0], prod.factors[1])
    assert rep.dim_a == rep.dim_b == 4
    assert rep.dim_product == 9
    assert rep.excess == 1
    assert rep.verdict_a == rep.verdict_b == "has_parallel_field"


def test_counterexample_germ():
    prod, field = cw_counterexample((2.0,), (-3.0,))
    spec = prod.combined
    germ = field_germ(spec, field)
    g0 = spec.metric_values(spec.base_point)
    vp = np.zeros(6)
    vp[spec.coord_index("a_v")] = 1.0
    vm = np.zeros(6)
    vm[spec.coord_index("b_v")] = 1.0
    assert np.abs(germ.xi).max() == 0.0
    assert np.abs(-germ.a - wedge(vp, vm, g0)).max() < 1e-14


def _slot_stack(spec, m):
    """The slot matrices of ``spec`` at orders 0..m, stacked, in its unit
    frame, and that frame."""
    frame = CurvatureData.compute(spec, m_max=m).unit_frames[0]
    return np.vstack([slot_matrix(frame, k) for k in range(m + 1)]), frame


def _slot_residual(spec, vectors, m=2):
    """Largest |S y| over the columns v of ``vectors``, S the slot matrices of
    ``spec`` at orders 0..m and y = e^-1 v in its unit frame: zero exactly
    when every column lies in par, relative to the largest entry of
    ``vectors``."""
    stack, frame = _slot_stack(spec, m)
    hit = stack @ frame.einv @ vectors
    return float(np.abs(hit).max()) / max(1.0, float(np.abs(vectors).max()))


def _parallel(spec, m=2):
    return spec.dim - numerical_rank(_slot_stack(spec, m)[0], 1e-8).rank


def test_kernel_germs_do_not_mix_factors_without_parallel_directions():
    sp = builtin("sphere2")
    hy = builtin("hyperbolic2")
    prod = product_metric(sp, hy)
    assert (_parallel(sp), _parallel(hy)) == (0, 0)   # p_a * p_b = 0
    _, germs = kernel_germs(prod.combined)
    assert len(germs) == 6
    for germ in germs:
        assert np.abs(germ.a[:2, 2:]).max() <= 1e-8
        assert np.abs(germ.a[2:, :2]).max() <= 1e-8


def test_counterexample_germ_mixes_parallel_directions():
    prod, field = cw_counterexample()
    germ = field_germ(prod.combined, field)
    assert germ_kernel_residual(prod.combined, germ) <= 1e-8
    a, b = prod.factors
    assert (_parallel(a), _parallel(b)) == (1, 1)
    # A_ab maps b into par_a and A_ba maps a into par_b, and the germ has a
    # genuine cross block, so this is not vacuous
    assert _slot_residual(a, germ.a[:3, 3:]) <= 1e-8
    assert _slot_residual(b, germ.a[3:, :3]) <= 1e-8
    assert np.abs(germ.a[:3, 3:]).max() > 0.5


def test_random_germ_does_not_mix_parallel_directions():
    prod, _ = cw_counterexample()
    spec = prod.combined
    g0 = spec.metric_values(spec.base_point)
    rng = np.random.default_rng(2)
    germ = KillingGerm(xi=rng.normal(size=6),
                       a=wedge(rng.normal(size=6), rng.normal(size=6), g0))
    assert germ_kernel_residual(spec, germ) > 1e-3
    a, b = prod.factors
    assert _slot_residual(a, germ.a[:3, 3:]) > 1e-3
    assert _slot_residual(b, germ.a[3:, :3]) > 1e-3


# The pairs of the block law dims(a x b) = dims(a) + dims(b) + p_a p_b, with
# (dim_a, dim_b, excess).
PAIRS = {
    "s2xh2": ("sphere2", {}, "hyperbolic2", {}, (3, 3, 0)),
    "s2xcw1": ("sphere2", {}, "cahen_wallach", {"n": 1, "q": 1.0}, (3, 4, 0)),
    "cw1xcw1": ("cahen_wallach", {"n": 1, "q": 1.0},
                "cahen_wallach", {"n": 1, "q": -1.0}, (4, 4, 1)),
    "cw2xcw1": ("cahen_wallach", {"n": 2, "q": [1.0, 2.0]},
                "cahen_wallach", {"n": 1, "q": -1.0}, (6, 4, 1)),
    "cw2xcw2": ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]},
                "cahen_wallach", {"n": 2, "q": [1.0, -1.0]}, (6, 6, 1)),
    "e2xe2": ("euclidean", {"n": 2}, "euclidean", {"n": 2}, (3, 3, 4)),
    "e1xs2": ("euclidean", {"n": 1}, "sphere2", {}, (1, 3, 0)),
    "minkowski12xcw1": ("minkowski", {"p": 1, "q": 2},
                        "cahen_wallach", {"n": 1, "q": 1.0}, (6, 4, 3)),
    "walkerxe1": ("walker_recurrent", {}, "euclidean", {"n": 1}, (1, 1, 0)),
    "walkerxcw1": ("walker_recurrent", {}, "cahen_wallach", {"n": 1, "q": 1.0}, (1, 4, 0)),
}


def factors(pair):
    name_a, params_a, name_b, params_b, _ = PAIRS[pair]
    return builtin(name_a, params_a), builtin(name_b, params_b)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_block_law(pair):
    rep = decomposition_check(*factors(pair))
    p_a, p_b = rep.parallel
    assert (rep.dim_a, rep.dim_b, rep.excess) == PAIRS[pair][-1]
    assert rep.excess == p_a * p_b
    assert (p_a, p_b) == tuple(len(v.basis) for v in rep.verdicts)
    assert not rep.inconclusive


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_product_trace_matches_the_full_tower(pair):
    a, b = factors(pair)
    want = product_trace_by_full_tower(a, b, 10, 1e-8)
    assert decomposition_check(a, b).product_report.dims == want.dims


def test_product_trace_matches_the_full_tower_on_the_product_workload(tmp_path):
    for seed in (1, 2, 3):
        queries = workloads.build("product", seed, str(tmp_path / str(seed)),
                                  known_killing_fields)
        checked = 0
        for q in queries:
            if q.name.startswith("decomp."):
                a, b = (parse_manifold(Path(arg[1:]).read_text()) for arg in q.argv[1:3])
            elif q.name.startswith("demo."):
                qs = [float(arg.split("=")[1]) for arg in q.argv[1:3]]
                a, b = cw_counterexample(qs[:1], qs[1:])[0].factors
            else:
                continue
            want = product_trace_by_full_tower(a, b, 10, 1e-8)
            assert decomposition_check(a, b).product_report.dims == want.dims, q.name
            checked += 1
        assert checked == 9


def test_parallel_directions_must_match_the_holonomy(monkeypatch):
    check = product.parallel_field_check

    def one_more_candidate(spec, **kwargs):
        verdict = check(spec, **kwargs)
        return replace(verdict, basis=np.vstack([verdict.basis, np.ones(spec.dim)]))

    monkeypatch.setattr(product, "parallel_field_check", one_more_candidate)
    rep = decomposition_check(*factors("s2xcw1"))
    assert rep.inconclusive
    assert ("factor a (sphere2): 0 parallel directions in the curvature slots but "
            "1 holonomy candidates; excess undecided") in rep.warnings


def test_decomposition_builds_each_factor_level_once(monkeypatch):
    # walker x e1: the product's trace runs one order past e1's, so e1's
    # tower goes on from its trace's last decision; each factor builds level
    # m once, at order m
    a, b = factors("walkerxe1")
    built = {a.dim: [], b.dim: []}
    level = killing.tower_level

    def spy_level(frame, m):
        built[len(frame.signs)].append(m)
        return level(frame, m)

    monkeypatch.setattr(killing, "tower_level", spy_level)
    monkeypatch.setattr(product, "tower_level", spy_level)
    rep = decomposition_check(a, b)
    length = len(rep.product_report.dims)
    assert [len(r.dims) for r in rep.factor_reports] == [3, 2] and length == 3
    for spec, report in zip((a, b), rep.factor_reports):
        assert built[spec.dim] == list(range(max(len(report.dims), length)))


def test_decomposition_never_touches_the_product_chart(monkeypatch):
    a, b = factors("s2xcw1")
    seen = []
    compute = CurvatureData.compute.__func__
    level = killing.tower_level
    dimension = killing.killing_dimension

    def spy_compute(cls, spec, *args, **kwargs):
        seen.append(spec)
        return compute(cls, spec, *args, **kwargs)

    def spy_level(frame, m):
        seen.append(len(frame.signs))
        return level(frame, m)

    def spy_dimension(spec, *args, **kwargs):
        seen.append(spec)
        return dimension(spec, *args, **kwargs)

    monkeypatch.setattr(CurvatureData, "compute", classmethod(spy_compute))
    monkeypatch.setattr(killing, "tower_level", spy_level)
    monkeypatch.setattr(product, "tower_level", spy_level)
    monkeypatch.setattr(killing, "killing_dimension", spy_dimension)
    monkeypatch.setattr(product, "product_metric", None)   # calling it would raise
    rep = decomposition_check(a, b)
    assert (rep.dim_product, rep.excess) == (7, 0)
    assert seen
    assert all(x is a or x is b or x in (a.dim, b.dim) for x in seen), seen
