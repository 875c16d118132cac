import itertools

import numpy as np
import pytest

from killingkit import curvature, killing, metricdsl
from killingkit.curvature import CurvatureData
from killingkit.killing import (KillingGerm, PreconditionError, bundle_dim,
                                check_first_prolongation, field_jets, kernel_germs,
                                killing_dimension, killing_transport, nearby_points,
                                sample_field, so_basis, tower_level, vector_to_germ,
                                verify_killing, wedge)
from killingkit.metricdsl import builtin, known_killing_fields, parse_manifold
from killingkit.product import product_metric

from oracles import (apply_tensor, chebyshev_nodes, germ_kernel_residual,
                     integrability_tensors, killing_curvature, perturbed_points, stage_points,
                     transport_by_steps, whole_covR)
from test_tower import CHARTS, SCHWARZSCHILD, random_chart


def sample(spec):
    """The base point and its nearby points: the samples of check-field."""
    return [spec.base_point] + nearby_points(spec.base_point)


def field_germ(spec, fld, point=None):
    """The germ of a field at ``point`` (the base point by default), read
    from a one-point ``sample_field`` batch."""
    p = spec.base_point if point is None else point
    return sample_field(spec, fld, [p]).at(p)[0]


# -- germs ---------------------------------------------------------------------

def test_translation_germ_flat():
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["1", "0"])
    assert np.allclose(germ.xi, [1.0, 0.0])
    assert np.abs(germ.a).max() == 0.0


def test_rotation_germ_is_minus_gradient():
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["-x2", "x1"])
    assert np.allclose(germ.a, [[0.0, 1.0], [-1.0, 0.0]])
    assert germ.so_defect(np.eye(2)) <= 1e-9


def test_cross_field_germ_is_pure_wedge():
    from killingkit.product import cw_counterexample
    prod, field = cw_counterexample(1, (1.0,), 1, (-1.0,))
    spec = prod.combined
    germ = field_germ(spec, field)
    g0 = spec.metric_values(spec.base_point)
    vp = np.zeros(6)
    vp[spec.coord_index("a_v")] = 1.0
    vm = np.zeros(6)
    vm[spec.coord_index("b_v")] = 1.0
    w = wedge(vp, vm, g0)
    assert np.abs(germ.xi).max() == 0.0
    # A = -grad xi and grad xi equals the wedge of the two null directions
    assert np.abs(-germ.a - w).max() < 1e-14
    # blocks of A touching a single factor vanish
    assert np.abs(germ.a[:3, :3]).max() == 0.0
    assert np.abs(germ.a[3:, 3:]).max() == 0.0


# -- field verification ----------------------------------------------------------

def test_rotation_passes_dilation_fails():
    eu = builtin("euclidean", n=2)
    pts = sample(eu)
    assert verify_killing(sample_field(eu, ["-x2", "x1"], pts)).passed
    chk = verify_killing(sample_field(eu, ["x1", "x2"], pts))
    assert not chk.passed
    # the conformal factor shows up as the Lie derivative 2 g
    assert chk.max_residual == pytest.approx(2.0)


@pytest.mark.parametrize("name,params", [
    ("euclidean", {"n": 2}), ("euclidean", {"n": 3}),
    ("minkowski", {"p": 1, "q": 1}), ("minkowski", {"p": 1, "q": 3}),
    ("sphere2", {}), ("hyperbolic2", {}),
    ("cahen_wallach", {"n": 1, "q": 1.0}),
    ("cahen_wallach", {"n": 1, "q": -1.0}),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}),
])
def test_known_fields_are_killing(name, params):
    spec = builtin(name, **params)
    pts = sample(spec)
    for field in known_killing_fields(name, **params):
        chk = verify_killing(sample_field(spec, field, pts), tol=1e-9)
        assert chk.passed, (field, chk.max_residual)


def test_a_batch_failure_no_point_reproduces_is_raised(monkeypatch):
    # a batch that fails though each of its points evaluates alone: the good
    # points are evaluated together once more, and that failure is raised
    from killingkit import killing
    compute = killing.CurvatureData.compute

    def fails_on_batches(spec, point=None, m_max=1):
        if np.ndim(point) == 2 and len(point) > 1:
            raise ValueError("batch of more than one point")
        return compute(spec, point, m_max=m_max)

    monkeypatch.setattr(killing.CurvatureData, "compute", fails_on_batches)
    eu = builtin("euclidean", n=2)
    with pytest.raises(ValueError, match="batch of more than one point"):
        sample_field(eu, ["-x2", "x1"], sample(eu))
    # a batch of one point, or of none, evaluates
    assert verify_killing(sample_field(eu, ["-x2", "x1"], sample(eu)[:1])).passed
    assert len(sample_field(eu, ["-x2", "x1"], np.zeros((0, 2))).curv.point) == 0


def test_domain_error_is_per_point():
    hy = builtin("hyperbolic2")
    pts = [(0.0, 1.0), (0.0, 0.0)]  # second point leaves the chart (y = 0)
    chk = verify_killing(sample_field(hy, ["1", "0"], pts))
    assert chk.passed
    assert len(chk.point_errors) == 1


# -- first prolongation ------------------------------------------------------------

def test_first_prolongation_flat():
    eu = builtin("euclidean", n=2)
    chk = check_first_prolongation(sample_field(eu, ["-x2", "x1"], sample(eu)))
    assert chk.passed and chk.max_residual < 1e-14


def test_first_prolongation_sphere():
    sp = builtin("sphere2")
    for field in known_killing_fields("sphere2"):
        chk = check_first_prolongation(sample_field(sp, field, sample(sp)))
        assert chk.passed and chk.max_residual <= 1e-8


def test_first_prolongation_refuses_non_killing():
    eu = builtin("euclidean", n=2)
    with pytest.raises(PreconditionError, match="refused"):
        check_first_prolongation(sample_field(eu, ["x1", "x2"], sample(eu)))


# -- bundle curvature ---------------------------------------------------------------

def test_bundle_curvature_zero_on_flat():
    eu = builtin("euclidean", n=2)
    curv = CurvatureData.compute(eu, m_max=1)
    germ = KillingGerm(xi=np.array([1.0, -2.0]), a=np.array([[0.0, 3.0], [-3.0, 0.0]]))
    assert np.abs(killing_curvature(curv, germ, 0, 1)).max() == 0.0


def test_bundle_curvature_xi_independent_on_symmetric_space():
    cw = builtin("cahen_wallach", n=1, q=1.0)
    curv = CurvatureData.compute(cw, m_max=1)
    a = np.zeros((3, 3))
    g1 = KillingGerm(xi=np.array([1.0, 2.0, 3.0]), a=a)
    g2 = KillingGerm(xi=np.array([-4.0, 0.0, 7.0]), a=a)
    for i, j in itertools.combinations(range(3), 2):
        assert np.allclose(killing_curvature(curv, g1, i, j),
                           killing_curvature(curv, g2, i, j))


def test_bundle_curvature_annihilates_killing_germs():
    for name, params in [("sphere2", {}), ("cahen_wallach", {"n": 1, "q": 1.0})]:
        spec = builtin(name, **params)
        curv = CurvatureData.compute(spec, m_max=1)
        for field in known_killing_fields(name, **params):
            germ = field_germ(spec, field)
            worst = max(np.abs(killing_curvature(curv, germ, i, j)).max()
                        for i, j in itertools.combinations(range(spec.dim), 2))
            assert worst <= 1e-8


# -- integrability tensors ------------------------------------------------------------

def test_tower_vanishes_on_flat():
    eu = builtin("euclidean", n=3)
    frame = CurvatureData.compute(eu, m_max=3).unit_frames[0]
    for m in range(3):
        assert np.abs(tower_level(frame, m)).max() == 0.0


def test_tower_annihilates_killing_germs():
    for name, params in [("sphere2", {}), ("hyperbolic2", {}),
                         ("cahen_wallach", {"n": 1, "q": 1.0})]:
        spec = builtin(name, **params)
        for field in known_killing_fields(name, **params):
            germ = field_germ(spec, field)
            assert germ_kernel_residual(spec, germ, m_max=2) <= 1e-8


def test_tower_level_zero_matches_bundle_curvature():
    cw = builtin("cahen_wallach", n=1, q=-2.0)
    curv = CurvatureData.compute(cw, m_max=2)
    [t0] = integrability_tensors(whole_covR(curv), [0])
    germ = KillingGerm(xi=np.array([0.3, -1.0, 2.0]),
                       a=wedge(np.array([1.0, 0.0, 0.0]),
                               np.array([0.0, 0.0, 1.0]), curv.g))
    applied = apply_tensor(t0, germ.xi, germ.a)
    for i, j in itertools.combinations(range(3), 2):
        assert np.allclose(applied[:, :, i, j],
                           -killing_curvature(curv, germ, i, j))


def test_tower_level_one_is_derivative_along_transport():
    # independent cross-check of the substitution recursion: level 1 applied
    # to any germ must equal the covariant derivative of level 0 evaluated on
    # the D-parallel extension of that germ (computed here by transport plus
    # central differences)
    spec = builtin("walker_recurrent")
    p = np.array([0.0, 0.1, 0.2])
    g0 = spec.metric_values(p)
    rng = np.random.default_rng(8)
    germ = KillingGerm(xi=rng.normal(size=3),
                       a=wedge(rng.normal(size=3), rng.normal(size=3), g0))
    curv = CurvatureData.compute(spec, point=p, m_max=2)
    t0, t1 = integrability_tensors(whole_covR(curv), range(2))
    gamma = curv.gamma_jets.value()
    val0 = apply_tensor(t0, germ.xi, germ.a)
    h = 1e-4
    for z in range(3):
        e = np.zeros(3)
        e[z] = h
        gp = killing_transport(spec, germ, [p, p + e], steps_per_segment=40).end
        gm = killing_transport(spec, germ, [p, p - e], steps_per_segment=40).end
        cp = CurvatureData.compute(spec, point=p + e, m_max=1)
        cm = CurvatureData.compute(spec, point=p - e, m_max=1)
        vp = apply_tensor(integrability_tensors(whole_covR(cp), [0])[0], gp.xi, gp.a)
        vm = apply_tensor(integrability_tensors(whole_covR(cm), [0])[0], gm.xi, gm.a)
        fd = (vp - vm) / (2 * h)
        corr = (np.einsum("la,akij->lkij", gamma[:, z], val0)
                - np.einsum("ak,laij->lkij", gamma[:, z], val0)
                - np.einsum("ai,lkaj->lkij", gamma[:, z], val0)
                - np.einsum("aj,lkia->lkij", gamma[:, z], val0))
        got = apply_tensor(t1, germ.xi, germ.a)[..., z]
        assert np.abs(got - (fd + corr)).max() < 1e-6


def test_tower_order_exhaustion():
    # level m reads covR[m + 1]: a frame of depth 1 holds levels 0 and no more
    from killingkit.curvature import OrderExhaustedError
    frame = CurvatureData.compute(builtin("sphere2"), m_max=1).unit_frames[0]
    assert len(tower_level(frame, 0)) == 1
    for m in (1, 2):
        with pytest.raises(OrderExhaustedError, match="jet order"):
            tower_level(frame, m)


@pytest.mark.parametrize("multi_point", [False, True])
def test_each_tower_level_is_built_once(multi_point, monkeypatch):
    # a point's trace builds level m once, at order m: len(dims) levels
    built = []
    level = killing.tower_level

    def spy_level(frame, m):
        built.append(m)
        return level(frame, m)

    monkeypatch.setattr(killing, "tower_level", spy_level)
    rep = killing_dimension(parse_manifold(SCHWARZSCHILD), multi_point=multi_point)
    reports = rep.reports if multi_point else [rep]
    assert max(len(r.dims) for r in reports) == 3
    assert sorted(built) == sorted(m for r in reports for m in range(len(r.dims)))


def test_wedge_germ_detected_by_tower_on_product():
    # a cross wedge with a leg outside the parallel directions is cut out
    from killingkit.product import cw_counterexample
    prod, _ = cw_counterexample()
    spec = prod.combined
    g0 = spec.metric_values(spec.base_point)
    bad = np.zeros(6)
    bad[spec.coord_index("a_x1")] = 1.0
    vm = np.zeros(6)
    vm[spec.coord_index("b_v")] = 1.0
    germ = KillingGerm(xi=np.zeros(6), a=wedge(bad, vm, g0))
    assert germ_kernel_residual(spec, germ, m_max=1) > 1e-3


# -- kernel dimension --------------------------------------------------------------------

@pytest.mark.parametrize("name,params,expected,order", [
    ("euclidean", {"n": 2}, 3, 0),
    ("euclidean", {"n": 3}, 6, 0),
    ("minkowski", {"p": 1, "q": 1}, 3, 0),
    ("sphere2", {}, 3, 0),
    ("hyperbolic2", {}, 3, 0),
])
def test_killing_dimension_constant_curvature(name, params, expected, order):
    rep = killing_dimension(builtin(name, **params))
    assert rep.stabilized_dim == expected
    assert rep.stabilization_order == order
    assert rep.dims == sorted(rep.dims, reverse=True)


def test_killing_dimension_plane_wave():
    # lower bound: four explicit fields verified; upper bound: the kernel
    rep = killing_dimension(builtin("cahen_wallach", n=1, q=1.0))
    assert rep.stabilized_dim == 4
    rep = killing_dimension(builtin("cahen_wallach", n=2, q=[1.0, -1.0]))
    assert rep.stabilized_dim == 6


def test_killing_dimension_bound():
    for name, params in [("euclidean", {"n": 2}), ("sphere2", {}),
                         ("cahen_wallach", {"n": 1, "q": 1.0}),
                         ("walker_recurrent", {})]:
        spec = builtin(name, **params)
        rep = killing_dimension(spec)
        assert rep.stabilized_dim <= bundle_dim(spec.dim)


def test_strictly_smaller_for_non_maximal():
    assert killing_dimension(builtin("cahen_wallach", n=1, q=1.0)).stabilized_dim < 6
    assert killing_dimension(builtin("walker_recurrent")).stabilized_dim < 6


def test_unstable_warning_at_low_cap():
    rep = killing_dimension(builtin("sphere2"), m_max=0)
    assert rep.stabilization_order is None
    assert any("unstable" in w for w in rep.warnings)


def test_non_analytic_chart_warns_upper_bound():
    src = """
    manifold bare {
      coordinates: x, y;
      metric: [[1, 0], [0, 1 + x^2]];
    }
    """
    rep = killing_dimension(parse_manifold(src))
    assert any("upper bound" in w for w in rep.warnings)


def test_multi_point_mode():
    rep = killing_dimension(builtin("euclidean", n=2), multi_point=True)
    assert rep.min_dim == 3
    assert len(rep.reports) == 6
    assert all(r.stabilized_dim == 3 for r in rep.reports)


def test_nearby_points_keep_the_perturbed_points_off_the_line():
    # n >= 2: the axes do not wrap in five points, so the points are those
    # of the rule killing-dim used before, to the last bit: at the base
    # points of the charts of test_traces.py, of cw2 x cw2 and at random ones
    cw2 = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    specs = [CHARTS[c]() for c in sorted(set(CHARTS) - {"random3"})]
    points = [np.asarray(s.base_point, dtype=np.float64)
              for s in specs + [product_metric(cw2, cw2).combined]]
    rng = np.random.default_rng(20)
    points += [rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4)
               for n in (2, 2, 3, 4, 5, 8)]
    for p in points:
        new, old = nearby_points(p), perturbed_points(p.copy(), 5)
        assert [q.tobytes() for q in new] == [q.tobytes() for q in old]


@pytest.mark.parametrize("x,delta", [(0.0, 0.05), (-3.0, 0.2)])
def test_nearby_points_on_a_line_are_distinct(x, delta):
    # a 1-D chart has no diagonal: the axis wraps, a quarter longer each time
    rep = killing_dimension(builtin("euclidean", n=1), point=[x], multi_point=True)
    assert len(set(rep.points)) == 6
    assert np.allclose(np.ravel(rep.points),
                       x + delta * np.array([0.0, 1.0, -1.0, 1.25, -1.25, 1.5]))


def test_kernel_germs_span_killing_fields():
    sp = builtin("sphere2")
    rep, germs = kernel_germs(sp)
    assert len(germs) == 3
    def flat(germ):
        return np.concatenate([germ.xi, germ.a.ravel()])
    field_vectors = [flat(field_germ(sp, f)) for f in known_killing_fields("sphere2")]
    kernel_matrix = np.array([flat(g) for g in germs])
    # every field germ lies in the span of the computed kernel
    for v in field_vectors:
        coeff, res, _, _ = np.linalg.lstsq(kernel_matrix.T, v, rcond=None)
        assert (np.abs(kernel_matrix.T @ coeff - v)).max() < 1e-9


# -- germ coordinates ----------------------------------------------------------------------

def test_so_basis_round_trip():
    # in a frame with metric diag(signs) the basis is skew, independent, and
    # the coordinates of A are the entries r < s of diag(signs) A
    rng = np.random.default_rng(5)
    for signs in ([1.0], [1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]):
        signs = np.array(signs)
        n, g = len(signs), np.diag(signs)
        basis = so_basis(signs)
        assert basis.shape == (n * (n - 1) // 2, n, n)
        for b in basis:
            assert np.array_equal(g @ b, -(g @ b).T)
        assert np.linalg.matrix_rank(basis.reshape(len(basis), n * n)) == len(basis)
        vec = rng.normal(size=bundle_dim(n))
        germ = vector_to_germ(vec, signs)
        assert np.array_equal(germ.xi, vec[:n])
        assert np.array_equal((g @ germ.a)[np.triu_indices(n, k=1)], vec[n:])
        assert germ.so_defect(g) <= 1e-12


def test_wedge_properties():
    g = np.eye(2)
    w = wedge([1.0, 0.0], [0.0, 1.0], g)
    assert np.allclose(w, [[0.0, -1.0], [1.0, 0.0]])
    v = np.array([0.3, -0.7])
    assert np.abs(wedge(v, v, g)).max() == 0.0
    rng = np.random.default_rng(11)
    cw = builtin("cahen_wallach", n=2, q=[1.0, 2.0])
    gm = cw.metric_values(cw.base_point)
    for _ in range(5):
        w = wedge(rng.normal(size=4), rng.normal(size=4), gm)
        s = gm @ w
        assert np.abs(s + s.T).max() < 1e-12


# -- transport ----------------------------------------------------------------------------

def test_transport_translation_unchanged():
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["1", "0"])
    out = killing_transport(eu, germ, [[0, 0], [0.4, 0.3], [-0.1, 0.8]],
                            steps_per_segment=50).end
    assert np.allclose(out.xi, germ.xi)
    assert np.abs(out.a).max() == 0.0


def test_transport_matches_field_germ():
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["-x2", "x1"])
    q = [0.5, 0.7]
    out = killing_transport(eu, germ, [[0, 0], q], steps_per_segment=1000).end
    ref = field_germ(eu, ["-x2", "x1"], q)
    assert np.abs(out.xi - ref.xi).max() <= 1e-8
    assert np.abs(out.a - ref.a).max() <= 1e-8


def test_transport_path_independence_for_kernel_germ():
    sp = builtin("sphere2")
    field = known_killing_fields("sphere2")[1]
    germ = field_germ(sp, field)
    p0 = np.array(sp.base_point)
    q = p0 + [0.3, 0.4]
    direct = killing_transport(sp, germ, [p0, q], 400).end
    detour = killing_transport(sp, germ, [p0, p0 + [0.0, 0.4], q], 400).end
    assert np.abs(direct.xi - detour.xi).max() <= 1e-7
    assert np.abs(direct.a - detour.a).max() <= 1e-7


def test_transport_preserves_skewness():
    sp = builtin("sphere2")
    germ = field_germ(sp, known_killing_fields("sphere2")[0])
    q = np.array(sp.base_point) + [0.2, 0.5]
    moved = killing_transport(sp, germ, [sp.base_point, q], 500)
    assert moved.end.so_defect(sp.metric_values(q)) <= 1e-9
    assert np.array_equal(moved.g_end, sp.metric_values(q))


def test_loop_defect_for_non_kernel_germ():
    # the plane-wave chart has a 4-dimensional kernel inside the 6-dimensional
    # bundle fibre; a germ outside it picks up holonomy around a small loop
    cw = builtin("cahen_wallach", n=1, q=1.0)
    g0 = cw.metric_values(cw.base_point)
    boost = wedge(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), g0)
    germ = KillingGerm(xi=np.zeros(3), a=boost)
    assert germ_kernel_residual(cw, germ, m_max=1) > 1e-3
    loop = [[0, 0, 0], [0.4, 0, 0], [0.4, 0, 0.4], [0, 0, 0.4], [0, 0, 0]]
    out = killing_transport(cw, germ, loop, 300).end
    defect = max(np.abs(out.xi - germ.xi).max(), np.abs(out.a - germ.a).max())
    assert defect > 1e-3
    # while a kernel germ returns unchanged
    ref = field_germ(cw, ["0", "1", "0"])
    back = killing_transport(cw, ref, loop, 300).end
    assert np.abs(back.xi - ref.xi).max() <= 1e-9
    assert np.abs(back.a - ref.a).max() <= 1e-9


def test_transport_argument_validation():
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["1", "0"])
    with pytest.raises(ValueError, match="steps_per_segment"):
        killing_transport(eu, germ, [[0, 0], [1, 0]], steps_per_segment=0)
    with pytest.raises(ValueError, match="two points"):
        killing_transport(eu, germ, [[0, 0]])


def test_transport_rejects_degenerate_chart_point():
    from killingkit.metricdsl import DegenerateMetricError
    hy = builtin("hyperbolic2")
    germ = field_germ(hy, ["1", "0"])
    with pytest.raises((DegenerateMetricError, ValueError)):
        # the path crosses y = 0 where the chart blows up
        killing_transport(hy, germ, [[0.0, 1.0], [0.0, -1.0]], steps_per_segment=10)


SQRT_CHART = """
manifold sq {
  coordinates: x, y;
  metric: [[1 + sqrt(y), 0], [0, 2 + sqrt(y + 0.5)]];
  base_point: (0, 1);
}
"""

EXP_CHART = """
manifold ex {
  coordinates: x, y;
  metric: [[1 + exp(x) * exp(-x), 0], [0, 1]];
}
"""


# The messages are those of evaluating the stage points one at a time, in
# path order: the earliest failing point, then its first failing component.
@pytest.mark.parametrize("chart,path,steps,error,message", [
    (lambda: builtin("hyperbolic2"), "0,1;0,-1", 10, "JetDomainError",
     "metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = 1.0 / y^2: "
     "reciprocal of jet with zero constant term"),
    (lambda: parse_manifold(SQRT_CHART), "0,1;0,-1.3", 7, "JetDomainError",
     "metric of 'sq' at (0.0, -0.1499999999999999): component (0, 0) = "
     "1.0 + sqrt(y): sqrt of jet with constant term -0.1499999999999999 <= 0"),
    (lambda: builtin("hyperbolic2"), "0,2;0,1;0.5,-1", 10, "JetDomainError",
     "metric of 'hyperbolic2' at (0.25, 0.0): component (0, 0) = 1.0 / y^2: "
     "reciprocal of jet with zero constant term"),
    (lambda: parse_manifold(EXP_CHART), "0,0;1000,0", 10, "JetDomainError",
     "metric of 'ex' at (750.0000000000001, 0.0): component (0, 0) = "
     "1.0 + exp(x) * exp(-x): math range error"),
    (lambda: parse_manifold(EXP_CHART), "0,0;1000,0", 1000, "JetDomainError",
     "metric of 'ex' at (710.0, 0.0): component (0, 0) = "
     "1.0 + exp(x) * exp(-x): math range error"),
    (lambda: builtin("sphere2"), "1,0;-1,0", 10, "DegenerateMetricError",
     "metric of 'sphere2' degenerate at (0.0, 0.0): det = 0"),
    (lambda: builtin("hyperbolic2"), "-0,0;1,0", 10, "JetDomainError",
     "metric of 'hyperbolic2' at (-0.0, 0.0): component (0, 0) = 1.0 / y^2: "
     "reciprocal of jet with zero constant term"),
], ids=["reciprocal", "sqrt", "second-segment", "overflow", "overflow-late-block",
        "degenerate", "signed-zero-start"])
def test_transport_names_the_first_failing_stage_point(chart, path, steps, error, message):
    spec = chart()
    germ = KillingGerm(xi=np.ones(spec.dim), a=np.zeros((spec.dim, spec.dim)))
    points = [[float(v) for v in p.split(",")] for p in path.split(";")]
    with pytest.raises(ValueError) as exc:
        killing_transport(spec, germ, points, steps)
    assert type(exc.value).__name__ == error
    assert str(exc.value) == message


def spy_on_frames(monkeypatch):
    """Record the points of every ``point_frame`` call that transport makes."""
    batches = []
    point_frame = killing.point_frame

    def spy(spec, points):
        batches.append(np.array(points))
        return point_frame(spec, points)

    monkeypatch.setattr(killing, "point_frame", spy)
    return batches


def spy_on_stage_checks(monkeypatch):
    """Record the points of every order-0 metric evaluation, the check of the
    chart at the stage points of a segment that takes its frames at nodes."""
    checks = []
    metric_jet_tensor = metricdsl.metric_jet_tensor

    def spy(spec, points, order):
        if order == 0:
            checks.append(np.array(points))
        return metric_jet_tensor(spec, points, order)

    monkeypatch.setattr(metricdsl, "metric_jet_tensor", spy)
    return checks


@pytest.mark.parametrize("steps", [100, 5000])
def test_transport_frames_come_in_bounded_batches(monkeypatch, steps):
    # the frames are the 17 Chebyshev nodes of each segment, path order, in
    # one call (34 points; at n = 2 a call takes 8448); the chart is checked
    # at every stage point, in path order across segments, in calls as large
    # as the budget allows, and the path's end is the last node
    eu = builtin("euclidean", n=2)
    germ = field_germ(eu, ["-x2", "x1"])
    batches = spy_on_frames(monkeypatch)
    checks = spy_on_stage_checks(monkeypatch)
    path = [[0, 0], [0.5, 0.7], [0.2, 0.1]]
    killing_transport(eu, germ, path, steps)
    assert all(batch.ndim == 2 for batch in batches + checks)
    assert len(batches) == 1 and np.array_equal(batches[0], chebyshev_nodes(path))
    assert np.array_equal(batches[0][-1], path[-1])
    assert np.array_equal(np.concatenate(checks), stage_points(path, steps))
    per_call = curvature._FRAME_BUDGET // 2 ** 4
    assert [len(c) for c in checks[:-1]] == [per_call] * (len(checks) - 1)
    assert max(len(c) for c in checks) == min(2 * (2 * steps + 1), per_call)


# (n, steps): at n = 8 a call takes 33 points, so 61 stage points take 2
@pytest.mark.parametrize("n,steps", [(2, 30), (2, 5000), (4, 30), (4, 5000), (8, 30),
                                     (8, 100)])
def test_transport_frame_batches_fit_the_budget(monkeypatch, n, steps):
    # P n^4 <= budget in every call of the frames and of the stage check; on
    # one short segment the frames are its 17 nodes in one call, whatever the
    # step count, and the largest stage check stops growing with the step
    # count once it reaches the budget
    batches = spy_on_frames(monkeypatch)
    checks = spy_on_stage_checks(monkeypatch)
    spec = builtin("euclidean", n=n)
    germ = KillingGerm(xi=np.ones(n), a=np.zeros((n, n)))
    path = [np.zeros(n), np.full(n, 0.01)]
    killing_transport(spec, germ, path, steps)
    per_call = curvature._FRAME_BUDGET // n ** 4
    assert all(len(b) * n ** 4 <= curvature._FRAME_BUDGET for b in batches + checks)
    assert len(batches) == 1 and np.array_equal(batches[0], chebyshev_nodes(path))
    assert np.array_equal(np.concatenate(checks), stage_points(path, steps))
    assert max(len(c) for c in checks) == min(2 * steps + 1, per_call)


EXP_LINE_CHART = """
manifold expline {
  coordinates: x;
  metric: [[exp(x)]];
  base_point: (0);
}
"""

# Three-node paths inside each chart's domain: the frame is handed over
# between blocks of steps and between the two segments.
TRANSPORT_PATHS = {
    "sphere2": (lambda: builtin("sphere2"), [[1.0, 0.0], [1.3, 0.4], [0.9, 0.8]]),
    "hyperbolic2": (lambda: builtin("hyperbolic2"), [[0.0, 1.0], [0.3, 1.4], [-0.2, 0.8]]),
    "cw2": (lambda: builtin("cahen_wallach", n=2, q=[1.0, -1.0]),
            [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.4, 0.1], [0.1, 0.5, -0.2, 0.3]]),
    "schwarzschild": (lambda: parse_manifold(SCHWARZSCHILD),
                      [[0.0, 5.0, 1.57, 0.0], [0.3, 5.4, 1.3, 0.2], [0.1, 4.8, 1.7, -0.3]]),
    "random3": (lambda: random_chart(11, 3),
                [[0.1, -0.2, 0.2], [0.3, -0.3, 0.35], [0.0, 0.1, 0.3]]),
    "expline": (lambda: parse_manifold(EXP_LINE_CHART), [[0.0], [0.7], [-0.4]]),
}


# Longer paths where the batches of frames split a segment or end with one:
# at n = 4 a call takes 528 stage points, so with 264 steps (529 points a
# segment) the first call splits the first segment's last step; at n = 8 a
# call takes 33, so with 16 steps every call is one segment, with 17 the
# calls end inside segments, and with 1 step one call spans every segment.
MORE_PATHS = {
    "schwarzschild5": (lambda: parse_manifold(SCHWARZSCHILD),
                       [[0.0, 5.0, 1.57, 0.0], [0.1, 5.2, 1.4, 0.1], [0.3, 5.4, 1.3, 0.2],
                        [0.2, 5.0, 1.5, 0.0], [0.1, 4.8, 1.7, -0.3]]),
    "cw2xcw2": (lambda: product_metric(builtin("cahen_wallach", n=2, q=[1.0, -1.0]),
                                       builtin("cahen_wallach", n=2, q=[1.0, -1.0])).combined,
                [[0.0] * 8, [0.1, -0.2, 0.3, 0.1, 0.0, 0.2, -0.1, 0.1],
                 [0.2, 0.1, -0.1, 0.3, 0.1, 0.0, 0.2, -0.2],
                 [0.0, 0.2, 0.1, 0.0, -0.2, 0.1, 0.0, 0.3]]),
}
PROPAGATOR_CASES = (
    [(chart, steps) for steps in [1, 15, 16, 17, 30, 1000] for chart in sorted(TRANSPORT_PATHS)]
    + [("schwarzschild5", steps) for steps in [1, 264]]
    + [("cw2xcw2", steps) for steps in [1, 16, 17, 40]])


@pytest.mark.parametrize("chart,steps", PROPAGATOR_CASES,
                         ids=[f"{chart}-{steps}" for chart, steps in PROPAGATOR_CASES])
def test_transport_propagators_match_stepping_by_stages(chart, steps):
    make, path = {**TRANSPORT_PATHS, **MORE_PATHS}[chart]
    spec = make()
    rng = np.random.default_rng(5)
    n = spec.dim
    germ = KillingGerm(xi=rng.normal(size=n), a=rng.normal(size=(n, n)))
    out = killing_transport(spec, germ, path, steps).end
    ref = transport_by_steps(spec, germ, path, steps)
    scale = max(np.abs(ref.xi).max(), np.abs(ref.a).max())
    assert np.abs(out.xi - ref.xi).max() <= 1e-12 * scale
    assert np.abs(out.a - ref.a).max() <= 1e-12 * scale


@pytest.mark.parametrize("chart,steps", [("sphere2", 30), ("schwarzschild5", 264),
                                         ("cw2xcw2", 16)])
def test_one_batched_frame_call_equals_point_by_point(chart, steps):
    # the first call transport makes, as large as the budget allows: 122
    # points (the whole path) at n = 2, 528 at n = 4, 33 at n = 8
    make, path = {**TRANSPORT_PATHS, **MORE_PATHS}[chart]
    spec = make()
    points = stage_points(path, steps)[:curvature._FRAME_BUDGET // spec.dim ** 4]
    batch = killing.point_frame(spec, points)
    for k, p in enumerate(points):
        for many, one in zip(batch, killing.point_frame(spec, p)):
            assert np.abs(many[k] - one).max() <= 1e-14 * np.abs(one).max()


# (steps): up to 8 steps a segment has at most 17 stage points, as many as
# its nodes, and takes its frames there, with the path's end after them in
# the same call, as one walk across segments; from 9 steps it takes its nodes
@pytest.mark.parametrize("steps", [1, 8, 9])
def test_transport_takes_stage_frames_up_to_8_steps(monkeypatch, steps):
    make, path = TRANSPORT_PATHS["sphere2"]
    spec = make()
    batches = spy_on_frames(monkeypatch)
    checks = spy_on_stage_checks(monkeypatch)
    killing_transport(spec, KillingGerm(xi=np.ones(2), a=np.zeros((2, 2))), path, steps)
    assert len(batches) == 1
    if steps <= 8:
        assert np.array_equal(batches[0], np.vstack([stage_points(path, steps), path[-1]]))
        assert checks == []
    else:
        assert np.array_equal(batches[0], chebyshev_nodes(path))
        assert np.array_equal(np.concatenate(checks), stage_points(path, steps))


# Near sphere2's axis: Gamma has a pole at theta = 0, just off the first
# segment, and its Chebyshev coefficients decay too slowly for 17 nodes on
# both segments.
NEAR_AXIS = [[0.01, 0.0], [0.3, 0.2], [0.6, 0.5]]


@pytest.mark.parametrize("mode", ["germ", "field"])
def test_a_segment_whose_tail_does_not_decay_takes_its_stage_frames(monkeypatch, mode):
    # after the nodes, each segment is walked at its stage points, the path's
    # end after the last, and every germ is bit for bit the one that stage
    # frames alone give (every segment walked as at <= 8 steps)
    spec = builtin("sphere2")
    germ = (KillingGerm(xi=np.array([0.0, 1.0]), a=np.array([[0.0, 0.3], [-0.3, 0.0]]))
            if mode == "germ" else field_jets(spec, ["1", "theta"]))
    batches = spy_on_frames(monkeypatch)
    moved = killing_transport(spec, germ, NEAR_AXIS, 30)
    assert np.array_equal(batches[0], chebyshev_nodes(NEAR_AXIS))
    assert [len(b) for b in batches[1:]] == [61, 62]
    assert np.array_equal(np.concatenate(batches[1:]),
                          np.vstack([stage_points(NEAR_AXIS, 30), NEAR_AXIS[-1]]))
    monkeypatch.setattr(killing, "_CHEBYSHEV_N", 10 ** 6)
    want = killing_transport(spec, germ, NEAR_AXIS, 30)
    for got, ref in [(moved.start, want.start), (moved.end, want.end)] + (
            [] if mode == "germ" else [(moved.field_end, want.field_end)]):
        assert np.array_equal(got.xi, ref.xi) and np.array_equal(got.a, ref.a)
    assert np.array_equal(moved.g_end, want.g_end)


# -- transport of a field's germ -----------------------------------------------------

SQRT_END_CHART = """
manifold sq {
  coordinates: x, y;
  metric: [[1 + sqrt(x - 0.3), 0], [0, 1]];
  base_point: (1, 0);
}
"""


def transport_field_point_by_point(spec, fld, path, steps):
    """A field's germ transported as it was before both ends came from the
    path's frames: its germ at path[0], the transport of that germ, the
    metric at path[-1], then the field's own germ there."""
    germ = field_germ(spec, fld, path[0])
    killing_transport(spec, germ, path, steps)
    spec.metric_values(path[-1])
    field_germ(spec, fld, path[-1])


# One case per rule of the error order: the chart at path[0] (alone, and
# before the field failing there too), the field at path[0] before a stage
# point, a stage point before the field at path[-1], the chart at path[-1]
# (the last stage point, 1.1 + (0.3 - 1.1) = 0.30000000000000004, is inside
# the chart) before the field there, and the field at path[-1] alone.
FIELD_ERRORS = {
    "chart-at-start": (
        lambda: builtin("hyperbolic2"), ["1", "0"], "0,0;0,1",
        "metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = 1.0 / y^2: "
        "reciprocal of jet with zero constant term"),
    "chart-and-field-at-start": (
        lambda: builtin("hyperbolic2"), ["1 / x", "0"], "0,0;0,-1",
        "metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = 1.0 / y^2: "
        "reciprocal of jet with zero constant term"),
    "field-at-start": (
        lambda: builtin("hyperbolic2"), ["1 / x", "0"], "0,1;0,-1",
        "field on 'hyperbolic2' at (0.0, 1.0): component 0 = 1.0 / x: "
        "reciprocal of jet with zero constant term"),
    "stage-point": (
        lambda: builtin("hyperbolic2"), ["0", "1 / x"], "1,1;0,-1",
        "metric of 'hyperbolic2' at (0.5, 0.0): component (0, 0) = 1.0 / y^2: "
        "reciprocal of jet with zero constant term"),
    "chart-at-end": (
        lambda: parse_manifold(SQRT_END_CHART), ["1 / (x - 0.3)", "0"], "1.1,0;0.3,0",
        "metric of 'sq' at (0.3, 0.0): component (0, 0) = 1.0 + sqrt(x - 0.3): "
        "sqrt of jet with constant term 0.0 <= 0"),
    "field-at-end": (
        lambda: builtin("euclidean", n=2), ["0", "1 / x1"], "1,0;0,0",
        "field on 'euclidean2' at (0.0, 0.0): component 1 = 1.0 / x1: "
        "reciprocal of jet with zero constant term"),
}


@pytest.mark.parametrize("case", list(FIELD_ERRORS))
def test_field_transport_raises_what_point_by_point_raised_first(case):
    make, fld, path, message = FIELD_ERRORS[case]
    spec = make()
    points = [[float(v) for v in p.split(",")] for p in path.split(";")]
    with pytest.raises(ValueError) as old:
        transport_field_point_by_point(spec, fld, points, 10)
    with pytest.raises(ValueError) as new:
        killing_transport(spec, field_jets(spec, fld), points, 10)
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
    assert str(new.value) == message


# (n, path nodes, steps, calls): the segments' nodes share calls of whole
# segments, as many as the budget allows: 31 a call at n = 4 (527 of 528
# points), one at n = 8 (17 of 33); the path's end is the last node of the
# last call, and the field's end germ comes from it
@pytest.mark.parametrize("n,nodes,steps,calls", [(2, 3, 30, 1), (4, 3, 30, 1),
                                                 (4, 33, 16, 2), (8, 2, 16, 1),
                                                 (8, 3, 30, 2)])
def test_field_transport_evaluates_path_end_last_in_budget(monkeypatch, n, nodes, steps,
                                                           calls):
    spec = builtin("euclidean", n=n)
    jets = field_jets(spec, ["-x2", "x1"] + ["0"] * (n - 2))
    path = [0.01 * k * np.arange(1, n + 1) for k in range(nodes)]
    batches = spy_on_frames(monkeypatch)
    moved = killing_transport(spec, jets, path, steps)
    assert len(batches) == calls
    assert all(len(b) * n ** 4 <= curvature._FRAME_BUDGET for b in batches)
    assert all(len(b) % 17 == 0 for b in batches)
    assert np.array_equal(np.concatenate(batches), chebyshev_nodes(path))
    assert np.array_equal(batches[-1][-1], path[-1])
    end = field_germ(spec, jets, path[-1])
    assert np.array_equal(moved.field_end.xi, end.xi)
    assert np.array_equal(moved.field_end.a, end.a)


@pytest.mark.parametrize("chart", ["sphere2", "hyperbolic2", "cw2", "schwarzschild"])
def test_field_transport_germs_are_germ_of_field_and_its_transport(chart):
    make, path = TRANSPORT_PATHS[chart]
    spec = make()
    # any field will do: the germs need not be Killing
    jets = field_jets(spec, [f"1 + {c} * {spec.coords[0]}" for c in spec.coords])
    moved = killing_transport(spec, jets, path, 30)
    start = field_germ(spec, jets, path[0])
    want = [start, killing_transport(spec, start, path, 30).end,
            field_germ(spec, jets, path[-1])]
    for got, ref in zip([moved.start, moved.end, moved.field_end], want):
        scale = max(np.abs(ref.xi).max(), np.abs(ref.a).max())
        assert np.abs(got.xi - ref.xi).max() <= 1e-14 * scale
        assert np.abs(got.a - ref.a).max() <= 1e-14 * scale
    g_end = spec.metric_values(path[-1])
    assert np.abs(moved.g_end - g_end).max() <= 1e-14 * np.abs(g_end).max()


# (chart, steps): one call of the 34 nodes of two segments at n = 2; at n = 8
# one call of 17 nodes a segment, the last one ending with the path's end
@pytest.mark.parametrize("chart,steps", [("sphere2", 30), ("cw2xcw2", 17)])
def test_germ_transport_evaluates_the_end_node_last_in_its_batch(monkeypatch, chart,
                                                                 steps):
    # as for a field: path[-1] is the last node of the last segment, evaluated
    # once, last in the final call, and the metric at the end is its own
    make, path = {**TRANSPORT_PATHS, **MORE_PATHS}[chart]
    spec = make()
    n = spec.dim
    batches = spy_on_frames(monkeypatch)
    germ = KillingGerm(xi=np.ones(n), a=np.zeros((n, n)))
    moved = killing_transport(spec, germ, path, steps)
    points = np.concatenate(batches)
    assert np.array_equal(points, chebyshev_nodes(path))
    group = max(1, curvature._FRAME_BUDGET // n ** 4 // 17)
    assert [len(b) for b in batches] == [
        17 * min(group, len(path) - 1 - k) for k in range(0, len(path) - 1, group)]
    assert np.array_equal(batches[-1][-1], path[-1])
    assert (points == path[-1]).all(axis=1).sum() == 1
    assert moved.start is germ and moved.field_end is None
    assert np.array_equal(moved.g_end, killing.point_frame(spec, path[-1])[0])


# (chart, steps): blocks of 32 stage points, 313 a segment at 5000 steps on
# sphere2; on the cw2 x cw2 chart at 17 steps 2 a segment, the second of 3
@pytest.mark.parametrize("chart,steps", [("sphere2", 5000), ("cw2xcw2", 17)])
@pytest.mark.parametrize("mode", ["germ", "field"])
def test_transport_generators_come_in_blocks_of_one_segment(monkeypatch, chart, steps, mode):
    # every call of the RK4 generators takes at most 2 _BLOCK_STEPS inputs of
    # one segment, and together the calls take each stage point once, in
    # path order, and never the path's end; the inputs interpolated from the
    # nodes are those of the frames at the stage points, to rounding
    make, path = {**TRANSPORT_PATHS, **MORE_PATHS}[chart]
    spec = make()
    n = spec.dim
    calls = []
    generators = killing._transport_generators

    def generators_spy(gus, rus, u):
        calls.append((gus.copy(), rus.copy(), u.copy()))
        return generators(gus, rus, u)

    monkeypatch.setattr(killing, "_transport_generators", generators_spy)
    if mode == "germ":
        killing_transport(spec, KillingGerm(xi=np.ones(n), a=np.zeros((n, n))), path, steps)
    else:
        killing_transport(spec, field_jets(spec, ["1"] + ["0"] * (n - 1)), path, steps)
    per_segment = 2 * steps + 1
    stages = (len(path) - 1) * per_segment
    _, _, gammas, rs = killing.point_frame(spec, stage_points(path, steps))
    assert max(len(c[0]) for c in calls) <= 2 * killing._BLOCK_STEPS
    start = 0
    for gus, rus, u in calls:
        stop = start + len(gus)
        seg = start // per_segment
        assert (stop - 1) // per_segment == seg
        assert np.array_equal(u, np.subtract(path[seg + 1], path[seg]))
        for got, want in zip((gus, rus), killing._frame_inputs(gammas[start:stop],
                                                               rs[start:stop], u)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        start = stop
    assert start == stages
