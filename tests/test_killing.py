import itertools

import numpy as np
import pytest

from killingkit.curvature import CurvatureData
from killingkit.killing import (KillingGerm, PreconditionError, bundle_dim,
                                check_first_prolongation, default_sample_points,
                                germ_kernel_residual, germ_of_field, germ_to_vector,
                                integrability_tensors, kernel_germs,
                                killing_dimension, killing_transport, so_basis,
                                so_coordinates, vector_to_germ, verify_killing,
                                wedge)
from killingkit.metricdsl import builtin, known_killing_fields, parse_manifold

from oracles import killing_curvature, transport_by_steps
from test_tower import SCHWARZSCHILD, random_chart


def sample(spec, count=5):
    return default_sample_points(spec, count=count)


# -- germs ---------------------------------------------------------------------

def test_translation_germ_flat():
    eu = builtin("euclidean", n=2)
    germ = germ_of_field(eu, ["1", "0"])
    assert np.allclose(germ.xi, [1.0, 0.0])
    assert np.abs(germ.a).max() == 0.0


def test_rotation_germ_is_minus_gradient():
    eu = builtin("euclidean", n=2)
    germ = germ_of_field(eu, ["-x2", "x1"])
    assert np.allclose(germ.a, [[0.0, 1.0], [-1.0, 0.0]])
    assert germ.is_so(np.eye(2))


def test_cross_field_germ_is_pure_wedge():
    from killingkit.product import cw_counterexample
    prod, field = cw_counterexample(1, (1.0,), 1, (-1.0,))
    spec = prod.combined
    germ = germ_of_field(spec, field)
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
    assert verify_killing(eu, ["-x2", "x1"], pts).passed
    chk = verify_killing(eu, ["x1", "x2"], pts)
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
        chk = verify_killing(spec, field, pts, tol=1e-9)
        assert chk.passed, (field, chk.max_residual)


def test_domain_error_is_per_point():
    hy = builtin("hyperbolic2")
    pts = [(0.0, 1.0), (0.0, 0.0)]  # second point leaves the chart (y = 0)
    chk = verify_killing(hy, ["1", "0"], pts)
    assert chk.passed
    assert len(chk.point_errors) == 1


# -- first prolongation ------------------------------------------------------------

def test_first_prolongation_flat():
    eu = builtin("euclidean", n=2)
    chk = check_first_prolongation(eu, ["-x2", "x1"], sample(eu))
    assert chk.passed and chk.max_residual < 1e-14


def test_first_prolongation_sphere():
    sp = builtin("sphere2")
    for field in known_killing_fields("sphere2"):
        chk = check_first_prolongation(sp, field, sample(sp))
        assert chk.passed and chk.max_residual <= 1e-8


def test_first_prolongation_refuses_non_killing():
    eu = builtin("euclidean", n=2)
    with pytest.raises(PreconditionError, match="refused"):
        check_first_prolongation(eu, ["x1", "x2"], sample(eu))


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
            germ = germ_of_field(spec, field)
            worst = max(np.abs(killing_curvature(curv, germ, i, j)).max()
                        for i, j in itertools.combinations(range(spec.dim), 2))
            assert worst <= 1e-8


# -- integrability tensors ------------------------------------------------------------

def test_tower_vanishes_on_flat():
    eu = builtin("euclidean", n=3)
    curv = CurvatureData.compute(eu, m_max=3)
    for t in integrability_tensors(curv.covR, 2):
        assert np.abs(t.xi_coeff).max() == 0.0
        assert np.abs(t.a_coeff).max() == 0.0


def test_tower_annihilates_killing_germs():
    for name, params in [("sphere2", {}), ("hyperbolic2", {}),
                         ("cahen_wallach", {"n": 1, "q": 1.0})]:
        spec = builtin(name, **params)
        for field in known_killing_fields(name, **params):
            germ = germ_of_field(spec, field)
            assert germ_kernel_residual(spec, germ, m_max=2) <= 1e-8


def test_tower_level_zero_matches_bundle_curvature():
    cw = builtin("cahen_wallach", n=1, q=-2.0)
    curv = CurvatureData.compute(cw, m_max=2)
    t0 = integrability_tensors(curv.covR, 0)[0]
    germ = KillingGerm(xi=np.array([0.3, -1.0, 2.0]),
                       a=wedge(np.array([1.0, 0.0, 0.0]),
                               np.array([0.0, 0.0, 1.0]), curv.g))
    applied = t0.apply(germ.xi, germ.a)
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
    t0, t1 = integrability_tensors(curv.covR, 1)
    gamma = curv.gamma_jets.value()
    val0 = t0.apply(germ.xi, germ.a)
    h = 1e-4
    for z in range(3):
        e = np.zeros(3)
        e[z] = h
        gp = killing_transport(spec, germ, [p, p + e], steps_per_segment=40)
        gm = killing_transport(spec, germ, [p, p - e], steps_per_segment=40)
        cp = CurvatureData.compute(spec, point=p + e, m_max=1)
        cm = CurvatureData.compute(spec, point=p - e, m_max=1)
        vp = integrability_tensors(cp.covR, 0)[0].apply(gp.xi, gp.a)
        vm = integrability_tensors(cm.covR, 0)[0].apply(gm.xi, gm.a)
        fd = (vp - vm) / (2 * h)
        corr = (np.einsum("la,akij->lkij", gamma[:, z], val0)
                - np.einsum("ak,laij->lkij", gamma[:, z], val0)
                - np.einsum("ai,lkaj->lkij", gamma[:, z], val0)
                - np.einsum("aj,lkia->lkij", gamma[:, z], val0))
        got = t1.apply(germ.xi, germ.a)[..., z]
        assert np.abs(got - (fd + corr)).max() < 1e-6


def test_tower_order_exhaustion():
    from killingkit.curvature import OrderExhaustedError
    curv = CurvatureData.compute(builtin("sphere2"), m_max=1)
    with pytest.raises(OrderExhaustedError, match="jet order"):
        integrability_tensors(curv.covR, 2)


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


def test_kernel_germs_span_killing_fields():
    sp = builtin("sphere2")
    rep, germs = kernel_germs(sp)
    assert len(germs) == 3
    g0 = sp.metric_values(sp.base_point)
    field_vectors = [germ_to_vector(germ_of_field(sp, f), g0)
                     for f in known_killing_fields("sphere2")]
    kernel_matrix = np.array([germ_to_vector(g, g0) for g in germs])
    # every field germ lies in the span of the computed kernel
    for v in field_vectors:
        coeff, res, _, _ = np.linalg.lstsq(kernel_matrix.T, v, rcond=None)
        assert (np.abs(kernel_matrix.T @ coeff - v)).max() < 1e-9


# -- germ coordinates ----------------------------------------------------------------------

def test_so_basis_round_trip():
    rng = np.random.default_rng(5)
    cw = builtin("cahen_wallach", n=1, q=1.0)
    g = cw.metric_values(cw.base_point)
    basis = so_basis(g)
    coords = rng.normal(size=len(basis))
    a = np.einsum("k,kij->ij", coords, basis)
    assert np.allclose(so_coordinates(a, g), coords)
    vec = rng.normal(size=bundle_dim(3))
    germ = vector_to_germ(vec, g)
    assert np.allclose(germ_to_vector(germ, g), vec)
    assert germ.is_so(g)


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
    germ = germ_of_field(eu, ["1", "0"])
    out = killing_transport(eu, germ, [[0, 0], [0.4, 0.3], [-0.1, 0.8]],
                            steps_per_segment=50)
    assert np.allclose(out.xi, germ.xi)
    assert np.abs(out.a).max() == 0.0


def test_transport_matches_field_germ():
    eu = builtin("euclidean", n=2)
    germ = germ_of_field(eu, ["-x2", "x1"])
    q = [0.5, 0.7]
    out = killing_transport(eu, germ, [[0, 0], q], steps_per_segment=1000)
    ref = germ_of_field(eu, ["-x2", "x1"], q)
    assert np.abs(out.xi - ref.xi).max() <= 1e-8
    assert np.abs(out.a - ref.a).max() <= 1e-8


def test_transport_path_independence_for_kernel_germ():
    sp = builtin("sphere2")
    field = known_killing_fields("sphere2")[1]
    germ = germ_of_field(sp, field)
    p0 = np.array(sp.base_point)
    q = p0 + [0.3, 0.4]
    direct = killing_transport(sp, germ, [p0, q], 400)
    detour = killing_transport(sp, germ, [p0, p0 + [0.0, 0.4], q], 400)
    assert np.abs(direct.xi - detour.xi).max() <= 1e-7
    assert np.abs(direct.a - detour.a).max() <= 1e-7


def test_transport_preserves_skewness():
    sp = builtin("sphere2")
    germ = germ_of_field(sp, known_killing_fields("sphere2")[0])
    q = np.array(sp.base_point) + [0.2, 0.5]
    out = killing_transport(sp, germ, [sp.base_point, q], 500)
    assert out.so_defect(sp.metric_values(q)) <= 1e-9


def test_loop_defect_for_non_kernel_germ():
    # the plane-wave chart has a 4-dimensional kernel inside the 6-dimensional
    # bundle fibre; a germ outside it picks up holonomy around a small loop
    cw = builtin("cahen_wallach", n=1, q=1.0)
    g0 = cw.metric_values(cw.base_point)
    boost = wedge(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), g0)
    germ = KillingGerm(xi=np.zeros(3), a=boost)
    assert germ_kernel_residual(cw, germ, m_max=1) > 1e-3
    loop = [[0, 0, 0], [0.4, 0, 0], [0.4, 0, 0.4], [0, 0, 0.4], [0, 0, 0]]
    out = killing_transport(cw, germ, loop, 300)
    defect = max(np.abs(out.xi - germ.xi).max(), np.abs(out.a - germ.a).max())
    assert defect > 1e-3
    # while a kernel germ returns unchanged
    ref = germ_of_field(cw, ["0", "1", "0"])
    back = killing_transport(cw, ref, loop, 300)
    assert np.abs(back.xi - ref.xi).max() <= 1e-9
    assert np.abs(back.a - ref.a).max() <= 1e-9


def test_transport_argument_validation():
    eu = builtin("euclidean", n=2)
    germ = germ_of_field(eu, ["1", "0"])
    with pytest.raises(ValueError, match="steps_per_segment"):
        killing_transport(eu, germ, [[0, 0], [1, 0]], steps_per_segment=0)
    with pytest.raises(ValueError, match="two points"):
        killing_transport(eu, germ, [[0, 0]])


def test_transport_rejects_degenerate_chart_point():
    from killingkit.metricdsl import DegenerateMetricError
    hy = builtin("hyperbolic2")
    germ = germ_of_field(hy, ["1", "0"])
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
], ids=["reciprocal", "sqrt", "second-segment", "overflow", "overflow-late-block",
        "degenerate"])
def test_transport_names_the_first_failing_stage_point(chart, path, steps, error, message):
    spec = chart()
    germ = KillingGerm(xi=np.ones(spec.dim), a=np.zeros((spec.dim, spec.dim)))
    points = [[float(v) for v in p.split(",")] for p in path.split(";")]
    with pytest.raises(ValueError) as exc:
        killing_transport(spec, germ, points, steps)
    assert type(exc.value).__name__ == error
    assert str(exc.value) == message


@pytest.mark.parametrize("steps", [100, 5000])
def test_transport_frames_come_in_bounded_batches(monkeypatch, steps):
    # every stage point is evaluated once, in batches whose size does not
    # grow with the number of steps
    from killingkit import killing
    batches = []

    def spy(spec, points):
        batches.append(np.shape(points))
        return point_frame(spec, points)

    eu = builtin("euclidean", n=2)
    germ = germ_of_field(eu, ["-x2", "x1"])
    point_frame = killing.point_frame
    monkeypatch.setattr(killing, "point_frame", spy)
    killing_transport(eu, germ, [[0, 0], [0.5, 0.7], [0.2, 0.1]], steps)
    assert all(len(shape) == 2 for shape in batches)
    assert sum(shape[0] for shape in batches) == 2 * (2 * steps + 1)
    assert max(shape[0] for shape in batches) == 2 * killing._BLOCK_STEPS + 1


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


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 30, 1000])
@pytest.mark.parametrize("chart", sorted(TRANSPORT_PATHS))
def test_transport_propagators_match_stepping_by_stages(chart, steps):
    make, path = TRANSPORT_PATHS[chart]
    spec = make()
    rng = np.random.default_rng(5)
    n = spec.dim
    germ = KillingGerm(xi=rng.normal(size=n), a=rng.normal(size=(n, n)))
    out = killing_transport(spec, germ, path, steps)
    ref = transport_by_steps(spec, germ, path, steps)
    scale = max(np.abs(ref.xi).max(), np.abs(ref.a).max())
    assert np.abs(out.xi - ref.xi).max() <= 1e-12 * scale
    assert np.abs(out.a - ref.a).max() <= 1e-12 * scale
