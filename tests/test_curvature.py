import math

import numpy as np
import pytest

from killingkit.curvature import (CurvatureData, OrderExhaustedError, christoffel,
                                  identity_residuals, inverse_metric,
                                  lowered_riemann, point_frame)
from killingkit.metricdsl import builtin, metric_jet_tensor, parse_manifold

from oracles import fd_christoffel, fd_riemann
from test_tower import CHARTS

POLAR_SRC = """
manifold polar {
  coordinates: r, phi;
  metric: [[1, 0], [0, r^2]];
  base_point: (2, 0.7);
}
"""

CATALOG = [
    ("euclidean", {"n": 2}),
    ("euclidean", {"n": 3}),
    ("minkowski", {"p": 1, "q": 1}),
    ("minkowski", {"p": 1, "q": 3}),
    ("sphere2", {}),
    ("hyperbolic2", {}),
    ("cahen_wallach", {"n": 1, "q": 1.0}),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}),
    ("walker_recurrent", {}),
]


def test_inverse_metric_jets():
    spec = builtin("sphere2")
    g = metric_jet_tensor(spec, (1.1, 0.2), 3)
    ginv = inverse_metric(g)
    from killingkit.jets import tensor_product
    prod = tensor_product("ia,aj->ij", g, ginv)
    expect = np.zeros_like(prod.array)
    expect[0, 0, 0] = expect[1, 1, 0] = 1.0
    assert np.abs(prod.array - expect).max() < 1e-12


def test_polar_christoffel_closed_form_and_fd():
    spec = parse_manifold(POLAR_SRC)
    curv = CurvatureData.compute(spec, m_max=1)
    gamma = curv.gamma_jets.value()
    assert gamma[0, 1, 1] == pytest.approx(-2.0)          # r-component of (phi, phi)
    assert gamma[1, 0, 1] == pytest.approx(0.5)           # 1/r
    assert gamma[1, 1, 0] == pytest.approx(0.5)
    fd = fd_christoffel(spec, spec.base_point)
    assert np.abs(gamma - fd).max() < 1e-7
    assert np.abs(curv.riemann).max() < 1e-14             # flat chart


def test_sphere_christoffel_and_riemann():
    spec = builtin("sphere2")
    p = (0.9, 0.3)
    curv = CurvatureData.compute(spec, point=p, m_max=1)
    gamma = curv.gamma_jets.value()
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(0.9) * math.cos(0.9))
    fd = fd_christoffel(spec, p)
    assert np.abs(gamma - fd).max() < 1e-7
    rm = lowered_riemann(curv)
    assert rm[0, 1, 0, 1] == pytest.approx(math.sin(0.9) ** 2)
    r_fd = fd_riemann(spec, p)
    assert np.abs(curv.riemann - r_fd).max() < 1e-4


def test_hyperbolic_constant_curvature():
    spec = builtin("hyperbolic2")
    curv = CurvatureData.compute(spec, point=(0.2, 1.5), m_max=1)
    rm = lowered_riemann(curv)
    y = 1.5
    # sectional curvature -1: lowered component equals -det g = -y^-4
    assert rm[0, 1, 0, 1] == pytest.approx(-(y ** -4))
    assert np.abs(curv.covR[1]).max() < 1e-13


@pytest.mark.parametrize("name,params", CATALOG)
def test_identity_residuals_catalog(name, params):
    spec = builtin(name, **params)
    curv = CurvatureData.compute(spec, m_max=1)
    res = identity_residuals(curv)
    for key, value in res.items():
        assert value <= 1e-9, (key, value)


@pytest.mark.parametrize("name,params", [("euclidean", {"n": 3}),
                                         ("minkowski", {"p": 1, "q": 1})])
def test_flat_curvature_vanishes(name, params):
    curv = CurvatureData.compute(builtin(name, **params), m_max=2)
    assert np.abs(curv.riemann).max() == 0.0
    assert all(np.abs(v).max() == 0.0 for v in curv.covR)


@pytest.mark.parametrize("name,params", [("sphere2", {}),
                                         ("cahen_wallach", {"n": 1, "q": 1.0}),
                                         ("cahen_wallach", {"n": 2, "q": [2.0, -1.0]})])
def test_locally_symmetric_derivative_vanishes(name, params):
    curv = CurvatureData.compute(builtin(name, **params), m_max=2)
    scale = max(1.0, np.abs(curv.riemann).max())
    assert np.abs(curv.covR[1]).max() <= 1e-12 * scale
    assert np.abs(curv.covR[2]).max() <= 1e-12 * scale


def test_cov_derivative_layout_matches_plain_derivative():
    # on the walker chart grad R is nonzero; compare against finite
    # differences of the curvature values plus the connection terms
    spec = builtin("walker_recurrent")
    p = np.array([0.0, 0.1, 0.2])
    curv = CurvatureData.compute(spec, point=p, m_max=1)
    h = 1e-5
    n = spec.dim
    gamma = curv.gamma_jets.value()
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        rp = CurvatureData.compute(spec, point=p + e, m_max=0).riemann
        rm = CurvatureData.compute(spec, point=p - e, m_max=0).riemann
        partial = (rp - rm) / (2 * h)
        corr = (np.einsum("la,akij->lkij", gamma[:, c], curv.riemann)
                - np.einsum("ak,laij->lkij", gamma[:, c], curv.riemann)
                - np.einsum("ai,lkaj->lkij", gamma[:, c], curv.riemann)
                - np.einsum("aj,lkia->lkij", gamma[:, c], curv.riemann))
        assert np.abs(curv.covR[1][..., c] - (partial + corr)).max() < 1e-7


def test_order_exhaustion_errors():
    spec = builtin("sphere2")
    g1 = metric_jet_tensor(spec, spec.base_point, 0)
    with pytest.raises(OrderExhaustedError):
        christoffel(g1)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_compute_derives_every_jet_order_from_the_depth(depth):
    curv = CurvatureData.compute(builtin("walker_recurrent"), m_max=depth)
    assert curv.jet_order == depth + 2
    assert curv.metric_jets.order == depth + 2
    assert curv.inverse_jets.order == depth + 1
    assert len(curv.covR) == depth + 1
    assert curv.covR[depth].shape == (3,) * (4 + depth)


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_metric_jets_of_order_m_plus_2_give_covR_m(chart):
    # expanding the metric one order deeper leaves every covR[k] unchanged
    spec = CHARTS[chart]()
    for depth in range(3):
        shallow = CurvatureData.compute(spec, m_max=depth).covR
        deep = CurvatureData.compute(spec, m_max=depth + 1).covR
        for k in range(depth + 1):
            size = max(1.0, float(np.abs(deep[k]).max()))
            assert np.abs(shallow[k] - deep[k]).max() <= 1e-12 * size


def test_point_frame_matches_curvature_data():
    spec = builtin("sphere2")
    p = (1.0, 0.5)
    g, ginv, gamma, r = point_frame(spec, p)
    curv = CurvatureData.compute(spec, point=p, m_max=0)
    assert np.allclose(g, curv.g)
    assert np.allclose(gamma, curv.gamma_jets.value())
    assert np.allclose(r, curv.riemann)
