import itertools
import math

import numpy as np
import pytest

from killingkit.curvature import (CurvatureData, OrderExhaustedError, christoffel,
                                  identity_residuals, inverse_metric,
                                  lowered_riemann, point_frame, riemann, unpack)
from killingkit.jets import JetDomainError, tensor_product
from killingkit.metricdsl import builtin, metric_jet_tensor, parse_manifold

from oracles import fd_christoffel, fd_riemann, full_tensor_chain, riemann_by_connection
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
    from killingkit.jets import JetDomainError, tensor_product
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
        assert np.abs(curv.whole(1)[..., c] - (partial + corr)).max() < 1e-7


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
    assert curv.inverse_jets.order == curv.gamma_jets.order == depth
    assert len(curv.covR) == depth + 1
    assert curv.covR[depth].shape == (math.comb(3, 2),) * 2 + (3,) * depth


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


# -- the pair form against the whole-tensor chain --------------------------------

def _pair_charts():
    from test_tower import STACK_CHARTS
    return {**{f"{name}:{params}": (lambda name=name, params=params: builtin(name, **params))
               for name, params in CATALOG}, **STACK_CHARTS, "random3": CHARTS["random3"]}


PAIR_CHARTS = _pair_charts()


def assert_same_tensor(got, want, unit):
    """``got`` within 1e-14 of ``want`` relative to its largest entry; or,
    where ``want`` is zero in exact arithmetic (nabla^m R of a locally
    symmetric chart), both rounding: below 1e-11 of ``unit``, the scale
    kappa^(m + 2) of nabla^m R, kappa = max(max |Gamma|, max |R|^(1/2))."""
    top = float(np.abs(want).max())
    if top <= 1e-11 * unit:
        assert float(np.abs(got).max()) <= 1e-11 * unit
    else:
        assert float(np.abs(got - want).max()) <= 1e-14 * top


@pytest.mark.parametrize("batch", [False, True], ids=["point", "points"])
@pytest.mark.parametrize("chart", list(PAIR_CHARTS))
def test_pair_form_unpacks_to_the_whole_tensor_chain(chart, batch):
    # covR[m] unpacked and raised against R from two Gamma.Gamma contractions
    # and each covariant derivative over every component, to depth 3, at one
    # point and at a batch of two
    spec = PAIR_CHARTS[chart]()
    base = np.asarray(spec.base_point, dtype=np.float64)
    point = np.array([base, base + 0.01 * np.arange(1, spec.dim + 1)]) if batch else base
    curv = CurvatureData.compute(spec, point, m_max=3)
    want = full_tensor_chain(curv)
    for k in range(len(point) if batch else 1):
        at = (lambda a: a[k]) if batch else (lambda a: a)
        kappa = max(float(np.abs(at(curv.gamma_jets.value())).max()),
                    float(np.abs(at(want[0])).max()) ** 0.5)
        for m in range(4):
            got = at(curv.whole(m))
            assert got.shape == (spec.dim,) * (4 + m)
            assert_same_tensor(got, at(want[m]), kappa ** (m + 2))


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_first_kind_curvature_is_the_lowered_curvature(chart):
    # R built from the Christoffel symbols of the first kind is g times R
    # built from those of the second kind, coefficient by coefficient
    spec = CHARTS[chart]()
    g = metric_jet_tensor(spec, spec.base_point, 4)
    gamma, first = christoffel(g, inverse_metric(g.truncated(3)))
    upper = riemann_by_connection(gamma)
    lowered = tensor_product("la,akij->lkij", g.truncated(upper.order), upper).array
    r, s = np.triu_indices(spec.dim, k=1)
    want = lowered[r[:, None], s[:, None], r[None, :], s[None, :]]
    got = riemann(gamma, first)
    assert got.order == upper.order == 2
    assert np.abs(got.array - want).max() <= 1e-14 * max(float(np.abs(want).max()), 1e-300)


@pytest.mark.parametrize("batch", [False, True], ids=["point", "points"])
@pytest.mark.parametrize("chart", list(PAIR_CHARTS))
def test_riemann_reads_gamma_to_its_own_order_only(chart, batch):
    # R has one order less than the first-kind symbols, and its Gamma.Gamma
    # term reads gamma to that order: gamma cut there gives the same R
    spec = PAIR_CHARTS[chart]()
    base = np.asarray(spec.base_point, dtype=np.float64)
    point = np.array([base, base + 0.01 * np.arange(1, spec.dim + 1)]) if batch else base
    for order in (2, 4):
        gamma, first = christoffel(metric_jet_tensor(spec, point, order))
        want = riemann(gamma, first)
        got = riemann(gamma.truncated(first.order - 1), first)
        assert got.order == want.order == order - 2
        top = float(np.abs(want.array).max(initial=0.0))
        assert float(np.abs(got.array - want.array).max(initial=0.0)) <= 1e-14 * top


@pytest.mark.parametrize("chart", list(PAIR_CHARTS))
def test_each_pair_matrix_is_symmetric(chart):
    # nabla^m R lowered is symmetric under the swap of its two pairs; the
    # pair form keeps both triangles, equal up to rounding
    curv = CurvatureData.compute(PAIR_CHARTS[chart](), m_max=3)
    kappa = max(float(np.abs(curv.gamma_jets.value()).max()),
                float(np.abs(curv.covR[0]).max()) ** 0.5)
    for m, c in enumerate(curv.covR):
        assert_same_tensor(np.swapaxes(c, 0, 1), c, kappa ** (m + 2))


def test_unpack_fills_every_symmetry_of_the_curvature():
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((6, 6, 4))
    whole = unpack(pairs, 4)
    assert whole.shape == (4, 4, 4, 4, 4)
    for (l, k), (i, j) in itertools.product(itertools.combinations(range(4), 2), repeat=2):
        p, q = PAIRS_OF_4.index((l, k)), PAIRS_OF_4.index((i, j))
        assert np.array_equal(whole[l, k, i, j], pairs[p, q])
        assert np.array_equal(whole[k, l, j, i], pairs[p, q])
        assert np.array_equal(whole[k, l, i, j], -pairs[p, q])
    assert not whole[np.arange(4), np.arange(4)].any()
    assert not whole[:, :, np.arange(4), np.arange(4)].any()
    batch = unpack(np.stack([pairs, 2 * pairs]), 4, lead=1)
    assert np.array_equal(batch[1], 2 * whole)
    assert unpack(np.zeros((0, 0)), 1).shape == (1, 1, 1, 1)


PAIRS_OF_4 = list(itertools.combinations(range(4), 2))


# Every metric jet of this chart is finite, but at x = 0 its inverse is
# about 1e300 and the Christoffel symbols overflow.
OVERFLOW_SRC = """
manifold over {
  coordinates: x, y;
  metric: [[1e-300 + 1e10 * x, 0], [0, 1]];
  base_point: (1, 0);
}
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m_max", [0, 2])
def test_a_batch_names_the_earliest_point_whose_curvature_overflows(m_max):
    spec = parse_manifold(OVERFLOW_SRC)
    curv = CurvatureData.compute(spec, np.array([[1.0, 0.0], [0.5, 0.0]]), m_max=m_max)
    assert all(np.isfinite(c).all() for c in curv.covR)
    for points in ([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(JetDomainError, match=r"^curvature of 'over' at \(0\.0, 0\.0\): "
                                                 r"a non-finite entry in "):
            CurvatureData.compute(spec, np.array(points), m_max=m_max)


# The curvature of this chart overflows at x = 0, and sqrt(1 - y) leaves its
# domain at y = 1.
FIRST_FAILURE_SRC = """
manifold over {
  coordinates: x, y;
  metric: [[1e-300 + 1e10 * x, 0], [0, 1 + sqrt(1 - y)]];
  base_point: (1, 0);
}
"""


@pytest.mark.filterwarnings("error")
def test_a_batch_raises_a_curvature_failure_before_a_later_points_metric_failure():
    # the batch's metric fails at its second point; one by one, the first
    # point raises first, from its curvature
    spec = parse_manifold(FIRST_FAILURE_SRC)
    with pytest.raises(JetDomainError, match=r"^curvature of 'over' at \(0\.0, 0\.5\): "
                                             r"a non-finite entry in the jets of gamma$"):
        CurvatureData.compute(spec, np.array([[0.0, 0.5], [1.0, 2.0]]), m_max=0)
