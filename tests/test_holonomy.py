import numpy as np
import pytest

from killingkit.curvature import CurvatureData
from killingkit.holonomy import infinitesimal_holonomy, parallel_field_check
from killingkit.metricdsl import builtin, parse_manifold
from killingkit.product import cw_counterexample, product_metric
from killingkit.rank import numerical_rank

from oracles import whole_covR


def holonomy_of(spec, m_max=3):
    curv = CurvatureData.compute(spec, m_max=m_max)
    return curv, infinitesimal_holonomy(spec, m_max=m_max)


def test_flat_holonomy_trivial():
    curv, rep = holonomy_of(builtin("euclidean", n=3))
    assert rep.dimension == 0
    assert rep.candidates.shape == (3, 3)
    assert rep.nullity == 3


def test_sphere_holonomy_is_so2():
    curv, rep = holonomy_of(builtin("sphere2"))
    assert rep.dimension == 1
    assert len(rep.candidates) == 0
    assert rep.nullity == 0
    g = curv.g
    for gen in rep.generators:
        s = g @ gen
        assert np.abs(s + s.T).max() <= 1e-9 * max(1.0, np.abs(s).max())


def test_plane_wave_holonomy_annihilates_null_direction():
    cw = builtin("cahen_wallach", n=1, q=1.0)
    curv, rep = holonomy_of(cw)
    assert rep.dimension == 1
    cands = rep.candidates
    assert cands.shape == (1, 3)
    direction = cands[0] / np.abs(cands[0]).max()
    assert np.allclose(np.abs(direction), [0.0, 1.0, 0.0])
    assert not rep.bracket_closure_enlarges
    assert rep.nullity == 1


def test_walker_holonomy_two_dimensional_no_kernel():
    wr = builtin("walker_recurrent")
    curv, rep = holonomy_of(wr)
    assert rep.dimension == 2
    assert len(rep.candidates) == 0
    # the null line stays invariant even though nothing is parallel
    iv = wr.coord_index("v")
    e_v = np.zeros(3)
    e_v[iv] = 1.0
    for gen in rep.generators:
        image = gen @ e_v
        image[iv] = 0.0
        assert np.abs(image).max() <= 1e-9


def test_stabilization_and_warning():
    rep = infinitesimal_holonomy(builtin("walker_recurrent"), m_max=0)
    assert rep.stabilization_order is None
    assert any("unstable" in w for w in rep.warnings)


@pytest.mark.parametrize("name,params,kind", [
    ("sphere2", {}, "no_parallel_field"),
    ("hyperbolic2", {}, "no_parallel_field"),
    ("walker_recurrent", {}, "no_parallel_field"),
    ("cahen_wallach", {"n": 1, "q": 1.0}, "has_parallel_field"),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}, "has_parallel_field"),
    ("euclidean", {"n": 3}, "has_parallel_field"),
])
def test_parallel_field_verdicts(name, params, kind):
    verdict = parallel_field_check(builtin(name, **params))
    assert verdict.kind == kind


def test_verdict_inconclusive_when_span_never_stabilises():
    verdict = parallel_field_check(builtin("walker_recurrent"), m_max=0)
    assert verdict.kind == "inconclusive"
    assert any("unstable" in w for w in verdict.warnings)


def test_verdict_inconclusive_without_analytic_flag():
    src = """
    manifold bare {
      coordinates: x, y;
      metric: [[1, 0], [0, 1]];
    }
    """
    verdict = parallel_field_check(parse_manifold(src))
    assert verdict.kind == "inconclusive"
    assert any("analytic" in w for w in verdict.warnings)


def test_candidates_of_product_are_direct_sum():
    sp = builtin("sphere2")
    hy = builtin("hyperbolic2")
    prod = product_metric(sp, hy)
    verdict = parallel_field_check(prod.combined)
    assert verdict.kind == "no_parallel_field"

    prod2, _ = cw_counterexample()
    verdict2 = parallel_field_check(prod2.combined)
    assert verdict2.kind == "has_parallel_field"
    cands = verdict2.basis
    assert cands.shape == (2, 6)
    iv_a = prod2.combined.coord_index("a_v")
    iv_b = prod2.combined.coord_index("b_v")
    mask = np.zeros(6, dtype=bool)
    mask[[iv_a, iv_b]] = True
    assert np.abs(cands[:, ~mask]).max() <= 1e-9

    e1 = builtin("euclidean", n=1)
    prod3 = product_metric(e1, sp)
    verdict3 = parallel_field_check(prod3.combined)
    assert verdict3.kind == "has_parallel_field"
    assert verdict3.basis.shape == (1, 3)


def test_nullity_dominates_candidate_count():
    for name, params in [("euclidean", {"n": 2}), ("sphere2", {}),
                         ("hyperbolic2", {}), ("walker_recurrent", {}),
                         ("cahen_wallach", {"n": 1, "q": 1.0})]:
        spec = builtin(name, **params)
        m = 2
        # the nullity read off a fresh frame of depth m, not the report's
        frame = CurvatureData.compute(spec, m_max=m).unit_frames[0]
        rows = np.moveaxis(whole_covR(frame)[0], 2, -1).reshape(-1, spec.dim)
        rep = infinitesimal_holonomy(spec, m_max=m)
        assert spec.dim - numerical_rank(rows, 1e-8).rank == rep.nullity
        assert rep.nullity >= len(rep.candidates)


# -- bases by a fixed rule --------------------------------------------------------

def _basis_charts():
    from test_tower import CHARTS
    return {**CHARTS,
            "sphere2xeuclidean2": lambda: product_metric(builtin("sphere2"),
                                                         builtin("euclidean", n=2)).combined,
            "cw1xcw1": lambda: product_metric(*[builtin("cahen_wallach", n=1, q=1.0)] * 2
                                              ).combined}


@pytest.mark.parametrize("chart", sorted(_basis_charts()))
def test_rounding_in_the_rows_does_not_turn_the_bases(chart, monkeypatch):
    # the holonomy generators and candidates and the kernel germs, with every
    # matrix ranked perturbed by a relative 1e-15, move by at most 1e-12
    from killingkit import holonomy, killing, rank
    from killingkit.killing import kernel_germs
    spec = _basis_charts()[chart]()
    want_hol, (_, want_germs) = infinitesimal_holonomy(spec), kernel_germs(spec)
    rng = np.random.default_rng(0)

    def perturbed(matrix, tol, previous=None):
        return rank.numerical_rank(matrix * (1 + 1e-15 * rng.standard_normal(matrix.shape)),
                                   tol, previous)

    for module in (holonomy, killing):
        monkeypatch.setattr(module, "numerical_rank", perturbed)
    got_hol, (_, got_germs) = infinitesimal_holonomy(spec), kernel_germs(spec)
    assert got_hol.dims == want_hol.dims and len(got_germs) == len(want_germs)
    pairs = [(got_hol.generators, want_hol.generators),
             (got_hol.candidates, want_hol.candidates)]
    pairs += [(g.xi, w.xi) for g, w in zip(got_germs, want_germs)]
    pairs += [(g.a, w.a) for g, w in zip(got_germs, want_germs)]
    for got, want in pairs:
        assert got.shape == want.shape
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def test_a_span_of_every_fixed_vector_gets_the_fixed_basis():
    from killingkit.rank import fixed_basis
    rng = np.random.default_rng(3)
    rows = np.linalg.qr(rng.standard_normal((5, 5)))[0].T
    np.testing.assert_allclose(fixed_basis(rows), np.eye(5), atol=1e-14)
    # a plane through e1 + e2 and e3: the projections of e1, e2 and e3 in order
    plane = np.array([[1.0, 1.0, 0, 0, 0], [0, 0, 1.0, 0, 0]])
    plane[0] /= np.sqrt(2.0)
    basis = fixed_basis(np.linalg.qr(rng.standard_normal((2, 2)))[0] @ plane)
    np.testing.assert_allclose(basis, plane, atol=1e-14)
