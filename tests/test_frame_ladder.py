"""The frame ladder: the curvature of a chart point is computed once per depth
in a call, and the Killing trace, the slot matrices and the holonomy all read
it; the points of ``killing-dim --multi-point`` share one ladder, computed in
one batch per depth.  Its answers are those of a fresh computation at every
order and point."""
import numpy as np
import pytest

from oracles import changed_chart, frames_per_order
from test_metamorphic import (CHANGES, PINNED, POLAR_RADII, POLE_ANGLES, RESCALINGS,
                              SCHWARZSCHILD_RADII, SPHERE_RADII, polar_at,
                              schwarzschild_at)
from test_product import PAIRS, factors
from test_tower import CHARTS

from killingkit import holonomy, killing, product
from killingkit.curvature import CurvatureData, frame_ladder
from killingkit.holonomy import infinitesimal_holonomy, parallel_field_check
from killingkit.killing import killing_dimension
from killingkit.metricdsl import builtin, parse_manifold
from killingkit.product import decomposition_check


@pytest.fixture
def computed(monkeypatch):
    """Every ``CurvatureData.compute`` call, as (spec, depth, number of
    points)."""
    seen = []
    compute = CurvatureData.compute.__func__

    def spy(cls, spec, point=None, m_max=1):
        seen.append((spec, m_max, len(np.atleast_2d(spec.base_point if point is None
                                                    else point))))
        return compute(cls, spec, point, m_max)

    monkeypatch.setattr(CurvatureData, "compute", classmethod(spy))
    return seen


def depths_of(spec, computed):
    return [depth for s, depth, _ in computed if s is spec]


# -- the ladder --------------------------------------------------------------------

def test_ladder_computes_only_deeper_depths(computed):
    spec = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    frames = frame_ladder(spec, [spec.base_point], 2)
    shallow = [frames(d)[0] for d in (0, 1, 2, 1)]
    assert depths_of(spec, computed) == [2]
    assert [len(f.covR) for f in shallow] == [1, 2, 3, 2]
    [deep] = frames(3)
    assert depths_of(spec, computed) == [2, 3]
    assert len(deep.covR) == 4
    # a shallower depth is a slice of the deepest frame, with its e and kappa
    [again] = frames(1)
    assert again.kappa == deep.kappa and again.e is deep.e
    assert all(a is b for a, b in zip(again.covR, deep.covR))


def test_ladder_starts_at_the_depth_asked_when_deeper_than_first(computed):
    spec = builtin("sphere2")
    frames = frame_ladder(spec, [spec.base_point], 1)
    frames(3)
    frames(0)
    assert depths_of(spec, computed) == [3]


# -- curvature computations per call -------------------------------------------------

# (depths of the Killing trace, of the holonomy): Schwarzschild's Killing
# trace [5, 4, 4] reads order 2, one depth past the first computation.
SINGLE = {"sphere2": ([2], [1]), "cw1": ([2], [1]), "schwarzschild": ([2, 3], [1])}


@pytest.mark.parametrize("chart", sorted(SINGLE))
def test_each_call_computes_each_depth_once(chart, computed):
    spec = CHARTS[chart]()
    kernel_depths, holonomy_depths = SINGLE[chart]
    killing_dimension(spec)
    assert depths_of(spec, computed) == kernel_depths
    for check in (infinitesimal_holonomy, parallel_field_check):
        computed.clear()
        check(spec)
        assert depths_of(spec, computed) == holonomy_depths


@pytest.mark.parametrize("chart", sorted(SINGLE))
def test_order_zero_computes_only_what_it_reads(chart, computed):
    # memory stays bounded by --order: depth m_max + 1 for the Killing trace,
    # m_max for the holonomy
    spec = CHARTS[chart]()
    killing_dimension(spec, m_max=0)
    assert depths_of(spec, computed) == [1]
    for check in (infinitesimal_holonomy, parallel_field_check):
        computed.clear()
        check(spec, m_max=0)
        assert depths_of(spec, computed) == [0]


# The walker factor's Killing trace reads order 2, and so does the product
# trace of both pairs that hold it; every other trace stabilises by order 1.
DEEPER = {"walkerxe1", "walkerxcw1"}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_decomposition_computes_each_factor_once_per_depth(pair, computed):
    a, b = factors(pair)
    rep = decomposition_check(a, b)
    want = [2, 3] if pair in DEEPER else [2]
    assert (depths_of(a, computed), depths_of(b, computed)) == (want, want)
    # the holonomy verdicts read the same frames, so they add nothing
    assert len(computed) == 2 * len(want)
    if pair not in DEEPER:
        orders = [r.stabilization_order for r in (rep.product_report, *rep.factor_reports)]
        assert orders == [0, 0, 0]


def test_decomposition_at_order_zero_computes_depth_one(computed):
    a, b = factors("s2xcw1")
    decomposition_check(a, b, m_max=0)
    assert (depths_of(a, computed), depths_of(b, computed)) == ([1], [1])


# -- the ladder against a fresh computation at every order -----------------------------

def chart_answers(spec, point=None):
    """(what must be identical, the gaps) of the Killing trace and the
    holonomy verdict of a chart."""
    kernel = killing_dimension(spec, point=point)
    verdict = parallel_field_check(spec, point=point)
    hol = verdict.holonomy
    exact = (kernel.dims, kernel.stabilization_order, hol.dims, hol.stabilization_order,
             len(hol.candidates), hol.nullity, hol.bracket_closure_enlarges, verdict.kind)
    return exact, kernel.gaps + hol.gaps


def decomposition_answers(a, b):
    rep = decomposition_check(a, b)
    reports = (rep.product_report, *rep.factor_reports)
    hols = [v.holonomy for v in rep.verdicts]
    exact = ([(r.dims, r.stabilization_order) for r in reports], rep.parallel, rep.excess,
             [v.kind for v in rep.verdicts], [(h.dims, len(h.candidates)) for h in hols],
             rep.inconclusive, rep.warnings)
    return exact, [g for r in (*reports, *hols) for g in r.gaps]


def assert_same_as_per_order(monkeypatch, answers, *args):
    """The answers with the frame ladder equal those with a fresh
    ``CurvatureData`` at every order: every trace, count and verdict
    identical, and every gap within 1e-12 of its decision's largest
    singular value (or of 1, below it: the unit frame has no units)."""
    got = answers(*args)
    with monkeypatch.context() as m:
        for module in (killing, holonomy, product):
            m.setattr(module, "frame_ladder", frames_per_order)
        want = answers(*args)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert g.keys() == w.keys()
        scale = max(1.0, w["sigma_max"])
        for key in g:
            if w[key] is None or g[key] is None:
                assert g[key] is w[key], (key, g, w)
            else:
                assert abs(g[key] - w[key]) <= 1e-12 * scale, (key, g, w)


@pytest.mark.parametrize("chart", PINNED)
def test_traced_charts_match_frames_per_order(chart, monkeypatch):
    assert_same_as_per_order(monkeypatch, chart_answers, CHARTS[chart]())


def _changed(chart, change):
    spec = CHARTS[chart]()
    return changed_chart(spec, **CHANGES[change](spec.dim)), None


METAMORPHIC = {
    **{f"{chart}|{change}": (lambda chart=chart, change=change: _changed(chart, change))
       for chart in PINNED for change in sorted(CHANGES)},
    **{f"sphere2:r={r}": (lambda r=r: (builtin("sphere2", r=r), None)) for r in SPHERE_RADII},
    **{f"sphere2@theta={t}": (lambda t=t: (builtin("sphere2"), np.array([t, 0.0])))
       for t in POLE_ANGLES},
    **{f"schwarzschild:r0={r0}": (lambda r0=r0: (schwarzschild_at(r0), None))
       for r0 in SCHWARZSCHILD_RADII},
    **{f"polar:r={r}": (lambda r=r: (polar_at(r), None)) for r in POLAR_RADII},
}


@pytest.mark.parametrize("chart", sorted(METAMORPHIC))
def test_metamorphic_charts_match_frames_per_order(chart, monkeypatch):
    assert_same_as_per_order(monkeypatch, chart_answers, *METAMORPHIC[chart]())


@pytest.mark.parametrize("rescaling", [None] + sorted(RESCALINGS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_decompositions_match_frames_per_order(pair, rescaling, monkeypatch):
    a, b = factors(pair)
    if rescaling is not None:
        a, b = (changed_chart(spec, factor=f)
                for spec, f in zip((a, b), RESCALINGS[rescaling]))
    assert_same_as_per_order(monkeypatch, decomposition_answers, a, b)


# -- one ladder over the points of killing-dim --multi-point ------------------------

QUARTIC = """manifold quartic {
  coordinates: x, y;
  metric: [[1, 0], [0, 1 + x^4]];
  base_point: (0, 0);
}
"""

MULTI_CHARTS = {**{chart: CHARTS[chart] for chart in PINNED},
                "quartic": lambda: parse_manifold(QUARTIC)}

# (depth, points) of each computation of a multi-point call.  On the quartic
# chart the base point and the two points off it in y trace [3, 2, 1, 1], the
# other three [2, 1, 1]: all six read depth 3 at order 2, where the three
# leave, and the rest read depth 4 at order 3.
MULTI_COMPUTES = {"sphere2": [(2, 6)], "schwarzschild": [(2, 6), (3, 6)],
                  "quartic": [(2, 6), (3, 6), (4, 3)]}


@pytest.mark.parametrize("chart", sorted(MULTI_COMPUTES))
def test_multi_point_computes_each_depth_once_over_the_points_still_changing(chart,
                                                                          computed):
    spec = MULTI_CHARTS[chart]()
    killing_dimension(spec, multi_point=True)
    assert [(depth, count) for s, depth, count in computed if s is spec] == \
        MULTI_COMPUTES[chart]


def multi_point_answers(spec, m_max):
    rep = killing_dimension(spec, m_max=m_max, multi_point=True)
    exact = (rep.min_dim, rep.points, rep.warnings,
             [(r.point, r.dims, r.stabilization_order, r.warnings) for r in rep.reports])
    return exact, [g for r in rep.reports for g in r.gaps]


@pytest.mark.parametrize("m_max", [0, 1, 10])
@pytest.mark.parametrize("chart", sorted(MULTI_CHARTS))
def test_multi_point_matches_frames_per_order(chart, m_max, monkeypatch):
    spec = MULTI_CHARTS[chart]()
    assert_same_as_per_order(monkeypatch, multi_point_answers, spec, m_max)
    # each point's report is, to the last bit, that of the point alone
    rep = killing_dimension(spec, m_max=m_max, multi_point=True)
    assert rep.reports == [killing_dimension(spec, point=q, m_max=m_max)
                           for q in rep.points]


def test_a_multi_point_batch_holds_no_more_than_the_gather_did():
    # the tracemalloc peak of a warm multi-point call at commit c56423c
    # (numpy 2.4), where every dense contraction gathered both operands
    # along the table; each depth here is computed for all six points at
    # once, so an operator that held more a point than the gather would
    # show six times over
    import tracemalloc
    spec = MULTI_CHARTS["schwarzschild"]()
    killing_dimension(spec, multi_point=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        killing_dimension(spec, multi_point=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5_575_995


def test_ladder_splits_a_batch_by_the_budget(computed):
    # n = 4: 33 points a computation at depth 2, 2 at depth 4; batching
    # changes no bit of a point's frame
    spec = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    points = np.array([spec.base_point] + killing.nearby_points(spec.base_point))
    frames = frame_ladder(spec, points, 2)
    frames(2)
    batched = frames(4, [5, 0, 2, 3, 1])
    assert [(d, count) for _, d, count in computed] == [(2, 6), (4, 2), (4, 2), (4, 1)]
    for k, frame in zip([5, 0, 2, 3, 1], batched):
        [alone] = frame_ladder(spec, points[[k]], 4)(4)
        assert frame.kappa == alone.kappa
        for a, b in zip([frame.e, frame.einv, frame.signs, *frame.covR],
                        [alone.e, alone.einv, alone.signs, *alone.covR]):
            assert np.array_equal(a, b)


# n = 8: a point's depth-2 curvature alone is past the budget, so each point
# is its own lockstep group; at --order 0 the first depth is 1, and four
# points fit
@pytest.mark.parametrize("m_max,computes", [(10, [(2, 1)] * 6), (0, [(1, 4), (1, 2)])])
def test_multi_point_budget_splits_an_eight_dimensional_chart(m_max, computes, computed):
    cw2 = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    spec = product.product_metric(cw2, cw2).combined
    rep = killing_dimension(spec, m_max=m_max, multi_point=True)
    assert [(d, count) for _, d, count in computed] == computes
    assert rep.reports == [killing_dimension(spec, point=q, m_max=m_max)
                           for q in rep.points]
