"""The closed-form prolongation tower against the jet-level recursion, its
xi-columns on a chart whose curvature is not parallel, each level's
independent rows against the contraction with a basis of the metric-skew
endomorphisms, with their count and the cache of their index arrays, the
slot matrices against every slot's block, and the rank decisions of each
order-by-order stack, one block at a time, against the whole stack."""
import itertools
import math
import random

import numpy as np
import pytest

from oracles import (germ_kernel_residual, integrability_tensors, tower_by_recursion,
                     tower_stack_by_basis, whole_covR)

from killingkit import killing
from killingkit.curvature import CurvatureData
from killingkit.holonomy import endomorphism_rows
from killingkit.killing import KillingGerm, sample_field, tower_level, wedge
from killingkit.metricdsl import builtin, parse_manifold
from killingkit.product import product_metric, slot_matrix
from killingkit.rank import numerical_rank

SCHWARZSCHILD = """
manifold schwarzschild {
  coordinates: t, r, th, ph;
  metric: [[-(1 - 2 / r), 0, 0, 0], [0, 1 / (1 - 2 / r), 0, 0],
           [0, 0, r^2, 0], [0, 0, 0, r^2 * sin(th)^2]];
  base_point: (0, 5, 1.5707963267948966, 0);
  assume: analytic, simply_connected;
}
"""

SCHWARZSCHILD_FIELDS = [
    ["1", "0", "0", "0"],
    ["0", "0", "0", "1"],
    ["0", "0", "sin(ph)", "cos(ph) * cos(th) / sin(th)"],
    ["0", "0", "cos(ph)", "-sin(ph) * cos(th) / sin(th)"],
]


def random_chart(seed, n):
    """A seeded Riemannian chart: diagonal entries above 0.7 and off-diagonal
    row sums below 0.6 near the base point, so the metric is positive
    definite there."""
    rng = random.Random(seed)
    x = [f"x{i + 1}" for i in range(n)]
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        a, b = rng.uniform(0.2, 0.8), rng.uniform(-0.25, 0.25)
        rows[i][i] = f"1 + {a!r} * {x[(i + 1) % n]}^2 + {b!r} * sin({x[(i + 2) % n]})"
        for j in range(i + 1, n):
            c, d = rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)
            rows[i][j] = rows[j][i] = f"{c!r} * {x[i]} * {x[j]} + {d!r} * cos({x[(i + j) % n]})"
    base = [rng.uniform(-0.4, 0.4) for _ in range(n)]
    metric = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    return parse_manifold(
        f"manifold random{n} {{\n  coordinates: {', '.join(x)};\n"
        f"  metric: [{metric}];\n"
        f"  base_point: ({', '.join(repr(v) for v in base)});\n"
        "  assume: analytic, simply_connected;\n}\n")


CHARTS = {
    "euclidean3": lambda: builtin("euclidean", n=3),
    "minkowski12": lambda: builtin("minkowski", p=1, q=2),
    "sphere2": lambda: builtin("sphere2"),
    "hyperbolic2": lambda: builtin("hyperbolic2"),
    "cw1": lambda: builtin("cahen_wallach", n=1, q=1.0),
    "cw2": lambda: builtin("cahen_wallach", n=2, q=[1.0, -1.0]),
    "walker_recurrent": lambda: builtin("walker_recurrent"),
    "schwarzschild": lambda: parse_manifold(SCHWARZSCHILD),
    "random3": lambda: random_chart(7, 3),
}


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_tower_matches_recursion(chart):
    spec = CHARTS[chart]()
    m_max = 1 if spec.dim >= 4 else 2
    curv = CurvatureData.compute(spec, m_max=m_max + 1)
    closed = integrability_tensors(whole_covR(curv), range(m_max + 1))
    recursion = tower_by_recursion(curv, m_max)
    assert len(closed) == len(recursion) == m_max + 1
    for new, old in zip(closed, recursion):
        assert new.order == old.order
        assert new.xi_coeff.shape == old.xi_coeff.shape
        assert new.a_coeff.shape == old.a_coeff.shape
        size = max(1.0, float(np.abs(old.xi_coeff).max()),
                   float(np.abs(old.a_coeff).max()))
        assert np.abs(new.xi_coeff - old.xi_coeff).max() <= 1e-12 * size
        assert np.abs(new.a_coeff - old.a_coeff).max() <= 1e-12 * size


def test_tower_annihilates_schwarzschild_killing_germs():
    # Schwarzschild's curvature is not parallel, so unlike on the locally
    # symmetric catalog charts the xi-columns of every level are nonzero
    spec = parse_manifold(SCHWARZSCHILD)
    curv = CurvatureData.compute(spec, m_max=2)
    assert np.abs(integrability_tensors(whole_covR(curv), [0])[0].xi_coeff).max() > 1e-3
    for fld in SCHWARZSCHILD_FIELDS:
        germ, _ = sample_field(spec, fld, [spec.base_point]).at(spec.base_point)
        assert germ_kernel_residual(spec, germ, m_max=3) <= 1e-12


def test_tower_rejects_a_wedge_germ_on_schwarzschild():
    spec = parse_manifold(SCHWARZSCHILD)
    g0 = spec.metric_values(spec.base_point)
    rng = np.random.default_rng(3)
    germ = KillingGerm(xi=rng.normal(size=4),
                       a=wedge(rng.normal(size=4), rng.normal(size=4), g0))
    assert germ_kernel_residual(spec, germ, m_max=3) > 1e-3


# The charts whose traces tests/test_traces.py pins, and cw2 x cw2 (n = 8).
STACK_CHARTS = {
    **{name: CHARTS[name] for name in ["euclidean3", "minkowski12", "sphere2", "hyperbolic2",
                                       "cw1", "cw2", "walker_recurrent", "schwarzschild"]},
    "cw2xcw2": lambda: product_metric(builtin("cahen_wallach", n=2, q=[1.0, -1.0]),
                                      builtin("cahen_wallach", n=2, q=[1.0, -1.0])).combined,
}


def independent_rows(n, m):
    """The flat indices of the rows (l, k, i, j, z..) of a level with l < k,
    i < j and (l, k) <= (i, j), in order, and their weights: 2 where
    (l, k) = (i, j), which stands for 4 rows, and sqrt(8) elsewhere, for 8."""
    pairs = list(itertools.combinations(range(n), 2))
    rows, weights = [], []
    for x, head in enumerate(pairs):
        for tail in pairs[x:]:
            for z in itertools.product(range(n), repeat=m):
                rows.append(np.ravel_multi_index(head + tail + z, (n,) * (4 + m)))
                weights.append(2.0 if head == tail else np.sqrt(8.0))
    return np.array(rows, dtype=np.intp), np.array(weights)


def _gram_distance(a, b):
    """Largest entry of a^T a - b^T b over the largest of b^T b, or over 1
    when that is smaller: the entries of a unit frame are of order one."""
    want = b.T @ b
    return np.abs(a.T @ a - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("chart", list(STACK_CHARTS))
def test_tower_stack_is_the_basis_contraction_bit_for_bit(chart):
    # each level is the basis contraction's independent rows times their
    # weights, lowered (times signs[l]): the xi-columns bit for bit, the
    # A-columns, summed in another order, within 1e-15 of the level's
    # largest entry; and it has the Gram matrix of all n^(4+m) rows
    spec = STACK_CHARTS[chart]()
    n = spec.dim
    frame = CurvatureData.compute(spec, m_max=3).unit_frames[0]
    want = tower_stack_by_basis(frame, 2)
    start = 0
    for m in range(3):
        full = want[start:start + n ** (4 + m)]
        start += len(full)
        rows, weights = independent_rows(n, m)
        lowered = frame.signs[np.unravel_index(rows, (n,) * (4 + m))[0]]
        picked = full[rows] * (weights * lowered)[:, None]
        got = tower_level(frame, m)
        assert got.shape == picked.shape
        assert np.array_equal(got[:, :n], picked[:, :n])
        assert np.abs(got - picked).max() <= 1e-15 * np.abs(got).max()
        assert _gram_distance(got, full) <= 1e-14, m
    assert start == len(want)


@pytest.mark.parametrize("chart", sorted(CHARTS) + ["cw2xcw2", "euclidean1"])
def test_tower_level_has_one_row_per_group_of_equal_rows(chart):
    # C(C(n, 2) + 1, 2) n^m rows over the n + C(n, 2) germ coordinates; a
    # 1-D chart has none
    spec = {**CHARTS, **STACK_CHARTS, "euclidean1": lambda: builtin("euclidean", n=1)}[chart]()
    n = spec.dim
    frame = CurvatureData.compute(spec, m_max=3).unit_frames[0]
    for m in range(3):
        assert tower_level(frame, m).shape == (
            math.comb(math.comb(n, 2) + 1, 2) * n ** m, n + math.comb(n, 2))


def test_one_gather_serves_both_signatures_of_a_dimension():
    # the index arrays are kept per (n, m); the signs are applied per call
    frames = [CurvatureData.compute(CHARTS[name](), m_max=1).unit_frames[0]
              for name in ("cw1", "random3")]
    assert sorted(frames[0].signs) == [-1.0, 1.0, 1.0] and all(frames[1].signs == 1.0)
    killing._gathers.clear()
    for frame in frames:
        rows, weights = independent_rows(3, 0)
        [level] = integrability_tensors(whole_covR(frame), [0])
        lowered = frame.signs[np.unravel_index(rows, (3,) * 4)[0]]
        picked = level.matrix(frame.signs)[rows] * (weights * lowered)[:, None]
        got = tower_level(frame, 0)
        assert np.abs(got - picked).max() <= 1e-15 * np.abs(got).max()
        assert np.abs(got).max() > 0.1
    assert list(killing._gathers) == [(3, 0)]
    assert killing._level_gather(3, 0) is killing._gathers[(3, 0)]


def _kept_bytes():
    return sum(a.nbytes for kept in killing._gathers.values() for a in kept)


def test_a_gather_over_the_byte_budget_is_not_kept(monkeypatch):
    # level 2 at n = 8 holds 32 MB, four times ``_GATHER_BYTES``
    monkeypatch.setattr(killing, "_gathers", {})
    killing._level_gather(3, 0)
    arrays = killing._level_gather(8, 2)
    assert sum(a.nbytes for a in arrays) > killing._GATHER_BYTES
    assert (8, 2) not in killing._gathers
    assert _kept_bytes() <= killing._GATHER_BYTES


def test_the_least_recently_used_gather_goes_first(monkeypatch):
    # (6, 2), (8, 1), (7, 1) and (5, 2) hold 3.7, 3.3, 1.4 and 0.9 MB: the
    # fourth passes the budget, and (8, 1), used before (6, 2) was used
    # again, goes
    monkeypatch.setattr(killing, "_gathers", {})
    for key in [(6, 2), (8, 1), (6, 2), (7, 1)]:
        killing._level_gather(*key)
        assert _kept_bytes() <= killing._GATHER_BYTES
    assert list(killing._gathers) == [(8, 1), (6, 2), (7, 1)]
    killing._level_gather(5, 2)
    assert list(killing._gathers) == [(6, 2), (7, 1), (5, 2)]
    assert _kept_bytes() <= killing._GATHER_BYTES


def _all_slot_blocks(frame, m):
    """Every slot's block of covR[m] lowered by the signs, (4 + m) n^(3 + m)
    rows: each slot in turn moved last and taken as the columns."""
    n = len(frame.signs)
    low = np.einsum("l,l...->l...", frame.signs, whole_covR(frame)[m])
    return np.vstack([np.moveaxis(low, s, -1).reshape(-1, n) for s in range(low.ndim)])


@pytest.mark.parametrize("chart", list(STACK_CHARTS))
def test_slot_matrix_has_the_gram_matrix_of_every_slot_block(chart):
    # the slot-0 block weighted by 2 stands for the four curvature slots
    spec = STACK_CHARTS[chart]()
    n = spec.dim
    frame = CurvatureData.compute(spec, m_max=2).unit_frames[0]
    for m in range(3):
        got = slot_matrix(frame, m)
        assert got.shape == ((1 + m) * n ** (3 + m), n)
        assert _gram_distance(got, _all_slot_blocks(frame, m)) <= 1e-14, m


# The blocks that each order adds to a stack: the tower's level, the holonomy
# span's endomorphism values and the slot matrix of par.
BLOCKS = {"tower": tower_level, "holonomy": endomorphism_rows, "slots": slot_matrix}


@pytest.mark.parametrize("chart", list(STACK_CHARTS))
def test_running_decisions_match_the_whole_stack(chart):
    # ranking each order's block on the factor of the order before decides
    # what ranking the stack of every block so far decides, up to rounding
    spec = STACK_CHARTS[chart]()
    frame = CurvatureData.compute(spec, m_max=3).unit_frames[0]
    for name, block in BLOCKS.items():
        blocks, running = [], None
        for m in range(3):
            blocks.append(block(frame, m))
            running = numerical_rank(blocks[-1], 1e-8, running)
            whole = numerical_rank(np.vstack(blocks), 1e-8)
            scale = max(1.0, whole.margin["sigma_max"])
            assert running.rank == whole.rank, (name, m)
            for key, want in whole.margin.items():
                got = running.margin[key]
                assert (got is None) == (want is None), (name, m, key)
                assert want is None or abs(got - want) <= 1e-12 * scale, (name, m, key)
            assert np.abs(running.null.T @ running.null
                          - whole.null.T @ whole.null).max() <= 1e-12, (name, m)


def test_a_deep_trace_holds_no_more_than_the_rebuilt_stack_did():
    # the tracemalloc peak of a warm trace: 44,488,621 B at commit 19341e0
    # (numpy 2.4), where every order ranked the stack of levels 0..m built
    # afresh, and 9,683,563 B with each level built once as its independent
    # rows; the pin is the latter plus a margin of 1.3 MB
    import tracemalloc

    from killingkit.killing import killing_dimension
    spec = STACK_CHARTS["cw2xcw2"]()
    killing_dimension(spec, m_max=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        killing_dimension(spec, m_max=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 11_000_000
