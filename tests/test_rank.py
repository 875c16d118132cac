import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from killingkit.rank import numerical_rank, stabilise

TOL = 1e-8

# Two ways of taking one rank decision give null-space projectors that
# differ by about eps sigma_max / gap (Davis and Kahan), the gap being
# smallest_kept - largest_cut, plus the projectors' own rounding of a few
# eps.  C bounds the ratio of the difference to eps sigma_max / gap: over a
# seeded sweep of 340 000 draws like those of ``low_rank_matrices`` the
# largest ratio was 50, where sigma_max / gap is about 1 and rounding
# dominates.
PROJECTOR_C = 100


def low_rank_matrix(rows, cols, kept, noise, seed):
    """U diag(s) V^T, s the singular values ``kept`` and then ``noise``,
    U and V with orthonormal columns drawn from ``seed``."""
    k = min(rows, cols)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = np.array(kept + [noise] * (k - len(kept)))
    return u @ np.diag(s) @ v.T


@st.composite
def low_rank_matrices(draw):
    """A = U diag(s) V^T with r singular values in [1e-3, 1e3] and the rest
    at most 1e-14 of the largest: rank r with a clear gap at the absolute
    threshold TOL."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(rows, cols)))
    kept = draw(st.lists(st.floats(1e-3, 1e3), min_size=r, max_size=r))
    noise = draw(st.floats(0.0, 1e-14)) * max(kept, default=0.0)
    return low_rank_matrix(rows, cols, kept, noise, draw(st.integers(0, 2**32 - 1))), r


@given(low_rank_matrices())
@settings(max_examples=200, deadline=None)
def test_numerical_rank_recovers_rank_margin_and_bases(case):
    a, r = case
    dec = numerical_rank(a, TOL)
    assert dec.rank == r
    smax = dec.margin["sigma_max"]
    if r:
        assert dec.margin["smallest_kept"] > TOL >= dec.margin["largest_cut"]
    else:
        assert dec.margin == {"sigma_max": 0.0, "smallest_kept": None, "largest_cut": 0.0}
    cols = a.shape[1]
    assert dec.row.shape == (r, cols)
    assert dec.null.shape == (cols - r, cols)
    both = np.vstack([dec.row, dec.null])
    assert np.allclose(both @ both.T, np.eye(cols), atol=1e-12)
    assert np.abs(a @ dec.null.T).max(initial=0.0) <= 1e-10 * max(1.0, smax)


@pytest.mark.parametrize("shape", [(0, 3), (4, 3), (2, 5), (0, 0)])
def test_zero_and_empty_matrices_have_rank_zero(shape):
    dec = numerical_rank(np.zeros(shape), TOL)
    assert dec.rank == 0
    assert dec.row.shape == (0, shape[1])
    assert np.array_equal(dec.null, np.eye(shape[1]))


def _assert_same_decision(got, want):
    """Rank, margin within 1e-12 of sigma_max, and null space equal: the
    projectors within PROJECTOR_C eps sigma_max / gap (PROJECTOR_C eps at
    rank 0, where the null space is the whole space)."""
    assert got.rank == want.rank
    scale = max(1.0, want.margin["sigma_max"])
    for key, value in want.margin.items():
        assert (got.margin[key] is None) == (value is None), key
        assert value is None or abs(got.margin[key] - value) <= 1e-12 * scale, key
    sigma_max, kept, cut = (want.margin[key] for key in ("sigma_max", "smallest_kept",
                                                         "largest_cut"))
    bound = PROJECTOR_C * np.finfo(float).eps * (1.0 if kept is None else sigma_max / (kept - cut))
    assert np.abs(got.null.T @ got.null - want.null.T @ want.null).max(initial=0.0) <= bound


# a draw of the sweep whose projectors differ by 3.0e-10 (a gap of 1e-6
# sigma_max), 1.4 eps sigma_max / gap
@given(low_rank_matrices(), st.integers(0, 7))
@example((low_rank_matrix(3, 7, [1000.0, 0.001, 1000.0], 6.8256130652660105e-15 * 1000.0,
                          826760778), 3), 2)
@settings(max_examples=200, deadline=None)
def test_ranking_on_the_previous_factor_decides_as_the_stack(case, split):
    # [A; B] and [S Vh; B] have one Gram matrix, so one rank, margin and
    # null space; the factor has no more rows than the block or columns
    a, _ = case
    top, bottom = a[:split], a[split:]
    previous = numerical_rank(top, TOL)
    assert len(previous.factor) <= min(len(top), a.shape[1])
    assert previous.factor.shape[1] == a.shape[1]
    _assert_same_decision(numerical_rank(bottom, TOL, previous), numerical_rank(a, TOL))


def test_previous_factor_of_a_wide_block():
    # the holonomy span of a surface starts with a 1 x 4 block
    rng = np.random.default_rng(1)
    top, bottom = rng.standard_normal((1, 4)), rng.standard_normal((2, 4))
    previous = numerical_rank(top, TOL)
    assert previous.factor.shape == (1, 4) and len(previous.null) == 3
    got = numerical_rank(bottom, TOL, previous)
    assert got.rank == 3 and got.null.shape == (1, 4)
    _assert_same_decision(got, numerical_rank(np.vstack([top, bottom]), TOL))


def test_previous_decision_of_rank_zero():
    # an all-zero block leaves a factor of no rows: the next block is ranked alone
    previous = numerical_rank(np.zeros((3, 4)), TOL)
    assert previous.factor.shape == (0, 4)
    block = np.random.default_rng(2).standard_normal((2, 4))
    _assert_same_decision(numerical_rank(block, TOL, previous), numerical_rank(block, TOL))
    _assert_same_decision(numerical_rank(np.zeros((2, 4)), TOL, previous),
                          numerical_rank(np.zeros((5, 4)), TOL))


def test_all_zero_block_keeps_the_previous_decision():
    rng = np.random.default_rng(3)
    top = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))   # rank 2
    previous = numerical_rank(top, TOL)
    got = numerical_rank(np.zeros((6, 4)), TOL, previous)
    assert got.rank == previous.rank == 2
    _assert_same_decision(got, previous)
    _assert_same_decision(got, numerical_rank(np.vstack([top, np.zeros((6, 4))]), TOL))


def _stack_of_rank(r, cols=6):
    return np.eye(cols)[:r]


def _decide(ranks, asked):
    def decide(m, active, previous):
        asked.append(m)
        return [numerical_rank(_stack_of_rank(ranks(m)), TOL) for _ in active]
    return decide


def test_stabilise_stops_at_first_repeat():
    ranks, asked = [1, 3, 3, 5], []
    [(decisions, order)] = stabilise(_decide(ranks.__getitem__, asked), 3, 1)
    assert [d.rank for d in decisions] == [1, 3, 3]
    assert order == 1
    assert asked == [0, 1, 2]


def test_stabilise_reports_none_while_still_changing():
    asked = []
    [(decisions, order)] = stabilise(_decide(lambda m: m + 1, asked), 2, 1)
    assert [d.rank for d in decisions] == [1, 2, 3]
    assert order is None
    assert asked == [0, 1, 2]
    [(decisions, order)] = stabilise(_decide(lambda m: 2, []), 0, 1)
    assert len(decisions) == 1 and order is None


def test_stabilise_drops_each_point_once_its_ranks_repeat():
    # three points in lockstep: each is asked for exactly the orders it
    # would be asked for alone, and leaves after its first repeat
    ranks = [[1, 3, 3, 5], [2, 2, 4, 4], [1, 2, 3, 4]]
    asked = []

    def decide(m, active, previous):
        asked.append((m, list(active)))
        return [numerical_rank(_stack_of_rank(ranks[k][m]), TOL) for k in active]

    traces = stabilise(decide, 3, 3)
    assert asked == [(0, [0, 1, 2]), (1, [0, 1, 2]), (2, [0, 2]), (3, [2])]
    assert [[d.rank for d in decisions] for decisions, _ in traces] == [
        [1, 3, 3], [2, 2], [1, 2, 3, 4]]
    assert [order for _, order in traces] == [1, 0, None]
    for k, (decisions, order) in enumerate(traces):
        [alone] = stabilise(lambda m, active, previous: decide(m, [k], previous), 3, 1)
        assert ([d.rank for d in alone[0]], alone[1]) == ([d.rank for d in decisions], order)


def test_stabilise_rejects_negative_order():
    with pytest.raises(ValueError):
        stabilise(_decide(lambda m: 1, []), -1, 1)


def test_an_all_zero_block_takes_no_svd(monkeypatch):
    # [S Vh; 0] has the singular values and right vectors of S Vh: the
    # decision under it is the previous one, returned with no SVD
    rng = np.random.default_rng(5)
    top = rng.standard_normal((2, 4))
    previous = numerical_rank(top, TOL)
    calls = []
    svd = np.linalg.svd

    def spy_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    for block in (np.zeros((3, 4)), np.zeros((0, 4))):
        assert numerical_rank(block, TOL, previous) is previous
        _assert_same_decision(previous, numerical_rank(np.vstack([top, block]), TOL))
    assert calls == [(5, 4), (2, 4)]   # the two whole stacks only
    numerical_rank(np.eye(4)[:1], TOL, previous)
    assert calls[-1] == (3, 4)
