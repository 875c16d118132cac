import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingkit.rank import numerical_rank, stabilise

TOL = 1e-8


@st.composite
def low_rank_matrices(draw):
    """A = U diag(s) V^T with r singular values in [1e-3, 1e3] and the rest
    at most 1e-14 of the largest: rank r with a clear gap at the absolute
    threshold TOL."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    k = min(rows, cols)
    r = draw(st.integers(0, k))
    kept = draw(st.lists(st.floats(1e-3, 1e3), min_size=r, max_size=r))
    noise = draw(st.floats(0.0, 1e-14)) * max(kept, default=0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = np.array(kept + [noise] * (k - r))
    return u @ np.diag(s) @ v.T, r


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


def _stack_of_rank(r, cols=6):
    return np.eye(cols)[:r]


def test_stabilise_stops_at_first_repeat():
    ranks = [1, 3, 3, 5]
    decisions, order, stack = stabilise(lambda m: _stack_of_rank(ranks[m]), 3, TOL)
    assert [d.rank for d in decisions] == [1, 3, 3]
    assert order == 1
    assert np.array_equal(stack, _stack_of_rank(3))


def test_stabilise_reports_none_while_still_changing():
    decisions, order, stack = stabilise(lambda m: _stack_of_rank(m + 1), 2, TOL)
    assert [d.rank for d in decisions] == [1, 2, 3]
    assert order is None
    assert np.array_equal(stack, _stack_of_rank(3))
    decisions, order, _ = stabilise(lambda m: _stack_of_rank(2), 0, TOL)
    assert len(decisions) == 1 and order is None


def test_stabilise_rejects_negative_order():
    with pytest.raises(ValueError):
        stabilise(lambda m: _stack_of_rank(1), -1, TOL)
