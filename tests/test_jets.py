import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingkit.jets import (JetDomainError, JetOrderError, JetShapeError, JetTensor,
                             compile_tape, jet_space, tensor_deriv, tensor_product)
from killingkit.metricdsl import Binary, Call, Const, Coord, PowInt

from oracles import fd_first_partial, fd_second_partial, float_eval, random_expression

X, Y = Coord("x", 0), Coord("y", 1)


def tape_jet(expr, space, point=None):
    """The coefficients of an expression's jet about ``point`` (the origin by
    default), from a tape compiled for it alone; raises the failure the tape
    reports there."""
    point = np.zeros(space.n_vars) if point is None else np.asarray(point, dtype=np.float64)
    coeffs, failure = compile_tape([expr]).evaluate(point[None], space)
    if failure is not None:
        raise failure[2]
    return coeffs[0, 0]


def partial_value(coeffs, space, alpha):
    """The derivative d^alpha at the expansion point, alpha! c_alpha, of the
    jet with coefficients ``coeffs`` in ``space``."""
    return math.prod(map(math.factorial, alpha)) * coeffs[space.index[tuple(alpha)]]


def plus(a, b):
    return Binary("+", a, b)


def times(a, b):
    return Binary("*", a, b)


def test_product_of_binomials():
    s = jet_space(2, 2)
    p = tape_jet(times(plus(Const(1.0), X), plus(Const(1.0), Y)), s)
    assert p[s.index[(0, 0)]] == 1.0
    assert p[s.index[(1, 0)]] == 1.0
    assert p[s.index[(0, 1)]] == 1.0
    assert p[s.index[(1, 1)]] == 1.0
    assert p[s.index[(2, 0)]] == 0.0


def test_truncation_drops_top_degree():
    s = jet_space(2, 1)
    assert np.all(tape_jet(times(X, X), s) == 0.0)


def test_multiplicative_identity():
    rng = np.random.default_rng(7)
    s = jet_space(3, 3)
    a = JetTensor(rng.normal(size=s.size), s)
    one = JetTensor(np.eye(1, s.size)[0], s)
    assert np.allclose(tensor_product(",->", a, one).array, a.array)


def test_elementary_series():
    s = jet_space(1, 3)
    assert np.allclose(tape_jet(Call("sin", X), s), [0.0, 1.0, 0.0, -1 / 6])
    s2 = jet_space(1, 2)
    assert np.allclose(tape_jet(Call("exp", X), s2), [1.0, 1.0, 0.5])
    assert np.allclose(tape_jet(Call("sqrt", plus(Const(1.0), X)), s2), [1.0, 0.5, -0.125])


def test_pow_int_and_reciprocal():
    s = jet_space(1, 3)
    p = tape_jet(PowInt(X, 3), s, [0.5])
    assert p[0] == pytest.approx(0.125)
    inv = tape_jet(PowInt(X, -2), s, [0.5])
    ref = tape_jet(Binary("/", Const(1.0), times(X, X)), s, [0.5])
    assert np.allclose(inv, ref)
    assert tape_jet(PowInt(X, 0), s, [0.5])[0] == 1.0


def test_partial_values():
    s = jet_space(2, 2)
    assert partial_value(tape_jet(times(X, Y), s), s, (1, 1)) == pytest.approx(1.0)
    assert partial_value(tape_jet(times(X, X), s), s, (2, 0)) == pytest.approx(2.0)
    a = tape_jet(plus(Const(3.5), times(Const(2.0), X)), s)
    assert partial_value(a, s, (0, 0)) == pytest.approx(3.5)


def test_error_conditions():
    s = jet_space(2, 2)
    x = JetTensor(tape_jet(X, s), s)
    with pytest.raises(JetShapeError):
        x + JetTensor(tape_jet(X, jet_space(2, 1)), jet_space(2, 1))
    with pytest.raises(JetShapeError):
        x + JetTensor(tape_jet(X, jet_space(3, 2)), jet_space(3, 2))
    with pytest.raises(JetOrderError):
        x.truncated(3)
    with pytest.raises(JetDomainError):
        tape_jet(Binary("/", Const(1.0), X), s)  # zero constant term
    with pytest.raises(JetDomainError):
        tape_jet(Call("sqrt", plus(Const(-1.0), X)), s)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
jet_coeffs = st.lists(finite, min_size=10, max_size=10)  # space (2, 3) has 10


def _jet(coeffs):
    return JetTensor(np.array(coeffs), jet_space(2, 3))


def _mul(a, b):
    return tensor_product(",->", a, b)


@given(jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(ca, cb):
    a, b = _jet(ca), _jet(cb)
    da, db, dab = tensor_deriv(a).array, tensor_deriv(b).array, tensor_deriv(_mul(a, b)).array
    for i in range(2):
        lhs = dab[i, 0]
        rhs = da[i, 0] * b.array[0] + a.array[0] * db[i, 0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@given(jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_commutative(ca, cb):
    a, b = _jet(ca), _jet(cb)
    assert np.allclose(_mul(a, b).array, _mul(b, a).array)


@given(jet_coeffs, jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_associative(ca, cb, cc):
    a, b, c = _jet(ca), _jet(cb), _jet(cc)
    lhs = _mul(_mul(a, b), c).array
    rhs = _mul(a, _mul(b, c)).array
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_finite_difference_cross_check_sample():
    rng = np.random.default_rng(3)
    space = jet_space(2, 2)
    for _ in range(10):
        expr = random_expression(rng, 2, depth=3)
        p = rng.uniform(-0.5, 0.5, size=2)
        jet = tape_jet(expr, space, p)
        f = functools.partial(float_eval, expr)
        for i in range(2):
            e = tuple(1 if k == i else 0 for k in range(2))
            jv = partial_value(jet, space, e)
            fv = fd_first_partial(f, p, i)
            assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))
        for i in range(2):
            for j in range(i, 2):
                alpha = tuple((1 if k == i else 0) + (1 if k == j else 0)
                              for k in range(2))
                jv = partial_value(jet, space, alpha)
                fv = fd_second_partial(f, p, i, j)
                assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))


def test_deriv_consistency_with_partial():
    s = jet_space(2, 3)
    f = tape_jet(Call("exp", plus(times(X, Y), X)), s, [0.3, -0.2])
    d = tensor_deriv(JetTensor(f, s))
    assert d.array[0, 0] == pytest.approx(partial_value(f, s, (1, 0)))


@pytest.mark.parametrize("chunk", [1, 1000, 5000])
def test_tensor_product_chunked_matches_unchunked(monkeypatch, chunk):
    # the shape of a covariant-derivative term: a connection slot contracted
    # into the curvature, the derivative slot Z appended last
    from killingkit import jets
    rng = np.random.default_rng(11)
    s = jet_space(3, 3)
    gamma = jets.JetTensor(rng.normal(size=(3, 3, 3, s.size)), s)
    r = jets.JetTensor(rng.normal(size=(3, 3, 3, 3, s.size)), s)
    for order in (None, 2):
        whole = jets.tensor_product("aZA,Abcd->abcdZ", gamma, r, order)
        einsum, calls = np.einsum, []
        monkeypatch.setattr(jets, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(1) or einsum(*a, **k))
        chunked = jets.tensor_product("aZA,Abcd->abcdZ", gamma, r, order)
        monkeypatch.undo()
        assert len(calls) > 1
        assert chunked.space is whole.space
        assert np.allclose(chunked.array, whole.array, rtol=1e-14, atol=1e-13)


# The contractions of curvature.py and killing.py, each also taken with the
# point axis P in front of every operand.
CONTRACTIONS = ["ia,ab->ib", "kl,lij->kij", "lim,mjk->lkij", "ljm,mik->lkij",
                "aZA,Abcd->abcdZ", "AZb,aAcd->abcdZ", "AZd,abcA->abcdZ", "ijk,k->ij"]


def _with_points(sub):
    lhs, out = sub.split("->")
    return ",".join("P" + s for s in lhs.split(",")) + "->P" + out


def _component_support(kind, shape, letters, rng):
    """Which components of an operand are nonzero: none, one, those whose
    indices (the point axis aside) all fall in one of two diagonal blocks,
    as on a product chart, or all."""
    if kind in ("empty", "dense"):
        return np.full(shape, kind == "dense")
    if kind == "single":
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(int(rng.integers(n)) for n in shape)] = True
        return mask
    grid = np.indices(shape)
    block = [grid[axis] >= 2 for axis, c in enumerate(letters) if c != "P"]
    return np.all(block, axis=0) | ~np.any(block, axis=0)


@settings(max_examples=300, deadline=None)
@given(sub=st.sampled_from(CONTRACTIONS), points=st.booleans(),
       kinds=st.tuples(*[st.sampled_from(["empty", "single", "block", "dense"])] * 2),
       orders=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       below=st.sampled_from([None, 0, 1]), chunk=st.sampled_from([None, 1, 40]),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_tensor_product_matches_the_dense_oracle(sub, points, kinds, orders, below,
                                                        chunk, seed):
    # every contraction may take the sparse path; one whose supports are
    # dense takes the dense path all the same
    from killingkit import jets
    from oracles import dense_tensor_product
    rng = np.random.default_rng(seed)
    sub = _with_points(sub) if points else sub
    operands = []
    for letters, kind, q in zip(sub.split("->")[0].split(","), kinds, orders):
        space = jet_space(2, q)
        shape = tuple(2 if c == "P" else 3 for c in letters)
        mask = _component_support(kind, shape, letters, rng)
        coeffs = rng.normal(size=shape + (space.size,))
        coeffs *= rng.random(coeffs.shape) < 0.7   # zero coefficients in nonzero jets
        operands.append(jets.JetTensor(coeffs * mask[..., None], space))
    a, b = operands
    order = None if below is None else max(0, min(orders) - below)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_SPARSE_MIN_WORK", 0)
        if chunk is not None:
            mp.setattr(jets, "_CHUNK_ELEMS", chunk)
        result = jets.tensor_product(sub, a, b, order)
    oracle = dense_tensor_product(sub, a, b, order)
    bound = dense_tensor_product(sub, jets.JetTensor(np.abs(a.array), a.space),
                                 jets.JetTensor(np.abs(b.array), b.space), order)
    assert result.space is oracle.space
    assert result.array.shape == oracle.array.shape
    assert np.all(np.abs(result.array - oracle.array) <= 1e-14 * bound.array)
    assert np.all(result.array[oracle.array == 0] == 0)


def _dense_random_chart(n, seed):
    """A chart whose metric entries are all random expressions in every
    coordinate, about a diagonal that keeps it nondegenerate at the origin."""
    from killingkit.metricdsl import Binary, Const, make_spec
    rng = np.random.default_rng(seed)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = Binary("*", Const(0.05), random_expression(rng, n, depth=3))
            grid[i][j] = grid[j][i] = Binary("+", Const(3.0 if i == j else 0.0), entry)
    return make_spec(f"dense{n}", [f"x{i + 1}" for i in range(n)], grid)


def test_the_path_switch_follows_the_work_and_the_support(monkeypatch):
    from killingkit import curvature, jets, metricdsl
    from killingkit.product import product_metric
    taken, calls = [], []
    sparse = jets._sparse_product
    monkeypatch.setattr(jets, "_sparse_product", lambda *args: taken.append(1) or sparse(*args))
    contract = jets.tensor_product

    def spy(sub, a, b, order=None):
        before = len(taken)
        result = contract(sub, a, b, order)
        q = min(a.order, b.order) if order is None else order
        dims = {}
        for letters, t in zip(sub.split("->")[0].split(","), (a, b)):
            dims.update(zip(letters, t.shape))
        pairs = len(jets._mul_table(a.n_vars, a.order, b.order, q).ai)
        work = pairs * math.prod(dims.values())
        calls.append((chart, sub, work, len(taken) > before))
        return result

    monkeypatch.setattr(curvature, "tensor_product", spy)
    cw1 = metricdsl.builtin("cahen_wallach", n=1, q=1.0)
    chart = "cw1xcw1"
    curvature.CurvatureData.compute(product_metric(cw1, cw1).combined, m_max=1)
    chart = "dense4"
    curvature.CurvatureData.compute(_dense_random_chart(4, 7), m_max=2)

    # the covariant derivative of the curvature on the product is sparse
    nabla_r = [c for c in calls if c[0] == "cw1xcw1" and c[1].endswith("->abcdZ")]
    assert len(nabla_r) == 4 and all(c[3] for c in nabla_r)
    # the random chart is dense wherever its work would allow the sparse path
    dense = [c for c in calls if c[0] == "dense4"]
    assert any(c[2] >= jets._SPARSE_MIN_WORK for c in dense)
    assert not any(c[3] for c in dense)
    # and no contraction under the threshold pays for finding supports; on
    # the product, those of the inverse metric are under it
    assert not any(c[3] for c in calls if c[2] < jets._SPARSE_MIN_WORK)
    inverse = [c for c in calls if c[0] == "cw1xcw1" and c[1] == "ia,ab->ib"]
    assert inverse and not any(c[3] for c in inverse)


def test_non_finite_coefficients_contract_as_the_dense_path_does(monkeypatch):
    # nan times a zero component is nan, so the dense path spreads a
    # non-finite coefficient where the sparse path would skip it
    from killingkit import jets
    from oracles import dense_tensor_product
    monkeypatch.setattr(jets, "_SPARSE_MIN_WORK", 0)
    s = jet_space(2, 2)
    for bad in (np.nan, np.inf):
        a = np.zeros((3, 3, s.size))
        a[0, 0, 1] = bad
        b = np.zeros((3, 3, 3, s.size))
        b[1, 1, 1, 0] = 1.0
        a, b = jets.JetTensor(a, s), jets.JetTensor(b, s)
        with np.errstate(invalid="ignore"):
            result = jets.tensor_product("kl,lij->kij", a, b)
            oracle = dense_tensor_product("kl,lij->kij", a, b)
        np.testing.assert_array_equal(result.array, oracle.array)
