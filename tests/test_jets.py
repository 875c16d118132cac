import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingkit.jets import (Jet, JetDomainError, JetOrderError, JetShapeError,
                             jet_add, jet_elementary, jet_mul, jet_partial,
                             jet_space)

from oracles import fd_first_partial, fd_second_partial, float_eval, random_expression


def coords(space, point=None):
    point = point or [0.0] * space.n_vars
    return [Jet.variable(space, i, point[i]) for i in range(space.n_vars)]


def test_product_of_binomials():
    s = jet_space(2, 2)
    x, y = coords(s)
    p = (1 + x) * (1 + y)
    assert p.coefficient((0, 0)) == 1.0
    assert p.coefficient((1, 0)) == 1.0
    assert p.coefficient((0, 1)) == 1.0
    assert p.coefficient((1, 1)) == 1.0
    assert p.coefficient((2, 0)) == 0.0


def test_truncation_drops_top_degree():
    s = jet_space(2, 1)
    x, _ = coords(s)
    assert np.all((x * x).coeffs == 0.0)


def test_multiplicative_identity():
    rng = np.random.default_rng(7)
    s = jet_space(3, 3)
    a = Jet(s, rng.normal(size=s.size))
    one = Jet.constant(s, 1.0)
    assert np.allclose(jet_mul(a, one).coeffs, a.coeffs)


def test_elementary_series():
    s = jet_space(1, 3)
    x = Jet.variable(s, 0, 0.0)
    sx = jet_elementary("sin", x)
    assert np.allclose(sx.coeffs, [0.0, 1.0, 0.0, -1 / 6])
    s2 = jet_space(1, 2)
    x2 = Jet.variable(s2, 0, 0.0)
    assert np.allclose(jet_elementary("exp", x2).coeffs, [1.0, 1.0, 0.5])
    assert np.allclose(jet_elementary("sqrt", 1 + x2).coeffs, [1.0, 0.5, -0.125])


def test_pow_int_and_reciprocal():
    s = jet_space(1, 3)
    x = Jet.variable(s, 0, 0.5)
    p = jet_elementary("pow_int", x, exponent=3)
    assert p.value == pytest.approx(0.125)
    inv = jet_elementary("pow_int", x, exponent=-2)
    ref = jet_elementary("reciprocal", jet_mul(x, x))
    assert np.allclose(inv.coeffs, ref.coeffs)
    assert jet_elementary("pow_int", x, exponent=0).value == 1.0


def test_partial_values():
    s = jet_space(2, 2)
    x, y = coords(s)
    assert jet_partial(x * y, (1, 1)) == pytest.approx(1.0)
    assert jet_partial(x * x, (2, 0)) == pytest.approx(2.0)
    a = 3.5 + 2 * x
    assert jet_partial(a, (0, 0)) == pytest.approx(3.5)


def test_error_conditions():
    s = jet_space(2, 2)
    x, y = coords(s)
    with pytest.raises(JetShapeError):
        jet_add(x, Jet.variable(jet_space(2, 1), 0, 0.0))
    with pytest.raises(JetShapeError):
        jet_add(x, Jet.variable(jet_space(3, 2), 0, 0.0))
    with pytest.raises(JetOrderError):
        jet_partial(x, (3, 0))
    with pytest.raises(JetDomainError):
        jet_elementary("reciprocal", x)  # zero constant term
    with pytest.raises(JetDomainError):
        jet_elementary("sqrt", -1 + x)
    with pytest.raises(ValueError):
        jet_elementary("pow_int", x)  # missing exponent


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
jet_coeffs = st.lists(finite, min_size=10, max_size=10)  # space (2, 3) has 10


def _jet(coeffs):
    return Jet(jet_space(2, 3), np.array(coeffs))


@given(jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(ca, cb):
    a, b = _jet(ca), _jet(cb)
    for i in range(2):
        e = (1, 0) if i == 0 else (0, 1)
        lhs = jet_partial(jet_mul(a, b), e)
        rhs = jet_partial(a, e) * b.value + a.value * jet_partial(b, e)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@given(jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_commutative(ca, cb):
    a, b = _jet(ca), _jet(cb)
    assert np.allclose(jet_mul(a, b).coeffs, jet_mul(b, a).coeffs)


@given(jet_coeffs, jet_coeffs, jet_coeffs)
@settings(max_examples=60, deadline=None)
def test_mul_associative(ca, cb, cc):
    a, b, c = _jet(ca), _jet(cb), _jet(cc)
    lhs = jet_mul(jet_mul(a, b), c).coeffs
    rhs = jet_mul(a, jet_mul(b, c)).coeffs
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_finite_difference_cross_check_sample():
    rng = np.random.default_rng(3)
    space = jet_space(2, 2)
    for _ in range(10):
        expr = random_expression(rng, 2, depth=3)
        p = rng.uniform(-0.5, 0.5, size=2)
        jet = expr.eval_jet(space, p)
        f = functools.partial(float_eval, expr)
        for i in range(2):
            e = tuple(1 if k == i else 0 for k in range(2))
            jv = jet_partial(jet, e)
            fv = fd_first_partial(f, p, i)
            assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))
        for i in range(2):
            for j in range(i, 2):
                alpha = tuple((1 if k == i else 0) + (1 if k == j else 0)
                              for k in range(2))
                jv = jet_partial(jet, alpha)
                fv = fd_second_partial(f, p, i, j)
                assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))


def test_deriv_consistency_with_partial():
    s = jet_space(2, 3)
    x, y = coords(s, [0.3, -0.2])
    f = jet_elementary("exp", x * y + x)
    d = f.deriv(0)
    assert d.value == pytest.approx(jet_partial(f, (1, 0)))


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
