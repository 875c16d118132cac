import functools

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
