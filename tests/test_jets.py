import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingkit import jets
from killingkit.jets import (JetDomainError, JetOrderError, JetShapeError, JetTensor,
                             compile_tape, jet_space, tensor_deriv, tensor_product)
from killingkit.metricdsl import Binary, Call, Const, Coord, PowInt

from oracles import (deriv_table_by_loop, fd_first_partial, fd_second_partial, float_eval,
                     mul_table_by_loop, random_expression)

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


# The ways of ``tensor_product``, each forced: the operator and the gather
# along the table by the way the shapes choose, the join of nonzero
# components by its thresholds.
WAYS = {"operator": {"_shape_way": lambda p: jets._OPERATOR, "_SPARSE_MIN_WORK": math.inf},
        "gather": {"_shape_way": lambda p: jets._GATHER, "_SPARSE_MIN_WORK": math.inf},
        "join": {"_SPARSE_MIN_WORK": 0, "_JOIN_COST": 0}}


@pytest.mark.parametrize("chunk", [1, 1000, 5000])
def test_tensor_product_chunked_matches_unchunked(monkeypatch, chunk):
    # the shape of a covariant-derivative term: a connection slot contracted
    # into the curvature, the derivative slot Z appended last.  The gather
    # and the join multiply in blocks of at most _CHUNK_ELEMS entries.
    rng = np.random.default_rng(11)
    s = jet_space(3, 3)
    gamma = jets.JetTensor(rng.normal(size=(3, 3, 3, s.size)), s)
    r = jets.JetTensor(rng.normal(size=(3, 3, 3, 3, s.size)), s)
    r.array[1] = 0.0   # zero components for the join to skip
    for way in ("gather", "join"):
        for order in (None, 2):
            whole = jets.tensor_product("aZA,Abcd->abcdZ", gamma, r, order)
            # one einsum a block of the gather; one flatnonzero a support
            # and a block of the join
            spied = {"gather": "einsum", "join": "flatnonzero"}[way]
            real, calls = getattr(np, spied), []
            with monkeypatch.context() as m:
                for name, value in WAYS[way].items():
                    m.setattr(jets, name, value)
                m.setattr(jets, "_CHUNK_ELEMS", chunk)
                m.setattr(np, spied, lambda *a, **k: calls.append(1) or real(*a, **k))
                chunked = jets.tensor_product("aZA,Abcd->abcdZ", gamma, r, order)
            assert len(calls) > {"gather": 1, "join": 3}[way]
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
    from killingkit import curvature, metricdsl
    from killingkit.product import product_metric
    calls, looked = [], []
    ways, join = jets._ways, jets._join

    def spy_ways(p, xa, xb, npairs):
        taken, pairs = ways(p, xa, xb, npairs)
        calls.append((chart, f"{p.la},{p.lb}->{p.out_sub}", p, taken[0]))
        return taken, pairs

    monkeypatch.setattr(jets, "_ways", spy_ways)
    monkeypatch.setattr(jets, "_join", lambda *args: looked.append(chart) or join(*args))
    cw1 = metricdsl.builtin("cahen_wallach", n=1, q=1.0)
    chart = "cw1xcw1"
    curvature.CurvatureData.compute(product_metric(cw1, cw1).combined, m_max=2)
    chart = "dense6"
    curvature.CurvatureData.compute(_dense_random_chart(6, 7), m_max=2)

    def default(p):
        # the way the shapes choose, before supports are looked at
        return jets._OPERATOR if p.held[0] <= p.held[1] else jets._GATHER

    # the operator where it holds no more floats than the gather, else the
    # gather, unless the join was taken
    assert all(way in (jets._JOIN, default(p)) for _, _, p, way in calls)
    # on the product the curvature's product of the Christoffel symbols of
    # both kinds, past the work at which supports are looked at, takes the
    # join; the covariant derivatives take the operator
    product = [c for c in calls if c[0] == "cw1xcw1"]
    assert "ail,ajk->lkij" in {c[1] for c in product if c[3] == jets._JOIN}
    assert all(c[3] == jets._OPERATOR for c in product if c[1].endswith("Z"))
    # the random chart looks at its supports and takes the join nowhere
    dense = [c for c in calls if c[0] == "dense6"]
    assert "dense6" in looked and not any(c[3] == jets._JOIN for c in dense)
    assert {c[3] for c in dense} == {jets._OPERATOR, jets._GATHER}
    # and no contraction under the threshold pays for finding supports
    assert len(looked) == sum(c[2].madds >= jets._SPARSE_MIN_WORK for c in calls)


def test_non_finite_coefficients_contract_as_the_dense_path_does(monkeypatch):
    # nan times a zero component is nan, so the dense path spreads a
    # non-finite coefficient where the sparse path would skip it
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


@settings(max_examples=250, deadline=None)
@given(sub=st.sampled_from(CONTRACTIONS), points=st.sampled_from([None, 0, 1, 3]),
       n=st.integers(1, 4), orders=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       below=st.sampled_from([None, 0, 1, 2]),
       kinds=st.tuples(*[st.sampled_from(["empty", "single", "block", "dense"])] * 2),
       bad=st.sampled_from([None, ("a", np.nan), ("b", np.inf), ("a", -np.inf), ("b", np.nan)]),
       way=st.sampled_from([None, *WAYS]), seed=st.integers(0, 2**32 - 1))
def test_tensor_product_matches_the_dense_oracle(sub, points, n, orders, below, kinds, bad,
                                                 way, seed):
    # every contraction, with and without a point axis (an empty one too), by
    # the rule or forced one way, agrees with the sum over every component
    # pair; a non-finite coefficient spreads exactly as in that sum
    from oracles import dense_tensor_product
    rng = np.random.default_rng(seed)
    sub = sub if points is None else _with_points(sub)
    operands = []
    for letters, kind, q in zip(sub.split("->")[0].split(","), kinds, orders):
        space = jet_space(n, q)
        shape = tuple(points if c == "P" else n for c in letters)
        mask = _component_support(kind, shape, letters, rng) if all(shape) else np.ones(shape)
        coeffs = rng.normal(size=shape + (space.size,)) * mask[..., None]
        operands.append(coeffs)
    if bad is not None and operands["ab".index(bad[0])].size:
        arr = operands["ab".index(bad[0])]
        arr[tuple(int(rng.integers(d)) for d in arr.shape)] = bad[1]
    a, b = (jets.JetTensor(c, jet_space(n, q)) for c, q in zip(operands, orders))
    order = None if below is None else max(0, min(orders) - below)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        for name, value in WAYS.get(way, {}).items():
            mp.setattr(jets, name, value)
        result = jets.tensor_product(sub, a, b, order)
        oracle = dense_tensor_product(sub, a, b, order)
        bound = dense_tensor_product(sub, jets.JetTensor(np.abs(a.array), a.space),
                                     jets.JetTensor(np.abs(b.array), b.space), order)
    assert result.space is oracle.space
    assert result.array.shape == oracle.array.shape
    got, want = result.array, oracle.array
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(got[~finite & ~np.isnan(want)], want[~finite & ~np.isnan(want)])
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * bound.array[finite])
    assert np.all(got[want == 0] == 0)


@pytest.mark.parametrize("sub", ["ii,ij->j", "ij,k->k", "iPj,Pjk->Pik", "ak,kb->ba"])
@pytest.mark.parametrize("way", [None, *WAYS])
def test_any_subscript_contracts_as_the_dense_oracle(sub, way, monkeypatch):
    # a repeated letter takes the diagonal, a letter of one operand only is
    # summed, and batch and output letters may come in any order
    from oracles import dense_tensor_product
    rng = np.random.default_rng(2)
    s = jet_space(2, 2)
    a, b = (jets.JetTensor(rng.normal(size=(3,) * len(letters) + (s.size,)), s)
            for letters in sub.split("->")[0].split(","))
    for name, value in WAYS.get(way, {}).items():
        monkeypatch.setattr(jets, name, value)
    np.testing.assert_allclose(jets.tensor_product(sub, a, b).array,
                               dense_tensor_product(sub, a, b).array, rtol=1e-13, atol=1e-13)


def test_a_kept_operator_is_reused_only_for_its_own_array():
    # one dict passed to calls that make different arrays of one shape the
    # operator: each call contracts its own, and a repeated array is reused
    rng = np.random.default_rng(4)
    s = jet_space(3, 2)
    g0, g1 = (JetTensor(rng.normal(size=(3, 3, 3, s.size)), s) for _ in range(2))
    r = JetTensor(rng.normal(size=(3, 3, 3, 3, s.size)), s)
    operators, built = {}, []
    for gamma in (g0, g1, g1):
        got = tensor_product("aZA,Abcd->abcdZ", gamma, r, None, operators)
        np.testing.assert_array_equal(got.array,
                                      tensor_product("aZA,Abcd->abcdZ", gamma, r).array)
        (source, op), = operators.values()
        assert source is gamma.array
        built.append(op)
    assert built[1] is not built[0] and built[2] is built[1]


# The tracemalloc peaks of two contractions at commit c56423c (numpy 2.4),
# where every dense contraction gathered both operands along the table: the
# first, at a high order, still takes the gather, and the second, a
# covariant-derivative term, takes the operator, which must hold no more.
MEMORY_PINS = [("kl,lij->kij", 6, 4, (6, 6), (6, 6, 6), 6_816_972),
               ("aZA,Abcd->abcdZ", 8, 2, (8, 8, 8), (8, 8, 8, 8), 51_906_779)]


@pytest.mark.parametrize("sub,n,q,a_shape,b_shape,parent", MEMORY_PINS)
def test_contractions_hold_no_more_than_the_gather_did(sub, n, q, a_shape, b_shape, parent):
    import tracemalloc
    rng = np.random.default_rng(5)
    s = jet_space(n, q)
    a = jets.JetTensor(rng.normal(size=a_shape + (s.size,)), s)
    b = jets.JetTensor(rng.normal(size=b_shape + (s.size,)), s)
    jets.tensor_product(sub, a, b)   # the tables, outside the measure
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        jets.tensor_product(sub, a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= parent


TABLE_KEYS = [(qa, qb, qout) for qa in range(6) for qb in range(6)
              for qout in range(min(qa + qb, 5) + 1)]


@pytest.mark.parametrize("n_vars", range(1, 9))
def test_tables_match_the_loop_built_oracle(n_vars):
    # the row order (gamma, then alpha, then beta) fixes the order of every
    # Cauchy sum, so the tables must be equal, not just equivalent
    for key in TABLE_KEYS:
        table = jets._mul_table(n_vars, *key)
        for got, want in zip(table, mul_table_by_loop(n_vars, *key)):
            assert got.dtype == want.dtype and np.array_equal(got, want), key
    for order in range(1, 6):
        for got, want in zip(jets._deriv_table(n_vars, order),
                             deriv_table_by_loop(n_vars, order)):
            assert got.dtype == want.dtype and np.array_equal(got, want), order


@pytest.mark.parametrize("points", [None, 3])
def test_derivatives_come_out_in_c_order(points):
    # an in-place slot term of a covariant derivative walks its output in
    # C order; any other layout makes it stride across the whole array
    from killingkit.curvature import (christoffel, covariant_derivative, inverse_metric,
                                      pair_connection, riemann)
    from killingkit.metricdsl import builtin, metric_jet_tensor
    spec = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    p = (np.asarray(spec.base_point) if points is None
         else spec.base_point + 0.1 * np.arange(points)[:, None])
    g = metric_jet_tensor(spec, p, 4)
    gamma, first = christoffel(g, inverse_metric(g.truncated(3)))
    assert tensor_deriv(g).array.flags.c_contiguous
    cov, variance = gamma, "udd"
    for _ in range(2):
        cov = covariant_derivative(cov, variance, gamma)
        variance += "d"
        assert cov.array.flags.c_contiguous
        assert tensor_deriv(cov).array.flags.c_contiguous
    # and the curvature in pair form, through its pair slots
    cov, variance = riemann(gamma, first), "pp"
    for _ in range(2):
        assert cov.array.flags.c_contiguous
        assert tensor_deriv(cov).array.flags.c_contiguous
        cov = covariant_derivative(cov, variance, gamma, pair_connection(gamma))
        variance += "d"
    assert cov.array.flags.c_contiguous
