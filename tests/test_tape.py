"""The compiled jet tape against the tree-walking reference evaluator, and
curvature frames of a batch of points against point-by-point ones."""
import re

import numpy as np
import pytest

from oracles import float_metric, random_expression, tree_jet, tree_metric_jets
from test_jets import tape_jet
from test_tower import CHARTS

from killingkit.curvature import CurvatureData, point_frame
from killingkit.jets import compile_tape, jet_space
from killingkit.metricdsl import (Binary, Call, Const, PowInt, metric_jet_tensor,
                                  parse_expression,
                                  parse_manifold)

TRACE_CHARTS = sorted(set(CHARTS) - {"random3"})


def assert_close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def near_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    p = np.asarray(spec.base_point)
    return p + 0.05 * (1.0 + np.abs(p)) * rng.uniform(-1, 1, size=(count, spec.dim))


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_metric_tape_matches_tree_walk(chart):
    # the catalog, Schwarzschild at r0 = 5 and a random chart
    spec = CHARTS[chart]()
    for p in [spec.base_point, *near_points(spec, 2, 1)]:
        for order in range(5):
            tape = metric_jet_tensor(spec, p, order).array
            tree = tree_metric_jets(spec, p, order)
            for i in range(spec.dim):
                for j in range(spec.dim):
                    assert_close(tape[i, j], tree[i, j])


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_metric_values_match_the_float_walk(chart):
    # the tape rounds a / b as a * (1 / b), so agreement is to roundoff
    spec = CHARTS[chart]()
    for p in [spec.base_point, *near_points(spec, 3, 4)]:
        ref = float_metric(spec, p)
        assert np.all(np.abs(spec.metric_values(p) - ref) <= 1e-15 * np.abs(ref))


@pytest.mark.parametrize("n_vars", [2, 3])
def test_expression_tape_matches_tree_walk(n_vars):
    rng = np.random.default_rng(20 + n_vars)
    for _ in range(20):
        expr = random_expression(rng, n_vars, depth=3)
        p = rng.uniform(-0.5, 0.5, size=n_vars)
        for order in range(6):
            space = jet_space(n_vars, order)
            assert_close(tape_jet(expr, space, p), tree_jet(expr, space, p))


def test_a_constant_factor_gives_the_bits_of_the_cauchy_product():
    # a product with a constant jet (an op without a point axis) scales the
    # other operand by its constant term; on finite jets every bit is the
    # truncated Cauchy product's, which the tree walk takes for each product
    rng = np.random.default_rng(33)
    for _ in range(30):
        n_vars = int(rng.integers(2, 4))
        e = random_expression(rng, n_vars, depth=3)
        c = Const(float(rng.uniform(-2.0, 2.0)))
        k = Binary("/", Const(1.0), Binary("+", Const(2.0),
                                          Call("cos", Const(float(rng.uniform(-1.0, 1.0))))))
        exprs = [Binary("*", c, e), Binary("*", e, k),
                 Binary("*", Binary("*", c, k), Binary("-", e, PowInt(c, 3)))]
        points = rng.uniform(-0.5, 0.5, size=(4, n_vars))
        for order in range(5):
            space = jet_space(n_vars, order)
            coeffs, failure = compile_tape(exprs).evaluate(points, space)
            assert failure is None
            for p, jets in zip(points, coeffs):
                for expr, jet in zip(exprs, jets):
                    assert np.array_equal(jet, tree_jet(expr, space, p))


def test_shared_subexpressions_compile_once_and_evaluate_on_a_batch():
    rng = np.random.default_rng(5)
    a, b = random_expression(rng, 3, depth=3), random_expression(rng, 3, depth=3)
    exprs = [a, b, Binary("*", a, b), Call("sin", a), Binary("+", Binary("*", a, b), a)]
    tape = compile_tape(exprs)
    assert len(tape.ops) < sum(len(compile_tape([e]).ops) for e in exprs)
    points = rng.uniform(-0.5, 0.5, size=(6, 3))
    space = jet_space(3, 3)
    coeffs, failure = tape.evaluate(points, space)
    assert failure is None and coeffs.shape == (6, len(exprs), space.size)
    for k, p in enumerate(points):
        for e, expr in enumerate(exprs):
            assert_close(coeffs[k, e], tree_jet(expr, space, p))


@pytest.mark.parametrize("text,point", [
    ("1 / (x - y)", (0.5, 0.5)),
    ("sqrt(x - 1) + 1 / y", (0.5, 0.0)),
    ("x * sqrt(y) + sqrt(x)", (-0.25, -1.0)),
    ("exp(1000 * x) - cos(y)", (1.0, 0.0)),
    ("sinh(x) * y^-2", (800.0, 1.0)),
    ("cosh(y) + 1 / (x * x)", (0.0, 900.0)),
])
def test_expression_tape_raises_what_the_tree_walk_raises(text, point):
    spec = parse_manifold("manifold s {\n  coordinates: x, y;\n"
                          "  metric: [[1, 0], [0, 1]];\n}\n")
    expr = parse_expression(text, spec)
    space = jet_space(2, 2)
    with pytest.raises((ValueError, OverflowError)) as tree:
        tree_jet(expr, space, np.asarray(point))
    with pytest.raises(type(tree.value), match=f"^{re.escape(str(tree.value))}$"):
        tape_jet(expr, space, point)


# sqrt fails in component (0, 0) at y <= 0, the reciprocal in (1, 1) at
# x = -1, and the metric is degenerate at x = 0.5
MIXED = """
manifold mixed {
  coordinates: x, y;
  metric: [[1 + sqrt(y), 0], [0, (x - 0.5) / (x + 1)]];
  base_point: (0, 1);
}
"""


def first_sequential_error(spec, points, order):
    for p in points:
        try:
            tree_metric_jets(spec, p, order)
        except (ValueError, OverflowError) as exc:
            return exc
    return None


def test_batch_raises_the_first_error_of_a_point_by_point_evaluation():
    # whatever the order of the points, the batch raises what evaluating
    # them one by one raises first
    spec = parse_manifold(MIXED)
    rng = np.random.default_rng(9)
    grid = [(x, y) for x in (-1.0, 0.0, 0.5, 1.0) for y in (-0.5, 0.0, 1.0)]
    seen = set()
    for _ in range(40):
        points = np.array([grid[i] for i in rng.permutation(len(grid))[:4]])
        expected = first_sequential_error(spec, points, 2)
        if expected is None:
            assert metric_jet_tensor(spec, points, 2).shape == (4, 2, 2)
            continue
        with pytest.raises(type(expected)) as got:
            metric_jet_tensor(spec, points, 2)
        assert str(got.value) == str(expected)
        seen.add(re.search(r"component \(\d, \d\)|degenerate", str(expected)).group())
    assert seen == {"component (0, 0)", "component (1, 1)", "degenerate"}


# component (0, 0) fails on sqrt at y <= 0 and overflows at x = 6 (the
# domain error wins where both happen); (1, 1) fails on the reciprocal at
# x = -1 and overflows at y = 7; the metric is degenerate at x = 0.5
OVERFLOWING = """
manifold overflowing {
  coordinates: x, y;
  metric: [[1 + sqrt(y) + x^400, 0], [0, (x - 0.5) / (x + 1) * (1 + y^400)]];
  base_point: (0, 1);
}
"""


def first_error(evaluate, points):
    for p in points:
        try:
            evaluate(p)
        except (ValueError, OverflowError) as exc:
            return exc
    return None


def test_batch_mixing_domain_errors_and_non_finite_values_raises_the_first():
    spec = parse_manifold(OVERFLOWING)
    rng = np.random.default_rng(10)
    grid = [(x, y) for x in (-1.0, 0.0, 0.5, 6.0) for y in (-0.5, 1.0, 2.0, 7.0)]
    seen = set()
    for _ in range(60):
        points = np.array([grid[i] for i in rng.permutation(len(grid))[:4]])
        expected = first_error(lambda p: metric_jet_tensor(spec, p, 2), points)
        if expected is None:
            assert metric_jet_tensor(spec, points, 2).shape == (4, 2, 2)
            continue
        with pytest.raises(type(expected)) as got:
            metric_jet_tensor(spec, points, 2)
        assert str(got.value) == str(expected)
        with np.errstate(all="ignore"):
            tree = first_error(lambda p: tree_metric_jets(spec, p, 2), points)
        assert type(tree) is type(expected) and str(tree) == str(expected)
        seen.add(re.search(r"component \(\d, \d\)|degenerate", str(expected)).group()
                 + (" non-finite" if "non-finite" in str(expected) else ""))
    assert seen == {"component (0, 0)", "component (1, 1)", "degenerate",
                    "component (0, 0) non-finite", "component (1, 1) non-finite"}


@pytest.mark.parametrize("chart", TRACE_CHARTS)
def test_batched_point_frame_matches_single_calls(chart):
    spec = CHARTS[chart]()
    points = near_points(spec, 7, 2)
    batch = point_frame(spec, points)
    for k, p in enumerate(points):
        for many, one in zip(batch, point_frame(spec, p)):
            assert_close(many[k], one)
    deep = CurvatureData.compute(spec, points[:3], m_max=1)
    for k, p in enumerate(points[:3]):
        assert_close(deep.covR[1][k], CurvatureData.compute(spec, p, m_max=1).covR[1])
