import functools
import json
import math

import numpy as np
import pytest

from killingkit.cli import run
from killingkit.metricdsl import (DegenerateMetricError, ParseError, SpecError,
                                  builtin, known_killing_fields, metric_jet_tensor,
                                  parse_expression, parse_field, parse_manifold)

EUCLID2_SRC = """
# a flat plane
manifold plane {
  coordinates: x, y;
  metric: [[1, 0], [0, 1]];
}
"""

CW_SRC = """
manifold cw {
  coordinates: t, v, x1;
  parameters: q = 1;
  metric: [[2 * q * x1^2, 1, 0], [1, 0, 0], [0, 0, 1]];
  base_point: (0, 0, 0);
  assume: analytic, simply_connected;
}
"""


def test_parse_euclidean():
    spec = parse_manifold(EUCLID2_SRC)
    assert spec.coords == ("x", "y")
    assert spec.base_point == (0.0, 0.0)
    g = spec.metric_values((0.3, 0.4))
    assert np.allclose(g, np.eye(2))
    assert not spec.assumptions.analytic


def test_parse_cahen_wallach_metric_jets():
    spec = parse_manifold(CW_SRC)
    g = metric_jet_tensor(spec, spec.base_point, 2)
    assert g.array[0, 0, g.space.index[(0, 0, 2)]] == pytest.approx(2.0)
    assert g.value()[0, 1] == pytest.approx(1.0)
    assert g.array[1, 0] == pytest.approx(g.array[0, 1])


def test_asymmetric_grid_rejected():
    src = """
    manifold bad {
      coordinates: x, y;
      metric: [[1, x], [y, 1]];
    }
    """
    with pytest.raises(SpecError, match="not symmetric"):
        parse_manifold(src)


def test_upper_triangle_mirroring():
    src = """
    manifold upper {
      coordinates: x, y;
      metric: [[1, x * y], [2]];
      base_point: (0, 1);
    }
    """
    spec = parse_manifold(src)
    g = spec.metric_values((2.0, 3.0))
    assert g[1, 0] == pytest.approx(6.0)
    assert g[0, 1] == pytest.approx(6.0)
    assert g[1, 1] == pytest.approx(2.0)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_manifold("manifold x {\n  coordinates: a b;\n}")
    assert err.value.line == 2


def test_unknown_identifier():
    src = """
    manifold u {
      coordinates: x;
      metric: [[1 + z]];
    }
    """
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse_manifold(src)


def test_degenerate_metric_rejected():
    src = """
    manifold dg {
      coordinates: x, y;
      metric: [[1, 1], [1, 1]];
    }
    """
    with pytest.raises(DegenerateMetricError):
        parse_manifold(src)


def chart_with_metric(metric):
    return f"manifold dg {{\n  coordinates: x, y;\n  metric: {metric};\n}}\n"


@pytest.mark.parametrize("metric", ["[[1, 0], [0, 0]]", "[[0, 0], [0, 0]]",
                                    "[[1, 1], [1, 1 + 1e-12]]",
                                    "[[1e200, 1e200], [1e200, 1e200]]"])
def test_zero_rows_and_dependent_rows_are_degenerate(metric):
    with pytest.raises(DegenerateMetricError):
        parse_manifold(chart_with_metric(metric))


# |det g| over the product of the row norms does not change with the
# metric's scale, and g is divided by its largest entry first, so no square
# of an entry overflows
@pytest.mark.parametrize("metric", ["[[1e-12, 0], [0, 1]]", "[[1e200, 0], [0, 1e200]]",
                                    "[[0, 1e-150], [1e-150, 0]]", "[[1e6, 0], [0, -1e-6]]"])
def test_metric_off_unit_scale_is_not_degenerate(metric):
    assert parse_manifold(chart_with_metric(metric)).dim == 2


def test_base_point_dimension_mismatch():
    src = """
    manifold bp {
      coordinates: x, y;
      metric: [[1, 0], [0, 1]];
      base_point: (1, 2, 3);
    }
    """
    with pytest.raises(SpecError, match="base point"):
        parse_manifold(src)


@pytest.mark.parametrize("name,params", [
    ("euclidean", {"n": 2}),
    ("euclidean", {"n": 4}),
    ("minkowski", {"p": 1, "q": 1}),
    ("minkowski", {"p": 1, "q": 3}),
    ("sphere2", {}),
    ("sphere2", {"r": 2.0}),
    ("hyperbolic2", {}),
    ("cahen_wallach", {"n": 1, "q": 1.0}),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}),
    ("walker_recurrent", {}),
])
def test_builtin_round_trip(name, params):
    spec = builtin(name, **params)
    again = parse_manifold(spec.serialize())
    assert again == spec


def test_round_trip_custom_source():
    spec = parse_manifold(CW_SRC)
    assert parse_manifold(spec.serialize()) == spec


def test_metric_jets_symmetry_catalog():
    for name, params in [("sphere2", {}), ("hyperbolic2", {}),
                         ("cahen_wallach", {"n": 1, "q": -2.0}),
                         ("walker_recurrent", {})]:
        spec = builtin(name, **params)
        g = metric_jet_tensor(spec, spec.base_point, 3).array
        n = spec.dim
        for i in range(n):
            for j in range(n):
                assert np.array_equal(g[i, j], g[j, i])


def test_builtin_euclidean_identity():
    spec = builtin("euclidean", n=3)
    assert np.allclose(spec.metric_values((0.1, -0.4, 2.0)), np.eye(3))


def test_cahen_wallach_signature_lorentzian():
    spec = builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    assert spec.dim == 4
    eig = np.linalg.eigvalsh(spec.metric_values(spec.base_point))
    assert int(np.sum(eig < 0)) == 1
    assert int(np.sum(eig > 0)) == 3


def test_cahen_wallach_degenerate_profile_rejected():
    with pytest.raises(SpecError, match="non-degenerate"):
        builtin("cahen_wallach", n=1, q=0.0)


def test_minkowski_indefinite_not_degenerate():
    spec = builtin("minkowski", p=1, q=1)
    det = float(np.linalg.det(spec.metric_values(spec.base_point)))
    assert det == pytest.approx(-1.0)


def test_unknown_builtin():
    with pytest.raises(SpecError, match="unknown builtin"):
        builtin("torus")


def test_walker_recurrent_direction():
    # the null coordinate direction satisfies grad xi = theta (x) xi with a
    # non-closed theta: the covariant derivative matrix has rank one along
    # e_v and its coefficient varies with x
    from killingkit.curvature import point_frame
    spec = builtin("walker_recurrent")
    iv = spec.coord_index("v")
    for p in [(0.0, 0.0, 0.0), (0.1, 0.2, 0.3)]:
        _, _, gamma, _ = point_frame(spec, p)
        grad = gamma[:, :, iv]  # grad_j (d_v)^i
        off = grad.copy()
        off[iv, :] = 0.0
        assert np.abs(off).max() < 1e-12  # proportional to e_v
    theta_at = {}
    for x in (0.0, 0.5):
        _, _, gamma, _ = point_frame(spec, (0.0, 0.0, x))
        theta_at[x] = gamma[iv, 0, iv]
    assert abs(theta_at[0.0] - theta_at[0.5]) > 1e-3  # theta not closed


def test_metric_entry_jets_match_finite_differences():
    from oracles import fd_first_partial, fd_second_partial, float_eval
    from test_jets import partial_value
    for name, p in [("sphere2", (0.8, 0.2)), ("walker_recurrent", (0.1, 0.2, 0.3))]:
        spec = builtin(name)
        n = spec.dim
        g = metric_jet_tensor(spec, p, 2)
        for i in range(n):
            for j in range(n):
                expr = spec.metric[i][j]
                jet = g.array[i, j]
                for k in range(n):
                    e = tuple(1 if a == k else 0 for a in range(n))
                    jv = partial_value(jet, g.space, e)
                    fv = fd_first_partial(functools.partial(float_eval, expr), p, k)
                    assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))
                for k in range(n):
                    alpha = tuple(2 if a == k else 0 for a in range(n))
                    jv = partial_value(jet, g.space, alpha)
                    fv = fd_second_partial(functools.partial(float_eval, expr), p, k, k)
                    assert abs(jv - fv) <= 1e-6 * max(1.0, abs(jv))


def test_parse_expression_against_spec():
    from oracles import float_eval
    spec = builtin("sphere2")
    expr = parse_expression("cos(theta) / sin(theta)", spec)
    assert float_eval(expr, np.array([math.pi / 4, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("cos(thata)", spec)


def test_folding_leaves_domain_errors_and_non_finite_values_to_evaluation():
    spec = builtin("euclidean", n=2)
    folded = {"2 * 3 + sqrt(4) - x1": "8.0 - x1", "-(2^3) * x2": "(-8.0) * x2",
              "1e200 * 1e200 * x1": "1e+200 * 1e+200 * x1", "10^400": "10.0^400",
              "exp(1000)": "exp(1000.0)", "sqrt(0)": "sqrt(0.0)", "1 / 0": "1.0 / 0.0"}
    for text, expected in folded.items():
        assert parse_expression(text, spec).to_text() == expected


def test_parse_field_component_count():
    spec = builtin("euclidean", n=2)
    with pytest.raises(SpecError, match="components"):
        parse_field("x1,x2,x1", spec)


def test_known_killing_fields_counts():
    assert len(known_killing_fields("euclidean", n=3)) == 6
    assert len(known_killing_fields("minkowski", p=1, q=3)) == 10
    assert len(known_killing_fields("sphere2")) == 3
    assert len(known_killing_fields("hyperbolic2")) == 3
    assert len(known_killing_fields("cahen_wallach", n=1, q=1.0)) == 4


def test_catalog_lists_exactly_the_builtins(capsys):
    assert run(["catalog", "--json"]) == 0
    names = [e["name"] for e in json.loads(capsys.readouterr().out)["result"]["builtins"]]
    for name in names:
        assert builtin(name).dim >= 2
    with pytest.raises(SpecError) as refused:
        builtin("torus")
    assert str(refused.value) == f"unknown builtin 'torus' (choose from {', '.join(names)})"


@pytest.mark.parametrize("name,params,message", [
    ("euclidean", {"n": 0}, "euclidean parameter n must be an integer >= 1"),
    ("euclidean", {"n": 2.5}, "euclidean parameter n must be an integer >= 1"),
    ("minkowski", {"p": 1, "q": -1}, "minkowski parameter q must be an integer >= 0"),
    ("sphere2", {"r": [1.0, 2.0]}, "sphere2 parameter r must be a finite number"),
    ("sphere2", {"r": -1.0}, "sphere2 parameter r must be > 0"),
    ("hyperbolic2", {"r": 3}, "hyperbolic2 has no parameter 'r'"),
    ("cahen_wallach", {"n": 2, "q": [1.0]}, "cahen_wallach parameter q must have 2 entries"),
    ("cahen_wallach", {"n": 1, "q": 0.0}, "cahen_wallach parameter q must be a non-degenerate"),
    ("torus", {}, "unknown builtin 'torus'"),
])
def test_known_killing_fields_refuse_what_builtin_refuses(name, params, message):
    for make in (builtin, known_killing_fields):
        with pytest.raises(SpecError, match=message):
            make(name, **params)
