import functools
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from killingkit.cli import _parse_builtin_string, run
from killingkit.metricdsl import (BUILTINS, DegenerateMetricError, ParseError, SpecError,
                                  builtin, known_killing_fields, metric_jet_tensor,
                                  parse_expression, parse_field, parse_manifold)

from oracles import catalog_chart_from_text
from test_tower import CHARTS, random_chart

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


def test_builtins_list_the_parameters_their_builders_take():
    for name, (build, names, _) in BUILTINS.items():
        assert names == tuple(inspect.signature(build).parameters), name
    with pytest.raises(SpecError) as refused:
        builtin("minkowski", p=1, r=2)
    assert str(refused.value) == "minkowski has no parameter 'r' (it takes p, q)"
    with pytest.raises(SpecError) as refused:
        builtin("walker_recurrent", n=1)
    assert str(refused.value) == "walker_recurrent has no parameter 'n' (it takes none)"


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


# Every site that raises a ParseError, through the CLI: the exit code and
# the exact message, line and column on stderr.  The strings are those the
# line-by-line tokenizer and the folding pass wrote.
PARSE_ERRORS = {
    "after-comment": ("manifold m {  # a comment; @ is fine here\n  coordinates: x, y; # more\n"
                      "  @metric: [[1, 0], [0, 1]];\n}\n",
                      "line 3, col 3: unexpected character '@'"),
    "after-tab": ("manifold m {\n\tcoordinates:\tx, y;\t\t%\n}\n",
                  "line 2, col 22: unexpected character '%'"),
    "crlf-line": ("manifold m {\r\n  coordinates: x, y;\r\n  metric: [[1, 0], [0, 1]] !;\r\n}\r\n",
                  "line 3, col 28: unexpected character '!'"),
    "last-line": ("manifold m {\n  coordinates: x;\n  metric: [[1]];\n} ;",
                  "line 4, col 3: trailing input ';'"),
    "end-of-file": ("manifold m {\n  coordinates: x;\n  metric: [[1]];\n  # no closing brace\n",
                    "line 5, col 1: expected '}', found ''"),
    "empty": ("", "line 1, col 1: expected 'manifold', found ''"),
    "expected-keyword": ("  # header\n\n  chart m {\n}\n",
                         "line 3, col 3: expected 'manifold', found 'chart'"),
    "unknown-identifier": ("manifold m {\n  coordinates: x, y;\n"
                           "  metric: [[1, 0], [0, 1 + x * zz]];\n}\n",
                           "line 3, col 32: unknown identifier 'zz'"),
    "fractional-exponent": ("manifold m {\n  coordinates: x, y;\n  metric: [[1, 0], [0, x^1.5]];\n}\n",
                            "line 3, col 26: expected integer exponent, found '1.5'"),
    "float-exponent": ("manifold m {\n  coordinates: x, y;\n  metric: [[1, 0], [0, x^2e0]];\n}\n",
                       "line 3, col 26: expected integer exponent, found '2e0'"),
    "symbolic-exponent": ("manifold m {\n  coordinates: x, y;\n  metric: [[1, 0], [0, x^y]];\n}\n",
                          "line 3, col 26: expected integer exponent, found 'y'"),
    "trailing-input": ("manifold m {\n  coordinates: x;\n  metric: [[1]];\n}\n\n  extra\n",
                       "line 6, col 3: trailing input 'extra'"),
    "row-count": ("manifold m {\n  coordinates: x, y;\n  metric: [\n    [1, 0]];\n}\n",
                  "line 4, col 5: metric has 1 rows for 2 coordinates"),
    "row-entries": ("manifold m {\n  coordinates: x, y;\n  metric: [[1, 0],\n     [0, 1, 2]];\n}\n",
                    "line 4, col 6: metric row 2 has 3 entries (expected 2 or 1)"),
    "expected-identifier": ("manifold m {\n  coordinates: x, 2;\n}\n",
                            "line 2, col 19: expected identifier, found '2'"),
    "duplicate-coordinate": ("manifold m {\n  coordinates: x, y, x;\n}\n",
                             "line 2, col 22: duplicate coordinate 'x'"),
    "shadowed-function": ("manifold m {\n  coordinates: x, sin;\n}\n",
                          "line 2, col 19: coordinate name 'sin' shadows a function"),
    "colliding-parameter": ("manifold m {\n  coordinates: x;\n  parameters: a = 1, x = 2;\n}\n",
                            "line 3, col 22: parameter 'x' collides with another name"),
    "unknown-flag": ("manifold m {\n  coordinates: x;\n  metric: [[1]];\n"
                     "  assume: analytic, compact;\n}\n",
                     "line 4, col 21: unknown assumption flag 'compact'"),
    "expected-number": ("manifold m {\n  coordinates: x;\n  metric: [[1]];\n  base_point: (- x);\n}\n",
                        "line 4, col 18: expected number, found 'x'"),
    "unexpected-token": ("manifold m {\n  coordinates: x;\n  metric: [[1 + *]];\n}\n",
                         "line 3, col 17: unexpected token '*'"),
}

FIELD_PARSE_ERRORS = {
    "0,sin(theta": "line 1, col 10: expected ')', found ''",
    "0,theta ? 2": "line 1, col 7: unexpected character '?'",
    "0,theta theta": "line 1, col 7: trailing input 'theta'",
    "0,rho": "line 1, col 1: unknown identifier 'rho'",
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_keep_their_message_line_and_column(case, tmp_path, capsys):
    text, message = PARSE_ERRORS[case]
    chart = tmp_path / "chart.man"
    chart.write_bytes(text.encode())
    assert run(["parse", "--file", str(chart)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("field", sorted(FIELD_PARSE_ERRORS))
def test_field_parse_errors_keep_their_message_line_and_column(field, capsys):
    assert run(["check-field", "--builtin", "sphere2", "--field", field]) == 2
    assert capsys.readouterr() == ("", f"error: {FIELD_PARSE_ERRORS[field]}\n")


def _load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BUILTIN_FORMS = _load_tool("report_snapshot").BUILTIN_FORMS


@pytest.mark.parametrize("form", BUILTIN_FORMS)
def test_catalog_trees_are_the_charts_the_text_path_parsed(form):
    name, params = _parse_builtin_string(form)
    spec, old = builtin(name, params), catalog_chart_from_text(name, params)
    # repr tells Const(1) from Const(1.0), which compare equal
    assert spec == old and repr(spec.metric) == repr(old.metric)
    assert spec.serialize() == old.serialize()
    assert spec.metric_tape.ops == old.metric_tape.ops
    assert spec.metric_tape.outputs == old.metric_tape.outputs


BASE_POINT_CHARTS = {
    **CHARTS,
    **{f"random{n}.{seed}": functools.partial(random_chart, seed, n)
       for n in (2, 3, 4) for seed in (1, 2)},
    **{form: functools.partial(lambda f: builtin(*_parse_builtin_string(f)), form)
       for form in BUILTIN_FORMS},
}


@pytest.mark.parametrize("chart", sorted(BASE_POINT_CHARTS))
def test_jets_at_the_base_point_hold_the_values_make_spec_checked(chart):
    # metric_jet_tensor does not check the base point again because these
    # are the values make_spec checked, bit for bit, at every order
    spec = BASE_POINT_CHARTS[chart]()
    checked = spec.metric_values(spec.base_point)
    for order in range(1, 6):
        g = metric_jet_tensor(spec, spec.base_point, order).array[..., 0]
        assert g.tobytes() == checked.tobytes()
