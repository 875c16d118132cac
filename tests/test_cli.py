import json

import pytest

from killingkit.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_killing_dim_builtin(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "euclidean:n=2")
    assert code == 0
    assert "killing dimension of euclidean2: 3" in out
    assert "stabilization order: 0" in out
    assert "rank tolerance: 1e-08 (absolute, on singular values in the unit frame)" in out


def test_killing_dim_json_schema(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "euclidean:n=2",
                          "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "killing-dim"
    assert doc["result"]["stabilized_dim"] == 3
    assert doc["tolerances"]["rank_tol"] == 1e-8
    assert doc["inputs"][0]["digest"].startswith("sha256:")


def test_json_reports_are_byte_identical(capsys):
    _, out1, _ = invoke(capsys, "hypothesis", "--builtin",
                        "cahen_wallach:n=1,q=1", "--json")
    _, out2, _ = invoke(capsys, "hypothesis", "--builtin",
                        "cahen_wallach:n=1,q=1", "--json")
    assert out1 == out2


def test_json_round_trips(capsys):
    _, out, _ = invoke(capsys, "curvature", "--builtin", "sphere2", "--json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.man"
    bad.write_text("manifold x {\n  coordinates: a b;\n}\n")
    code, _, err = invoke(capsys, "killing-dim", "--file", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "parse", "--file", "/nonexistent.man")
    assert code == 2
    assert "cannot read" in err


def test_unknown_builtin(capsys):
    code, _, err = invoke(capsys, "killing-dim", "--builtin", "torus")
    assert code == 2
    assert "unknown builtin" in err


def test_inconclusive_exit_code(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "sphere2",
                          "--order", "0")
    assert code == 3
    assert "warning" in out


def test_hypothesis_command(capsys):
    code, out, _ = invoke(capsys, "hypothesis", "--builtin",
                          "cahen_wallach:n=1,q=1")
    assert code == 0
    assert "has_parallel_field" in out
    code, out, _ = invoke(capsys, "hypothesis", "--builtin", "walker_recurrent")
    assert code == 0
    assert "no_parallel_field" in out


def test_check_field_command(capsys):
    code, out, _ = invoke(capsys, "check-field", "--builtin", "euclidean:n=2",
                          "--field=-x2,x1")
    assert code == 0
    assert "Killing" in out
    code, out, _ = invoke(capsys, "check-field", "--builtin", "euclidean:n=2",
                          "--field", "x1,x2")
    assert code == 0
    assert "NOT Killing" in out


def test_transport_command(capsys):
    code, out, _ = invoke(capsys, "transport", "--builtin", "euclidean:n=2",
                          "--field=-x2,x1", "--path", "0,0;0.4,0.3",
                          "--steps", "200", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["field_germ_deviation"] <= 1e-8


def test_transport_with_explicit_germ(capsys):
    code, out, _ = invoke(capsys, "transport", "--builtin", "euclidean:n=2",
                          "--germ", "1,0|0,0;0,0", "--path", "0,0;1,1",
                          "--steps", "50", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["end_germ"]["xi"] == [1.0, 0.0]


def test_product_command(capsys):
    code, out, _ = invoke(capsys, "product", "sphere2", "hyperbolic2")
    assert code == 0
    assert "dimension 4" in out


def test_check_decomposition_command(capsys):
    code, out, _ = invoke(capsys, "check-decomposition", "sphere2", "hyperbolic2",
                          "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["excess"] == 0
    assert doc["result"]["verdict_a"] == "no_parallel_field"


def test_check_decomposition_off_unit_scale(capsys):
    # sphere2:r=1000 has |det g| = 1e12, once read as degenerate
    code, out, _ = invoke(capsys, "check-decomposition", "sphere2:r=1000",
                          "cahen_wallach:n=1,q=1", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["dim_a"], res["dim_b"], res["excess"]) == (3, 4, 0)
    assert res["verdict_a"] == "no_parallel_field"


# Every rank decision reports its margin, in the units of the unit frame,
# where the threshold is absolute.
@pytest.mark.parametrize("command", ["killing-dim", "holonomy", "hypothesis"])
def test_reports_carry_rank_margins(capsys, command):
    code, out, _ = invoke(capsys, command, "--builtin", "sphere2:r=10000", "--json")
    assert code == 0
    doc = json.loads(out)
    gaps = doc["result"]["gaps"]
    dims = doc["result"].get("dims") or doc["result"]["holonomy_dims"]
    assert [g["order"] for g in gaps] == list(range(len(dims)))
    tol = doc["tolerances"]["rank_tol"]
    for g in gaps:
        assert set(g) == {"order", "sigma_max", "smallest_kept", "largest_cut"}
        assert g["smallest_kept"] is None or g["smallest_kept"] > tol
        assert g["largest_cut"] <= tol


def test_demo_counterexample_command(capsys):
    code, out, _ = invoke(capsys, "demo-counterexample", "--q-plus", "1",
                          "--q-minus", "-1", "--json")
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["killing_passed"] is True
    assert res["killing_residual"] <= 1e-10
    assert res["excess"] >= 1
    assert res["grad_xi_equals_wedge_residual"] <= 1e-12


def test_multi_point_mode(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "sphere2",
                          "--multi-point", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["min_dim"] == 3
    assert len(doc["result"]["reports"]) == 6


def test_warnings_appear_verbatim(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "sphere2",
                          "--order", "0", "--json")
    assert code == 3
    doc = json.loads(out)
    assert any("unstable" in w for w in doc["warnings"])


def test_catalog_and_parse(capsys):
    code, out, _ = invoke(capsys, "catalog")
    assert code == 0
    assert "cahen_wallach" in out
    code, out, _ = invoke(capsys, "parse", "--builtin", "minkowski:p=1,q=3",
                          "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["signature"] == [1, 3]


def test_file_input_round_trip(tmp_path, capsys):
    src = """
    manifold custom {
      coordinates: u, w;
      metric: [[1, 0], [0, exp(2 * u)]];
      base_point: (0, 0);
      assume: analytic, simply_connected;
    }
    """
    f = tmp_path / "custom.man"
    f.write_text(src)
    code, out, _ = invoke(capsys, "killing-dim", "--file", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["stabilized_dim"] == 3  # constant negative curvature


@pytest.mark.parametrize("command", ["killing-dim", "holonomy"])
def test_negative_order_is_an_input_error(capsys, command):
    code, _, err = invoke(capsys, command, "--builtin", "sphere2", "--order", "-1")
    assert code == 2
    assert "--order" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "-1", "1", "nan", "x"])
def test_tol_outside_unit_interval_is_an_input_error(capsys, tol):
    code, _, err = invoke(capsys, "killing-dim", "--builtin", "sphere2", "--tol", tol)
    assert code == 2
    assert "--tol" in err


def test_product_order_zero_is_honoured(capsys):
    code, out, _ = invoke(capsys, "product", "sphere2", "hyperbolic2", "--order", "0",
                          "--json")
    assert code == 0
    assert len(json.loads(out)["result"]["mixed_curvature_residuals"]) == 1


@pytest.mark.parametrize("command", ["killing-dim", "holonomy"])
def test_degenerate_point_is_reported_first(capsys, command):
    code, _, err = invoke(capsys, command, "--builtin", "sphere2", "--point", "0,0")
    assert code == 2
    assert "degenerate at (0.0, 0.0)" in err


# options that no command reads are not accepted
@pytest.mark.parametrize("argv", [
    ["curvature", "--builtin", "sphere2", "--tol", "0.5"],
    ["product", "sphere2", "hyperbolic2", "--tol", "0.5"],
    ["transport", "--builtin", "euclidean:n=2", "--field", "1,0", "--path", "0,0;1,0",
     "--tol", "0.3"],
    ["transport", "--builtin", "euclidean:n=2", "--field", "1,0", "--path", "0,0;1,0",
     "--order", "3"],
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--order", "3"],
], ids=["curvature-tol", "product-tol", "transport-tol", "transport-order",
        "check-field-order"])
def test_options_without_effect_are_rejected(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("argv,message", [
    (["killing-dim", "--builtin", "sphere2:r=nan"], "value 'nan' is not a finite number"),
    (["killing-dim", "--builtin", "cahen_wallach:n=1,q=nan"],
     "value 'nan' is not a finite number"),
    (["killing-dim", "--builtin", "cahen_wallach:n=2,q=1:-inf"],
     "value '-inf' in '1:-inf' is not a finite number"),
    (["demo-counterexample", "--q-plus", "nan"],
     "argument --q-plus: expected a number or a list a:b:.., got 'nan'"),
], ids=["sphere2-r", "cw-q", "cw-q-list", "q-plus"])
def test_non_finite_builtin_parameters_are_input_errors(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "line" not in err


def test_demo_counterexample_takes_q_lists(capsys):
    code, out, _ = invoke(capsys, "demo-counterexample", "--n-plus", "2",
                          "--q-plus", "1:2", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["killing_passed"] is True
    assert res["excess"] == 1


def test_transport_path_nodes_must_fit_the_chart(capsys):
    code, out, err = invoke(capsys, "transport", "--builtin", "sphere2",
                            "--germ", "0,1|0,0;0,0", "--path", "1,0;1.1", "--steps", "5")
    assert code == 2 and out == ""
    assert "'1.1' has 1 coordinate(s); the chart has 2" in err


def test_check_field_rejects_a_degenerate_user_point(capsys):
    code, out, err = invoke(capsys, "check-field", "--builtin", "sphere2",
                            "--field", "0,1", "--point", "0,0")
    assert code == 2 and out == ""
    assert "degenerate at (0.0, 0.0)" in err


def test_check_field_points_must_fit_the_chart(capsys):
    code, out, err = invoke(capsys, "check-field", "--builtin", "euclidean:n=2",
                            "--field", "x2,-x1", "--points", "0,0;1;2,2,2")
    assert code == 2 and out == ""
    assert "'1' has 1 coordinate(s); the chart has 2" in err


def test_check_field_takes_a_single_sample_point(capsys):
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2",
                          "--field", "0,1", "--points", "1,0")
    assert code == 0
    assert "field check on sphere2: Killing" in out


# A value that is not a finite number, in every option that takes points or
# a germ: each is an input error that names the value.
@pytest.mark.parametrize("argv,value", [
    (["killing-dim", "--builtin", "euclidean:n=2", "--point=nan,0"], "nan"),
    (["killing-dim", "--builtin", "euclidean:n=2", "--point=inf,0"], "inf"),
    (["check-field", "--builtin", "euclidean:n=2", "--field", "1,0",
      "--points", "0,0;-inf,1"], "-inf"),
    (["transport", "--builtin", "euclidean:n=2", "--germ", "1,0|0,0;0,0",
      "--path", "0,0;nan,0", "--steps", "2"], "nan"),
    (["transport", "--builtin", "euclidean:n=2", "--germ", "nan,0|0,0;0,0",
      "--path", "0,0;1,0", "--steps", "2"], "nan"),
    (["transport", "--builtin", "euclidean:n=2", "--germ", "1,0|0,0;0,Infinity",
      "--path", "0,0;1,0", "--steps", "2"], "Infinity"),
], ids=["point-nan", "point-inf", "points", "path", "germ-xi", "germ-a"])
def test_non_finite_values_are_input_errors(capsys, argv, value):
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert f"value {value!r} in " in err and "is not a finite number" in err


def test_transport_path_needs_two_points(capsys):
    code, out, err = invoke(capsys, "transport", "--builtin", "sphere2",
                            "--field", "0,1", "--path", "1,0")
    assert code == 2 and out == ""
    assert "at least two points" in err


def chart_file(tmp_path, name, metric, base_point):
    path = tmp_path / f"{name}.man"
    path.write_text(f"manifold {name} {{\n  coordinates: x, y;\n  metric: {metric};\n"
                    f"  base_point: ({base_point});\n}}\n")
    return str(path)


# A bad point of each chart, a transport path that meets it first, and the
# one message every command that evaluates the point gives there.
BAD_POINTS = [
    ("hyperbolic2", None, "0,0", "0,1;0,-1",
     "metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = 1.0 / y^2: "
     "reciprocal of jet with zero constant term"),
    ("sq", "[[sqrt(x), 0], [0, 1]]", "-1,0", "-1,0;1,0",
     "metric of 'sq' at (-1.0, 0.0): component (0, 0) = sqrt(x): "
     "sqrt of jet with constant term -1.0 <= 0"),
    ("big", "[[x^400, 0], [0, 1]]", "10,0", "10,0;11,0",
     "metric of 'big' at (10.0, 0.0): component (0, 0) = x^400: "
     "jet has non-finite coefficient inf"),
]


@pytest.mark.parametrize("argv", [
    ["check-field", "--field", "1,0", "--point={point}"],
    ["killing-dim", "--point={point}"],
    ["holonomy", "--point={point}"],
    ["hypothesis", "--point={point}"],
    ["curvature", "--point={point}"],
    ["transport", "--field", "1,0", "--path={path}", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_domain_errors_name_the_point_and_component(capsys, tmp_path, argv):
    # each command gives the same message at the same bad point
    for name, metric, point, path, message in BAD_POINTS:
        chart = (["--builtin", name] if metric is None
                 else ["--file", chart_file(tmp_path, name, metric, "1, 0")])
        args = [a.format(point=point, path=path) for a in argv[1:]]
        code, out, err = invoke(capsys, argv[0], *chart, *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("metric,point", [("[[x^400, 0], [0, 1]]", "10,0"),
                                          ("[[1e200 * 1e200 * x, 0], [0, 1]]", None)])
def test_non_finite_metric_values_are_input_errors(capsys, tmp_path, metric, point):
    chart = chart_file(tmp_path, "big", metric, "1, 0")
    code, out, err = invoke(capsys, "curvature", "--file", chart, "--json",
                            *([f"--point={point}"] if point else []))
    assert code == 2 and out == ""   # no NaN or Infinity in a report
    assert "component (0, 0)" in err and "non-finite coefficient inf" in err


def test_an_overflowing_literal_is_an_input_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "parse", "--file",
                            chart_file(tmp_path, "lit", "[[10^400, 0], [0, 1]]", "0, 0"))
    assert code == 2 and out == ""
    assert err == ("error: base point outside the metric's domain: metric of 'lit' at "
                   "(0.0, 0.0): component (0, 0) = 10.0^400: jet has non-finite "
                   "coefficient inf\n")


@pytest.mark.parametrize("field,point,reason", [
    ("exp(x1),0", "1000,0", "component 0 = exp(x1): math range error"),
    ("0,1 / x1", "0,0", "component 1 = 1.0 / x1: reciprocal of jet with zero constant term"),
], ids=["overflow", "domain"])
@pytest.mark.parametrize("command", ["check-field", "transport"])
def test_field_errors_name_the_point_and_component(capsys, command, field, point, reason):
    where = ["--point", point] if command == "check-field" else [
        "--path", f"{point};{point[:-1]}1", "--steps", "2"]
    code, out, err = invoke(capsys, command, "--builtin", "euclidean:n=2",
                            "--field", field, *where)
    assert code == 2 and out == ""
    x1 = float(point.split(",")[0])
    assert err == f"error: field on 'euclidean2' at ({x1}, 0.0): {reason}\n"


def test_parser_state_does_not_leak_between_runs(capsys):
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "sphere2", "--order", "1",
                          "--multi-point", "--json")
    assert code in (0, 3) and "min_dim" in json.loads(out)["result"]
    code, out, _ = invoke(capsys, "killing-dim", "--builtin", "sphere2", "--json")
    result = json.loads(out)["result"]
    assert code == 0 and result["m_max"] == 10 and "min_dim" not in result


def test_overflow_at_a_point_is_an_input_error(capsys, tmp_path):
    chart = tmp_path / "exp.man"
    chart.write_text("manifold e {\n  coordinates: x, y;\n"
                     "  metric: [[exp(x), 0], [0, 1]];\n  base_point: (1, 0);\n}\n")
    for command in ("killing-dim", "holonomy"):
        code, out, err = invoke(capsys, command, "--file", str(chart), "--point", "1000,0")
        assert code == 2 and out == ""
        assert "at (1000.0, 0.0): component (0, 0) = exp(x)" in err


# the nondegeneracy test is scale-free, so only the overflow of exp(x) past
# x = 709.78 stops the transport, at the first stage point past it, and numpy
# warns about nothing on the way
@pytest.mark.filterwarnings("error")
def test_transport_runs_until_the_metric_overflows(capsys, tmp_path):
    chart = tmp_path / "exp1.man"
    chart.write_text("manifold e {\n  coordinates: x;\n  metric: [[exp(x)]];\n}\n")
    code, out, err = invoke(capsys, "transport", "--file", str(chart), "--germ", "1|0",
                            "--path", "0;1000")
    assert code == 2 and out == ""
    assert err == ("error: metric of 'e' at (710.0,): component (0, 0) = exp(x): "
                   "math range error\n")


def test_transport_domain_error_message_is_exact(capsys):
    code, out, err = invoke(capsys, "transport", "--builtin", "hyperbolic2", "--field", "1,0",
                            "--path", "0,1;0,-1", "--steps", "10")
    assert code == 2 and out == ""
    assert err == ("error: metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = "
                   "1.0 / y^2: reciprocal of jet with zero constant term\n")
