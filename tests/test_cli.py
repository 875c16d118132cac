import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingkit.cli import run
from killingkit.metricdsl import BUILTINS, builtin

from oracles import chebyshev_nodes, changed_chart, random_expression, round_floats


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


def test_check_field_that_passes_killing_and_fails_the_identity_is_inconclusive(capsys):
    # on a sphere of radius 1e-5 the chart-unit tolerance passes d/dth, which
    # is not Killing, while the derivative identity fails: the report
    # contradicts itself, so it warns and exits 3
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2:r=1e-5",
                          "--field", "1,0", "--json")
    doc = json.loads(out)
    assert code == 3
    assert doc["result"]["killing"]["passed"]
    assert not doc["result"]["first_prolongation"]["passed"]
    assert doc["warnings"] == ["the field passes the Killing check but fails the "
                               "derivative identity: the Killing verdict is "
                               "inconclusive at this tolerance"]
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2", "--field", "0,1",
                          "--json")
    assert (code, json.loads(out)["warnings"]) == (0, [])


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


def test_transport_compiles_the_field_once(capsys, monkeypatch):
    from killingkit import metricdsl
    parsed = []
    parse_field = metricdsl.parse_field
    monkeypatch.setattr(metricdsl, "parse_field",
                        lambda *args: parsed.append(args) or parse_field(*args))
    code, out, _ = invoke(capsys, "transport", "--builtin", "sphere2", "--field=0,1",
                          "--path", "1,0;1.2,0.1;1.1,0.3", "--steps", "5", "--json")
    assert code == 0 and "field_germ_deviation" in json.loads(out)["result"]
    assert len(parsed) == 1


def test_transport_evaluates_the_end_germ_after_the_path(capsys):
    # the field fails at the end of the path (x = 0), the chart before it (y = 0)
    code, out, err = invoke(capsys, "transport", "--builtin", "hyperbolic2",
                            "--field", "0,1/x", "--path", "1,1;0,-1", "--steps", "10")
    assert (code, out) == (2, "")
    assert err == ("error: metric of 'hyperbolic2' at (0.5, 0.0): component (0, 0) = "
                   "1.0 / y^2: reciprocal of jet with zero constant term\n")


# a field failing at path[0] is named before the chart failing at a later
# stage point, and the chart failing at path[0] before the field there
@pytest.mark.parametrize("path,message", [
    ("0,1;0,-1", "field on 'hyperbolic2' at (0.0, 1.0): component 0 = 1.0 / x: "
                 "reciprocal of jet with zero constant term"),
    ("0,0;0,-1", "metric of 'hyperbolic2' at (0.0, 0.0): component (0, 0) = 1.0 / y^2: "
                 "reciprocal of jet with zero constant term"),
], ids=["field-before-stage-point", "chart-before-field"])
def test_transport_names_the_failure_at_the_start_first(capsys, path, message):
    code, out, err = invoke(capsys, "transport", "--builtin", "hyperbolic2",
                            "--field", "1/x,0", "--path", path, "--steps", "10")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def spy_on_transport_charts(monkeypatch):
    """The points of every ``point_frame`` call in ``killing`` and of every
    ``metric_values`` call, as two lists."""
    from killingkit import killing, metricdsl
    frames, values = [], []
    point_frame = killing.point_frame
    metric_values = metricdsl.ManifoldSpec.metric_values
    monkeypatch.setattr(killing, "point_frame",
                        lambda spec, p: frames.append(p) or point_frame(spec, p))
    monkeypatch.setattr(metricdsl.ManifoldSpec, "metric_values",
                        lambda spec, p: values.append(list(p)) or metric_values(spec, p))
    return frames, values


def test_transport_of_a_field_takes_both_ends_from_the_path_frames(capsys, monkeypatch):
    frames, values = spy_on_transport_charts(monkeypatch)
    code, out, _ = invoke(capsys, "transport", "--builtin", "sphere2", "--field=0,1",
                          "--path", "1,0;1.2,0.1;1.1,0.3", "--steps", "30", "--json")
    assert code == 0 and "field_germ_deviation" in json.loads(out)["result"]
    assert len(frames) == 1 and list(frames[0][-1]) == [1.1, 0.3]
    assert [1.1, 0.3] not in values


def test_transport_of_a_germ_takes_the_end_metric_from_the_path_frames(capsys,
                                                                      monkeypatch):
    frames, values = spy_on_transport_charts(monkeypatch)
    code, _, _ = invoke(capsys, "transport", "--builtin", "sphere2",
                        "--germ", "0,1|0,0;0,0", "--path", "1,0;1.2,0.1;1.1,0.3",
                        "--steps", "30", "--json")
    assert code == 0
    # one call of the 17 Chebyshev nodes of each segment, the last node the path's end
    assert len(frames) == 1 and len(frames[0]) == 2 * 17
    assert list(frames[0][-1]) == [1.1, 0.3]
    assert [1.1, 0.3] not in values


def spy_on_field_tapes_and_frames(monkeypatch):
    """One list of the events of a transport: ("field", points) for every
    evaluation of a field's compiled tape, ("frames", points) for every
    ``point_frame`` call and ("generators", count) for every call of the
    transport generators, in the order they happen."""
    from killingkit import killing
    events = []
    compile_tape, point_frame = killing.compile_tape, killing.point_frame
    generators = killing._transport_generators

    class TapeSpy:
        def __init__(self, tape):
            self.tape = tape

        def evaluate(self, points, space):
            events.append(("field", np.array(points)))
            return self.tape.evaluate(points, space)

    def generators_spy(gus, rus, us):
        events.append(("generators", len(us)))
        return generators(gus, rus, us)

    monkeypatch.setattr(killing, "compile_tape", lambda exprs: TapeSpy(compile_tape(exprs)))
    monkeypatch.setattr(killing, "point_frame",
                        lambda spec, p: events.append(("frames", np.array(p))) or
                        point_frame(spec, p))
    monkeypatch.setattr(killing, "_transport_generators", generators_spy)
    return events


def test_transport_of_a_field_evaluates_its_tape_once_on_both_ends(capsys, monkeypatch):
    # one evaluation of the field's tape, at the path's start and end; one
    # call of the generators, of the 34 nodes of the one call of frames
    events = spy_on_field_tapes_and_frames(monkeypatch)
    code, out, _ = invoke(capsys, "transport", "--builtin", "sphere2", "--field=0,1",
                          "--path", "1,0;1.2,0.1;1.1,0.3", "--steps", "30", "--json")
    assert code == 0 and "field_germ_deviation" in json.loads(out)["result"]
    assert [kind for kind, _ in events] == ["field", "frames", "generators"]
    assert np.array_equal(events[0][1], [[1.0, 0.0], [1.1, 0.3]])
    assert len(events[1][1]) == events[2][1] == 34


# a field that fails at the path's end (x1 = 0 or x = 0): its evaluation at
# both ends raises, so each end is evaluated alone where the order of errors
# takes it, the start before the path and the end after it; on hyperbolic2
# the chart fails at a grid point (y = 0) first, and the end is not reached
@pytest.mark.parametrize("chart,field,path,kinds,message", [
    ("euclidean:n=2", "0,1/x1", "1,0;0,0", ["field", "field", "frames", "generators", "field"],
     "field on 'euclidean2' at (0.0, 0.0): component 1 = 1.0 / x1: "
     "reciprocal of jet with zero constant term"),
    ("hyperbolic2", "0,1/x", "1,1;0,-1", ["field", "field", "frames"],
     "metric of 'hyperbolic2' at (0.5, 0.0): component (0, 0) = 1.0 / y^2: "
     "reciprocal of jet with zero constant term"),
], ids=["field-at-end", "grid-point-first"])
def test_a_field_failing_at_the_end_is_evaluated_at_each_end_alone(capsys, monkeypatch, chart,
                                                                   field, path, kinds,
                                                                   message):
    events = spy_on_field_tapes_and_frames(monkeypatch)
    code, out, err = invoke(capsys, "transport", "--builtin", chart, "--field", field,
                            "--path", path, "--steps", "10")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert [kind for kind, _ in events] == kinds
    ends = [[float(v) for v in p.split(",")] for p in path.split(";")]
    assert [p.tolist() for kind, p in events if kind == "field"] == [
        ends, [ends[0]], [ends[-1]]][:kinds.count("field")]


def test_transport_takes_a_field_or_a_germ_not_both(capsys):
    code, out, err = invoke(capsys, "transport", "--builtin", "sphere2", "--field=0,1",
                            "--germ=1,0,0,0,0,0", "--path=1,0;1.2,0.1")
    assert (code, out, err) == (2, "", "error: transport takes --field or --germ, not both\n")


def test_check_field_compiles_and_verifies_the_field_once(capsys, monkeypatch):
    from killingkit import cli, killing, metricdsl
    from killingkit.curvature import CurvatureData
    parsed, verified, computed, metric_jets = [], [], [], []
    parse_field = metricdsl.parse_field
    verify_killing = killing.verify_killing
    compute = CurvatureData.compute.__func__
    metric_jet_tensor = metricdsl.metric_jet_tensor

    def counted(*args, **kwargs):
        verified.append(args)
        return verify_killing(*args, **kwargs)

    monkeypatch.setattr(metricdsl, "parse_field",
                        lambda *args: parsed.append(args) or parse_field(*args))
    monkeypatch.setattr(killing, "verify_killing", counted)
    monkeypatch.setattr(cli, "verify_killing", counted)
    monkeypatch.setattr(CurvatureData, "compute", classmethod(
        lambda cls, *args, **kwargs: computed.append(args) or compute(cls, *args, **kwargs)))
    monkeypatch.setattr(metricdsl, "metric_jet_tensor",
                        lambda *args: metric_jets.append(args) or metric_jet_tensor(*args))
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2", "--field", "0,1",
                          "--point", "1,0", "--json")
    assert code == 0 and "first_prolongation" in json.loads(out)["result"]
    assert (len(parsed), len(verified)) == (1, 1)
    # the chart at all six sample points in one batch, for both checks
    assert (len(computed), len(metric_jets)) == (1, 1)



def test_check_field_points_takes_the_base_point_in_the_same_batch(capsys, monkeypatch):
    # the base point, where the report's germ is taken, is checked first and
    # the named points after it, all from one batch
    from killingkit.curvature import CurvatureData
    computed = []
    compute = CurvatureData.compute.__func__
    monkeypatch.setattr(CurvatureData, "compute", classmethod(
        lambda cls, *args, **kwargs: computed.append(args) or compute(cls, *args, **kwargs)))
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2", "--field", "0,1",
                          "--points", "1,0", "--json")
    assert code == 0 and len(computed) == 1
    result = json.loads(out)["result"]
    base = pytest.approx(builtin("sphere2").base_point, rel=1e-11)   # 12 digits in JSON
    for check in ("killing", "first_prolongation"):
        assert [r["point"] for r in result[check]["point_residuals"]] == [base, [1.0, 0.0]]
    _, alone, _ = invoke(capsys, "check-field", "--builtin", "sphere2", "--field", "0,1",
                         "--json")
    assert result["germ"] == json.loads(alone)["result"]["germ"]


def test_check_field_point_sets_the_base_point(capsys, tmp_path):
    # --point moves the base point, as in every other command: the report is
    # that of the chart whose base point it is
    text = builtin("sphere2").serialize()
    start = text.index("base_point:")
    chart = tmp_path / "moved.man"
    chart.write_text(text[:start] + "base_point: (1, 0.5);"
                     + text[text.index("\n", start):], encoding="utf-8")
    _, moved, _ = invoke(capsys, "check-field", "--file", str(chart), "--field", "0,1",
                         "--json")
    code, out, _ = invoke(capsys, "check-field", "--builtin", "sphere2", "--field", "0,1",
                          "--point", "1,0.5", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == json.loads(moved)["result"]
    points = [r["point"] for r in result["killing"]["point_residuals"]]
    assert len(points) == 6 and points[0] == [1.0, 0.5]


# every command that reads one chart takes it from one option
@pytest.mark.parametrize("argv", [
    ["parse"], ["curvature"], ["killing-dim"], ["holonomy"], ["hypothesis"],
    ["check-field", "--field", "1,0"],
    ["transport", "--field", "1,0", "--path", "0,0;1,0", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_builtin_and_file_together_are_an_input_error(capsys, tmp_path, argv):
    chart = chart_file(tmp_path, "flat", "[[1, 0], [0, 1]]", "0, 0")
    code, out, err = invoke(capsys, argv[0], "--builtin", "euclidean:n=2", "--file", chart,
                            *argv[1:])
    assert (code, out, err) == (
        2, "", "error: pass one input chart: --builtin or --file, not both\n")


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


def test_check_decomposition_ranks_each_factor_in_its_own_frame(capsys):
    # one curvature scale for both factors cut the sphere's slot rows and
    # reported (7, 3, 1, 3) with exit 0
    code, out, _ = invoke(capsys, "check-decomposition", "sphere2:r=0.001",
                          "walker_recurrent", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["dim_product"], res["dim_a"], res["dim_b"], res["excess"]) == (4, 3, 1, 0)


@pytest.mark.parametrize("argv", [["check-decomposition", "cahen_wallach:n=1,q=1",
                                   "cahen_wallach:n=1,q=-1"],
                                  ["demo-counterexample"]])
def test_decomposition_reports_parallel_directions_and_margins(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert (res["parallel_a"], res["parallel_b"], res["excess"]) == (1, 1, 1)
    assert set(res["gaps"]) == {"product", "a", "b"}
    tol = doc["tolerances"]["rank_tol"]
    for gaps in res["gaps"].values():
        assert [g["order"] for g in gaps] == list(range(len(gaps)))
        for g in gaps:
            assert set(g) == {"order", "sigma_max", "smallest_kept", "largest_cut"}
            assert g["smallest_kept"] is None or g["smallest_kept"] > tol
            assert g["largest_cut"] <= tol


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


def test_multi_point_names_the_first_perturbed_point_off_the_domain(capsys, tmp_path):
    # the third of the six points, (0.01 - 0.0505, 0), leaves the domain of
    # sqrt(x); the points are evaluated in one batch, and the message names
    # it as evaluating them one by one does
    chart = chart_file(tmp_path, "sqrtnear", "[[1 + sqrt(x), 0], [0, 1]]", "0.01, 0")
    code, out, err = invoke(capsys, "killing-dim", "--file", chart, "--multi-point")
    assert (code, out) == (2, "")
    assert err == ("error: metric of 'sqrtnear' at (-0.0405, 0.0): component (0, 0) = "
                   "1.0 + sqrt(x): sqrt of jet with constant term -0.0405 <= 0\n")


def test_python_m_killingkit_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "killingkit", "catalog", "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "catalog"


def test_python_m_killingkit_prints_its_version():
    import killingkit
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "killingkit", "--version"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{killingkit.__version__}\n", "")


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


@pytest.mark.parametrize("argv,message", [
    (["--n-plus", "0"], "argument --n-plus: expected an integer >= 1, got '0'"),
    (["--n-minus", "-1"], "argument --n-minus: expected an integer >= 1, got '-1'"),
    (["--n-plus", "2", "--q-plus", "1"],
     "--q-plus must have 2 entries, one per --n-plus direction, got 1"),
    (["--n-minus", "2", "--q-minus", "1:2:3"],
     "--q-minus must have 2 entries, one per --n-minus direction, got 3"),
    (["--q-plus", "0"], "--q-plus entries must be nonzero"),
    (["--n-minus", "2", "--q-minus=-1:0"], "--q-minus entries must be nonzero"),
], ids=["n-plus", "n-minus", "q-plus-count", "q-minus-count", "q-plus-zero", "q-minus-zero"])
def test_demo_counterexample_errors_name_its_options(capsys, argv, message):
    code, out, err = invoke(capsys, "demo-counterexample", *argv)
    assert code == 2 and out == ""
    assert message in err and "cahen_wallach" not in err and "Traceback" not in err


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


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_transport_steps_error_names_the_option(capsys, steps):
    code, out, err = invoke(capsys, "transport", "--builtin", "sphere2", "--germ",
                            "0,1|0,0;0,0", "--path", "1,0;1.1,0", f"--steps={steps}")
    assert code == 2 and out == ""
    assert f"argument --steps: expected an integer >= 1, got '{steps}'" in err
    assert "steps_per_segment" not in err


def test_product_order_help_gives_its_cap_and_default(capsys):
    code, out, _ = invoke(capsys, "product", "--help")
    assert code == 0
    out = " ".join(out.split())
    assert "derivative/prolongation depth cap (at most 3, default 3)" in out
    assert "default 10" not in out


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


# Arguments that are missing or malformed, each refused with its own message
@pytest.mark.parametrize("argv,message", [
    (["transport", "--builtin", "sphere2", "--germ", "1,0", "--path", "1,0;1.2,0.1"],
     "germ syntax: xi1,..,xin|a11,..,a1n;a21,.."),
    (["transport", "--builtin", "sphere2", "--germ", "1,0,0|0,0;0,0", "--path", "1,0;1.2,0.1"],
     "germ shapes (3,), (2, 2) do not fit dimension 2"),
    (["transport", "--builtin", "sphere2", "--germ", "1,0|0,0;0,0"],
     'transport requires --path "p0;p1;..."'),
    (["transport", "--builtin", "sphere2", "--path", "1,0;1.2,0.1"],
     "transport requires --field or --germ"),
    (["check-field", "--builtin", "sphere2"], 'check-field requires --field "expr,expr,..."'),
    (["check-field", "--builtin", "sphere2", "--field", "0,1", "--points", ";"],
     "no point in ';'; expected p0;p1;..."),
    (["killing-dim", "--builtin", "sphere2:r"],
     "malformed builtin parameter 'r' (expected key=value)"),
    (["killing-dim"], "no input chart: pass --builtin NAME[:params] or --file PATH"),
], ids=["germ-syntax", "germ-shapes", "transport-path", "transport-germ", "check-field-field",
        "check-field-points", "builtin-parameter", "no-chart"])
def test_missing_and_malformed_arguments_are_input_errors(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_chart_file_takes_unary_plus_and_a_positional_at_file(capsys, tmp_path):
    chart = tmp_path / "plus.man"
    chart.write_text("manifold plus {\n  coordinates: x, y;\n  parameters: a = +2;\n"
                     "  metric: [[a, 0], [0, 1]];\n  base_point: (+1, 0);\n}\n")
    code, out, _ = invoke(capsys, "parse", "--file", str(chart), "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["parameters"], res["base_point"]) == ({"a": 2.0}, [1.0, 0.0])
    code, out, _ = invoke(capsys, "check-decomposition", f"@{chart}", "sphere2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [i["kind"] for i in doc["inputs"]] == ["file", "builtin"]
    assert (doc["result"]["dim_a"], doc["result"]["dim_b"], doc["result"]["excess"]) == (3, 3, 0)


def test_a_ragged_germ_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "transport", "--builtin", "sphere2", "--germ", "0,1|0,0;1",
                            "--path", "1,0;1.2,0.1", "--json")
    assert code == 2 and out == ""
    assert err == "error: germ rows of [2, 1] entries do not fit dimension 2\n"


def test_a_failure_inside_a_computation_exits_3_naming_where(capsys, monkeypatch):
    # a numpy error inside the package is not bad input: exit 3 and a
    # warning that names the function it came from, not exit 2
    from killingkit import rank

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(rank.np.linalg, "svd", svd)
    code, out, err = invoke(capsys, "holonomy", "--builtin", "sphere2", "--json")
    assert code == 3 and out == ""
    assert err == ("warning: holonomy failed in rank.numerical_rank: "
                   "LinAlgError: SVD did not converge\n")


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


# 0 * f, f * 0 and f^0 keep f, which the tape evaluates and checks, so each
# fails where f fails, as 1e-300 * f does
@pytest.mark.parametrize("metric,message", [
    ("[[1 + 0 * sqrt(x), 0], [0, 1]]", "component (0, 0) = 1.0 + 0.0 * sqrt(x): "
     "sqrt of jet with constant term -1.0 <= 0"),
    ("[[1 + sqrt(x) * 0, 0], [0, 1]]", "component (0, 0) = 1.0 + sqrt(x) * 0.0: "
     "sqrt of jet with constant term -1.0 <= 0"),
    ("[[1 + sqrt(x)^0, 0], [0, 1]]", "component (0, 0) = 1.0 + sqrt(x)^0: "
     "sqrt of jet with constant term -1.0 <= 0"),
    ("[[2 + 0 * (1 / y), 0], [0, 1]]", "component (0, 0) = 2.0 + 0.0 * 1.0 / y: "
     "reciprocal of jet with zero constant term"),
], ids=["zero-times-f", "f-times-zero", "f-to-the-zero", "zero-times-reciprocal"])
def test_a_unit_operand_fails_where_its_other_operand_fails(capsys, tmp_path, metric, message):
    chart = chart_file(tmp_path, "z", metric, "1, 1")
    code, out, err = invoke(capsys, "curvature", "--file", chart, "--point=-1,0")
    assert (code, out, err) == (2, "", f"error: metric of 'z' at (-1.0, 0.0): {message}\n")


@pytest.mark.parametrize("metric,point", [("[[x^400, 0], [0, 1]]", "10,0"),
                                          ("[[1e200 * 1e200 * x, 0], [0, 1]]", None)])
def test_non_finite_metric_values_are_input_errors(capsys, tmp_path, metric, point):
    chart = chart_file(tmp_path, "big", metric, "1, 0")
    code, out, err = invoke(capsys, "curvature", "--file", chart, "--json",
                            *([f"--point={point}"] if point else []))
    assert code == 2 and out == ""   # no NaN or Infinity in a report
    assert "component (0, 0)" in err and "non-finite coefficient inf" in err


# Every metric jet of this chart is finite, but at x = 0 its inverse is
# about 1e300 and the Christoffel symbols overflow: each command refuses the
# point as it refuses a metric jet that overflows, with no warning on the way.
OVERFLOW_METRIC = "[[1e-300 + 1e10 * x, 0], [0, 1]]"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["curvature"], ["killing-dim"], ["holonomy"],
    ["transport", "--germ", "1,0|0,0;0,0", "--path", "0,0;0,1", "--steps", "10"],
], ids=lambda argv: argv[0])
def test_a_curvature_overflow_is_an_input_error(capsys, tmp_path, argv):
    chart = chart_file(tmp_path, "over", OVERFLOW_METRIC, "0, 0")
    code, out, err = invoke(capsys, argv[0], "--file", chart, *argv[1:])
    assert code == 2 and out == ""   # no NaN or Infinity in a report
    assert err.startswith("error: curvature of 'over' at (0.0, 0.0): a non-finite entry in ")
    assert err.count("\n") == 1


# On this chart sqrt(1 - y) leaves its domain at y = 1; the path's second
# segment starts at (0, 0), where the curvature overflows, and reaches y = 1
# later in the same frame batch.
def test_transport_raises_a_curvature_overflow_before_a_later_metric_error(capsys, tmp_path):
    chart = chart_file(tmp_path, "over", "[[1e-300 + 1e10 * x, 0], [0, 1 + sqrt(1 - y)]]",
                       "1, 0")
    transport = ["transport", "--file", chart, "--germ", "1,0|0,0;0,0", "--steps", "10"]
    code, out, err = invoke(capsys, *transport, "--path", "1,0;1,2")
    assert (code, out) == (2, "") and err.startswith("error: metric of 'over' at (1.0, 1.0)")
    code, out, err = invoke(capsys, *transport, "--path", "1,0;0,0;0,2")
    assert (code, out) == (2, "")
    assert err.startswith("error: curvature of 'over' at (0.0, 0.0): a non-finite entry in ")


# The 9 stage points of this path's 4 steps come in one call, which meets
# sqrt(1 - y) outside its domain from y = 1 on; its first point, where the
# curvature overflows, fails first one by one.
def test_transport_raises_its_first_points_curvature_before_a_later_metric_error(capsys,
                                                                                 tmp_path):
    chart = chart_file(tmp_path, "over", "[[1e-300 + 1e10 * x, 0], [0, 1 + sqrt(1 - y)]]",
                       "1, 0")
    code, out, err = invoke(capsys, "transport", "--file", chart, "--germ", "1,0|0,0;0,0",
                            "--path", "0,0.5;0,1.5", "--steps", "4")
    assert (code, out) == (2, "")
    assert err == ("error: curvature of 'over' at (0.0, 0.5): a non-finite entry in "
                   "the jets of gamma\n")


# 2 + sin(x - c) / (x - c) is analytic, but the chart fails at x = c = 0.05,
# the first midpoint of a segment of 10 steps from x = 0 to 1 and none of its
# Chebyshev nodes, so only the check of the chart at every stage point finds
# it: the nodes alone evaluate.
def test_transport_checks_the_chart_between_nodes(capsys, tmp_path):
    from killingkit.curvature import point_frame
    from killingkit.metricdsl import parse_manifold
    chart = chart_file(tmp_path, "rs", "[[2 + sin(x - 0.05) / (x - 0.05), 0], [0, 1]]",
                       "0.5, 0")
    point_frame(parse_manifold(Path(chart).read_text()), chebyshev_nodes([[0, 0], [1, 0]]))
    code, out, err = invoke(capsys, "transport", "--file", chart, "--germ", "1,0|0,0;0,0",
                            "--path", "0,0;1,0", "--steps", "10")
    assert (code, out) == (2, "")
    assert err == ("error: metric of 'rs' at (0.05, 0.0): component (0, 0) = "
                   "2.0 + sin(x - 0.05) / (x - 0.05): reciprocal of jet with zero "
                   "constant term\n")


# sin(1 / (x - c)) oscillates without bound near c = 0.1234567, between the
# grid points of the path: no piece about c settles, and halving does not
# shrink its generators, so transport refuses the chart there.
def test_transport_refuses_a_piece_that_does_not_settle(capsys, tmp_path):
    chart = chart_file(tmp_path, "osc", "[[2 + sin(1 / (x - 0.1234567)), 0], [0, 1]]",
                       "0.5, 0")
    for steps in ("10", "1000"):
        code, out, err = invoke(capsys, "transport", "--file", chart, "--germ", "1,0|0,0;0,0",
                                "--path", "0.1,0;0.2,0", "--steps", steps)
        assert (code, out) == (2, "")
        assert err == ("error: transport on 'osc' does not settle between (0.1, 0.0) and "
                       "(0.125, 0.0)\n")


# On the first segment sin(1 / (x - 0.11237)) does not settle, as above, and
# the second meets 0 / 0 at its grid point y = 5: the first failure is named
# whether both segments share a frame call (n = 2) or each has its own (a
# budget of 17 points a call, as at n >= 8)
@pytest.mark.parametrize("budget", [None, 17 * 2 ** 4], ids=["shared-call", "call-a-segment"])
def test_transport_names_a_segments_failure_before_the_next_segments(capsys, tmp_path,
                                                                     monkeypatch, budget):
    from killingkit import curvature
    if budget is not None:
        monkeypatch.setattr(curvature, "_FRAME_BUDGET", budget)
    chart = chart_file(tmp_path, "osc", "[[3 + sin(1 / (x - 0.11237)), 0], "
                       "[0, 2 + sin(y - 5) / (y - 5)]]", "0.1, 0")
    code, out, err = invoke(capsys, "transport", "--file", chart, "--germ", "1,0|0,0;0,0",
                            "--path", "0.1,0;0.125,0;0.125,8", "--steps", "4")
    assert (code, out, err) == (2, "", "error: transport on 'osc' does not settle between "
                                       "(0.1, 0.0) and (0.1125, 0.0)\n")


# 1 + 1 / (x - 0.123) has a pole between two grid points of the path, where
# g_xx changes sign: no grid point or node meets it and the pieces about it
# settle, so only the sign of det g at consecutive grid points refuses it,
# on the first segment or on a later one; a grid point of the same segment
# that fails, after the sign change, is named first
POLE = "[[1 + 1 / (x - 0.123), 0], [0, 1]]"
POLE_MESSAGES = {steps: f"metric of 'pole' degenerate or singular between {ends}: "
                        "det g changes sign"
                 for steps, ends in [("10", "(0.12000000000000001, 0.0) and (0.125, 0.0)"),
                                     ("1000", "(0.12295, 0.0) and (0.12300000000000001, 0.0)")]}
SQRT_AFTER_POLE = ("metric of 'pole' at (0.15000000000000002, 0.0): component (1, 1) = "
                   "1.0 + sqrt(0.15 - x): sqrt of jet with constant term "
                   "-2.7755575615628914e-17 <= 0")
# At n = 2 a chunk of the grid check holds 8448 points, so at 5000 steps grid
# points 8447 and 8448 (x = 0.8447 and 0.8448) fall in different chunks: the
# sign change between them is found across the chunk boundary
CHUNK_BOUNDARY_MESSAGE = ("metric of 'pole' degenerate or singular between (0.8447, 0.0) and "
                          "(0.8448, 0.0): det g changes sign")


@pytest.mark.parametrize("metric,path,messages", [
    (POLE, "0.1,0;0.2,0", POLE_MESSAGES),
    (POLE, "0.1,0.1;0.1,0;0.2,0", POLE_MESSAGES),
    ("[[1 + 1 / (x - 0.123), 0], [0, 1 + sqrt(0.15 - x)]]", "0.1,0;0.2,0",
     dict.fromkeys(POLE_MESSAGES, SQRT_AFTER_POLE)),
    ("[[1 + 1 / (x - 0.84475), 0], [0, 1]]", "0,0;1,0", {"5000": CHUNK_BOUNDARY_MESSAGE}),
], ids=["first-segment", "second-segment", "grid-point-first", "chunk-boundary"])
def test_transport_refuses_a_sign_change_of_det_g_between_grid_points(capsys, tmp_path,
                                                                      metric, path, messages):
    chart = chart_file(tmp_path, "pole", metric, "0.11, 0")
    for steps, message in messages.items():
        code, out, err = invoke(capsys, "transport", "--file", chart, "--germ", "1,0|0,0;0,0",
                                "--path", path, "--steps", steps)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# Flat charts whose unit-frame scale kappa^(m + 2) leaves the float range
# while every covR entry is finite: the overflow chart at x = 1e-100, where
# max |Gamma| = 5e99 and kappa^4 overflows, and 1 + 1e-200 x, where kappa^2
# underflows to 0.  Each is flat: Killing dimension 3, holonomy 0.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric,point", [(OVERFLOW_METRIC, "1e-100,0"),
                                          ("[[1 + 1e-200 * x, 0], [0, 1]]", "0,0")],
                         ids=["overflow", "underflow"])
def test_a_curvature_scale_outside_the_float_range_gives_the_flat_answer(capsys, tmp_path,
                                                                         metric, point):
    chart = chart_file(tmp_path, "flat", metric, "1, 0")
    code, out, err = invoke(capsys, "killing-dim", "--file", chart, f"--point={point}",
                            "--json")
    assert (code, err) == (0, "") and json.loads(out)["result"]["stabilized_dim"] == 3
    code, out, err = invoke(capsys, "holonomy", "--file", chart, f"--point={point}", "--json")
    assert (code, err) == (0, "") and json.loads(out)["result"]["dimension"] == 0


def test_an_overflowing_literal_is_an_input_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "parse", "--file",
                            chart_file(tmp_path, "lit", "[[10^400, 0], [0, 1]]", "0, 0"))
    assert code == 2 and out == ""
    assert err == ("error: base point outside the metric's domain: metric of 'lit' at "
                   "(0.0, 0.0): component (0, 0) = 10.0^400: jet has non-finite "
                   "coefficient inf\n")


# Both checks read the field's 2-jet, so a point where it overflows and the
# 1-jet does not is a bad point, as where the 1-jet overflows.
def test_check_field_reads_the_field_to_second_order(capsys):
    code, out, err = invoke(capsys, "check-field", "--builtin", "euclidean:n=2",
                            "--field", "x1^1730,0", "--points", "1.5,0")
    assert (code, out, err) == (
        2, "", "error: field on 'euclidean2' at (1.5, 0.0): component 0 = x1^1730: "
               "jet has non-finite coefficient inf\n")


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


# (builtin string, the parameter the error names): a list where a number is
# expected, a count that is not an integer, a key the builtin does not take,
# a key given twice
BAD_BUILTINS = [
    ("sphere2:r=1:2", "parameter r"),
    ("euclidean:n=1:2", "parameter n"),
    ("cahen_wallach:n=1:1", "parameter n"),
    ("euclidean:n=2.5", "parameter n"),
    ("minkowski:p=1.7", "parameter p"),
    ("hyperbolic2:r=3", "parameter 'r'"),
    ("sphere2:foo=1", "parameter 'foo'"),
    ("euclidean:n=2,n=3", "parameter 'n'"),
    ("sphere2:r=", "parameter r"),
    ("cahen_wallach:n=2,q=1:", "parameter q"),
]


@pytest.mark.parametrize("chart,message", BAD_BUILTINS, ids=[c for c, _ in BAD_BUILTINS])
@pytest.mark.parametrize("command", ["killing-dim", "check-decomposition"])
def test_builtin_parameters_outside_the_catalog_are_input_errors(capsys, command, chart,
                                                                  message):
    argv = (["killing-dim", "--builtin", chart] if command == "killing-dim"
            else ["check-decomposition", chart, "sphere2"])
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    name = chart.partition(":")[0]
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: {name} ")
    assert message in err and "Traceback" not in err


_numbers = st.one_of(st.integers(-2, 4).map(str),
                     st.floats(-1e3, 1e3).map(repr),
                     st.sampled_from(["0", "-0.0", "1e-300", "1e300", "nan", "-inf"]))
_values = st.one_of(_numbers, st.lists(_numbers, min_size=1, max_size=3).map(":".join))


@st.composite
def builtin_strings(draw):
    """A builtin string of known and unknown names and keys; counts stay <= 4."""
    name = draw(st.sampled_from(list(BUILTINS) + ["torus"]))
    keys = draw(st.lists(st.sampled_from(["n", "p", "q", "r", "foo"]), max_size=3,
                         unique=True))
    params = [f"{key}={draw(_values)}" for key in keys]
    return name + (":" + ",".join(params) if params else "")


@given(builtin_strings())
@settings(max_examples=150, deadline=None)
def test_parse_of_any_builtin_string_exits_0_or_2(chart):
    assert run(["parse", "--builtin", chart, "--json"]) in (0, 2)


@st.composite
def random_charts(draw):
    """The text of a chart with random domain-safe entries (oracles'
    ``random_expression``) near the identity: diagonal 1 + (..), off-diagonal
    0.1 * (..), in 1 to 3 coordinates, at the origin; the entries are
    analytic."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            text = random_expression(rng, n, depth=2).to_text()
            rows[i][j] = rows[j][i] = f"1 + ({text})" if i == j else f"0.1 * ({text})"
    metric = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    coords = ", ".join(f"x{i + 1}" for i in range(n))
    return n, (f"manifold random {{\n  coordinates: {coords};\n  metric: [{metric}];\n"
               "  assume: analytic, simply_connected;\n}\n")


def quiet_run(*argv):
    """Exit code and decoded --json report of one command (None on exit 2)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([*argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


# On any chart: no traceback, an exit code in {0, 2, 3}, a Killing dimension
# within n(n + 1)/2 and no more parallel candidates than the nullity.
@given(random_charts())
@settings(max_examples=40, deadline=None)
def test_commands_on_random_charts_keep_their_contract(tmp_path_factory, chart):
    n, text = chart
    path = tmp_path_factory.mktemp("random") / "random.man"
    path.write_text(text, encoding="utf-8")
    where = ["--file", str(path), "--order", "2"]
    codes = {}
    for command in ("killing-dim", "holonomy", "hypothesis"):
        codes[command], doc = quiet_run(command, *where)
        if command == "killing-dim" and doc is not None:
            assert doc["result"]["stabilized_dim"] <= n * (n + 1) // 2
        if command == "holonomy" and doc is not None:
            assert len(doc["result"]["parallel_candidates"]) <= doc["result"]["nullity"]
            assert doc["result"]["dimension"] <= n * (n - 1) // 2
    codes["check-field"], _ = quiet_run("check-field", "--file", str(path),
                                        "--field", ",".join(["1"] + ["0"] * (n - 1)))
    assert set(codes.values()) <= {0, 2, 3}, codes


# Charts of the conditioning sweep (ROADMAP item 4) whose holonomy span
# ranked more than C(n, 2) directions, which once crashed with exit 2: the
# chart under x = A y with A = Q1 diag(geomspace(1, c, n) / sqrt(c)) Q2, Q1
# and Q2 the Q factors of two draws of default_rng(seed).standard_normal((n,
# n)); and a 1-D chart, whose holonomy algebra so(1) has no coordinates.
SWEEP_CRASHES = [("schwarzschild", 20, 3), ("hyperbolic2", 100, 1), ("random3", 100, 0),
                 ("walker_recurrent", 100, 0)]


@pytest.mark.parametrize("name,c,seed", SWEEP_CRASHES)
def test_ill_conditioned_charts_keep_the_holonomy_in_so_p_q(tmp_path, name, c, seed):
    from test_tower import CHARTS
    spec = CHARTS[name]()
    n = spec.dim
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    path = tmp_path / "changed.man"
    path.write_text(changed_chart(spec, q1 @ np.diag(np.geomspace(1, c, n) / np.sqrt(c)) @ q2)
                    .serialize(), encoding="utf-8")
    for command, key in (("holonomy", "dimension"), ("hypothesis", "holonomy_dimension")):
        code, doc = quiet_run(command, "--file", str(path))
        assert code in (0, 3) and doc["result"][key] <= math.comb(n, 2), (command, code)


def test_a_1d_chart_has_no_holonomy_and_one_parallel_field():
    code, doc = quiet_run("holonomy", "--builtin", "euclidean:n=1")
    assert code == 0 and doc["result"]["dimension"] == 0
    assert doc["result"]["generators"] == [] and doc["result"]["parallel_candidates"] == [[1.0]]
    code, doc = quiet_run("hypothesis", "--builtin", "euclidean:n=1")
    assert code == 0 and doc["result"]["verdict"] == "has_parallel_field"
    assert doc["result"]["holonomy_dimension"] == 0


# Report leaves: floats with every special value, numpy scalars, strings
# with non-ASCII and control characters, and numpy arrays of floats.
_REPORT_SCALARS = st.one_of(
    st.floats(), st.floats(width=32),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
                     123456789012.0, 1e16, 1e-5, 0.1 + 0.2]),
    st.integers(), st.booleans(), st.none(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8))
_REPORT_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=6).map(np.array),
    st.lists(st.floats(), max_size=6).map(lambda xs: np.array(xs).reshape(-1, 1)),
    st.lists(st.floats(width=32), max_size=6).map(lambda xs: np.array(xs, dtype=np.float32)))
_REPORTS = st.recursive(
    _REPORT_SCALARS | _REPORT_ARRAYS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)


@given(_REPORTS)
@settings(max_examples=200, deadline=None)
def test_reports_are_written_as_the_rounded_standard_encoder_writes_them(payload):
    import argparse
    from killingkit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(json=True), payload, [], 0.0)
    assert out.getvalue() == json.dumps(round_floats(payload), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("point,checks", [(None, 1), ("1.5707963267948966,0", 1),
                                          ("1,0.5", 2)])
def test_each_point_of_a_query_is_checked_once(capsys, monkeypatch, point, checks):
    # make_spec checks the base point; the curvature at the base point does
    # not check it again, and at any other point it checks that point
    from killingkit import metricdsl
    calls = []
    check = metricdsl.ManifoldSpec.check_nondegenerate
    monkeypatch.setattr(metricdsl.ManifoldSpec, "check_nondegenerate",
                        lambda spec, *args: calls.append(args) or check(spec, *args))
    argv = ["killing-dim", "--builtin", "sphere2", "--json"]
    code, _, _ = invoke(capsys, *argv, *([f"--point={point}"] if point else []))
    assert code == 0 and len(calls) == checks
