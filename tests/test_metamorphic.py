"""The Killing dimension and the holonomy verdict do not depend on the chart:
they stay the same when the metric is scaled, under linear and affine
changes of coordinates and when the base point moves along an orbit of the
isometry group, and come out right off unit scale and near a coordinate
singularity."""
import json

import numpy as np
import pytest

from oracles import changed_chart
from test_cli import invoke
from test_product import PAIRS, factors
from test_tower import CHARTS, SCHWARZSCHILD

from killingkit.holonomy import infinitesimal_holonomy, parallel_field_check
from killingkit.killing import killing_dimension
from killingkit.metricdsl import builtin, parse_manifold
from killingkit.product import decomposition_check

PINNED = sorted(set(CHARTS) - {"random3"})  # the charts of test_traces.py


def _affine(n):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, n), 0.3 * rng.standard_normal(n)


CHANGES = {
    "metric*1e-4": lambda n: {"factor": 1e-4},
    "metric*1e4": lambda n: {"factor": 1e4},
    "x=1e-3*y": lambda n: {"jacobian": 1e-3 * np.eye(n)},
    "x=1e3*y": lambda n: {"jacobian": 1e3 * np.eye(n)},
    "x=Ay+b": lambda n: dict(zip(("jacobian", "shift"), _affine(n))),
    "permuted": lambda n: {"jacobian": np.eye(n)[::-1]},
}


def answers(spec, point=None):
    kernel = killing_dimension(spec, point=point)
    verdict = parallel_field_check(spec, point=point)
    return (kernel.dims, kernel.stabilization_order, verdict.holonomy.dims,
            len(verdict.basis), verdict.kind)


@pytest.mark.parametrize("change", sorted(CHANGES))
@pytest.mark.parametrize("chart", PINNED)
def test_answers_do_not_depend_on_the_chart(chart, change):
    spec = CHARTS[chart]()
    assert answers(changed_chart(spec, **CHANGES[change](spec.dim))) == answers(spec)


# ROADMAP item 4's sweep: x = A y with A = Q1 diag(geomspace(1, c, n) / sqrt(c))
# Q2, so cond(A) = c, Q1 and Q2 the Q factors of two standard normal draws
# of one seeded generator.  The Killing and holonomy dimensions at m_max = 6
# must be the original chart's.  Where they are not, roundoff lands above
# the absolute rank tolerance and the answer is wrong with exit 0: those
# cases are strict xfails until item 4 lands.
ILL_CONDITIONED = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: an ill-conditioned linear chart lifts roundoff above the "
    "absolute rank tolerance"))
ILL_CONDITIONED_WRONG = {
    ("schwarzschild", 5, 1), *(("schwarzschild", c, seed) for c in (20, 100) for seed in (1, 2, 3)),
    *(("hyperbolic2", 100, seed) for seed in (0, 1, 3)), ("cw2", 100, 1), ("cw2", 100, 3),
    ("sphere2", 100, 1), ("walker_recurrent", 100, 1)}


def ill_conditioned(n, c, seed):
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return q1 @ np.diag(np.geomspace(1, c, n) / np.sqrt(c)) @ q2


def dimensions(spec):
    return (killing_dimension(spec, m_max=6).stabilized_dim,
            infinitesimal_holonomy(spec, m_max=6).dimension)


@pytest.mark.parametrize("chart,c,seed", [
    pytest.param(chart, c, seed, id=f"{chart}-c{c}-seed{seed}",
                 marks=ILL_CONDITIONED if (chart, c, seed) in ILL_CONDITIONED_WRONG else ())
    for chart in sorted(CHARTS) for c in (5, 20, 100) for seed in range(4)])
def test_dimensions_survive_an_ill_conditioned_linear_chart(chart, c, seed):
    spec = CHARTS[chart]()
    changed = changed_chart(spec, jacobian=ill_conditioned(spec.dim, c, seed))
    assert dimensions(changed) == dimensions(spec)


SPHERE = ([3, 3], 0, [1, 1], 0, "no_parallel_field")


SPHERE_RADII = [1e-4, 1.0, 1e4]
POLE_ANGLES = [0.01, 0.001]


@pytest.mark.parametrize("r", SPHERE_RADII)
def test_sphere_off_unit_radius(r):
    assert answers(builtin("sphere2", r=r)) == SPHERE


@pytest.mark.parametrize("theta", POLE_ANGLES)
def test_sphere_near_the_pole(theta):
    assert answers(builtin("sphere2"), point=[theta, 0.0]) == SPHERE


SCHWARZSCHILD_RADII = [3.0, 5.0, 30.0, 100.0, 300.0, 1000.0]
POLAR_RADII = [1e-3, 1.0, 1e4]


def schwarzschild_at(r0):
    return parse_manifold(f"""
    manifold schwarzschild {{
      coordinates: t, r, th, ph;
      metric: [[-(1 - 2 / r), 0, 0, 0], [0, 1 / (1 - 2 / r), 0, 0],
               [0, 0, r^2, 0], [0, 0, 0, r^2 * sin(th)^2]];
      base_point: (0, {r0!r}, 1.2, 0);
      assume: analytic, simply_connected;
    }}""")


def polar_at(r):
    return parse_manifold(f"""
    manifold polar {{
      coordinates: r, p;
      metric: [[1, 0], [0, r^2]];
      base_point: ({r!r}, 0);
      assume: analytic, simply_connected;
    }}""")


@pytest.mark.parametrize("r0", SCHWARZSCHILD_RADII)
def test_schwarzschild_far_out(r0):
    assert answers(schwarzschild_at(r0)) == ([5, 4, 4], 1, [6, 6], 0, "no_parallel_field")


@pytest.mark.parametrize("r", POLAR_RADII)
def test_flat_polar_chart(r):
    assert answers(polar_at(r)) == ([3, 3], 0, [0, 0], 2, "has_parallel_field")


# A product's answer comes from each factor in its own frame, so factors far
# apart in scale split as they do at unit scale.
RESCALINGS = {"a*1e-6": (1e-6, 1.0), "b*1e-6": (1.0, 1e-6), "a*1e6": (1e6, 1.0),
              "a*1e-4,b*1e4": (1e-4, 1e4)}


@pytest.mark.parametrize("rescaling", sorted(RESCALINGS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_decomposition_does_not_depend_on_the_factors_scales(pair, rescaling):
    a, b = (changed_chart(spec, factor=f)
            for spec, f in zip(factors(pair), RESCALINGS[rescaling]))
    rep = decomposition_check(a, b)
    assert (rep.dim_a, rep.dim_b, rep.excess) == PAIRS[pair][-1]
    assert not rep.inconclusive


# Moving the base point with --point along an orbit of the isometry group:
# sphere2 toward the pole, hyperbolic2 in y, cw1 along every coordinate, and
# Schwarzschild (r0 = 5) in theta toward the axis, along an orbit of its
# rotations.  The answer is the exit code and result of killing-dim
# (the stabilised dimension), holonomy (dimension, parallel candidates,
# nullity) and hypothesis (verdict).  Near an axis the rank scale of ROADMAP
# item 1 takes max |Gamma| into kappa, real curvature falls below the rank
# tolerance, and the answer is wrong with exit 0: those points are strict
# xfails until item 1 lands.
NEAR_AXIS = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the Gamma-based rank scale cuts real curvature near a "
    "coordinate axis"))
SPHERE_ANSWER = (0, 3, 0, 1, 0, 0, 0, "no_parallel_field")
ORBITS = [
    *(("sphere2", f"{t!r},0.4", SPHERE_ANSWER, ())
      for t in (1.2, 0.1, 1e-2, 1e-3, 1e-4)),
    *(("sphere2", f"{t!r},0.4", SPHERE_ANSWER, NEAR_AXIS) for t in (3e-5, 1e-5, 1e-6)),
    *(("hyperbolic2", f"3.7,{y!r}", SPHERE_ANSWER, ())
      for y in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)),
    *(("cahen_wallach:n=1,q=1", f"{x!r},{-x!r},{x!r}", (0, 4, 0, 1, 1, 1, 0,
                                                          "has_parallel_field"), ())
      for x in (0.5, 3.0, 10.0, 30.0, 100.0, 300.0)),
    *(("schwarzschild", f"0,5,{t!r},0", (0, 4, 0, 6, 0, 0, 0, "no_parallel_field"), marks)
      for t, marks in ((1.2, ()), (1e-2, ()), (1e-3, NEAR_AXIS), (1e-4, NEAR_AXIS),
                       (1e-5, NEAR_AXIS))),
]


def cli_result(capsys, *argv):
    code, out, _ = invoke(capsys, *argv, "--json")
    return code, json.loads(out)["result"]


def chart_args(chart, tmp_path):
    if chart != "schwarzschild":
        return ["--builtin", chart]
    path = tmp_path / "schwarzschild.man"
    path.write_text(SCHWARZSCHILD, encoding="utf-8")
    return ["--file", str(path)]


@pytest.mark.parametrize("chart,point,answer", [
    pytest.param(chart, point, answer, marks=marks, id=f"{chart}@{point}")
    for chart, point, answer, marks in ORBITS])
def test_answers_do_not_depend_on_the_point_of_an_orbit(capsys, tmp_path, chart, point,
                                                        answer):
    where = [*chart_args(chart, tmp_path), f"--point={point}"]
    kernel_code, kernel = cli_result(capsys, "killing-dim", *where)
    holonomy_code, holonomy = cli_result(capsys, "holonomy", *where)
    verdict_code, verdict = cli_result(capsys, "hypothesis", *where)
    assert (kernel_code, kernel["stabilized_dim"], holonomy_code, holonomy["dimension"],
            len(holonomy["parallel_candidates"]), holonomy["nullity"],
            verdict_code, verdict["verdict"]) == answer


# check-field at the same sphere2 points: d/dphi is Killing, d/dtheta is not
@pytest.mark.parametrize("theta", [1.2, 0.1, 1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 1e-6])
def test_check_field_verdicts_do_not_depend_on_the_point_of_an_orbit(capsys, theta):
    for field, killing in (("0,1", True), ("1,0", False)):
        code, result = cli_result(capsys, "check-field", "--builtin", "sphere2",
                                  "--field", field, f"--point={theta!r},0.4")
        assert (code, result["killing"]["passed"]) == (0, killing)
        assert result["killing"]["point_residuals"][0]["point"] == [theta, 0.4]
