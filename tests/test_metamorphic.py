"""The Killing dimension and the holonomy verdict do not depend on the chart:
they stay the same when the metric is scaled and under linear and affine
changes of coordinates, and come out right off unit scale and near a
coordinate singularity."""
import numpy as np
import pytest

from oracles import changed_chart
from test_tower import CHARTS

from killingkit.holonomy import parallel_field_check
from killingkit.killing import killing_dimension
from killingkit.metricdsl import builtin, parse_manifold

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


SPHERE = ([3, 3], 0, [1, 1], 0, "no_parallel_field")


@pytest.mark.parametrize("r", [1e-4, 1.0, 1e4])
def test_sphere_off_unit_radius(r):
    assert answers(builtin("sphere2", r=r)) == SPHERE


@pytest.mark.parametrize("theta", [0.01, 0.001])
def test_sphere_near_the_pole(theta):
    assert answers(builtin("sphere2"), point=[theta, 0.0]) == SPHERE


@pytest.mark.parametrize("r0", [3.0, 5.0, 30.0, 100.0, 300.0, 1000.0])
def test_schwarzschild_far_out(r0):
    spec = parse_manifold(f"""
    manifold schwarzschild {{
      coordinates: t, r, th, ph;
      metric: [[-(1 - 2 / r), 0, 0, 0], [0, 1 / (1 - 2 / r), 0, 0],
               [0, 0, r^2, 0], [0, 0, 0, r^2 * sin(th)^2]];
      base_point: (0, {r0!r}, 1.2, 0);
      assume: analytic, simply_connected;
    }}""")
    assert answers(spec) == ([5, 4, 4], 1, [6, 6], 0, "no_parallel_field")


@pytest.mark.parametrize("r", [1e-3, 1.0, 1e4])
def test_flat_polar_chart(r):
    spec = parse_manifold(f"""
    manifold polar {{
      coordinates: r, p;
      metric: [[1, 0], [0, r^2]];
      base_point: ({r!r}, 0);
      assume: analytic, simply_connected;
    }}""")
    assert answers(spec) == ([3, 3], 0, [0, 0], 2, "has_parallel_field")
