"""The Killing dimension and the holonomy verdict do not depend on the chart:
they stay the same when the metric is scaled and under linear and affine
changes of coordinates, and come out right off unit scale and near a
coordinate singularity."""
import numpy as np
import pytest

from oracles import changed_chart
from test_product import PAIRS, factors
from test_tower import CHARTS

from killingkit.holonomy import parallel_field_check
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
