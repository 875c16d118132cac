"""The closed-form prolongation tower against the jet-level recursion, and its
xi-columns on a chart whose curvature is not parallel."""
import random

import numpy as np
import pytest

from oracles import tower_by_recursion

from killingkit.curvature import CurvatureData
from killingkit.killing import (KillingGerm, germ_kernel_residual, germ_of_field,
                                integrability_tensors, wedge)
from killingkit.metricdsl import builtin, parse_manifold

SCHWARZSCHILD = """
manifold schwarzschild {
  coordinates: t, r, th, ph;
  metric: [[-(1 - 2 / r), 0, 0, 0], [0, 1 / (1 - 2 / r), 0, 0],
           [0, 0, r^2, 0], [0, 0, 0, r^2 * sin(th)^2]];
  base_point: (0, 5, 1.5707963267948966, 0);
  assume: analytic, simply_connected;
}
"""

SCHWARZSCHILD_FIELDS = [
    ["1", "0", "0", "0"],
    ["0", "0", "0", "1"],
    ["0", "0", "sin(ph)", "cos(ph) * cos(th) / sin(th)"],
    ["0", "0", "cos(ph)", "-sin(ph) * cos(th) / sin(th)"],
]


def random_chart(seed, n):
    """A seeded Riemannian chart: diagonal entries above 0.7 and off-diagonal
    row sums below 0.6 near the base point, so the metric is positive
    definite there."""
    rng = random.Random(seed)
    x = [f"x{i + 1}" for i in range(n)]
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        a, b = rng.uniform(0.2, 0.8), rng.uniform(-0.25, 0.25)
        rows[i][i] = f"1 + {a!r} * {x[(i + 1) % n]}^2 + {b!r} * sin({x[(i + 2) % n]})"
        for j in range(i + 1, n):
            c, d = rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)
            rows[i][j] = rows[j][i] = f"{c!r} * {x[i]} * {x[j]} + {d!r} * cos({x[(i + j) % n]})"
    base = [rng.uniform(-0.4, 0.4) for _ in range(n)]
    metric = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    return parse_manifold(
        f"manifold random{n} {{\n  coordinates: {', '.join(x)};\n"
        f"  metric: [{metric}];\n"
        f"  base_point: ({', '.join(repr(v) for v in base)});\n"
        "  assume: analytic, simply_connected;\n}\n")


CHARTS = {
    "euclidean3": lambda: builtin("euclidean", n=3),
    "minkowski12": lambda: builtin("minkowski", p=1, q=2),
    "sphere2": lambda: builtin("sphere2"),
    "hyperbolic2": lambda: builtin("hyperbolic2"),
    "cw1": lambda: builtin("cahen_wallach", n=1, q=1.0),
    "cw2": lambda: builtin("cahen_wallach", n=2, q=[1.0, -1.0]),
    "walker_recurrent": lambda: builtin("walker_recurrent"),
    "schwarzschild": lambda: parse_manifold(SCHWARZSCHILD),
    "random3": lambda: random_chart(7, 3),
}


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_tower_matches_recursion(chart):
    spec = CHARTS[chart]()
    m_max = 1 if spec.dim >= 4 else 2
    curv = CurvatureData.compute(spec, m_max=m_max + 1)
    closed = integrability_tensors(curv.covR, m_max)
    recursion = tower_by_recursion(curv, m_max)
    assert len(closed) == len(recursion) == m_max + 1
    for new, old in zip(closed, recursion):
        assert new.order == old.order
        assert new.xi_coeff.shape == old.xi_coeff.shape
        assert new.a_coeff.shape == old.a_coeff.shape
        size = max(1.0, float(np.abs(old.xi_coeff).max()),
                   float(np.abs(old.a_coeff).max()))
        assert np.abs(new.xi_coeff - old.xi_coeff).max() <= 1e-12 * size
        assert np.abs(new.a_coeff - old.a_coeff).max() <= 1e-12 * size


def test_tower_annihilates_schwarzschild_killing_germs():
    # Schwarzschild's curvature is not parallel, so unlike on the locally
    # symmetric catalog charts the xi-columns of every level are nonzero
    spec = parse_manifold(SCHWARZSCHILD)
    curv = CurvatureData.compute(spec, m_max=2)
    assert np.abs(integrability_tensors(curv.covR, 0)[0].xi_coeff).max() > 1e-3
    for fld in SCHWARZSCHILD_FIELDS:
        germ = germ_of_field(spec, fld)
        assert germ_kernel_residual(spec, germ, m_max=3) <= 1e-12


def test_tower_rejects_a_wedge_germ_on_schwarzschild():
    spec = parse_manifold(SCHWARZSCHILD)
    g0 = spec.metric_values(spec.base_point)
    rng = np.random.default_rng(3)
    germ = KillingGerm(xi=rng.normal(size=4),
                       a=wedge(rng.normal(size=4), rng.normal(size=4), g0))
    assert germ_kernel_residual(spec, germ, m_max=3) > 1e-3
