"""Order-by-order traces of the Killing kernel and the holonomy span, pinned on
the catalog and on Schwarzschild at r0 = 5."""
import pytest

from killingkit.holonomy import parallel_field_check
from killingkit.killing import killing_dimension
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


# (Killing dims, Killing stabilisation order) or None when not pinned;
# (holonomy dims, number of parallel candidates)
@pytest.mark.parametrize("name,params,killing,holonomy", [
    ("euclidean", {"n": 3}, ([6, 6], 0), ([0, 0], 3)),
    ("minkowski", {"p": 1, "q": 2}, ([6, 6], 0), ([0, 0], 3)),
    ("sphere2", {}, ([3, 3], 0), ([1, 1], 0)),
    ("hyperbolic2", {}, ([3, 3], 0), ([1, 1], 0)),
    ("cahen_wallach", {"n": 1, "q": 1.0}, ([4, 4], 0), ([1, 1], 1)),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}, ([6, 6], 0), ([2, 2], 1)),
    ("walker_recurrent", {}, None, ([1, 2, 2], 0)),
    ("schwarzschild", None, ([5, 4, 4], 1), ([6, 6], 0)),
])
def test_traces_are_pinned(name, params, killing, holonomy):
    spec = parse_manifold(SCHWARZSCHILD) if params is None else builtin(name, **params)
    if killing is not None:
        rep = killing_dimension(spec)
        assert (rep.dims, rep.stabilization_order) == killing
    hol = parallel_field_check(spec).holonomy
    assert (hol.dims, len(hol.candidates)) == holonomy
