"""Snapshot the ``--json`` reports of killingkit, and diff two snapshots.

    python tools/report_snapshot.py OUT.json [--seeds 1 2 3]
    python tools/report_snapshot.py --diff A.json B.json

The first form runs every query of the benchmark workloads (``kernel``,
``transport`` and ``product``, built by ``perfbench/workloads.build`` for each
seed), every ``killingkit ...`` command in README.md, ``check-decomposition``
on the pairs of the product block law and on two factors far apart in scale
(``DECOMPOSITION_COMMANDS``), ``killing-dim``, ``holonomy``, ``hypothesis``
and ``check-decomposition`` at ``--order 0`` and ``--order 1``, where the
first depth of a frame ladder is capped by the order (``LOW_ORDER_COMMANDS``),
``parse --builtin`` of every builtin form that README.md, the tests and the
workloads use (``BUILTIN_FORMS``), the deepest product contractions
(``DEEP_COMMANDS``: ``product`` on cw2 x cw2 and on two cw1 factors,
``curvature --order 3`` on the cw1 x cw1 chart, ``transport`` of a Killing
field along three segments at the default 1000 steps on Schwarzschild and on
cw2, and at 17 steps on the cw2 x cw2 chart, and ``transport --germ`` of an
explicit germ on sphere2 along two segments at 30 steps and on the cw2 x cw2
chart at 17 steps, and, at depth 3 above n = 4, ``curvature --order 3`` on
cw3 (n = 5), ``product`` of the benchmark's cw2c and cw2d charts at
``--order 3`` (n = 8) and ``killing-dim --order 3`` on the cw2 x cw2 chart,
and ``transport --germ`` near sphere2's axis, where each segment is halved
into pieces, on sphere2 at 5 steps along a segment whose end is not
x0 + (x1 - x0), ``transport`` of a Killing field near Schwarzschild's axis
at 1000 steps, whose segments are halved, ``transport`` on a chart that
fails at a Chebyshev node and at no grid point, and of a Killing field on
sphere2 at 1 step), and a fixed list of commands
that must fail (``ERROR_COMMANDS``: Killing transport into a domain error, a
degenerate point or an overflow, an invalid step count, every command that
evaluates a point at three bad points, non-finite metric values and literals,
fields that fail at a point, builtin parameters the catalog refuses, a
transported field's failures at the path's ends, a chart given both as
``--builtin`` and as ``--file``, a malformed ``--germ``, chart files with a
syntax error (after a comment, a tab, on a CRLF line, on the last line, at
the end of the file, an unknown name, a non-integer exponent, trailing input
and a wrong row count), charts degenerate at their base point or at the
``--point`` given, fields with a syntax error, and ``curvature``,
``killing-dim``, ``holonomy`` and ``transport`` on a chart whose curvature
overflows where its metric jets are finite, transport on a chart that
fails at a grid point between Chebyshev nodes, and transport whose one
call of grid points overflows in the curvature at its first point and
fails in the metric at a later one, transport across a pole between two
grid points at 10 and at 1000 steps, and a transported field that fails
only at the end of a two-segment path), ``killing-dim`` and
``holonomy`` on that overflow chart at a flat point where the unit frame's
scale overflows (``KAPPA_COMMANDS``), and
``check-field`` and
``demo-counterexample`` on the fields they check (``FIELD_COMMANDS``: every
catalog Killing field, two fields that are not Killing, one and three
``--points`` and ``--point`` with ``--points``, generated samples that leave
a chart's domain, a field that fails at the base point, a tiny sphere, a
field whose 2-jet overflows where its 1-jet does not, and two plane-wave
products, and, last, ``--point`` moving the base point, without and with
``--points``), and ``killing-dim --multi-point`` where the points' traces
leave the lockstep loop at different orders, at the default order and at
``--order 0`` and ``--order 1``, where a nearby point leaves the chart's
domain, and on a 1-D chart (``MULTI_POINT_COMMANDS``), and, near a
coordinate axis, ``check-field`` of a rotation on sphere2 and on
Schwarzschild and ``curvature`` at ``--order 0`` and ``--order 1`` on both
(``AXIS_COMMANDS``), each with ``--json``,
through ``killingkit.cli.run`` of the package in this checkout's ``src/``.  It
writes one JSON file mapping each query to its exit code, stdout and
stderr.  Chart files go to a fixed directory
(``--workdir``), so snapshots taken from two checkouts name the same paths
and can be compared; take them one after the other, since a snapshot holds
a lock on the workdir and one started while another runs there exits 2.

The second form lists each query whose report differs between two snapshots,
with the largest absolute difference between floats of the two reports, that
difference relative to the largest |float| of the first snapshot's report
(a change that only rounds differently stays below about 1e-12 there), and
every place where anything else (an integer, a string, a flag, a length)
differs; then the ``field_germ_deviation`` of every transport report that
has one, first snapshot -> second.  It exits 1 when any report differs and 0
otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import fcntl
import io
import json
import math
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel", "transport", "product")
DEFAULT_WORKDIR = Path(tempfile.gettempdir()) / "killingkit-report-snapshot"

DECOMPOSITION_COMMANDS = [["check-decomposition", a, b] for a, b in [
    ("sphere2", "hyperbolic2"),
    ("sphere2", "cahen_wallach:n=1,q=1"),
    ("cahen_wallach:n=1,q=1", "cahen_wallach:n=1,q=-1"),
    ("cahen_wallach:n=2,q=1:2", "cahen_wallach:n=1,q=-1"),
    ("cahen_wallach:n=2,q=1:-1", "cahen_wallach:n=2,q=1:-1"),
    ("euclidean:n=2", "euclidean:n=2"),
    ("euclidean:n=1", "sphere2"),
    ("minkowski:p=1,q=2", "cahen_wallach:n=1,q=1"),
    ("walker_recurrent", "euclidean:n=1"),
    ("walker_recurrent", "cahen_wallach:n=1,q=1"),
    ("sphere2:r=0.001", "walker_recurrent"),
]]

# The orders at which a frame ladder's first depth is capped by --order, on a
# chart without and one with a parallel field, and on their product.
LOW_ORDER_COMMANDS = [
    [command, "--builtin", chart, "--order", str(order)]
    for order in (0, 1) for chart in ("sphere2", "cahen_wallach:n=1,q=1")
    for command in ("killing-dim", "holonomy", "hypothesis")
] + [["check-decomposition", "sphere2", "cahen_wallach:n=1,q=1", "--order", str(order)]
     for order in (0, 1)]

# The deepest product contractions, where skipping zero jet components
# saves the most: the mixed curvature of cw2 x cw2 and of two cw1 factors to
# order 3, and curvature to order 3 on the cw1 x cw1 chart ("{deep}", written
# to the workdir).  Then the longest transports, where frames are batched
# across segments: three segments at the default 1000 steps on
# Schwarzschild at r = 5 ("{schwarzschild}", written to the workdir) and on
# cw2, each with a Killing field of the chart.  Last, a field of the first
# factor on the cw2 x cw2 chart ("{cw2xcw2}", written to the workdir), n = 8,
# at 17 steps on three segments: each segment's 17 nodes take a call of
# their own.  Last, transport of an explicit germ, which is not a field's:
# on sphere2 along two segments at 30 steps, one frame batch with the path's
# end; and on the cw2 x cw2 chart along the same path as the field, at 17
# steps, where the batches end inside steps and the last one holds the end
# (A tridiagonal: 0.1 above the diagonal, -0.1 below).  Then the depth-3
# curvature above n = 4, where no workload class goes: curvature on cw3
# (n = 5), the product of the benchmark's two n = 4 plane waves cw2c and
# cw2d ("{cw2c}", "{cw2d}", written to the workdir at fixed base points) and
# the Killing tower of the cw2 x cw2 chart, each at --order 3.  Last, a
# transport near sphere2's axis, where the Chebyshev tail of Gamma does not
# decay on either segment at its nodes, so each is halved into pieces.
# Then transport of the same germ on sphere2 at 5 steps along a segment
# whose last node, the path's end exactly, is not x0 + (x1 - x0):
# 1.1 + (0.3 - 1.1) != 0.3.  Then a Killing field's transport on
# Schwarzschild from theta = 0.01 at the default 1000 steps, where neither
# segment is resolved at its nodes (one call), so both are halved.  Then
# transport on a chart whose tape divides 0 by 0 at x = sin^2(pi / 32), the
# second Chebyshev node of the segment and no grid point ("{nodeonly}",
# written to the workdir): the segment is halved.  Last, a workload-like
# transport of a rotation of sphere2 along two segments at 1 step.
CW2XCW2_GERM = ("--germ=1,0,0.5,0,0,-0.2,0,0.3|"
                + ";".join(",".join("0.1" if c == r + 1 else "-0.1" if c == r - 1 else "0"
                                    for c in range(8)) for r in range(8)))
DEEP_COMMANDS = [
    ["product", "cahen_wallach:n=2,q=1:-1", "cahen_wallach:n=2,q=1:-1"],
    ["product", "cahen_wallach:n=1,q=1", "cahen_wallach:n=1,q=-1"],
    ["curvature", "--file", "{deep}", "--order", "3"],
    ["transport", "--file", "{schwarzschild}",
     "--field=0,0,sin(ph),cos(ph) * cos(th) / sin(th)",
     "--path=0,5,1.57,0;0.3,5.4,1.3,0.2;0.1,4.8,1.7,-0.3;-0.2,5.2,1.5,0.4"],
    ["transport", "--builtin", "cahen_wallach:n=2,q=1:-1",
     "--field=0,-(1.4142135623730951 * cosh(1.4142135623730951 * t)) * x1,"
     "sinh(1.4142135623730951 * t),0",
     "--path=0,0,0,0;0.3,-0.2,0.4,0.1;0.1,0.5,-0.2,0.3;-0.2,0.1,0.1,-0.3"],
    ["transport", "--file", "{cw2xcw2}",
     "--field=0,-(1.4142135623730951 * cosh(1.4142135623730951 * a_t)) * a_x1,"
     "sinh(1.4142135623730951 * a_t),0,0,0,0,0",
     "--path=0,0,0,0,0,0,0,0;0.1,-0.2,0.3,0.1,0,0.2,-0.1,0.1;"
     "0.2,0.1,-0.1,0.3,0.1,0,0.2,-0.2;0,0.2,0.1,0,-0.2,0.1,0,0.3", "--steps", "17"],
    ["transport", "--builtin", "sphere2", "--germ=0,1|0,0.3;-0.3,0",
     "--path=1,0;1.2,0.1;1.1,0.3", "--steps", "30"],
    ["transport", "--file", "{cw2xcw2}", CW2XCW2_GERM,
     "--path=0,0,0,0,0,0,0,0;0.1,-0.2,0.3,0.1,0,0.2,-0.1,0.1;"
     "0.2,0.1,-0.1,0.3,0.1,0,0.2,-0.2;0,0.2,0.1,0,-0.2,0.1,0,0.3", "--steps", "17"],
    ["curvature", "--builtin", "cahen_wallach:n=3,q=1:-1:2", "--order", "3"],
    ["product", "@{cw2c}", "@{cw2d}", "--order", "3"],
    ["killing-dim", "--file", "{cw2xcw2}", "--order", "3"],
    ["transport", "--builtin", "sphere2", "--germ=0,1|0,0.3;-0.3,0",
     "--path=0.01,0;0.3,0.2;0.6,0.5", "--steps", "30"],
    ["transport", "--builtin", "sphere2", "--germ=0,1|0,0.3;-0.3,0",
     "--path=1.1,0;0.3,0.2", "--steps", "5"],
    ["transport", "--file", "{schwarzschild}",
     "--field=0,0,sin(ph),cos(ph) * cos(th) / sin(th)",
     "--path=0,5,0.01,0;0.3,5.4,0.1,0.2;0.1,4.8,0.3,-0.3"],
    ["transport", "--file", "{nodeonly}", "--germ", "1,0|0,0;0,0", "--path", "0,0;1,0",
     "--steps", "10"],
    ["transport", "--builtin", "sphere2",
     "--field=-sin(phi),-cos(phi) * cos(theta) / sin(theta)",
     "--path=1.2,0.3;1.4,0.45;1.3,0.7", "--steps", "1"],
]

# x = sin^2(pi / 32) as the Chebyshev nodes of a segment from x = 0 to 1 give
# it, where the "{nodeonly}" chart's tape divides 0 by 0.
NODE_ONLY_C = 0.009607359798384776

# Every builtin form that README.md, the tests and the workloads use, each
# parsed, so that a snapshot pins every catalog chart as built.
BUILTIN_FORMS = [
    "euclidean", "euclidean:n=1", "euclidean:n=2", "euclidean:n=3",
    "minkowski", "minkowski:p=1,q=1", "minkowski:p=1,q=2", "minkowski:p=1,q=3",
    "sphere2", "sphere2:r=2", "sphere2:r=0.0001", "sphere2:r=0.001", "sphere2:r=1000",
    "sphere2:r=10000", "hyperbolic2", "cahen_wallach", "cahen_wallach:n=1,q=1",
    "cahen_wallach:n=1,q=-1", "cahen_wallach:n=1,q=-2", "cahen_wallach:n=2,q=1:-1",
    "cahen_wallach:n=2,q=1:2", "walker_recurrent",
]

# Builtin parameters the catalog refuses: a list where a number is expected,
# a count that is not an integer, a key the builtin does not take, and a key
# given twice.
BAD_BUILTINS = ["sphere2:r=1:2", "euclidean:n=1:2", "cahen_wallach:n=1:1",
                "euclidean:n=2.5", "minkowski:p=1.7", "hyperbolic2:r=3", "sphere2:foo=1",
                "euclidean:n=2,n=3", "sphere2:r=", "cahen_wallach:n=2,q=1:"]

# Charts of the error and field commands, written to the workdir; "{name}"
# in an argument becomes the path of chart ``name``.
ERROR_CHARTS = {
    "sqrt": ("manifold sq {\n  coordinates: x, y;\n"
             "  metric: [[1 + sqrt(y), 0], [0, 2 + sqrt(y + 0.5)]];\n"
             "  base_point: (0, 1);\n}\n"),
    "exp": ("manifold ex {\n  coordinates: x, y;\n"
            "  metric: [[1 + exp(x) * exp(-x), 0], [0, 1]];\n}\n"),
    "sqrtx": ("manifold sq {\n  coordinates: x, y;\n"
              "  metric: [[sqrt(x), 0], [0, 1]];\n  base_point: (1, 0);\n}\n"),
    "pow400": ("manifold big {\n  coordinates: x, y;\n"
               "  metric: [[x^400, 0], [0, 1]];\n  base_point: (1, 0);\n}\n"),
    "infprod": ("manifold inf {\n  coordinates: x, y;\n"
                "  metric: [[1e200 * 1e200 * x, 0], [0, 1]];\n}\n"),
    "lit400": ("manifold lit {\n  coordinates: x, y;\n"
               "  metric: [[10^400, 0], [0, 1]];\n}\n"),
    "sqrtend": ("manifold sq {\n  coordinates: x, y;\n"
                "  metric: [[1 + sqrt(x - 0.3), 0], [0, 1]];\n  base_point: (1, 0);\n}\n"),
    "sqrtlow": ("manifold sq {\n  coordinates: x, y;\n"
                "  metric: [[1 + sqrt(y), 0], [0, 2 + sqrt(y + 0.5)]];\n"
                "  base_point: (0, 0.05);\n}\n"),
    # malformed files: the parse error's message, line and column
    "badcomment": ("manifold m {  # a comment\n  coordinates: x, y; # another\n"
                   "  metric: [[1, 0], [0, 1]]; # note ; @\n  @\n}\n"),
    "badtab": "manifold m {\n\tcoordinates:\tx, y;\n\t\tmetric: [[1, 0],\t[0, $]];\n}\n",
    "badcrlf": ("manifold m {\r\n  coordinates: x, y;\r\n"
                "  metric: [[1, 0], [0, 1]];\r\n  base_point: (1, ?);\r\n}\r\n"),
    "badlastline": ("manifold m {\n  coordinates: x, y;\n"
                    "  metric: [[1, 0], [0, 1]];\n} }"),
    "badeof": "manifold m {\n  coordinates: x, y;\n  metric: [[1, 0], [0, 1]];\n  ",
    "badident": ("manifold m {\n  coordinates: x, y;\n"
                 "  metric: [[1, 0], [0, 1 + z^2]];\n}\n"),
    "badexponent": ("manifold m {\n  coordinates: x, y;\n"
                    "  metric: [[1, 0], [0, 1 + x^2.5]];\n}\n"),
    "badtrailing": ("manifold m {\n  coordinates: x, y;\n"
                    "  metric: [[1, 0], [0, 1]];\n}\nmanifold n {\n"),
    "badrows": ("manifold m {\n  coordinates: x, y, z;\n"
                "  metric: [[1, 0, 0],\n           [1, 0]];\n}\n"),
    # degenerate at the base point; nondegenerate there and degenerate at x = 0
    "degenerate": ("manifold d {\n  coordinates: x, y;\n"
                   "  metric: [[x^2, 0], [0, 1]];\n}\n"),
    "degenerateoff": ("manifold d {\n  coordinates: x, y;\n"
                      "  metric: [[x^2, 0], [0, 1]];\n  base_point: (1, 0);\n}\n"),
    # analytic, but failing at x = 0.05, a grid point between Chebyshev nodes
    "removable": ("manifold rs {\n  coordinates: x, y;\n"
                  "  metric: [[2 + sin(x - 0.05) / (x - 0.05), 0], [0, 1]];\n"
                  "  base_point: (0.5, 0);\n}\n"),
    # finite metric jets whose curvature chain overflows at the base point
    "overflow": ("manifold over {\n  coordinates: x, y;\n"
                 "  metric: [[1e-300 + 1e10 * x, 0], [0, 1]];\n  base_point: (0, 0);\n}\n"),
    # the curvature overflows at x = 0, sqrt(1 - y) leaves its domain at y = 1
    "overflowsqrt": ("manifold over {\n  coordinates: x, y;\n"
                     "  metric: [[1e-300 + 1e10 * x, 0], [0, 1 + sqrt(1 - y)]];\n"
                     "  base_point: (1, 0);\n}\n"),
    # g_xx has a pole at x = 0.123, where it changes sign
    "pole": ("manifold pole {\n  coordinates: x, y;\n"
             "  metric: [[1 + 1 / (x - 0.123), 0], [0, 1]];\n  base_point: (0.2, 0);\n}\n"),
}

# Every command that evaluates a point, at a bad point of each chart: the
# chart's arguments, the point and a transport path that meets it first.
BAD_POINTS = [
    (["--builtin", "hyperbolic2"], "0,0", "0,1;0,-1"),
    (["--file", "{sqrtx}"], "-1,0", "-1,0;1,0"),
    (["--file", "{pow400}"], "10,0", "10,0;11,0"),
]
POINT_COMMANDS = [["curvature", "--point={point}"], ["killing-dim", "--point={point}"],
                  ["holonomy", "--point={point}"], ["hypothesis", "--point={point}"],
                  ["check-field", "--field", "1,0", "--point={point}"],
                  ["transport", "--field", "1,0", "--path={path}", "--steps", "2"]]

ERROR_COMMANDS = [
    # the first failing grid point, on the first and on a later segment
    ["transport", "--builtin", "hyperbolic2", "--field", "1,0", "--path", "0,1;0,-1",
     "--steps", "10"],
    ["transport", "--file", "{sqrt}", "--field", "1,0", "--path", "0,1;0,-1.3",
     "--steps", "7"],
    ["transport", "--builtin", "hyperbolic2", "--field", "1,0",
     "--path", "0,2;0,1;0.5,-1", "--steps", "10"],
    # overflow of exp, in the first block of steps and in a later one
    ["transport", "--file", "{exp}", "--field", "0,1", "--path", "0,0;1000,0",
     "--steps", "10"],
    ["transport", "--file", "{exp}", "--field", "0,1", "--path", "0,0;1000,0",
     "--steps", "1000"],
    # a degenerate point, and no steps at all
    ["transport", "--builtin", "sphere2", "--field", "0,1", "--path", "1,0;-1,0",
     "--steps", "10"],
    ["transport", "--builtin", "sphere2", "--field", "0,1", "--path", "1,0;-1,0",
     "--steps", "0"],
    # non-finite metric values, and a literal that overflows
    ["curvature", "--file", "{infprod}"],
    ["parse", "--file", "{lit400}"],
    # fields that overflow or leave their domain at a point
    ["check-field", "--builtin", "euclidean:n=2", "--field", "exp(x1),0",
     "--point", "1000,0"],
    ["transport", "--builtin", "euclidean:n=2", "--field", "exp(x1),0",
     "--path", "1000,0;1000,1", "--steps", "2"],
    ["check-field", "--builtin", "euclidean:n=2", "--field", "0,1 / x1", "--point", "0,0"],
    ["transport", "--builtin", "euclidean:n=2", "--field", "0,1 / x1",
     "--path", "0,0;0,1", "--steps", "2"],
] + [[command[0], *chart, *(arg.format(point=point, path=path) for arg in command[1:])]
     for chart, point, path in BAD_POINTS for command in POINT_COMMANDS
] + [argv for chart in BAD_BUILTINS
     for argv in (["killing-dim", "--builtin", chart], ["check-decomposition", chart, "sphere2"])
] + [
    # the failure at a transported field's start: the field before a later
    # grid point, the chart before the field
    ["transport", "--builtin", "hyperbolic2", "--field", "1/x,0", "--path", "0,1;0,-1",
     "--steps", "10"],
    ["transport", "--builtin", "hyperbolic2", "--field", "1/x,0", "--path", "0,0;0,-1",
     "--steps", "10"],
    # the field failing only at the path's end, after a clean path; the chart
    # failing only there (the last grid point is 0.30000000000000004), before
    # the field
    ["transport", "--builtin", "euclidean:n=2", "--field", "0,1/x1", "--path", "1,0;0,0",
     "--steps", "10"],
    ["transport", "--file", "{sqrtend}", "--field", "1/(x - 0.3),0", "--path", "1.1,0;0.3,0",
     "--steps", "10"],
    # two input charts
    ["killing-dim", "--builtin", "euclidean:n=2", "--file", "{sqrtx}"],
    # a germ whose A has one row where the chart needs two
    ["transport", "--builtin", "sphere2", "--germ", "0,1|0,0", "--path", "1,0;1.2,0.1",
     "--steps", "10"],
] + [["parse", "--file", "{%s}" % name]
     for name in ERROR_CHARTS if name.startswith("bad")] + [
    # a chart degenerate at its base point, with and without --point
    # elsewhere; a chart degenerate only at the --point given
    ["killing-dim", "--file", "{degenerate}"],
    ["killing-dim", "--file", "{degenerate}", "--point=1,0"],
    ["killing-dim", "--file", "{degenerateoff}", "--point=0,0"],
    ["holonomy", "--file", "{degenerateoff}", "--point=0,0.5"],
    # a field with a syntax error
    ["check-field", "--builtin", "sphere2", "--field", "0,sin(theta"],
    ["check-field", "--builtin", "sphere2", "--field", "0,2 $ theta"],
    ["transport", "--builtin", "sphere2", "--field", "0,theta^0.5", "--path", "1,0;1.2,0.1",
     "--steps", "10"],
    # a curvature chain that overflows where the metric's jets are finite
    ["curvature", "--file", "{overflow}"],
    ["killing-dim", "--file", "{overflow}"],
    ["holonomy", "--file", "{overflow}"],
    ["transport", "--file", "{overflow}", "--germ", "1,0|0,0;0,0", "--path", "0,0;0,1",
     "--steps", "10"],
    # a chart that fails at a grid point and at none of the segment's nodes
    ["transport", "--file", "{removable}", "--germ", "1,0|0,0;0,0", "--path", "0,0;1,0",
     "--steps", "10"],
    # one call of grid points whose metric fails at a later point and whose
    # curvature overflows at the first: the curvature error comes first
    ["transport", "--file", "{overflowsqrt}", "--germ", "1,0|0,0;0,0",
     "--path", "0,0.5;0,1.5", "--steps", "4"],
    # a pole between two grid points, where det g changes sign, at 10 and at
    # 1000 steps
    ["transport", "--file", "{pole}", "--germ", "1,0|0,0;0,0", "--path", "0.1,0;0.2,0",
     "--steps", "10"],
    ["transport", "--file", "{pole}", "--germ", "1,0|0,0;0,0", "--path", "0.1,0;0.2,0",
     "--steps", "1000"],
    # a field failing only at the end of a two-segment path on a chart that
    # evaluates everywhere
    ["transport", "--builtin", "cahen_wallach:n=2,q=1:-1", "--field", "1,0,0,1/(x2 - 0.3)",
     "--path", "0,0,0,0;0.1,0.1,0.1,0.1;0.2,0.2,0.1,0.3", "--steps", "30"],
]

# The overflow chart at a flat point where kappa^(m + 2), the unit frame's
# scale, overflows though every covR entry is finite.
KAPPA_COMMANDS = [[command, "--file", "{overflow}", "--point=1e-100,0"]
                  for command in ("killing-dim", "holonomy")]

# check-field on every Killing field of the catalog charts that have some
# (``known_killing_fields``), then on the cases where the field or its
# sample points do not all evaluate, or where a verdict rests on few points.
FIELD_CATALOG = ["euclidean", "minkowski", "sphere2", "hyperbolic2", "cahen_wallach"]
FIELD_COMMANDS = [
    # two fields that are not Killing
    ["check-field", "--builtin", "sphere2", "--field", "1,0"],
    ["check-field", "--builtin", "euclidean:n=2", "--field", "x1,x2"],
    # one and three named sample points, and --point with --points
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--points", "1,0"],
    ["check-field", "--builtin", "hyperbolic2", "--field", "x,y",
     "--points", "0,1;0.3,1.2;-0.4,0.7"],
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--point", "1,0",
     "--points", "1.2,0.3;0.8,-0.5"],
    # a generated sample point at y = -0.0025 outside the chart's domain: one
    # point error in each check
    ["check-field", "--file", "{sqrtlow}", "--field", "1,0"],
    # the field fails at the base point
    ["check-field", "--builtin", "euclidean:n=2", "--field", "0,1/x1"],
    # a tiny sphere, where a tolerance in chart units passes a non-Killing field
    ["check-field", "--builtin", "sphere2:r=1e-5", "--field", "1,0"],
    # the field's 1-jet is finite at the point, its 2-jet is not
    ["check-field", "--builtin", "euclidean:n=2", "--field", "x1^1730,0",
     "--points", "1.5,0"],
    ["demo-counterexample", "--n-plus", "2", "--q-plus", "1:2"],
    ["demo-counterexample", "--q-plus", "0.5", "--q-minus", "-2"],
    # --point sets the base point: the germ is taken there, and the samples
    # are it and its nearby points, or it and the --points entries
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--point", "1,0.5"],
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--point", "1,0.5",
     "--points", "1.2,0.4"],
]


# killing-dim --multi-point: on a chart whose base point is not regular
# (g = diag(1, 1 + x^4) at the origin: the traces [3, 2, 1, 1] there and at
# the two points off it in y, [2, 1, 1] at the other three) and on
# Schwarzschild at r = 5 ("{schwarzschild}", as in DEEP_COMMANDS), each at
# the default order, --order 0 and --order 1; then a chart where the
# nearby point (-0.0405, 0) leaves the domain of sqrt(x), an error; last, a
# 1-D chart, whose nearby points wrap around its one axis.
MULTI_POINT_CHARTS = {
    "quartic": ("manifold quartic {\n  coordinates: x, y;\n"
                "  metric: [[1, 0], [0, 1 + x^4]];\n  base_point: (0, 0);\n}\n"),
    "sqrtnear": ("manifold sqrtnear {\n  coordinates: x, y;\n"
                 "  metric: [[1 + sqrt(x), 0], [0, 1]];\n  base_point: (0.01, 0);\n}\n"),
}
MULTI_POINT_COMMANDS = [
    ["killing-dim", "--multi-point", "--file", chart, *order]
    for chart in ("{quartic}", "{schwarzschild}")
    for order in ([], ["--order", "0"], ["--order", "1"])
] + [["killing-dim", "--multi-point", "--file", "{sqrtnear}"],
      ["killing-dim", "--multi-point", "--builtin", "euclidean:n=1"]]

# Near a coordinate axis, where g^-1 and Gamma are large: check-field of
# sphere2's rotation d/dphi at theta = 3e-5 and 1e-5, and of Schwarzschild's
# ("{schwarzschild}", as in DEEP_COMMANDS) at theta = 1e-3, whose first
# prolongation cancels to rounding only if its connection is taken as
# before; then curvature at --order 0 and --order 1 on both charts.
AXIS_COMMANDS = [
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--point", "3e-05,0.4"],
    ["check-field", "--builtin", "sphere2", "--field", "0,1", "--point", "1e-05,0.4"],
    ["check-field", "--file", "{schwarzschild}",
     "--field=0,0,sin(ph),cos(ph) * cos(th) / sin(th)", "--point", "0,5,0.001,0"],
] + [["curvature", *chart, "--order", str(order)]
     for chart in (["--builtin", "sphere2"], ["--file", "{schwarzschild}"])
     for order in (0, 1)]


def readme_commands(readme):
    """The argv of every ``killingkit ...`` line of README.md's code blocks,
    with backslash continuations joined."""
    commands, pending, in_block = [], "", False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if line.startswith("killingkit "):
            commands.append(shlex.split(line)[1:])
    return commands


def run_query(cli, argv):
    """Exit code, stdout and stderr of one query.  An uncaught exception is
    recorded as the command line would show it: exit 1, and the last line
    of the traceback appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv) + ["--json"])
        except Exception as exc:
            code = 1
            print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def snapshot(seeds, workdir):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from killingkit import cli, metricdsl
    from killingkit.metricdsl import known_killing_fields
    from killingkit.product import product_metric

    import workloads

    reports = {}
    for workload in WORKLOADS:
        for seed in seeds:
            queries = workloads.build(workload, seed, str(workdir / workload),
                                      known_killing_fields)
            for i, q in enumerate(queries):
                reports[f"{workload}.{seed}.{i:02d}.{q.name}"] = run_query(cli, q.argv)
    for i, argv in enumerate(readme_commands(ROOT / "README.md")):
        reports[f"readme.{i}.{argv[0]}"] = run_query(cli, argv)
    for i, argv in enumerate(DECOMPOSITION_COMMANDS):
        reports[f"decomposition.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    for i, argv in enumerate(LOW_ORDER_COMMANDS):
        reports[f"low_order.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    for i, chart in enumerate(BUILTIN_FORMS):
        reports[f"builtin_forms.{i:02d}.parse"] = run_query(cli, ["parse", "--builtin", chart])
    deep = {"deep": workdir / "deep" / "cw1xcw1.man",
            "schwarzschild": workdir / "deep" / "schwarzschild.man",
            "cw2xcw2": workdir / "deep" / "cw2xcw2.man",
            "cw2c": workdir / "deep" / "cw2c.man", "cw2d": workdir / "deep" / "cw2d.man",
            "nodeonly": workdir / "deep" / "nodeonly.man"}
    deep["deep"].parent.mkdir(parents=True, exist_ok=True)
    cw1 = metricdsl.builtin("cahen_wallach", n=1, q=1.0)
    deep["deep"].write_text(product_metric(cw1, cw1).combined.serialize(),
                            encoding="utf-8")
    deep["schwarzschild"].write_text(workloads.schwarzschild_chart([0.0, 5.0, 1.57, 0.0]),
                                     encoding="utf-8")
    cw2 = metricdsl.builtin("cahen_wallach", n=2, q=[1.0, -1.0])
    deep["cw2xcw2"].write_text(product_metric(cw2, cw2).combined.serialize(),
                               encoding="utf-8")
    deep["cw2c"].write_text(workloads.cahen_wallach_chart([1.0, 2.0], [0.3, -0.2, 0.1, -0.25]),
                            encoding="utf-8")
    deep["cw2d"].write_text(workloads.cahen_wallach_chart([-1.0, -2.0], [-0.4, 0.1, 0.2, 0.15]),
                            encoding="utf-8")
    c = repr(NODE_ONLY_C)
    deep["nodeonly"].write_text(
        "manifold nodeonly {\n  coordinates: x, y;\n"
        f"  metric: [[2 + sin(x - {c}) / (x - {c}), 0], [0, 1]];\n"
        "  base_point: (0.5, 0);\n}\n", encoding="utf-8")
    for i, argv in enumerate(DEEP_COMMANDS):
        argv = [arg.format(**deep) for arg in argv]
        reports[f"deep.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    charts = {}
    (workdir / "errors").mkdir(parents=True, exist_ok=True)
    for name, text in ERROR_CHARTS.items():
        charts[name] = workdir / "errors" / f"{name}.man"
        charts[name].write_text(text, encoding="utf-8")
    for i, argv in enumerate(ERROR_COMMANDS):
        argv = [arg.format(**charts) for arg in argv]
        reports[f"errors.{i}.{argv[0]}"] = run_query(cli, argv)
    for i, argv in enumerate(KAPPA_COMMANDS):
        argv = [arg.format(**charts) for arg in argv]
        reports[f"kappa.{i}.{argv[0]}"] = run_query(cli, argv)
    fields = [["check-field", "--builtin", chart, "--field=" + ",".join(fld)]
              for chart in FIELD_CATALOG for fld in known_killing_fields(chart)]
    for i, argv in enumerate(fields + FIELD_COMMANDS):
        argv = [arg.format(**charts) for arg in argv]
        reports[f"fields.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    (workdir / "multi_point").mkdir(parents=True, exist_ok=True)
    for name, text in MULTI_POINT_CHARTS.items():
        charts[name] = workdir / "multi_point" / f"{name}.man"
        charts[name].write_text(text, encoding="utf-8")
    for i, argv in enumerate(MULTI_POINT_COMMANDS):
        argv = [arg.format(**charts, schwarzschild=deep["schwarzschild"]) for arg in argv]
        reports[f"multi_point.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    for i, argv in enumerate(AXIS_COMMANDS):
        argv = [arg.format(schwarzschild=deep["schwarzschild"]) for arg in argv]
        reports[f"axis.{i:02d}.{argv[0]}"] = run_query(cli, argv)
    return reports


def compare(a, b, path="", floats=None, others=None):
    """Walk two decoded reports together.  Returns the largest absolute float
    difference as (difference, path) and the paths where anything else
    differs."""
    floats = [0.0, None] if floats is None else floats
    others = [] if others is None else others
    if a == b:
        pass
    elif isinstance(a, float) and isinstance(b, float) and math.isfinite(a - b):
        if abs(a - b) > floats[0]:
            floats[:] = [abs(a - b), path]
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                others.append(f"{path}.{key}")
            else:
                compare(a[key], b[key], f"{path}.{key}", floats, others)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            others.append(f"{path}[len]")
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", floats, others)
    else:
        others.append(path)
    return floats, others


def largest_float(report):
    """The largest finite |float| anywhere in a decoded report, or 0."""
    if isinstance(report, float):
        return abs(report) if math.isfinite(report) else 0.0
    if isinstance(report, dict):
        report = list(report.values())
    if isinstance(report, list):
        return max((largest_float(v) for v in report), default=0.0)
    return 0.0


def diff(path_a, path_b):
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    differing = 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print(f"{key}: only in {path_a if key in a else path_b}")
            differing += 1
            continue
        ra, rb = a[key], b[key]
        if ra == rb:
            continue
        differing += 1
        notes = []
        if ra["code"] != rb["code"]:
            notes.append(f"exit {ra['code']} -> {rb['code']}")
        if ra["stderr"] != rb["stderr"]:
            notes.append(f"stderr {ra['stderr'].strip()!r} -> {rb['stderr'].strip()!r}")
        if ra["stdout"] != rb["stdout"]:
            try:
                doc_a = json.loads(ra["stdout"])
                (largest, where), others = compare(doc_a, json.loads(rb["stdout"]))
            except ValueError:
                notes.append("stdout differs and is not JSON")
            else:
                if where is not None:
                    scale = largest_float(doc_a)
                    relative = f"{largest / scale:.3g}" if scale else "inf"
                    notes.append(f"max |float diff| {largest:.3g} at {where}, "
                                 f"{relative} of max |float| {scale:.3g}")
                if others:
                    shown = ", ".join(others[:5])
                    more = f" (+{len(others) - 5} more)" if len(others) > 5 else ""
                    notes.append(f"other differences at {shown}{more}")
        print(f"{key}: {'; '.join(notes)}")
    print(f"{differing} of {len(set(a) | set(b))} queries differ")
    print(f"field_germ_deviation, {path_a} -> {path_b}:")
    for key in sorted(set(a) & set(b)):
        devs = [field_germ_deviation(r[key]) for r in (a, b)]
        if a[key]["argv"][0] == "transport" and devs != [None, None]:
            print(f"  {key}: {devs[0]!r} -> {devs[1]!r}")
    return 1 if differing else 0


def field_germ_deviation(report):
    """The ``field_germ_deviation`` of a query's JSON report, or None."""
    try:
        return json.loads(report["stdout"])["result"].get("field_germ_deviation")
    except (ValueError, KeyError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="snapshot file to write")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two snapshot files instead")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workdir", type=Path, default=DEFAULT_WORKDIR,
                        help=f"where chart files are written (default {DEFAULT_WORKDIR})")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        parser.error("give a snapshot file to write, or --diff A B")
    args.workdir.mkdir(parents=True, exist_ok=True)
    # two snapshots sharing a workdir would overwrite each other's chart files
    with open(args.workdir / "snapshot.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: workdir {args.workdir} is in use by another snapshot",
                  file=sys.stderr)
            return 2
        reports = snapshot(args.seeds, args.workdir)
    Path(args.out).write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"{len(reports)} reports written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
