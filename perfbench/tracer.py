"""Per-layer spans around killingkit's public functions, installed from outside
the package.

``Tracer.install`` replaces every public function of the layer modules at
every binding site: the defining module and each module that imported it by
name (``from .curvature import point_frame`` in ``killing`` is a second
binding that patching ``curvature`` alone would miss).  ``CurvatureData.compute``
is patched on the class, which every caller reaches.  ``numpy.linalg.svd`` is
wrapped too and each call is attributed to the layer of the innermost open
span.  ``uninstall`` restores the original objects, so untraced passes run the
unmodified program.

Spans are aggregated in memory per pass of the query mix: call counts and
inclusive times per function, plus counts computed from operand shapes.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import math
import statistics
import sys
import time

import numpy as np

LAYERS = ("metricdsl", "jets", "curvature", "killing", "holonomy", "product")

# Scalar jet arithmetic runs thousands of times per metric evaluation; these
# are counted but not timed, to keep the traced run's overhead down.
COUNT_ONLY = {"jets.jet_mul", "jets.jet_add", "jets.jet_partial", "jets.jet_elementary"}

TRANSPORT = "killing.killing_transport"
COMPUTE = "curvature.compute"


def mul_table_pairs(n_vars, qa, qb, qout):
    """Number of (alpha, beta) multi-index pairs in a truncated Cauchy product:
    |alpha| <= qa, |beta| <= qb, |alpha + beta| <= qout, in n_vars variables.
    This is the length of the product's multiplication table."""
    def count(d):
        return math.comb(d + n_vars - 1, n_vars - 1)
    return sum(count(da) * count(db)
               for da in range(qa + 1) for db in range(qb + 1) if da + db <= qout)


def tensor_product_cost(sub, a, b, order):
    """Computed multiply-adds and gathered bytes of one ``tensor_product``.

    The contraction gathers both operands along the table's pairs and runs
    one einsum over every index letter and the pair axis.
    """
    lhs, _ = sub.split("->")
    la, lb = lhs.split(",")
    dims = {}
    for letters, arr in ((la, a.array), (lb, b.array)):
        for axis, c in enumerate(letters):
            dims[c] = arr.shape[axis]
    qout = min(a.order, b.order) if order is None else order
    pairs = mul_table_pairs(a.n_vars, a.order, b.order, qout)
    madds = pairs * math.prod(dims.values())
    gathered = pairs * (math.prod(a.array.shape[:-1]) * a.array.itemsize
                        + math.prod(b.array.shape[:-1]) * b.array.itemsize)
    return madds, gathered, (a.n_vars, a.order, b.order, qout), pairs


class PassStats:
    """Everything recorded during one pass of the query mix."""

    def __init__(self):
        self.calls = {}
        self.ms = {}
        self.svd_calls = {}
        self.svd_ms = {}
        self.svd_decisions = 0
        self.madds = 0
        self.gather_bytes = 0
        self.stack_rows_max = 0
        self.stack_bytes_max = 0
        self.levels_built = 0
        self.levels_used = 0
        self.transport_steps = 0
        self.frame_in_transport_ms = 0.0
        self.factor_ms = 0.0
        self.holonomy_queries = 0
        self.holonomy_computes = 0
        self.query_ms = 0.0
        self.library_ms = 0.0
        # per query class: counts that depend only on operand shapes
        self.shape_counts = {}


class Tracer:
    """Wraps the public functions of a killingkit package object in spans."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"]
                        for name in LAYERS}
        self.stack = []
        self.stats = PassStats()
        self.query = None
        self.query_class = None
        self.query_seen = set()
        self.table_sizes = {}
        self._patches = []
        self._wrappers = self._build_wrappers()

    # -- installation -----------------------------------------------------------

    def _build_wrappers(self):
        wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(span, layer, obj))
        return wrappers

    def install(self):
        if self._patches:
            return
        pkg = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cdata = self.modules["curvature"].CurvatureData
        compute = cdata.__dict__["compute"]
        self._patches.append((cdata, "compute", compute))
        cdata.compute = classmethod(self._wrap(COMPUTE, "curvature", compute.__func__))
        svd = np.linalg.svd
        self._patches.append((np.linalg, "svd", svd))
        np.linalg.svd = self._wrap_svd(svd)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def _wrap(self, span, layer, fn):
        tracer = self
        if span in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls = tracer.stats.calls
                calls[span] = calls.get(span, 0) + 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = (span, layer, args)
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = (time.perf_counter() - t0) * 1e3
                tracer.stack.pop()
                tracer._close(span, args, dt)
            tracer._observe(span, args, kwargs, result)
            return result
        return timed

    def _close(self, span, args, dt):
        st = self.stats
        st.calls[span] = st.calls.get(span, 0) + 1
        if not any(f[0] == span for f in self.stack):   # outermost of a recursion
            st.ms[span] = st.ms.get(span, 0.0) + dt
        if span == COMPUTE and self.query in ("holonomy", "hypothesis"):
            st.holonomy_computes += 1
        if not self.stack:
            st.library_ms += dt
            return
        parent = self.stack[-1]
        if span == "curvature.point_frame" and any(f[0] == TRANSPORT for f in self.stack):
            st.frame_in_transport_ms += dt
        if (parent[0] == "product.decomposition_check"
                and span in ("killing.killing_dimension", "holonomy.parallel_field_check")
                and args and any(args[0] is f for f in parent[2][:2])):
            st.factor_ms += dt

    def _shape_count(self, key, value):
        counts = self.stats.shape_counts.setdefault(self.query_class, {})
        counts[key] = counts.get(key, 0) + value

    def _observe(self, span, args, kwargs, result):
        """Counts computed from a call's operands or result."""
        st = self.stats
        if span == "jets.tensor_product":
            sub, a, b = args[:3]
            order = args[3] if len(args) > 3 else kwargs.get("order")
            madds, gathered, key, pairs = tensor_product_cost(sub, a, b, order)
            st.madds += madds
            st.gather_bytes += gathered
            self.table_sizes[key] = pairs
            self._shape_count("madds", madds)
            self._shape_count("gather_bytes", gathered)
        elif span == "killing.integrability_tensors":
            rows = sum(math.prod(t.xi_coeff.shape[:-1]) for t in result)
            nbytes = sum(t.xi_coeff.nbytes + t.a_coeff.nbytes for t in result)
            st.stack_rows_max = max(st.stack_rows_max, rows)
            st.stack_bytes_max = max(st.stack_bytes_max, nbytes)
            st.levels_built += len(result)
            self._shape_count("stack_rows", rows)
            self._shape_count("stack_bytes", nbytes)
        elif span == "killing.killing_dimension":
            reports = getattr(result, "reports", [result])
            st.levels_used += sum(len(r.dims) for r in reports)
        elif span == TRANSPORT:
            path = args[2] if len(args) > 2 else kwargs["path"]
            steps = args[3] if len(args) > 3 else kwargs.get("steps_per_segment", 1000)
            st.transport_steps += (len(path) - 1) * steps
            self._shape_count("transport_steps", (len(path) - 1) * steps)

    def _wrap_svd(self, svd):
        tracer = self

        @functools.wraps(svd)
        def traced_svd(a, *args, **kwargs):
            layer = tracer.stack[-1][1] if tracer.stack else "cli"
            t0 = time.perf_counter()
            result = svd(a, *args, **kwargs)
            dt = (time.perf_counter() - t0) * 1e3
            st = tracer.stats
            st.svd_calls[layer] = st.svd_calls.get(layer, 0) + 1
            st.svd_ms[layer] = st.svd_ms.get(layer, 0.0) + dt
            arr = np.ascontiguousarray(a)
            key = (arr.shape, arr.dtype.str,
                   hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
            if key not in tracer.query_seen:
                tracer.query_seen.add(key)
                st.svd_decisions += 1
            return result
        return traced_svd

    # -- passes -----------------------------------------------------------------

    def begin_pass(self):
        self.stats = PassStats()

    def begin_query(self, query_class, command):
        self.query_class = query_class
        self.query = command
        self.query_seen = set()
        if command in ("holonomy", "hypothesis"):
            self.stats.holonomy_queries += 1

    def end_query(self, wall_ms):
        self.stats.query_ms += wall_ms


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(passes, mul_table_misses, overhead):
    """Per-layer metrics from the traced passes.  Times are medians over
    passes; counts are those of the first pass (the self-check requires every
    pass to repeat them exactly)."""
    first = passes[0]

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def ms(span):
        return med(lambda p: p.ms.get(span, 0.0))

    def calls(span):
        return first.calls.get(span, 0)

    svd_calls = sum(first.svd_calls.values())
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("metricdsl.metric_jets.calls", calls("metricdsl.metric_jets"), "count/pass")
    put("metricdsl.metric_jets.ms", ms("metricdsl.metric_jets"), "ms/pass")
    put("jets.jet_mul.calls", calls("jets.jet_mul"), "count/pass")
    put("curvature.point_frame.calls", calls("curvature.point_frame"), "count/pass")
    put("curvature.point_frame.ms", ms("curvature.point_frame"), "ms/pass")
    put("killing.transport.steps", first.transport_steps, "count/pass")
    put("killing.transport.ms", ms(TRANSPORT), "ms/pass")
    put("killing.transport.frame_share",
        med(lambda p: _ratio(p.frame_in_transport_ms, p.ms.get(TRANSPORT, 0.0))), "ratio")
    put("jets.tensor_product.calls", calls("jets.tensor_product"), "count/pass")
    put("jets.tensor_product.ms", ms("jets.tensor_product"), "ms/pass")
    put("jets.tensor_product.madds", first.madds, "madd/pass")
    put("jets.tensor_product.gather_bytes", first.gather_bytes, "B/pass")
    put("killing.integrability_tensors.calls", calls("killing.integrability_tensors"),
        "count/pass")
    put("killing.integrability_tensors.ms", ms("killing.integrability_tensors"), "ms/pass")
    put("killing.stack.rows_max", first.stack_rows_max, "rows")
    put("killing.stack.bytes_max", first.stack_bytes_max, "B")
    put("killing.tower.levels_built", first.levels_built, "count/pass")
    put("killing.tower.levels_used", first.levels_used, "count/pass")
    put("killing.tower.useful_ratio", _ratio(first.levels_used, first.levels_built), "ratio")
    put("curvature.compute.calls", calls(COMPUTE), "count/pass")
    put("curvature.compute.ms", ms(COMPUTE), "ms/pass")
    for fn in ("inverse_metric", "christoffel", "riemann", "covariant_derivative"):
        put(f"curvature.{fn}.ms", ms(f"curvature.{fn}"), "ms/pass")
    put("holonomy.infinitesimal_holonomy.calls", calls("holonomy.infinitesimal_holonomy"),
        "count/pass")
    put("holonomy.infinitesimal_holonomy.ms", ms("holonomy.infinitesimal_holonomy"),
        "ms/pass")
    put("holonomy.curvature_recomputes",
        _ratio(first.holonomy_computes, first.holonomy_queries), "count/query")
    put("killing.svd.calls", first.svd_calls.get("killing", 0), "count/pass")
    put("killing.svd.ms", med(lambda p: p.svd_ms.get("killing", 0.0)), "ms/pass")
    put("holonomy.svd.calls", first.svd_calls.get("holonomy", 0), "count/pass")
    put("rank.svd_per_decision", _ratio(svd_calls, first.svd_decisions), "ratio")
    put("product.decomposition_check.ms", ms("product.decomposition_check"), "ms/pass")
    put("product.factor_share",
        med(lambda p: _ratio(p.factor_ms, p.ms.get("product.decomposition_check", 0.0))),
        "ratio")
    put("product.mixed_curvature_residuals.ms", ms("product.mixed_curvature_residuals"),
        "ms/pass")
    put("jets.mul_table.misses", mul_table_misses, "count")
    put("metricdsl.parse_manifold.ms", ms("metricdsl.parse_manifold"), "ms/pass")
    put("cli.self_ms", med(lambda p: p.query_ms - p.library_ms), "ms/pass")
    put("trace.coverage", med(lambda p: _ratio(p.library_ms, p.query_ms)), "ratio")
    put("trace.overhead", overhead, "ratio")
    return m


def repeat_mismatches(passes):
    """Counts that differ between passes of the same inputs (should be none)."""
    first = passes[0]
    bad = []
    for i, p in enumerate(passes[1:], start=1):
        for field in ("calls", "svd_calls", "shape_counts"):
            if getattr(p, field) != getattr(first, field):
                bad.append(f"pass {i}: {field}")
        for field in ("svd_decisions", "madds", "gather_bytes", "stack_rows_max",
                      "stack_bytes_max", "levels_built", "levels_used",
                      "transport_steps", "holonomy_computes"):
            if getattr(p, field) != getattr(first, field):
                bad.append(f"pass {i}: {field}")
    return bad
