"""Command-line front end.

Inputs are charts, given either as ``--builtin name:key=value,...`` /
``--file chart.man`` or, for the two-chart commands, as positional spec
strings (``sphere2``, ``cahen_wallach:n=1,q=1``, ``@path/chart.man``).

Reports go to standard output, human-readable by default, or as one JSON
document with ``--json``.  JSON reports are byte-identical across identical
invocations: keys are sorted, floats carry 12 significant digits, and timing
is reported only in text mode.  Exit codes: 0 success, 2 input error,
3 inconclusive (a stabilisation warning somewhere in the result).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, metricdsl
from .curvature import (CurvatureData, OrderExhaustedError, identity_residuals,
                        lowered_riemann)
from .holonomy import infinitesimal_holonomy, parallel_field_check
from .jets import JetDomainError
from .killing import (KillingGerm, PreconditionError, check_first_prolongation,
                      default_sample_points, germ_of_field, killing_dimension,
                      killing_transport, verify_killing, wedge)
from .metricdsl import ParseError, SpecError
from .product import (cw_counterexample, decomposition_check,
                      mixed_curvature_residuals, product_metric)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


# -- input handling -----------------------------------------------------------

def _parse_param_value(text):
    """A builtin parameter: an integer, a finite float or a list a:b:.."""
    values = _floats(text, ":")
    if ":" in text:
        return values
    try:
        return int(text)
    except ValueError:
        return values[0]


def _checked(convert, ok, expected):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_order_arg = _checked(int, lambda v: v >= 0, "an integer >= 0")
_tol_arg = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_q_arg = _checked(lambda t: [float(v) for v in np.atleast_1d(_parse_param_value(t))],
                  bool, "a number or a list a:b:..")


def _parse_builtin_string(text):
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SpecError(f"malformed builtin parameter {item!r} "
                                "(expected key=value)")
            params[key.strip()] = _parse_param_value(value.strip())
    return name.strip(), params


def _load_spec_string(text):
    """A chart from a positional spec string: builtin syntax or @file."""
    if text.startswith("@"):
        return _load_spec_file(text[1:])
    name, params = _parse_builtin_string(text)
    spec = metricdsl.builtin(name, params)
    digest = hashlib.sha256(spec.serialize().encode()).hexdigest()
    return spec, {"kind": "builtin", "value": text, "digest": f"sha256:{digest}"}


def _load_spec_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}")
    spec = metricdsl.parse_manifold(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return spec, {"kind": "file", "value": path, "digest": f"sha256:{digest}"}


def _spec_from_args(args):
    if getattr(args, "file", None):
        return _load_spec_file(args.file)
    if getattr(args, "builtin", None):
        return _load_spec_string(args.builtin)
    raise SpecError("no input chart: pass --builtin NAME[:params] or --file PATH")


def _floats(text, sep=","):
    """Finite floats separated by ``sep``: a point, a path node, a germ row or
    a builtin parameter list."""
    values = []
    for raw in text.split(sep):
        value = float(raw)
        if not math.isfinite(value):
            where = f" in {text.strip()!r}" if sep in text else ""
            raise SpecError(f"value {raw.strip()!r}{where} is not a finite number")
        values.append(value)
    return values


def _parse_point(text, n):
    """A point of an n-dimensional chart: exactly n comma-separated floats."""
    point = _floats(text)
    if len(point) != n:
        raise SpecError(f"point {text.strip()!r} has {len(point)} coordinate(s); "
                        f"the chart has {n}")
    return point


def _parse_points(text, n):
    """One or more ;-separated points of an n-dimensional chart."""
    points = [_parse_point(p, n) for p in text.split(";") if p.strip()]
    if not points:
        raise SpecError(f"no point in {text!r}; expected p0;p1;...")
    return points


def _parse_germ(text, n):
    xi_part, bar, a_part = text.partition("|")
    if not bar:
        raise SpecError("germ syntax: xi1,..,xin|a11,..,a1n;a21,..")
    xi = np.array(_floats(xi_part))
    rows = [_floats(r) for r in a_part.split(";")]
    a = np.array(rows, dtype=np.float64)
    if xi.shape != (n,) or a.shape != (n, n):
        raise SpecError(f"germ shapes {xi.shape}, {a.shape} do not fit dimension {n}")
    return KillingGerm(xi=xi, a=a)


# -- output handling ----------------------------------------------------------

def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") + 0.0
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}") + 0.0
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _print_text(payload, lines, elapsed):
    for w in payload["warnings"]:
        print(f"warning: {w}")
    for line in lines:
        print(line)
    print(f"elapsed: {elapsed:.3f} s")


def _emit(args, payload, lines, elapsed):
    if args.json:
        print(json.dumps(_round_floats(payload), sort_keys=True, indent=2))
    else:
        _print_text(payload, lines, elapsed)


def _kernel_report_payload(rep):
    return {
        "point": list(rep.point),
        "dims": list(rep.dims),
        "stabilized_dim": rep.stabilized_dim,
        "stabilization_order": rep.stabilization_order,
        "gaps": rep.gaps,
        "tol": rep.tol,
        "m_max": rep.m_max,
        "warnings": rep.warnings,
    }


def _field_check_payload(chk):
    return {
        "passed": chk.passed,
        "max_residual": chk.max_residual,
        "tol": chk.tol,
        "scale": chk.scale,
        "point_residuals": [{"point": list(p), "residual": r}
                            for p, r in chk.point_residuals],
        "point_errors": [{"point": list(p), "error": e}
                         for p, e in chk.point_errors],
    }


# -- commands -------------------------------------------------------------------

def _cmd_catalog(args):
    entries = [
        {"name": "euclidean", "params": "n (dimension, default 2)"},
        {"name": "minkowski", "params": "p, q (negative/positive directions)"},
        {"name": "sphere2", "params": "r (radius, default 1)"},
        {"name": "hyperbolic2", "params": "none (upper half-plane)"},
        {"name": "cahen_wallach", "params": "n, q (diagonal entries, q=a:b:...)"},
        {"name": "walker_recurrent", "params": "none"},
    ]
    payload = {"result": {"builtins": entries}, "warnings": []}
    lines = ["available builtin charts:"]
    for e in entries:
        lines.append(f"  {e['name']:<18} params: {e['params']}")
    return payload, lines, EXIT_OK


def _cmd_parse(args):
    spec, source = _spec_from_args(args)
    g0 = spec.metric_values(spec.base_point)
    eig = np.linalg.eigvalsh(g0)
    signature = [int(np.sum(eig < 0)), int(np.sum(eig > 0))]
    payload = {
        "inputs": [source],
        "result": {
            "name": spec.name,
            "dimension": spec.dim,
            "coordinates": list(spec.coords),
            "parameters": dict(spec.params),
            "base_point": list(spec.base_point),
            "signature": signature,
            "assumptions": {"analytic": spec.assumptions.analytic,
                            "simply_connected": spec.assumptions.simply_connected},
            "normalized": spec.serialize(),
        },
        "warnings": [],
    }
    lines = [f"chart {spec.name}: dimension {spec.dim}, "
             f"signature ({signature[0]} negative, {signature[1]} positive)",
             f"coordinates: {', '.join(spec.coords)}",
             "normalized form:", spec.serialize().rstrip()]
    return payload, lines, EXIT_OK


def _cmd_curvature(args):
    spec, source = _spec_from_args(args)
    point = _parse_point(args.point, spec.dim) if args.point else None
    m_max = args.order if args.order is not None else 2
    curv = CurvatureData.compute(spec, point=point, m_max=m_max)
    res = identity_residuals(curv)
    norms = [float(np.abs(v).max()) for v in curv.covR]
    payload = {
        "inputs": [source],
        "result": {
            "point": list(map(float, curv.point)),
            "christoffel": curv.gamma_jets.value(),
            "riemann": curv.riemann,
            "lowered_riemann": lowered_riemann(curv),
            "identity_residuals": res,
            "cov_derivative_max_norms": norms,
        },
        "tolerances": {"identity_tol": 1e-9},
        "warnings": [],
    }
    lines = [f"curvature of {spec.name} at {tuple(map(float, curv.point))}:",
             f"  max |Gamma| = {_fmt(float(np.abs(curv.gamma_jets.value()).max()))}",
             f"  max |R|     = {_fmt(float(np.abs(curv.riemann).max()))}"]
    for name, value in res.items():
        lines.append(f"  residual {name}: {_fmt(value)}")
    for m, nr in enumerate(norms):
        lines.append(f"  max |grad^{m} R| = {_fmt(nr)}")
    return payload, lines, EXIT_OK


def _cmd_killing_dim(args):
    spec, source = _spec_from_args(args)
    point = _parse_point(args.point, spec.dim) if args.point else None
    m_max = args.order if args.order is not None else 10
    rep = killing_dimension(spec, point=point, m_max=m_max, tol=args.tol,
                            multi_point=args.multi_point)
    if args.multi_point:
        payload_result = {
            "min_dim": rep.min_dim,
            "points": [list(p) for p in rep.points],
            "reports": [_kernel_report_payload(r) for r in rep.reports],
        }
        warnings = rep.warnings
        stable = rep.stable
        lines = [f"killing dimension (multi-point) of {spec.name}: min {rep.min_dim}"]
        for r in rep.reports:
            lines.append(f"  at {r.point}: dim {r.stabilized_dim}, trace {r.dims}")
    else:
        payload_result = _kernel_report_payload(rep)
        warnings = rep.warnings
        stable = rep.stable
        lines = [f"killing dimension of {spec.name}: {rep.stabilized_dim}",
                 f"  kernel trace by order: {rep.dims}",
                 f"  stabilization order: {rep.stabilization_order}",
                 f"  rank tolerance: {_fmt(args.tol)} (absolute, on singular "
                 "values in the unit frame)"]
    payload = {"inputs": [source], "result": payload_result,
               "tolerances": {"rank_tol": args.tol}, "warnings": warnings}
    return payload, lines, EXIT_OK if stable else EXIT_INCONCLUSIVE


def _cmd_holonomy(args):
    spec, source = _spec_from_args(args)
    point = _parse_point(args.point, spec.dim) if args.point else None
    m_max = args.order if args.order is not None else 10
    report = infinitesimal_holonomy(spec, point=point, m_max=m_max, tol=args.tol)
    payload = {
        "inputs": [source],
        "result": {
            "point": list(report.point),
            "dims": report.dims,
            "dimension": report.dimension,
            "stabilization_order": report.stabilization_order,
            "gaps": report.gaps,
            "generators": report.generators,
            "parallel_candidates": report.candidates,
            "bracket_closure_enlarges": report.bracket_closure_enlarges,
            "nullity": report.nullity,
        },
        "tolerances": {"rank_tol": args.tol},
        "warnings": report.warnings,
    }
    lines = [f"holonomy of {spec.name} at {report.point}:",
             f"  algebra dimension: {report.dimension} (trace {report.dims})",
             f"  parallel candidates: {len(report.candidates)}",
             f"  nullity: {report.nullity}",
             f"  bracket closure enlarges span: {report.bracket_closure_enlarges}"]
    return payload, lines, EXIT_OK if report.stable else EXIT_INCONCLUSIVE


def _cmd_hypothesis(args):
    spec, source = _spec_from_args(args)
    point = _parse_point(args.point, spec.dim) if args.point else None
    m_max = args.order if args.order is not None else 10
    verdict = parallel_field_check(spec, point=point, m_max=m_max, tol=args.tol)
    payload = {
        "inputs": [source],
        "result": {
            "verdict": verdict.kind,
            "parallel_basis": verdict.basis,
            "holonomy_dimension": verdict.holonomy.dimension,
            "holonomy_dims": verdict.holonomy.dims,
            "gaps": verdict.holonomy.gaps,
        },
        "tolerances": {"rank_tol": args.tol},
        "warnings": verdict.warnings,
    }
    lines = [f"parallel-field verdict for {spec.name}: {verdict.kind}"]
    for row in np.atleast_2d(verdict.basis) if len(verdict.basis) else []:
        lines.append(f"  candidate direction: {[float(x) for x in row]}")
    code = EXIT_OK if verdict.kind != "inconclusive" else EXIT_INCONCLUSIVE
    return payload, lines, code


def _cmd_check_field(args):
    spec, source = _spec_from_args(args)
    if not args.field:
        raise SpecError("check-field requires --field \"expr,expr,...\"")
    components = args.field.split(",")
    user_pts = _parse_points(args.points, spec.dim) if args.points else []
    if args.point:
        user_pts = [_parse_point(args.point, spec.dim)] + user_pts
    for p in user_pts:
        germ_of_field(spec, components, p)   # the chart and the field must evaluate there
    # generated samples keep their per-point errors recorded, not fatal
    pts = user_pts if args.points else user_pts + [
        list(p) for p in default_sample_points(spec)]
    killing_chk = verify_killing(spec, components, pts, tol=args.tol)
    germ = germ_of_field(spec, components)
    g0 = spec.metric_values(spec.base_point)
    result = {
        "field": components,
        "killing": _field_check_payload(killing_chk),
        "germ": {"xi": germ.xi, "a": germ.a, "so_defect": germ.so_defect(g0)},
    }
    lines = [f"field check on {spec.name}: "
             f"{'Killing' if killing_chk.passed else 'NOT Killing'} "
             f"(max residual {_fmt(killing_chk.max_residual)}, "
             f"tol {_fmt(killing_chk.tol)} * {_fmt(killing_chk.scale)})"]
    if killing_chk.passed:
        prolong = check_first_prolongation(spec, components, pts, tol=max(args.tol, 1e-8))
        result["first_prolongation"] = _field_check_payload(prolong)
        lines.append(f"  derivative identity residual: {_fmt(prolong.max_residual)} "
                     f"({'pass' if prolong.passed else 'fail'})")
    payload = {"inputs": [source], "result": result,
               "tolerances": {"field_tol": args.tol}, "warnings": []}
    return payload, lines, EXIT_OK


def _cmd_transport(args):
    spec, source = _spec_from_args(args)
    if not args.path:
        raise SpecError("transport requires --path \"p0;p1;...\"")
    path = _parse_points(args.path, spec.dim)
    steps = args.steps
    if args.field:
        components = args.field.split(",")
        germ = germ_of_field(spec, components, path[0])
    elif args.germ:
        germ = _parse_germ(args.germ, spec.dim)
    else:
        raise SpecError("transport requires --field or --germ")
    out = killing_transport(spec, germ, path, steps_per_segment=steps)
    g_end = spec.metric_values(path[-1])
    result = {
        "path": [list(map(float, p)) for p in path],
        "steps_per_segment": steps,
        "start_germ": {"xi": germ.xi, "a": germ.a},
        "end_germ": {"xi": out.xi, "a": out.a},
        "so_defect_at_end": out.so_defect(g_end),
    }
    lines = [f"transported germ along {len(path) - 1} segment(s), "
             f"{steps} steps each",
             f"  end xi: {[float(x) for x in out.xi]}",
             f"  so defect at end: {_fmt(out.so_defect(g_end))}"]
    if args.field:
        ref = germ_of_field(spec, components, path[-1])
        deviation = max(float(np.abs(out.xi - ref.xi).max()),
                        float(np.abs(out.a - ref.a).max()))
        result["field_germ_deviation"] = deviation
        lines.append(f"  deviation from the field's own germ: {_fmt(deviation)}")
    payload = {"inputs": [source], "result": result,
               "tolerances": {}, "warnings": []}
    return payload, lines, EXIT_OK


def _cmd_product(args):
    spec_a, src_a = _load_spec_string(args.left)
    spec_b, src_b = _load_spec_string(args.right)
    prod = product_metric(spec_a, spec_b)
    m_max = 3 if args.order is None else min(args.order, 3)
    residuals = mixed_curvature_residuals(prod, m_max=m_max)
    payload = {
        "inputs": [src_a, src_b],
        "result": {
            "name": prod.combined.name,
            "dimension": prod.dim,
            "coordinates": list(prod.combined.coords),
            "blocks": [[int(i) for i in b] for b in prod.blocks],
            "mixed_curvature_residuals": residuals,
            "normalized": prod.combined.serialize(),
        },
        "tolerances": {"block_tol": 1e-9},
        "warnings": [],
    }
    lines = [f"product chart {prod.combined.name}: dimension {prod.dim}",
             f"  mixed curvature residuals by order: "
             f"{[_fmt(r) for r in residuals]}",
             prod.combined.serialize().rstrip()]
    return payload, lines, EXIT_OK


def _cmd_check_decomposition(args):
    spec_a, src_a = _load_spec_string(args.left)
    spec_b, src_b = _load_spec_string(args.right)
    m_max = args.order if args.order is not None else 10
    rep = decomposition_check(spec_a, spec_b, m_max=m_max, tol=args.tol)
    payload = {
        "inputs": [src_a, src_b],
        "result": {
            "dim_product": rep.dim_product,
            "dim_a": rep.dim_a,
            "dim_b": rep.dim_b,
            "excess": rep.excess,
            "verdict_a": rep.verdict_a,
            "verdict_b": rep.verdict_b,
            "splitting_predicted": rep.verdict_a == "no_parallel_field"
                                   or rep.verdict_b == "no_parallel_field",
            "inconclusive": rep.inconclusive,
        },
        "tolerances": {"rank_tol": args.tol},
        "warnings": rep.warnings,
    }
    lines = [
        f"decomposition check for {spec_a.name} x {spec_b.name}:",
        f"  dim product = {rep.dim_product}, factors = {rep.dim_a} + {rep.dim_b}",
        f"  excess = {rep.excess}",
        f"  factor verdicts: {rep.verdict_a}, {rep.verdict_b}",
    ]
    return payload, lines, EXIT_INCONCLUSIVE if rep.inconclusive else EXIT_OK


def _cmd_demo_counterexample(args):
    prod, components = cw_counterexample(args.n_plus, args.q_plus, args.n_minus, args.q_minus)
    spec = prod.combined
    pts = default_sample_points(spec)
    chk = verify_killing(spec, components, pts, tol=1e-10)
    germ = germ_of_field(spec, components)
    g0 = spec.metric_values(spec.base_point)
    v_plus = np.zeros(spec.dim)
    v_plus[spec.coord_index("a_v")] = 1.0
    v_minus = np.zeros(spec.dim)
    v_minus[spec.coord_index("b_v")] = 1.0
    w = wedge(v_plus, v_minus, g0)
    grad_xi_residual = float(np.abs(-germ.a - w).max())   # grad xi = + wedge
    a_residual = float(np.abs(germ.a + w).max())          # A = - wedge
    rep = decomposition_check(prod.factors[0], prod.factors[1],
                              m_max=args.order if args.order is not None else 10,
                              tol=args.tol)
    payload = {
        "inputs": [{"kind": "builtin", "value":
                    f"cahen_wallach x cahen_wallach, q+={args.q_plus}, q-={args.q_minus}",
                    "digest": "sha256:" + hashlib.sha256(
                        spec.serialize().encode()).hexdigest()}],
        "result": {
            "field": components,
            "killing_residual": chk.max_residual,
            "killing_passed": chk.passed,
            "germ_xi": germ.xi,
            "germ_a": germ.a,
            "wedge_v_plus_v_minus": w,
            "grad_xi_equals_wedge_residual": grad_xi_residual,
            "a_equals_minus_wedge_residual": a_residual,
            "dim_product": rep.dim_product,
            "dim_a": rep.dim_a,
            "dim_b": rep.dim_b,
            "excess": rep.excess,
            "verdicts": [rep.verdict_a, rep.verdict_b],
        },
        "tolerances": {"killing_tol": 1e-10, "rank_tol": args.tol},
        "warnings": rep.warnings,
    }
    lines = [
        "cross-field demo on the plane-wave product:",
        f"  field: {', '.join(components)}",
        f"  Killing residual: {_fmt(chk.max_residual)} "
        f"({'pass' if chk.passed else 'FAIL'} at 1e-10)",
        f"  germ: xi = 0 (|xi| = {_fmt(float(np.abs(germ.xi).max()))}), "
        "A mixes the factors:",
        f"    grad xi = wedge(dv+, dv-) residual: {_fmt(grad_xi_residual)}",
        f"    A = -wedge(dv+, dv-) residual: {_fmt(a_residual)}",
        f"  dimensions: product {rep.dim_product} vs factors "
        f"{rep.dim_a} + {rep.dim_b} -> excess {rep.excess}",
        f"  factor verdicts: {rep.verdict_a}, {rep.verdict_b}",
        "  the isometry algebra does NOT split: the cross field is the witness"
        if rep.excess >= 1 else "  unexpected: no excess found",
    ]
    code = EXIT_INCONCLUSIVE if rep.inconclusive else EXIT_OK
    return payload, lines, code


# -- driver ---------------------------------------------------------------------

def _add_spec_args(sp):
    sp.add_argument("--builtin", help="builtin chart, e.g. euclidean:n=2 or "
                                      "cahen_wallach:n=1,q=1")
    sp.add_argument("--file", help="chart description file")


def _add_common(sp, point=True, order=True, tol=True):
    if point:
        sp.add_argument("--point", help="evaluation point, comma-separated")
    if order:
        sp.add_argument("--order", type=_order_arg, default=None,
                        help="derivative/prolongation depth cap (default 10; "
                             "curvature command defaults to 2)")
    if tol:
        sp.add_argument("--tol", type=_tol_arg, default=1e-8,
                        help="absolute threshold on singular values in the unit "
                             "frame, in (0, 1) (default 1e-8); check-field: the "
                             "residual tolerance")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report on stdout")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="killingkit",
        description="curvature, holonomy, and Killing-algebra computations "
                    "for coordinate-patch semi-Riemannian metrics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list builtin charts")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("parse", help="parse and echo a chart")
    _add_spec_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("curvature", help="connection, curvature, identities")
    _add_spec_args(sp)
    _add_common(sp, tol=False)
    sp.set_defaults(func=_cmd_curvature)

    sp = sub.add_parser("killing-dim", help="isometry-algebra dimension")
    _add_spec_args(sp)
    _add_common(sp)
    sp.add_argument("--multi-point", action="store_true",
                    help="also evaluate at 5 perturbed points, report the minimum")
    sp.set_defaults(func=_cmd_killing_dim)

    sp = sub.add_parser("holonomy", help="infinitesimal holonomy algebra")
    _add_spec_args(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_holonomy)

    sp = sub.add_parser("hypothesis", help="parallel-vector-field detector")
    _add_spec_args(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_hypothesis)

    sp = sub.add_parser("check-field", help="verify a vector field is Killing")
    _add_spec_args(sp)
    _add_common(sp, order=False)
    sp.add_argument("--field", help="comma-separated component expressions")
    sp.add_argument("--points", help="sample points p0;p1;... (default: "
                                     "base point neighbourhood)")
    sp.set_defaults(func=_cmd_check_field)

    sp = sub.add_parser("transport", help="Killing transport along a polyline")
    _add_spec_args(sp)
    _add_common(sp, point=False, order=False, tol=False)
    sp.add_argument("--field", help="take the germ of this field at the path start")
    sp.add_argument("--germ", help="explicit germ xi1,..|a11,..;a21,..")
    sp.add_argument("--path", help="polyline p0;p1;...")
    sp.add_argument("--steps", type=int, default=1000,
                    help="integration steps per segment (default 1000)")
    sp.set_defaults(func=_cmd_transport)

    sp = sub.add_parser("product", help="build a product chart")
    sp.add_argument("left", help="spec string: builtin[:params] or @file")
    sp.add_argument("right", help="spec string: builtin[:params] or @file")
    _add_common(sp, point=False, tol=False)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("check-decomposition",
                        help="compare a product's Killing dimension to its factors")
    sp.add_argument("left", help="spec string: builtin[:params] or @file")
    sp.add_argument("right", help="spec string: builtin[:params] or @file")
    _add_common(sp, point=False)
    sp.set_defaults(func=_cmd_check_decomposition)

    sp = sub.add_parser("demo-counterexample",
                        help="plane-wave product with a non-splitting Killing field")
    sp.add_argument("--q-plus", type=_q_arg, default=[1.0], help="first factor's q, a:b:..")
    sp.add_argument("--q-minus", type=_q_arg, default=[-1.0], help="second factor's q, a:b:..")
    sp.add_argument("--n-plus", type=int, default=1)
    sp.add_argument("--n-minus", type=int, default=1)
    _add_common(sp, point=False)
    sp.set_defaults(func=_cmd_demo_counterexample)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        payload, lines, code = args.func(args)
    except (ParseError, SpecError, JetDomainError, OrderExhaustedError,
            PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload.setdefault("warnings", [])
    payload = {"schema": 1, "command": args.command, **payload}
    _emit(args, payload, lines, time.perf_counter() - start)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
