"""Command-line front end.

Inputs are charts, given either as ``--builtin name:key=value,...`` /
``--file chart.man`` or, for the two-chart commands, as positional spec
strings (``sphere2``, ``cahen_wallach:n=1,q=1``, ``@path/chart.man``).

Reports go to standard output, human-readable by default, or as one JSON
document with ``--json``.  JSON reports are byte-identical across identical
invocations: keys are sorted, floats carry 12 significant digits, and timing
is reported only in text mode.  Exit codes: 0 success, 2 input error (the
errors that name bad input: a chart, point, germ or field that does not
parse or evaluate, a degenerate metric, a point where the curvature
computed from finite metric jets overflows, too low an order, a check's
precondition), 3 inconclusive (a stabilisation warning somewhere in the
result, a field that passes ``check-field``'s Killing check and fails its
derivative identity, or a computation that failed inside the package, with
a warning naming where).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii as _encode_string
from pathlib import Path

import numpy as np

from . import __version__, metricdsl
from .curvature import (CurvatureData, OrderExhaustedError, identity_residuals,
                        lowered_riemann)
from .holonomy import infinitesimal_holonomy, parallel_field_check
from .jets import JetDomainError
from .killing import (KillingGerm, PreconditionError, check_first_prolongation,
                      field_jets, killing_dimension, killing_transport,
                      nearby_points, sample_field, verify_killing, wedge)
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
_count_arg = _checked(int, lambda v: v >= 1, "an integer >= 1")
_tol_arg = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_q_arg = _checked(lambda t: [float(v) for v in np.atleast_1d(_parse_param_value(t))],
                  bool, "a number or a list a:b:..")


def _parse_builtin_string(text):
    name, _, rest = text.partition(":")
    name = name.strip()
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise SpecError(f"malformed builtin parameter {item!r} "
                                "(expected key=value)")
            if key in params:
                raise SpecError(f"{name} parameter {key!r} is given twice")
            try:
                params[key] = _parse_param_value(value.strip())
            except SpecError as exc:
                raise SpecError(f"{name} parameter {key}: {exc}") from None
    return name, params


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
    if getattr(args, "file", None) and getattr(args, "builtin", None):
        raise SpecError("pass one input chart: --builtin or --file, not both")
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
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
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
    if len({len(r) for r in rows}) > 1:
        raise SpecError(f"germ rows of {[len(r) for r in rows]} entries do not fit "
                        f"dimension {n}")
    a = np.array(rows, dtype=np.float64)
    if xi.shape != (n,) or a.shape != (n, n):
        raise SpecError(f"germ shapes {xi.shape}, {a.shape} do not fit dimension {n}")
    return KillingGerm(xi=xi, a=a)


# -- output handling ----------------------------------------------------------

def _float_text(x):
    """A report float: 12 significant digits and no negative zero, spelt as
    JSON spells it."""
    x = float(f"{x:.12g}") + 0.0
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return repr(x)


def _write_json(obj, out, newline):
    """Append the report text of ``obj`` to the list ``out``: floats rounded
    to 12 significant digits (numpy scalars and arrays read as the Python
    values they hold), string keys sorted, nested containers on lines of
    their own indented two spaces deeper than ``newline``.  The text is that
    of ``json.dumps(obj, sort_keys=True, indent=2)`` after the rounding."""
    if isinstance(obj, str):
        out.append(_encode_string(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(obj, dict):
            out.append("{")
            for key, value in sorted(obj.items()):
                out.append(inner)
                out.append(_encode_string(key))
                out.append(": ")
                _write_json(value, out, inner)
                out.append(",")
            out[-1] = newline + "}"
        else:
            out.append("[")
            for value in obj:
                out.append(inner)
                _write_json(value, out, inner)
                out.append(",")
            out[-1] = newline + "]"
    elif isinstance(obj, np.floating):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
        out = []
        _write_json(payload, out, "\n")
        print("".join(out))
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


def _decomposition_payload(rep):
    """The keys that check-decomposition and demo-counterexample share past
    the dimensions: the factors' parallel directions and every rank margin."""
    rep_a, rep_b = rep.factor_reports
    return {
        "parallel_a": rep.parallel[0],
        "parallel_b": rep.parallel[1],
        "gaps": {"product": rep.product_report.gaps, "a": rep_a.gaps, "b": rep_b.gaps},
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
    entries = [{"name": name, "params": params}
               for name, (_, _, params) in metricdsl.BUILTINS.items()]
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
    curv = CurvatureData.compute(spec, point=point, m_max=args.order)
    res = identity_residuals(curv)
    norms = [float(np.abs(curv.whole(m)).max()) for m in range(len(curv.covR))]
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
    rep = killing_dimension(spec, point=point, m_max=args.order, tol=args.tol,
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
    report = infinitesimal_holonomy(spec, point=point, m_max=args.order, tol=args.tol)
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
    verdict = parallel_field_check(spec, point=point, m_max=args.order, tol=args.tol)
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
    base = _parse_point(args.point, spec.dim) if args.point else spec.base_point
    named = _parse_points(args.points, spec.dim) if args.points else []
    # the base point, where the report's germ is taken, and the points you
    # name must evaluate; the nearby points generated without --points need not
    samples = sample_field(spec, components, [base] + (named or nearby_points(base)))
    germ, g0 = samples.at(base)
    for p in named:
        samples.at(p)
    killing_chk = verify_killing(samples, tol=args.tol)
    result = {
        "field": components,
        "killing": _field_check_payload(killing_chk),
        "germ": {"xi": germ.xi, "a": germ.a, "so_defect": germ.so_defect(g0)},
    }
    lines = [f"field check on {spec.name}: "
             f"{'Killing' if killing_chk.passed else 'NOT Killing'} "
             f"(max residual {_fmt(killing_chk.max_residual)}, "
             f"tol {_fmt(killing_chk.tol)} * {_fmt(killing_chk.scale)})"]
    warnings = []
    if killing_chk.passed:
        prolong = check_first_prolongation(samples, tol=max(args.tol, 1e-8))
        result["first_prolongation"] = _field_check_payload(prolong)
        lines.append(f"  derivative identity residual: {_fmt(prolong.max_residual)} "
                     f"({'pass' if prolong.passed else 'fail'})")
        if not prolong.passed:
            warnings.append("the field passes the Killing check but fails the derivative "
                            "identity: the Killing verdict is inconclusive at this tolerance")
    payload = {"inputs": [source], "result": result,
               "tolerances": {"field_tol": args.tol}, "warnings": warnings}
    return payload, lines, EXIT_INCONCLUSIVE if warnings else EXIT_OK


def _cmd_transport(args):
    if args.field and args.germ:
        raise SpecError("transport takes --field or --germ, not both")
    spec, source = _spec_from_args(args)
    if not args.path:
        raise SpecError("transport requires --path \"p0;p1;...\"")
    path = _parse_points(args.path, spec.dim)
    if len(path) < 2:
        raise SpecError("path needs at least two points")
    steps = args.steps
    if args.field:
        germ = field_jets(spec, args.field.split(","))
    elif args.germ:
        germ = _parse_germ(args.germ, spec.dim)
    else:
        raise SpecError("transport requires --field or --germ")
    moved = killing_transport(spec, germ, path, steps_per_segment=steps)
    out = moved.end
    defect = out.so_defect(moved.g_end)
    result = {
        "path": [list(map(float, p)) for p in path],
        "steps_per_segment": steps,
        "start_germ": {"xi": moved.start.xi, "a": moved.start.a},
        "end_germ": {"xi": out.xi, "a": out.a},
        "so_defect_at_end": defect,
    }
    lines = [f"transported germ along {len(path) - 1} segment(s), "
             f"{steps} steps each",
             f"  end xi: {[float(x) for x in out.xi]}",
             f"  so defect at end: {_fmt(defect)}"]
    ref = moved.field_end
    if ref is not None:
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
    residuals = mixed_curvature_residuals(prod, m_max=min(args.order, 3))
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
    rep = decomposition_check(spec_a, spec_b, m_max=args.order, tol=args.tol)
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
            **_decomposition_payload(rep),
        },
        "tolerances": {"rank_tol": args.tol},
        "warnings": rep.warnings,
    }
    lines = [
        f"decomposition check for {spec_a.name} x {spec_b.name}:",
        f"  dim product = {rep.dim_product}, factors = {rep.dim_a} + {rep.dim_b}",
        f"  excess = {rep.excess}, parallel directions = "
        f"{rep.parallel[0]} x {rep.parallel[1]}",
        f"  factor verdicts: {rep.verdict_a}, {rep.verdict_b}",
    ]
    return payload, lines, EXIT_INCONCLUSIVE if rep.inconclusive else EXIT_OK


def _cmd_demo_counterexample(args):
    for side in ("plus", "minus"):
        n, q = getattr(args, f"n_{side}"), getattr(args, f"q_{side}")
        if len(q) != n:
            raise SpecError(f"--q-{side} must have {n} entries, one per --n-{side} "
                            f"direction, got {len(q)}")
        if 0.0 in q:
            raise SpecError(f"--q-{side} entries must be nonzero, got {q}")
    prod, components = cw_counterexample(args.n_plus, args.q_plus, args.n_minus, args.q_minus)
    spec = prod.combined
    samples = sample_field(spec, components,
                           [spec.base_point] + nearby_points(spec.base_point))
    chk = verify_killing(samples, tol=1e-10)
    germ, g0 = samples.at(spec.base_point)
    v_plus = np.zeros(spec.dim)
    v_plus[spec.coord_index("a_v")] = 1.0
    v_minus = np.zeros(spec.dim)
    v_minus[spec.coord_index("b_v")] = 1.0
    w = wedge(v_plus, v_minus, g0)
    grad_xi_residual = float(np.abs(-germ.a - w).max())   # grad xi = + wedge
    a_residual = float(np.abs(germ.a + w).max())          # A = - wedge
    rep = decomposition_check(prod.factors[0], prod.factors[1], m_max=args.order,
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
            **_decomposition_payload(rep),
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


def _add_common(sp, point=True, order=10, tol=True):
    if point:
        sp.add_argument("--point", help="base point, comma-separated (default: the chart's)")
    if order is not None:
        sp.add_argument("--order", type=_order_arg, default=order,
                        help="derivative/prolongation depth cap (default %(default)s)")
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
    _add_common(sp, order=2, tol=False)
    sp.set_defaults(func=_cmd_curvature)

    sp = sub.add_parser("killing-dim", help="isometry-algebra dimension")
    _add_spec_args(sp)
    _add_common(sp)
    sp.add_argument("--multi-point", action="store_true",
                    help="also evaluate at the 5 nearby points, report the minimum")
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
    _add_common(sp, order=None)
    sp.add_argument("--field", help="comma-separated component expressions")
    sp.add_argument("--points", help="sample points p0;p1;... checked after the base "
                                     "point (default: the 5 nearby points that "
                                     "killing-dim --multi-point traces)")
    sp.set_defaults(func=_cmd_check_field)

    sp = sub.add_parser("transport", help="Killing transport along a polyline")
    _add_spec_args(sp)
    _add_common(sp, point=False, order=None, tol=False)
    sp.add_argument("--field", help="take the germ of this field at the path start")
    sp.add_argument("--germ", help="explicit germ xi1,..|a11,..;a21,..")
    sp.add_argument("--path", help="polyline p0;p1;...")
    sp.add_argument("--steps", type=_count_arg, default=1000,
                    help="grid steps per segment, where the chart is checked, >= 1 "
                         "(default 1000)")
    sp.set_defaults(func=_cmd_transport)

    sp = sub.add_parser("product", help="build a product chart")
    sp.add_argument("left", help="spec string: builtin[:params] or @file")
    sp.add_argument("right", help="spec string: builtin[:params] or @file")
    sp.add_argument("--order", type=_order_arg, default=3,
                    help="derivative/prolongation depth cap (at most 3, default %(default)s)")
    _add_common(sp, point=False, order=None, tol=False)
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
    sp.add_argument("--n-plus", type=_count_arg, default=1)
    sp.add_argument("--n-minus", type=_count_arg, default=1)
    _add_common(sp, point=False)
    sp.set_defaults(func=_cmd_demo_counterexample)

    return parser


def _stage(exc):
    """Where in the package ``exc`` was raised: the innermost frame of its
    traceback in this package's directory, as module.function."""
    here = Path(__file__).parent
    inside = [f for f in traceback.extract_tb(exc.__traceback__)
              if Path(f.filename).parent == here]
    return f"{Path(inside[-1].filename).stem}.{inside[-1].name}" if inside else __package__


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
            PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:   # a failure inside a computation, not bad input
        print(f"warning: {args.command} failed in {_stage(exc)}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload.setdefault("warnings", [])
    payload = {"schema": 1, "command": args.command, **payload}
    _emit(args, payload, lines, time.perf_counter() - start)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
