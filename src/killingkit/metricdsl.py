"""Chart descriptions: a small text DSL, expression trees, and a catalog.

A manifold file names its coordinates, gives the metric as a grid of component
expressions, and optionally fixes numeric parameters, a base point, and
author-asserted assumption flags::

    manifold polar {
      coordinates: r, phi;
      metric: [[1, 0], [0, r^2]];
      base_point: (2, 0.7);
      assume: analytic, simply_connected;
    }

Parameters are substituted numerically when the file is read, so everything
downstream of the parser is a function of the coordinates alone.  The metric
grid may give only the upper triangle; the lower triangle is mirrored.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .jets import Jet, JetDomainError, JetTensor, compile_tape, jet_space


class ParseError(ValueError):
    """Syntax or resolution error with a source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class SpecError(ValueError):
    """A structurally valid file describing an inconsistent chart."""


class DegenerateMetricError(SpecError):
    """Metric determinant below the scale-aware tolerance at a point."""


FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "sqrt")


# -- expression trees ---------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    def eval_jet(self, space, point):
        """The jet of this expression about ``point`` in ``space``; raises the
        failure ``JetTape.evaluate`` reports there."""
        points = np.asarray(point, dtype=np.float64)[None]
        coeffs, failure = self._tape.evaluate(points, space)
        if failure is not None:
            raise failure[2]
        return Jet(space, coeffs[0, 0], copy=False)

    @cached_property
    def _tape(self):
        return compile_tape([self])

    def jet_op(self):
        """This node as an operation of ``jets.compile_tape``:
        ``((kind, *params), operand nodes)``."""
        raise NotImplementedError

    def to_text(self):
        return self._text(0)

    def _text(self, parent_prec):
        raise NotImplementedError

    @property
    def is_constant(self):
        return False


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def jet_op(self):
        return ("const", self.value), ()

    def _text(self, parent_prec):
        if self.value < 0 and parent_prec > 0:
            return f"({self.value!r})"
        return repr(self.value)

    @property
    def is_constant(self):
        return True


@dataclass(frozen=True)
class Coord(Expr):
    name: str
    index: int

    def jet_op(self):
        return ("coord", self.index), ()

    def _text(self, parent_prec):
        return self.name


def _paren(text, prec, parent_prec):
    return f"({text})" if prec < parent_prec else text


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
    _KIND = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

    def jet_op(self):
        return (self._KIND[self.op],), (self.left, self.right)

    def _text(self, parent_prec):
        prec = self._PREC[self.op]
        # Right operand of - and / needs the next precedence level.
        bump = 1 if self.op in ("-", "/") else 0
        text = f"{self.left._text(prec)} {self.op} {self.right._text(prec + bump)}"
        return _paren(text, prec, parent_prec)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def jet_op(self):
        return ("neg",), (self.arg,)

    def _text(self, parent_prec):
        return _paren(f"-{self.arg._text(3)}", 1, parent_prec)


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int  # >= 0; negative powers are parsed as reciprocals

    def jet_op(self):
        return ("pow", self.exponent), (self.base,)

    def _text(self, parent_prec):
        return _paren(f"{self.base._text(4)}^{self.exponent}", 3, parent_prec)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def jet_op(self):
        return (self.fn,), (self.arg,)

    def _text(self, parent_prec):
        return f"{self.fn}({self.arg._text(0)})"


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _folded(unfolded, fn, *values):
    """``Const(fn(*values))`` in plain float arithmetic when that is a finite
    float, else ``unfolded``: evaluation reports the failure at a point."""
    try:
        value = fn(*values)
    except (ArithmeticError, ValueError):
        return unfolded
    return Const(value) if math.isfinite(value) else unfolded


def _fold(expr):
    """Collapse parameter-free subtrees to constants; leaves domain errors and
    non-finite values to evaluation."""
    if isinstance(expr, (Const, Coord)):
        return expr
    if isinstance(expr, Neg):
        a = _fold(expr.arg)
        if a.is_constant:
            return Const(-a.value)
        return Neg(a)
    if isinstance(expr, Binary):
        a, b = _fold(expr.left), _fold(expr.right)
        if a.is_constant and b.is_constant:
            return _folded(Binary(expr.op, a, b), _ARITHMETIC[expr.op], a.value, b.value)
        # unit rules keep parameter substitution out of the printed form
        if expr.op == "*":
            if a.is_constant and a.value == 1.0:
                return b
            if b.is_constant and b.value == 1.0:
                return a
            if (a.is_constant and a.value == 0.0) or (b.is_constant and b.value == 0.0):
                return Const(0.0)
        elif expr.op == "+":
            if a.is_constant and a.value == 0.0:
                return b
            if b.is_constant and b.value == 0.0:
                return a
        elif expr.op == "-":
            if b.is_constant and b.value == 0.0:
                return a
            if a.is_constant and a.value == 0.0:
                return Neg(b)
        elif expr.op == "/":
            if b.is_constant and b.value == 1.0:
                return a
        return Binary(expr.op, a, b)
    if isinstance(expr, PowInt):
        a = _fold(expr.base)
        if a.is_constant:
            return _folded(PowInt(a, expr.exponent), pow, a.value, expr.exponent)
        if expr.exponent == 1:
            return a
        if expr.exponent == 0:
            return Const(1.0)
        return PowInt(a, expr.exponent)
    if isinstance(expr, Call):
        a = _fold(expr.arg)
        # sqrt(0) stays unfolded: its derivatives are infinite, so the tape refuses it
        if a.is_constant and not (expr.fn == "sqrt" and a.value == 0.0):
            return _folded(Call(expr.fn, a), getattr(math, expr.fn), a.value)
        return Call(expr.fn, a)
    raise TypeError(f"unknown expression node {expr!r}")


def substitute_coords(expr, subs):
    """The expression with each coordinate reference replaced by
    ``subs[index]``, an expression: renames coordinates when factors enter a
    product chart, and changes coordinates."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Coord):
        return subs[expr.index]
    if isinstance(expr, Neg):
        return Neg(substitute_coords(expr.arg, subs))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute_coords(expr.left, subs),
                      substitute_coords(expr.right, subs))
    if isinstance(expr, PowInt):
        return PowInt(substitute_coords(expr.base, subs), expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.fn, substitute_coords(expr.arg, subs))
    raise TypeError(f"unknown expression node {expr!r}")


# -- manifold specs -----------------------------------------------------------

@dataclass(frozen=True)
class Assumptions:
    analytic: bool = False
    simply_connected: bool = False


# A metric is degenerate where |det g| is below this fraction of the product
# of its row norms, the largest |det g| can be (Hadamard's inequality).  The
# ratio does not change when the metric is scaled.
DEGENERACY_FACTOR = 1e-10


@dataclass(frozen=True, eq=True)
class ManifoldSpec:
    """A parsed chart: coordinates, metric expressions, base point, assumptions."""

    name: str
    coords: tuple
    metric: tuple          # n x n grid of Expr, symmetric by construction
    params: tuple          # ((name, value), ...) as substituted at parse time
    base_point: tuple
    assumptions: Assumptions = field(default_factory=Assumptions)

    @property
    def dim(self):
        return len(self.coords)

    @cached_property
    def metric_tape(self):
        """The metric's upper triangle, in (i, j >= i) order, compiled once."""
        n = self.dim
        return compile_tape([self.metric[i][j] for i in range(n) for j in range(i, n)])

    def coord_index(self, name):
        return self.coords.index(name)

    def metric_values(self, point):
        """The metric at ``point``, from the spec's tape; a failing component
        raises as in ``metric_jet_tensor``.  Nondegeneracy is not checked."""
        return _metric_jets(self, point, 0, check=False).array[..., 0].copy()

    def _component_error(self, point, i, j, exc):
        """The error to raise when evaluating component (i, j) at ``point``
        failed with ``exc``; it names the chart, the point, the component and
        its expression."""
        return JetDomainError(
            f"metric of {self.name!r} at {tuple(map(float, point))}: component "
            f"({i}, {j}) = {self.metric[i][j].to_text()}: {exc}")

    def check_nondegenerate(self, point, g=None):
        """Raise DegenerateMetricError if |det g| is at most DEGENERACY_FACTOR
        times the product of g's row norms at ``point`` (so also where a row
        is zero).  Both are taken of g divided by its largest |entry|, so
        neither can overflow.  A (P, n) batch of points with ``g`` of shape
        (P, n, n) is checked point by point, and the first degenerate one is
        named."""
        g = self.metric_values(point) if g is None else g
        top = np.abs(g).max(axis=(-2, -1), keepdims=True)
        unit = g / np.where(top > 0, top, 1.0)
        rows = np.sqrt((unit * unit).sum(axis=-1)).prod(axis=-1)
        bad = np.abs(np.linalg.det(unit)) <= DEGENERACY_FACTOR * rows
        if bad.any():
            first = int(np.argmax(bad))
            p = np.reshape(point, (-1, self.dim))[first]
            det = np.linalg.det(np.reshape(g, (-1, self.dim, self.dim))[first])
            raise DegenerateMetricError(
                f"metric of {self.name!r} degenerate at {tuple(map(float, p))}: "
                f"det = {det:g}")

    def serialize(self):
        lines = [f"manifold {self.name} {{"]
        lines.append("  coordinates: " + ", ".join(self.coords) + ";")
        if self.params:
            assigns = ", ".join(f"{k} = {v!r}" for k, v in self.params)
            lines.append(f"  parameters: {assigns};")
        rows = []
        for row in self.metric:
            rows.append("[" + ", ".join(e.to_text() for e in row) + "]")
        lines.append("  metric: [" + ", ".join(rows) + "];")
        lines.append("  base_point: (" + ", ".join(repr(x) for x in self.base_point) + ");")
        flags = [name for name in ("analytic", "simply_connected")
                 if getattr(self.assumptions, name)]
        if flags:
            lines.append("  assume: " + ", ".join(flags) + ";")
        lines.append("}")
        return "\n".join(lines) + "\n"


def make_spec(name, coords, metric, params=(), base_point=None, assumptions=None,
              check=True):
    """Assemble and validate a ManifoldSpec from already-built expression rows."""
    coords = tuple(coords)
    n = len(coords)
    if base_point is None:
        base_point = (0.0,) * n
    base_point = tuple(float(x) for x in base_point)
    if len(base_point) != n:
        raise SpecError(f"base point has {len(base_point)} entries for {n} coordinates")
    grid = tuple(tuple(row) for row in metric)
    spec = ManifoldSpec(name=name, coords=coords, metric=grid,
                        params=tuple(params), base_point=base_point,
                        assumptions=assumptions or Assumptions())
    if check:
        spec.check_nondegenerate(base_point)
    return spec


@lru_cache(maxsize=None)
def _upper_position(n):
    # position of component (i, j) among the upper triangle's (i, j >= i)
    pos = np.empty((n, n), dtype=np.int64)
    pos[np.triu_indices(n)] = pos.T[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    return pos


def metric_jet_tensor(spec, point, order):
    """Jets of the metric about ``point``, or about each row of a (P, n) array
    of points (a leading point axis on the result), from the spec's tape.

    Checks each point as a point-by-point evaluation would, and raises what
    it would raise first: a failing component (naming the point, the
    component and its expression; see ``JetTape.evaluate``) or a degenerate
    metric, at the earliest failing point.
    """
    return _metric_jets(spec, point, order, check=True)


def _metric_jets(spec, point, order, check):
    """``metric_jet_tensor``, with the nondegeneracy check only if ``check``."""
    points = np.asarray(point, dtype=np.float64)
    if points.ndim not in (1, 2) or points.shape[-1:] != (spec.dim,):
        raise SpecError(f"point of dimension {points.shape[-1:]} for {spec.dim} coordinates")
    batch = points.reshape(-1, spec.dim)
    space = jet_space(spec.dim, order)
    coeffs, failure = spec.metric_tape.evaluate(batch, space)
    position = _upper_position(spec.dim)
    g = coeffs[:, position]
    valid = len(batch) if failure is None else failure[0]
    if check:
        spec.check_nondegenerate(batch[:valid], g[:valid, :, :, 0])
    if failure is not None:
        k, output, exc = failure
        i, j = map(int, np.argwhere(position == output)[0])
        raise spec._component_error(batch[k], i, j, exc) from exc
    return JetTensor(g if points.ndim == 2 else g[0], space)


def metric_jets(spec, point, order):
    """Expand every metric component about ``point``; symmetric coefficientwise."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (spec.dim,):
        raise SpecError(f"point of dimension {point.shape} for {spec.dim} coordinates")
    g = metric_jet_tensor(spec, point, order)
    n = spec.dim
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = Jet(g.space, g.array[i, j], copy=False)
    return grid


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[{}\[\](),;:=^+\-*/])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = []
        self.params = {}

    # token helpers
    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            self.error(f"expected {value!r}, found {tok[1]!r}", tok)
        return tok

    def expect_ident(self):
        tok = self.next()
        if tok[0] != "ident":
            self.error(f"expected identifier, found {tok[1]!r}", tok)
        return tok

    def accept(self, value):
        if self.peek()[1] == value:
            self.next()
            return True
        return False

    # grammar
    def parse_manifold(self):
        self.expect("manifold")
        name = self.expect_ident()[1]
        self.expect("{")

        self.expect("coordinates")
        self.expect(":")
        while True:
            tok = self.expect_ident()
            if tok[1] in self.coords:
                self.error(f"duplicate coordinate {tok[1]!r}", tok)
            if tok[1] in FUNCTIONS:
                self.error(f"coordinate name {tok[1]!r} shadows a function", tok)
            self.coords.append(tok[1])
            if not self.accept(","):
                break
        self.expect(";")

        if self.peek()[1] == "parameters":
            self.next()
            self.expect(":")
            while True:
                tok = self.expect_ident()
                if tok[1] in self.coords or tok[1] in self.params:
                    self.error(f"parameter {tok[1]!r} collides with another name", tok)
                self.expect("=")
                self.params[tok[1]] = self.parse_signed_number()
                if not self.accept(","):
                    break
            self.expect(";")

        self.expect("metric")
        self.expect(":")
        rows, row_positions = self.parse_matrix()
        self.expect(";")

        base_point = None
        if self.peek()[1] == "base_point":
            self.next()
            self.expect(":")
            self.expect("(")
            base_point = [self.parse_signed_number()]
            while self.accept(","):
                base_point.append(self.parse_signed_number())
            self.expect(")")
            self.expect(";")

        assumptions = Assumptions()
        if self.peek()[1] == "assume":
            self.next()
            self.expect(":")
            flags = set()
            while True:
                tok = self.expect_ident()
                if tok[1] not in ("analytic", "simply_connected"):
                    self.error(f"unknown assumption flag {tok[1]!r}", tok)
                flags.add(tok[1])
                if not self.accept(","):
                    break
            self.expect(";")
            assumptions = Assumptions(analytic="analytic" in flags,
                                      simply_connected="simply_connected" in flags)

        self.expect("}")
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"trailing input {tok[1]!r}", tok)

        grid = self.finish_grid(rows, row_positions)
        params = tuple(sorted(self.params.items()))
        try:
            return make_spec(name, self.coords, grid, params=params,
                             base_point=base_point, assumptions=assumptions)
        except JetDomainError as exc:
            raise SpecError(f"base point outside the metric's domain: {exc}")

    def parse_matrix(self):
        self.expect("[")
        rows, positions = [], []
        while True:
            tok = self.expect("[")
            row = [self.parse_expr()]
            while self.accept(","):
                row.append(self.parse_expr())
            self.expect("]")
            rows.append(row)
            positions.append((tok[2], tok[3]))
            if not self.accept(","):
                break
        self.expect("]")
        return rows, positions

    def finish_grid(self, rows, row_positions):
        n = len(self.coords)
        if len(rows) != n:
            raise ParseError(f"metric has {len(rows)} rows for {n} coordinates",
                             *row_positions[0])
        grid = [[None] * n for _ in range(n)]
        for i, row in enumerate(rows):
            if len(row) == n:
                for j, e in enumerate(row):
                    grid[i][j] = e
            elif len(row) == n - i:
                # upper-triangle form: row i starts at the diagonal
                for k, e in enumerate(row):
                    grid[i][i + k] = e
            else:
                raise ParseError(
                    f"metric row {i + 1} has {len(row)} entries (expected {n} or {n - i})",
                    *row_positions[i])
        for i in range(n):
            for j in range(i + 1, n):
                lower, upper = grid[j][i], grid[i][j]
                if lower is None:
                    grid[j][i] = upper
                elif lower != upper:
                    raise SpecError(
                        f"metric grid is not symmetric as written at ({i + 1},{j + 1})")
        return grid

    def parse_signed_number(self):
        sign = 1.0
        while True:
            if self.accept("-"):
                sign = -sign
            elif self.accept("+"):
                pass
            else:
                break
        tok = self.next()
        if tok[0] != "number":
            self.error(f"expected number, found {tok[1]!r}", tok)
        return sign * float(tok[1])

    # expression grammar: + - | * / | unary - | ^int | atom
    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Binary(op, node, self.parse_term())
        return _fold(node)

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.accept("-"):
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.accept("^"):
            neg = self.accept("-")
            tok = self.next()
            if tok[0] != "number" or "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
                self.error(f"expected integer exponent, found {tok[1]!r}", tok)
            k = int(tok[1])
            if neg:
                return PowInt(Binary("/", Const(1.0), base), k)
            return PowInt(base, k)
        return base

    def parse_atom(self):
        tok = self.next()
        if tok[0] == "number":
            return Const(float(tok[1]))
        if tok[1] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok[0] == "ident":
            name = tok[1]
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(name, arg)
            if name in self.coords:
                return Coord(name, self.coords.index(name))
            if name in self.params:
                return Const(float(self.params[name]))
            self.error(f"unknown identifier {name!r}", tok)
        self.error(f"unexpected token {tok[1]!r}", tok)


def parse_manifold(text):
    """Parse a chart description; raises ParseError / SpecError on bad input."""
    return _Parser(text).parse_manifold()


def parse_expression(text, spec):
    """Parse one expression against a spec's coordinates (and parameters)."""
    p = _Parser(text)
    p.coords = list(spec.coords)
    p.params = dict(spec.params)
    node = p.parse_expr()
    tok = p.peek()
    if tok[0] != "eof":
        p.error(f"trailing input {tok[1]!r}", tok)
    return node


def parse_field(components, spec):
    """Parse vector-field components given as strings (or pass through Exprs)."""
    if isinstance(components, str):
        components = components.split(",")
    exprs = []
    for c in components:
        exprs.append(parse_expression(c, spec) if isinstance(c, str) else c)
    if len(exprs) != spec.dim:
        raise SpecError(f"field has {len(exprs)} components for dimension {spec.dim}")
    return exprs


# -- builtin catalog ----------------------------------------------------------

# dv-coefficient depends on v, so the null direction is recurrent, not parallel.
_WALKER_PROFILE = "x^2 * (1 + v) + x^3"

BUILTIN_NAMES = ("euclidean", "minkowski", "sphere2", "hyperbolic2",
                 "cahen_wallach", "walker_recurrent")


def _q_entries(params, n):
    q = params.get("q", 1.0)
    if isinstance(q, (int, float)):
        q = [float(q)] * n
    q = [float(v) for v in q]
    if len(q) != n:
        raise SpecError(f"expected {n} diagonal entries for q, got {len(q)}")
    if any(v == 0.0 for v in q):
        raise SpecError("q must be a non-degenerate diagonal: zero entry found")
    return q


def builtin(name, params=None, **kw):
    """Construct a catalog chart; ``params`` maps parameter names to numbers."""
    params = dict(params or {})
    params.update(kw)
    if name == "euclidean":
        n = int(params.get("n", 2))
        if n < 1:
            raise SpecError("euclidean needs n >= 1")
        coords = [f"x{i+1}" for i in range(n)]
        rows = ", ".join(
            "[" + ", ".join("1" if i == j else "0" for j in range(n)) + "]"
            for i in range(n))
        src = (f"manifold euclidean{n} {{\n"
               f"  coordinates: {', '.join(coords)};\n"
               f"  metric: [{rows}];\n"
               f"  assume: analytic, simply_connected;\n}}\n")
        return parse_manifold(src)
    if name == "minkowski":
        p = int(params.get("p", 1))
        q = int(params.get("q", 1))
        if p < 1 or q < 0:
            raise SpecError("minkowski needs p >= 1, q >= 0")
        coords = [f"t{i+1}" for i in range(p)] + [f"x{i+1}" for i in range(q)]
        n = p + q
        rows = ", ".join(
            "[" + ", ".join(("-1" if i < p else "1") if i == j else "0"
                            for j in range(n)) + "]"
            for i in range(n))
        src = (f"manifold minkowski{p}{q} {{\n"
               f"  coordinates: {', '.join(coords)};\n"
               f"  metric: [{rows}];\n"
               f"  assume: analytic, simply_connected;\n}}\n")
        return parse_manifold(src)
    if name == "sphere2":
        r = float(params.get("r", 1.0))
        if r <= 0:
            raise SpecError("sphere2 needs r > 0")
        src = (f"manifold sphere2 {{\n"
               f"  coordinates: theta, phi;\n"
               f"  parameters: r = {r!r};\n"
               f"  metric: [[r^2, 0], [0, r^2 * sin(theta)^2]];\n"
               f"  base_point: ({math.pi / 2!r}, 0);\n"
               f"  assume: analytic, simply_connected;\n}}\n")
        return parse_manifold(src)
    if name == "hyperbolic2":
        src = ("manifold hyperbolic2 {\n"
               "  coordinates: x, y;\n"
               "  metric: [[1 / y^2, 0], [0, 1 / y^2]];\n"
               "  base_point: (0, 1);\n"
               "  assume: analytic, simply_connected;\n}\n")
        return parse_manifold(src)
    if name == "cahen_wallach":
        n = int(params.get("n", 1))
        if n < 1:
            raise SpecError("cahen_wallach needs n >= 1")
        qs = _q_entries(params, n)
        coords = ["t", "v"] + [f"x{i+1}" for i in range(n)]
        quad = " + ".join(f"q{i+1} * x{i+1}^2" for i in range(n))
        dim = n + 2
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                if i == 0 and j == 0:
                    row.append(f"2 * ({quad})")
                elif {i, j} == {0, 1}:
                    row.append("1")
                elif i == j and i >= 2:
                    row.append("1")
                else:
                    row.append("0")
            rows.append("[" + ", ".join(row) + "]")
        assigns = ", ".join(f"q{i+1} = {qs[i]!r}" for i in range(n))
        src = (f"manifold cahen_wallach{n} {{\n"
               f"  coordinates: {', '.join(coords)};\n"
               f"  parameters: {assigns};\n"
               f"  metric: [{', '.join(rows)}];\n"
               f"  assume: analytic, simply_connected;\n}}\n")
        return parse_manifold(src)
    if name == "walker_recurrent":
        src = (f"manifold walker_recurrent {{\n"
               f"  coordinates: t, v, x;\n"
               f"  metric: [[{_WALKER_PROFILE}, 1, 0], [1, 0, 0], [0, 0, 1]];\n"
               f"  base_point: (0, 0, 0);\n"
               f"  assume: analytic, simply_connected;\n}}\n")
        return parse_manifold(src)
    raise SpecError(f"unknown builtin {name!r} (choose from {', '.join(BUILTIN_NAMES)})")


def known_killing_fields(name, params=None, **kw):
    """Component expressions of a full set of Killing fields for a catalog chart.

    Returned as lists of strings in the chart's coordinates; used by the field
    verifier and the transport tests as the explicit side of the bound.
    """
    params = dict(params or {})
    params.update(kw)
    if name == "euclidean":
        n = int(params.get("n", 2))
        coords = [f"x{i+1}" for i in range(n)]
        return _flat_fields(coords, [1.0] * n)
    if name == "minkowski":
        p = int(params.get("p", 1))
        q = int(params.get("q", 1))
        coords = [f"t{i+1}" for i in range(p)] + [f"x{i+1}" for i in range(q)]
        return _flat_fields(coords, [-1.0] * p + [1.0] * q)
    if name == "sphere2":
        return [
            ["0", "1"],
            ["-sin(phi)", "-cos(phi) * cos(theta) / sin(theta)"],
            ["cos(phi)", "-sin(phi) * cos(theta) / sin(theta)"],
        ]
    if name == "hyperbolic2":
        return [
            ["1", "0"],
            ["x", "y"],
            ["x^2 - y^2", "2 * x * y"],
        ]
    if name == "cahen_wallach":
        n = int(params.get("n", 1))
        qs = _q_entries(params, n)
        dim = n + 2
        fields = []
        for unit in range(2):  # d/dt and d/dv
            fields.append(["1" if k == unit else "0" for k in range(dim)])
        for i, qv in enumerate(qs):
            # profiles solve f'' = 2 q f; the pair spans the wave symmetries
            if qv > 0:
                w = math.sqrt(2 * qv)
                profiles = [(f"cosh({w!r} * t)", f"{w!r} * sinh({w!r} * t)"),
                            (f"sinh({w!r} * t)", f"{w!r} * cosh({w!r} * t)")]
            else:
                w = math.sqrt(-2 * qv)
                profiles = [(f"cos({w!r} * t)", f"-{w!r} * sin({w!r} * t)"),
                            (f"sin({w!r} * t)", f"{w!r} * cos({w!r} * t)")]
            for f, fprime in profiles:
                comp = ["0"] * dim
                comp[2 + i] = f
                comp[1] = f"-({fprime}) * x{i+1}"
                fields.append(comp)
        return fields
    raise SpecError(f"no field catalog for builtin {name!r}")


def _flat_fields(coords, signs):
    n = len(coords)
    fields = []
    for i in range(n):
        fields.append(["1" if k == i else "0" for k in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            comp = ["0"] * n
            comp[i] = coords[j]
            comp[j] = f"-({signs[i] * signs[j]!r}) * {coords[i]}"
            fields.append(comp)
    return fields
