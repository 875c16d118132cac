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
import numbers
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .jets import JetDomainError, JetTensor, compile_tape, jet_space


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
    def jet_op(self):
        """This node as an operation of ``jets.compile_tape``:
        ``((kind, *params), operand nodes)``."""
        raise NotImplementedError

    def to_text(self):
        return self._text(0)

    def _text(self, parent_prec):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def jet_op(self):
        return ("const", self.value), ()

    def _text(self, parent_prec):
        if self.value < 0 and parent_prec > 0:
            return f"({self.value!r})"
        return repr(self.value)


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


# The parser and the catalog build every node through these four, which fold
# as they build: parameter-free subtrees collapse to constants, and domain
# errors and non-finite values are left to evaluation.  Their operands are
# already folded, so no tree is walked twice.

def _neg(a):
    return Const(-a.value) if type(a) is Const else Neg(a)


def _binary(op, a, b):
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _folded(Binary(op, a, b), _ARITHMETIC[op], a.value, b.value)
    # 1 * f keeps a unit parameter (sphere2 at r = 1) out of the printed form;
    # other unit operands stay, so the tape still evaluates and checks f
    if op == "*" and ca and a.value == 1.0:
        return b
    return Binary(op, a, b)


def _pow(a, exponent):
    if type(a) is Const:
        return _folded(PowInt(a, exponent), pow, a.value, exponent)
    return PowInt(a, exponent)


def _call(fn, a):
    # sqrt(0) stays unfolded: its derivatives are infinite, so the tape refuses it
    if type(a) is Const and not (fn == "sqrt" and a.value == 0.0):
        return _folded(Call(fn, a), getattr(math, fn), a.value)
    return Call(fn, a)


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
    """A parsed chart: coordinates, metric expressions, base point, assumptions.

    Built only by ``make_spec``, which checks that the metric is
    nondegenerate at the base point."""

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
        return _metric_jet_tensor(self, point, 0, check=False)[0].array[..., 0].copy()

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
        named.  Returns whether det g > 0 (at each point), from the
        determinant the check takes."""
        g = self.metric_values(point) if g is None else g
        top = np.abs(g).max(axis=(-2, -1), keepdims=True)
        unit = g / np.where(top > 0, top, 1.0)
        rows = np.sqrt((unit * unit).sum(axis=-1)).prod(axis=-1)
        unit_det = np.linalg.det(unit)
        bad = np.abs(unit_det) <= DEGENERACY_FACTOR * rows
        if bad.any():
            first = int(np.argmax(bad))
            p = np.reshape(point, (-1, self.dim))[first]
            det = np.linalg.det(np.reshape(g, (-1, self.dim, self.dim))[first])
            raise DegenerateMetricError(
                f"metric of {self.name!r} degenerate at {tuple(map(float, p))}: "
                f"det = {det:g}")
        return unit_det > 0

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


def make_spec(name, coords, metric, params=(), base_point=None, assumptions=None):
    """Assemble and validate a ManifoldSpec from already-built expression rows:
    the metric must be nondegenerate at the base point."""
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
    spec.check_nondegenerate(base_point)
    return spec


def _read_spec(name, coords, metric, params, base_point, assumptions):
    """``make_spec`` for a chart file or a catalog chart: ``params`` maps
    names to values, and a base point outside the metric's domain is a
    SpecError."""
    try:
        return make_spec(name, coords, metric, params=tuple(sorted(params.items())),
                         base_point=base_point, assumptions=assumptions)
    except JetDomainError as exc:
        raise SpecError(f"base point outside the metric's domain: {exc}")


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
    metric, at the earliest failing point.  The base point alone, as a
    point or as a batch of one row, is not checked again: ``make_spec``
    checked it, and the order-0 coefficients of any order are the values it
    checked.
    """
    points = np.asarray(point, dtype=np.float64)
    base = points.size == spec.dim and tuple(points.ravel().tolist()) == spec.base_point
    return _metric_jet_tensor(spec, points, order, check=not base)[0]


def metric_det_positive(spec, points):
    """The check of ``metric_jet_tensor`` at order 0 of each row of a (P, n)
    array of points, the base point too, raising what it raises; returns
    whether det g > 0 at each point, from the determinant the
    nondegeneracy check takes."""
    return _metric_jet_tensor(spec, points, 0, check=True)[1]


def _metric_jet_tensor(spec, point, order, check):
    """``metric_jet_tensor`` and whether det g > 0 at each point, with the
    nondegeneracy check, which tells that, only if ``check`` (else None)."""
    points = np.asarray(point, dtype=np.float64)
    if points.ndim not in (1, 2) or points.shape[-1:] != (spec.dim,):
        raise SpecError(f"point of dimension {points.shape[-1:]} for {spec.dim} coordinates")
    batch = points.reshape(-1, spec.dim)
    space = jet_space(spec.dim, order)
    coeffs, failure = spec.metric_tape.evaluate(batch, space)
    position = _upper_position(spec.dim)
    g = coeffs[:, position]
    valid = len(batch) if failure is None else failure[0]
    positive = spec.check_nondegenerate(batch[:valid], g[:valid, :, :, 0]) if check else None
    if failure is not None:
        k, output, exc = failure
        i, j = map(int, np.argwhere(position == output)[0])
        raise spec._component_error(batch[k], i, j, exc) from exc
    return JetTensor(g if points.ndim == 2 else g[0], space), positive


# -- tokenizer / parser -------------------------------------------------------

# Each match skips whitespace, newlines and comments, then takes one token:
# the end of the text, or a character no token starts with.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
     | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
     | (?P<sym>[{}\[\](),;:=^+\-*/])
     | (?P<eof>\Z)
     | (?P<bad>.))
""", re.VERBOSE)


def _line_col(text, offset):
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text):
    """Tokens ``(kind, text, offset)``, the last one ``("eof", "", len(text))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", *_line_col(text, start))
        tokens.append((kind, m[kind], start))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
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
        raise ParseError(message, *_line_col(self.text, tok[2]))

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
        if self.tokens[self.pos][1] == value:
            self.next()
            return True
        return False

    def read(self, rule):
        """``rule(self)``; nesting too deep for the recursion limit is a ParseError."""
        try:
            return rule(self)
        except RecursionError:   # in the parser, or in finish_grid's ==
            pass
        self.error("expression nested too deeply")

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
        rows, row_tokens = self.parse_matrix()
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

        grid = self.finish_grid(rows, row_tokens)
        return _read_spec(name, self.coords, grid, self.params, base_point, assumptions)

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
            positions.append(tok)
            if not self.accept(","):
                break
        self.expect("]")
        return rows, positions

    def finish_grid(self, rows, row_tokens):
        n = len(self.coords)
        if len(rows) != n:
            self.error(f"metric has {len(rows)} rows for {n} coordinates", row_tokens[0])
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
                self.error(f"metric row {i + 1} has {len(row)} entries "
                           f"(expected {n} or {n - i})", row_tokens[i])
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

    # expression grammar: + - | * / | unary - | ^int | atom; every node is
    # folded as it is built
    def parse_expr(self):
        node = self.parse_term()
        tokens = self.tokens
        while (op := tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            node = _binary(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        tokens = self.tokens
        while (op := tokens[self.pos][1]) in ("*", "/"):
            self.pos += 1
            node = _binary(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.accept("-"):
            return _neg(self.parse_factor())
        base = self.parse_atom()
        if not self.accept("^"):
            return base
        neg = self.accept("-")
        tok = self.next()
        if tok[0] != "number" or "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
            self.error(f"expected integer exponent, found {tok[1]!r}", tok)
        k = int(tok[1])
        if neg:
            return _pow(_binary("/", Const(1.0), base), k)
        return _pow(base, k)

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
                return _call(name, arg)
            if name in self.coords:
                return Coord(name, self.coords.index(name))
            if name in self.params:
                return Const(float(self.params[name]))
            self.error(f"unknown identifier {name!r}", tok)
        self.error(f"unexpected token {tok[1]!r}", tok)


def parse_manifold(text):
    """Parse a chart description; raises ParseError / SpecError on bad input."""
    return _Parser(text).read(_Parser.parse_manifold)


def parse_expression(text, spec):
    """Parse one expression against a spec's coordinates (and parameters)."""
    p = _Parser(text)
    p.coords = list(spec.coords)
    p.params = dict(spec.params)
    node = p.read(_Parser.parse_expr)
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

def _count(name, key, value, least):
    """Parameter ``key`` of builtin ``name``: an integer >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise SpecError(f"{name} parameter {key} must be an integer >= {least}, "
                        f"got {value!r}")
    return int(value)


def _number(name, key, value):
    """Parameter ``key`` of builtin ``name``: a finite number."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise SpecError(f"{name} parameter {key} must be a finite number, got {value!r}")
    return float(value)


def _chart(name, coords, metric, params=(), base_point=None):
    """A catalog chart from its coordinate names, its metric as a function of
    the coordinates' ``Coord`` nodes that returns the full grid of trees, its
    (name, value) parameters and its base point (the origin if None).  The
    trees are built with the folding constructors, as the parser builds
    them.  Every catalog chart is analytic and simply connected."""
    nodes = [Coord(c, i) for i, c in enumerate(coords)]
    return _read_spec(name, coords, metric(*nodes), dict(params), base_point,
                      Assumptions(analytic=True, simply_connected=True))


def _flat(name, coords, signs):
    """The flat chart diag(signs) in ``coords``, with its translations and
    its rotations and boosts."""
    n = len(coords)

    def metric(*x):
        return [[Const(signs[i] if i == j else 0.0) for j in range(n)] for i in range(n)]

    fields = []
    for i in range(n):
        fields.append(["1" if k == i else "0" for k in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            comp = ["0"] * n
            comp[i] = coords[j]
            comp[j] = f"-({signs[i] * signs[j]!r}) * {coords[i]}"
            fields.append(comp)
    return _chart(name, coords, metric), fields


def _euclidean(n=2):
    n = _count("euclidean", "n", n, 1)
    return _flat(f"euclidean{n}", [f"x{i+1}" for i in range(n)], [1.0] * n)


def _minkowski(p=1, q=1):
    p = _count("minkowski", "p", p, 1)
    q = _count("minkowski", "q", q, 0)
    coords = [f"t{i+1}" for i in range(p)] + [f"x{i+1}" for i in range(q)]
    return _flat(f"minkowski{p}{q}", coords, [-1.0] * p + [1.0] * q)


def _sphere2(r=1.0):
    r = _number("sphere2", "r", r)
    if r <= 0:
        raise SpecError(f"sphere2 parameter r must be > 0, got {r!r}")

    def metric(theta, phi):
        # [[r^2, 0], [0, r^2 * sin(theta)^2]]
        r2 = _pow(Const(r), 2)
        return [[r2, Const(0.0)],
                [Const(0.0), _binary("*", r2, _pow(_call("sin", theta), 2))]]

    chart = _chart("sphere2", ["theta", "phi"], metric, params=[("r", r)],
                   base_point=(math.pi / 2, 0))
    return chart, [
        ["0", "1"],
        ["-sin(phi)", "-cos(phi) * cos(theta) / sin(theta)"],
        ["cos(phi)", "-sin(phi) * cos(theta) / sin(theta)"],
    ]


def _hyperbolic2():
    def metric(x, y):
        # [[1 / y^2, 0], [0, 1 / y^2]]
        h = _binary("/", Const(1.0), _pow(y, 2))
        return [[h, Const(0.0)], [Const(0.0), h]]

    chart = _chart("hyperbolic2", ["x", "y"], metric, base_point=(0, 1))
    return chart, [
        ["1", "0"],
        ["x", "y"],
        ["x^2 - y^2", "2 * x * y"],
    ]


def _cahen_wallach(n=1, q=1.0):
    n = _count("cahen_wallach", "n", n, 1)
    qs = [_number("cahen_wallach", "q", v)
          for v in (q if isinstance(q, (list, tuple, np.ndarray)) else [q] * n)]
    if len(qs) != n:
        raise SpecError(f"cahen_wallach parameter q must have {n} entries, got {len(qs)}")
    if any(v == 0.0 for v in qs):
        raise SpecError("cahen_wallach parameter q must be a non-degenerate diagonal: "
                        "zero entry found")
    dim = n + 2

    def metric(t, v, *x):
        # g_tt = 2 * (q1 * x1^2 + ... + qn * xn^2), g_tv = 1, g_xixi = 1
        terms = [_binary("*", Const(qv), _pow(xi, 2)) for qv, xi in zip(qs, x)]
        grid = [[Const(1.0 if 2 <= i == j else 0.0) for j in range(dim)] for i in range(dim)]
        grid[0][0] = _binary("*", Const(2.0), reduce(
            lambda total, term: _binary("+", total, term), terms))
        grid[0][1] = grid[1][0] = Const(1.0)
        return grid

    chart = _chart(f"cahen_wallach{n}", ["t", "v"] + [f"x{i+1}" for i in range(n)], metric,
                   params=[(f"q{i+1}", v) for i, v in enumerate(qs)])
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
    return chart, fields


def _walker_recurrent():
    def metric(t, v, x):
        # g_tt = x^2 * (1 + v) + x^3, g_tv = 1, g_xx = 1: the dv-coefficient
        # depends on v, so the null direction is recurrent, not parallel
        g_tt = _binary("+", _binary("*", _pow(x, 2), _binary("+", Const(1.0), v)),
                       _pow(x, 3))
        return [[g_tt, Const(1.0), Const(0.0)],
                [Const(1.0), Const(0.0), Const(0.0)],
                [Const(0.0), Const(0.0), Const(1.0)]]

    return _chart("walker_recurrent", ["t", "v", "x"], metric), None


# The catalog: each builtin's builder, the names of its parameters and
# those parameters as ``catalog`` lists them.  A builder takes the chart's
# parameters as keyword arguments, checks them, and returns the chart and
# the component strings of a full set of its Killing fields, or None where
# the catalog lists none.
BUILTINS = {
    "euclidean": (_euclidean, ("n",), "n (dimension, default 2)"),
    "minkowski": (_minkowski, ("p", "q"), "p, q (negative/positive directions)"),
    "sphere2": (_sphere2, ("r",), "r (radius, default 1)"),
    "hyperbolic2": (_hyperbolic2, (), "none (upper half-plane)"),
    "cahen_wallach": (_cahen_wallach, ("n", "q"), "n, q (diagonal entries, q=a:b:...)"),
    "walker_recurrent": (_walker_recurrent, (), "none"),
}


def _build(name, params, kw):
    """The chart and Killing fields of builtin ``name``, from the parameters
    in ``params`` and ``kw``; raises SpecError for an unknown name or key."""
    if name not in BUILTINS:
        raise SpecError(f"unknown builtin {name!r} (choose from {', '.join(BUILTINS)})")
    build, accepted, _ = BUILTINS[name]
    params = dict(params or {})
    params.update(kw)
    for key in params:
        if key not in accepted:
            raise SpecError(f"{name} has no parameter {key!r} "
                            f"(it takes {', '.join(accepted) or 'none'})")
    return build(**params)


def builtin(name, params=None, **kw):
    """Construct a catalog chart; ``params`` maps parameter names to numbers."""
    return _build(name, params, kw)[0]


def known_killing_fields(name, params=None, **kw):
    """Component expressions of a full set of Killing fields for a catalog chart.

    Returned as lists of strings in the chart's coordinates; used by the field
    verifier and the transport tests as the explicit side of the bound.  The
    parameters are checked as ``builtin`` checks them.
    """
    fields = _build(name, params, kw)[1]
    if fields is None:
        raise SpecError(f"no field catalog for builtin {name!r}")
    return fields
