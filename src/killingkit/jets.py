"""Truncated multivariate Taylor arithmetic.

A jet of order K in n variables stores the coefficients c_a of an expansion
sum_a c_a (x - p)^a over all multi-indices a with |a| <= K.  The coefficient
vector uses a fixed graded-lexicographic enumeration of the multi-indices, so
coefficients of total degree <= q always occupy a prefix of the vector; this
makes truncation a slice and keeps every matrix built downstream reproducible.

Two layers live here:

* ``JetTape`` -- a straight-line program of jet operations, compiled once
  from expression trees and evaluated on a batch of expansion points (a
  leading point axis on the coefficient arrays).  It is the package's only
  evaluator of expressions at points: metric values and jets, field germs
  and the field checks all come from it, under one failure rule (an
  elementary function outside its domain, or an output with a non-finite
  coefficient).
* ``JetTensor`` -- a numpy array of coefficient vectors (component axes first,
  coefficient axis last) with vectorised convolution/contraction helpers: the
  carrier of every jet the curvature engine reads, from the tape's metric
  jets on.

The Cauchy product and the elementary-function series act on coefficient
arrays with any leading axes, so the tape runs one implementation on a batch
of points.
"""
from __future__ import annotations

import math
import string
from collections import namedtuple
from functools import lru_cache

import numpy as np


class JetShapeError(ValueError):
    """Operands live in different jet spaces (n_vars or order differ)."""


class JetDomainError(ValueError):
    """Constant term lies outside the domain of an elementary function."""


class JetOrderError(ValueError):
    """A derivative beyond the truncation order was requested."""


def _multi_indices(n_vars, order):
    # graded lexicographic with x_0 > x_1 > ...: degree first, then the first
    # variable's exponent descending; puts e_i at position 1 + i.
    def gen(k, budget):
        if k == 1:
            for d in range(budget + 1):
                yield (d,)
            return
        for d in range(budget + 1):
            for rest in gen(k - 1, budget - d):
                yield (d,) + rest

    return sorted(gen(n_vars, order),
                  key=lambda a: (sum(a), tuple(-x for x in a)))


class JetSpace:
    """Shared coefficient layout for all jets with one (n_vars, order) pair."""

    def __init__(self, n_vars, order):
        if n_vars < 1 or order < 0:
            raise ValueError(f"invalid jet space ({n_vars}, {order})")
        self.n_vars = n_vars
        self.order = order
        self.exponents = np.asarray(_multi_indices(n_vars, order), dtype=np.int64)
        self.size = len(self.exponents)
        self.index = {tuple(map(int, a)): i for i, a in enumerate(self.exponents)}
        self._prefix = [math.comb(q + n_vars, n_vars) for q in range(order + 1)]

    def size_at(self, order):
        """Number of coefficients of total degree <= order (a prefix length)."""
        return self._prefix[order]

    def __repr__(self):
        return f"JetSpace(n_vars={self.n_vars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(n_vars, order):
    return JetSpace(n_vars, order)


_MulTable = namedtuple("_MulTable", "ai bi starts")


@lru_cache(maxsize=None)
def _mul_table(n_vars, qa, qb, qout):
    # Triples (gamma, alpha, beta) with alpha + beta = gamma, sorted by gamma,
    # so a truncated Cauchy product is gather / multiply / segment-sum.
    if qout > qa + qb:
        raise JetOrderError(f"product order {qout} exceeds {qa}+{qb}")
    sa = jet_space(n_vars, qa)
    sb = jet_space(n_vars, qb)
    so = jet_space(n_vars, qout)
    rows = []
    for ia in range(sa.size_at(min(qa, qout))):
        alpha = sa.exponents[ia]
        room = qout - int(alpha.sum())
        nb = sb.size_at(min(qb, room))
        gammas = alpha + sb.exponents[:nb]
        for ib in range(nb):
            rows.append((so.index[tuple(map(int, gammas[ib]))], ia, ib))
    rows.sort()
    gi = np.array([r[0] for r in rows], dtype=np.int64)
    ai = np.array([r[1] for r in rows], dtype=np.int64)
    bi = np.array([r[2] for r in rows], dtype=np.int64)
    uniq, starts = np.unique(gi, return_index=True)
    if len(uniq) != so.size:
        raise AssertionError("incomplete multiplication table")
    return _MulTable(ai, bi, starts)


@lru_cache(maxsize=None)
def _deriv_table(n_vars, order):
    # d/dx_i maps the coefficient of a + e_i, scaled by a_i + 1, onto a.
    if order < 1:
        raise JetOrderError("cannot differentiate an order-0 jet")
    s = jet_space(n_vars, order)
    s1 = jet_space(n_vars, order - 1)
    src = np.empty((n_vars, s1.size), dtype=np.int64)
    fac = np.empty((n_vars, s1.size), dtype=np.float64)
    for t, alpha in enumerate(s1.exponents):
        a = tuple(map(int, alpha))
        for i in range(n_vars):
            beta = a[:i] + (a[i] + 1,) + a[i + 1:]
            src[i, t] = s.index[beta]
            fac[i, t] = a[i] + 1
    return src, fac


def _cauchy(a, b, tab):
    """Truncated Cauchy product of coefficient arrays along their last axis;
    any leading axes (a point axis, say) broadcast."""
    return np.add.reduceat(a[..., tab.ai] * b[..., tab.bi], tab.starts, axis=-1)


# -- elementary functions ---------------------------------------------------
#
# Coefficient arrays carry the coefficient axis last and any number of leading
# axes, so one implementation serves a constant jet of a tape (no point axis)
# and a batch of points.  Each function reports where its constant term
# leaves the domain instead of raising, so a batch can tell which point
# failed first.

@lru_cache(maxsize=None)
def _factorials(order):
    return np.array([math.factorial(k) for k in range(order + 1)], dtype=np.float64)


# The transcendental functions come from ``math``, entry by entry: the same
# values, and the same overflow and domain errors, as a scalar evaluation.
_MATH = {"exp": (math.exp,), "sin": (math.sin, math.cos), "cos": (math.sin, math.cos),
         "sinh": (math.sinh, math.cosh), "cosh": (math.sinh, math.cosh)}


def _math(fn, c0):
    """``fn`` at each entry of the array ``c0``, and the mask of the entries
    where it raises (their values are nan)."""
    values, bad = [], []
    for v in c0.ravel().tolist():
        try:
            values.append(fn(v))
            bad.append(False)
        except (OverflowError, ValueError):
            values.append(math.nan)
            bad.append(True)
    return np.array(values).reshape(c0.shape), np.array(bad, dtype=bool).reshape(c0.shape)


def _series_coefficients(tag, c0, order):
    """Univariate Taylor coefficients f^(k)(c0)/k! for k = 0..order, on a new
    last axis, and the mask of constant terms where ``tag`` is undefined (the
    error is ``_elementary_error``)."""
    c0 = np.asarray(c0, dtype=np.float64)
    out = np.empty(c0.shape + (order + 1,))
    if tag in _MATH:
        # the derivatives of exp, sin, cos, sinh and cosh repeat with period 1, 4 or 2
        f, bad = _math(_MATH[tag][0], c0)
        if tag == "exp":
            cycle = (f,)
        else:
            g, bad2 = _math(_MATH[tag][1], c0)
            bad = bad | bad2
            if tag in ("sin", "cos"):
                cycle = (f, g, -f, -g) if tag == "sin" else (g, -f, -g, f)
            else:
                cycle = (f, g) if tag == "sinh" else (g, f)
        fact = _factorials(order)
        for k in range(order + 1):
            out[..., k] = cycle[k % len(cycle)] / fact[k]
        return out, bad
    with np.errstate(all="ignore"):
        if tag == "sqrt":
            out[..., 0] = np.sqrt(c0)
            for k in range(1, order + 1):
                out[..., k] = out[..., k - 1] * (0.5 - (k - 1)) / (k * c0)
            return out, c0 <= 0.0
        if tag == "reciprocal":
            out[..., 0] = 1.0 / c0
            for k in range(1, order + 1):
                out[..., k] = -out[..., k - 1] / c0
            return out, c0 == 0.0
    raise ValueError(f"unknown elementary function tag {tag!r}")


def _elementary_error(tag, c0):
    """The exception ``tag`` raises at a constant term ``c0`` outside its
    domain: a domain error, or the overflow or domain error of ``math``."""
    if tag == "reciprocal":
        return JetDomainError("reciprocal of jet with zero constant term")
    if tag == "sqrt":
        return JetDomainError(f"sqrt of jet with constant term {float(c0)} <= 0")
    for fn in _MATH[tag]:
        try:
            fn(float(c0))
        except (OverflowError, ValueError) as exc:
            return exc
    raise AssertionError(f"{tag} is defined at {float(c0)}")


def _compose(x, c, tab):
    """The series with coefficients ``c`` (from ``_series_coefficients`` at
    the constant terms of ``x``) composed with the jets ``x``, by Horner
    evaluation in the nilpotent part."""
    order = c.shape[-1] - 1
    if order == 0:
        return c
    b = np.array(x, dtype=np.float64)
    b[..., 0] = 0.0
    # the first Horner step multiplies by a constant jet: a scaling
    r = b * c[..., order, None]
    r[..., 0] += c[..., order - 1]
    for k in range(order - 2, -1, -1):
        r = _cauchy(r, b, tab)
        r[..., 0] += c[..., k]
    return r


def _power(x, exponent, tab):
    """Non-negative integer power of the jets ``x`` by repeated squaring."""
    result, base = None, x
    while exponent:
        if exponent & 1:
            result = base if result is None else _cauchy(result, base, tab)
        exponent >>= 1
        if exponent:
            base = _cauchy(base, base, tab)
    if result is None:
        result = np.zeros(np.shape(x))
        result[..., 0] = 1.0
    return result


# -- straight-line programs over jets ----------------------------------------

class JetTape:
    """A straight-line program over jets, compiled once and evaluated on a
    batch of expansion points.

    ``ops`` lists tuples ``(kind, *args)``; an argument naming another op is
    its index in the list, always an earlier one.  The kinds are
    ``("const", value)``, ``("coord", i)``, ``("add", a, b)``, ``("sub", a,
    b)``, ``("neg", a)``, ``("mul", a, b)``, ``("scale", a, k)`` (the product
    with op k, whose value is a constant jet), ``("pow", a, exponent)`` with
    a non-negative integer exponent, and ``(tag, a)`` for the elementary
    functions ``reciprocal``, ``sqrt``, ``exp``, ``sin``, ``cos``, ``sinh``
    and ``cosh``.  ``outputs`` are the ops whose jets ``evaluate`` returns,
    and ``owners[op]`` is the first output that reads the op.
    """

    __slots__ = ("ops", "outputs", "owners")

    def __init__(self, ops, outputs, owners):
        self.ops = tuple(ops)
        self.outputs = tuple(outputs)
        self.owners = tuple(owners)

    def evaluate(self, points, space):
        """Jets of the outputs about each row of ``points`` (shape (P,
        n_vars)): an array of shape (P, len(outputs), space.size), and None
        or, for the failure a point-by-point evaluation would have met first,
        ``(point, output, error)``: the index of the earliest failing point,
        the earliest output failing there and its error.  An output fails
        where an op it reads leaves the domain of its elementary function
        (the exception of the first such op), or else where its jet has a
        non-finite coefficient (an OverflowError)."""
        points = np.asarray(points, dtype=np.float64)
        n_points, order = len(points), space.order
        tab = _mul_table(space.n_vars, order, order, order)
        vals = []
        first_failure = None   # per point, the first op that failed there
        with np.errstate(all="ignore"):
            for index, op in enumerate(self.ops):
                kind = op[0]
                if kind == "const":
                    v = np.zeros(space.size)
                    v[0] = op[1]
                elif kind == "coord":
                    i = op[1]
                    if not 0 <= i < space.n_vars:
                        raise JetShapeError(
                            f"variable index {i} out of range for {space}")
                    v = np.zeros((n_points, space.size))
                    v[:, 0] = points[:, i]
                    if order >= 1:
                        v[:, 1 + i] = 1.0
                elif kind == "add":
                    v = vals[op[1]] + vals[op[2]]
                elif kind == "sub":
                    v = vals[op[1]] - vals[op[2]]
                elif kind == "neg":
                    v = -vals[op[1]]
                elif kind == "mul":
                    v = _cauchy(vals[op[1]], vals[op[2]], tab)
                elif kind == "scale":
                    v = vals[op[1]] * vals[op[2]][..., :1]
                elif kind == "pow":
                    v = _power(vals[op[1]], op[2], tab)
                else:
                    x = vals[op[1]]
                    c, bad = _series_coefficients(kind, x[..., 0], order)
                    v = _compose(x, c, tab)
                    if bad.any():
                        if first_failure is None:
                            first_failure = np.full(n_points, len(self.ops))
                        first_failure[np.broadcast_to(bad, (n_points,))
                                      & (first_failure > index)] = index
                vals.append(v)
        out = np.empty((n_points, len(self.outputs), space.size))
        for k, o in enumerate(self.outputs):
            out[:, k] = vals[o]
        finite = np.isfinite(out).all(axis=-1)
        if first_failure is None and finite.all():
            return out, None
        # per point, the earliest output with a domain error, and the earliest
        # output failing at all (n_outputs: none)
        n_outputs = len(self.outputs)
        domain = np.full(n_points, n_outputs)
        if first_failure is not None:
            failed = first_failure < len(self.ops)
            domain[failed] = np.asarray(self.owners)[first_failure[failed]]
        output = np.minimum(domain, np.where(finite.all(axis=1), n_outputs,
                                             np.argmin(finite, axis=1)))
        point = int(np.argmax(output < n_outputs))
        k = int(output[point])
        if domain[point] > k:
            bad = out[point, k][~np.isfinite(out[point, k])]
            return out, (point, k, OverflowError(f"jet has non-finite coefficient {bad[0]}"))
        op = self.ops[first_failure[point]]
        c0 = vals[op[1]][..., 0]
        c0 = c0 if c0.ndim == 0 else c0[point]
        return out, (point, k, _elementary_error(op[0], c0))


def compile_tape(roots):
    """Compile expression trees into one ``JetTape`` whose outputs follow
    ``roots``.

    A node describes itself by ``node.jet_op()``: ``((kind, *params),
    operands)``, with kind "const" (param: the value), "coord" (param: the
    variable index), "add", "sub", "mul", "div", "neg", "pow" (param: an
    integer exponent) or an elementary function.  Equal subtrees, within one
    tree or across trees, become one op.  The ops of each tree come in the
    order a recursive evaluation visits its nodes (operands first, left
    before right), so the first op to fail at a point is the node such an
    evaluation would fail at.
    """
    ops, index, constant, owners, outputs = [], {}, [], [], []

    def emit(op, is_constant):
        k = index.get(op)
        if k is None:
            k = index[op] = len(ops)
            ops.append(op)
            constant.append(is_constant)
            owners.append(len(outputs))
        return k

    def walk(node):
        (kind, *params), operands = node.jet_op()
        args = [walk(x) for x in operands]
        is_constant = kind == "const" or (bool(args) and all(constant[a] for a in args))
        if kind == "div":   # a / b is a times the reciprocal of b
            kind, args[1] = "mul", emit(("reciprocal", args[1]), constant[args[1]])
        if kind == "pow" and params[0] < 0:
            args[0], params[0] = emit(("reciprocal", args[0]), is_constant), -params[0]
        if kind == "mul" and (constant[args[0]] or constant[args[1]]):
            kind, args = "scale", args if constant[args[1]] else args[::-1]
        return emit((kind, *args, *params), is_constant)

    for root in roots:
        outputs.append(walk(root))
    return JetTape(ops, outputs, owners)


# -- stacked tensors of jets -------------------------------------------------

class JetTensor:
    """A numpy array of jets sharing one space; coefficient axis is last."""

    __slots__ = ("array", "space")

    def __init__(self, array, space):
        array = np.asarray(array, dtype=np.float64)
        if array.shape[-1] != space.size:
            raise JetShapeError(
                f"coefficient axis {array.shape[-1]} does not match {space}"
            )
        self.array = array
        self.space = space

    @property
    def n_vars(self):
        return self.space.n_vars

    @property
    def order(self):
        return self.space.order

    @property
    def shape(self):
        return self.array.shape[:-1]

    def value(self):
        """Component values at the expansion point."""
        return self.array[..., 0].copy()

    def truncated(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise JetOrderError(f"cannot extend order {self.order} to {order}")
        s = jet_space(self.n_vars, order)
        return JetTensor(self.array[..., :s.size], s)

    def __add__(self, other):
        if not isinstance(other, JetTensor) or other.space is not self.space:
            raise JetShapeError("JetTensor addition needs a common space")
        return JetTensor(self.array + other.array, self.space)

    def __sub__(self, other):
        if not isinstance(other, JetTensor) or other.space is not self.space:
            raise JetShapeError("JetTensor subtraction needs a common space")
        return JetTensor(self.array - other.array, self.space)

    def __neg__(self):
        return JetTensor(-self.array, self.space)

    def scaled(self, factor):
        return JetTensor(self.array * factor, self.space)


_CHUNK_ELEMS = 30_000_000

# A contraction takes the sparse path when its dense work (table pairs times
# the product of all index sizes) is at least this, and at most a quarter of
# its component pairs join two nonzero components.  Below it, finding the
# supports (about 0.1 ms) costs more than skipping the zero pairs saves.
# Measured per call over the benchmark's three workloads at seeds 5 and 9
# (2-vCPU host, one BLAS thread): the summed contraction time was lowest
# between 2e4 and 5e4 on each, and the sparse path on every call made it
# about 40% slower than all-dense on kernel.  Any share from 5% to 40%
# picked the same path on every call.
_SPARSE_MIN_WORK = 40_000


def _support(arr, letters, weights):
    """The components of ``arr`` whose jets are not identically zero: their
    jets, and for each dict of letter weights in ``weights``, the sum of
    their index along each letter times its weight (a flat index)."""
    nz = arr.any(axis=-1)
    rows = np.flatnonzero(nz)
    w = np.array([[wt.get(c, 0) for c in letters] for wt in weights], dtype=np.int64)
    return arr.reshape(-1, arr.shape[-1])[rows], w @ np.array(np.unravel_index(rows, nz.shape))


def _strides(letters, dims):
    """The weight of each letter in the flat index of a C-ordered array."""
    out, step = {}, 1
    for c in reversed(letters):
        out[c] = step
        step *= dims[c]
    return out


def _sparse_product(ga, gb, join, tab, out_shape, out_space):
    """The contraction of ``tensor_product`` over joined pairs of nonzero
    components only.  ``ga`` and ``gb`` hold the nonzero components' jets
    gathered along the table; ``join`` is, for each joined pair, its entry
    in ``ga``, its entry in ``gb`` and its flat output index, sorted by that
    index.  Pairs with one output index are summed before the segment sum
    over coefficients, as in the dense path, and the sums are scattered into
    a zero output."""
    ia, ib, fo = join
    coeffs = np.zeros((math.prod(out_shape), out_space.size))
    block = max(1, _CHUNK_ELEMS // len(tab.ai))
    for lo in range(0, len(fo), block):
        f = fo[lo:lo + block]
        first = np.flatnonzero(np.diff(f, prepend=-1))
        prod = ga[ia[lo:lo + block]] * gb[ib[lo:lo + block]]
        if len(first) < len(f):
            prod = np.add.reduceat(prod, first, axis=0)
        coeffs[f[first]] += np.add.reduceat(prod, tab.starts, axis=-1)
    return coeffs.reshape(out_shape + (out_space.size,))


def _sparse_join(la, lb, out_sub, a, b, tab, dims):
    """The operands of ``_sparse_product``, or None when the dense path
    should run: more than a quarter of the component pairs join two nonzero
    components, or a nonzero component has a non-finite coefficient (whose
    products with zero components the dense path would keep)."""
    shared = [c for c in la if c in lb]
    key = _strides(shared, dims)
    out = _strides(out_sub, dims)
    ja, (key_a, out_a) = _support(a, la, (key, out))
    jb, (key_b, out_b) = _support(b, lb, (key, {c: w for c, w in out.items() if c not in la}))
    count_b = np.bincount(key_b, minlength=math.prod(dims[c] for c in shared))
    reps = count_b[key_a]
    joined = int(reps.sum())
    if 4 * joined > math.prod(dims.values()):
        return None
    if not (np.isfinite(ja).all() and np.isfinite(jb).all()):
        return None
    # in key order, the b entries an a entry meets are the run of its key
    by_key = np.argsort(key_b, kind="stable")
    run_start = (np.cumsum(count_b) - count_b)[key_a]
    ia = np.repeat(np.arange(len(reps)), reps)
    within = np.arange(joined) - np.repeat(np.cumsum(reps) - reps, reps)
    ib = by_key[np.repeat(run_start, reps) + within]
    fo = out_a[ia] + out_b[ib]
    order = np.argsort(fo, kind="stable")
    return ja[:, tab.ai], jb[:, tab.bi], (ia[order], ib[order], fo[order])


def tensor_product(sub, a, b, order=None):
    """Contraction of two JetTensors with a truncated Cauchy product.

    ``sub`` is an einsum subscript over the component axes only, e.g.
    ``'kl,lij->kij'``; the coefficient axes convolve.  A large contraction
    whose component pairs are mostly zero multiplies only the pairs of
    nonzero components; the terms it skips are exact zeros.
    """
    lhs, out_sub = sub.split("->")
    la, lb = lhs.split(",")
    if order is None:
        order = min(a.order, b.order)
    out_space = jet_space(a.n_vars, order)
    tab = _mul_table(a.n_vars, a.order, b.order, order)
    used = set(la) | set(lb) | set(out_sub)
    t = next(c for c in string.ascii_letters if c not in used)
    expr = f"{la}{t},{lb}{t}->{out_sub}{t}"

    dims = {}
    for letters, arr in ((la, a.array), (lb, b.array)):
        for axis, c in enumerate(letters):
            dims[c] = arr.shape[axis]
    out_shape = tuple(dims[c] for c in out_sub)
    out_comp = math.prod(out_shape)

    npairs = len(tab.ai)
    # the join needs each letter once per operand and one size per letter
    if (npairs * math.prod(dims.values()) >= _SPARSE_MIN_WORK and la and lb
            and len(set(la)) == len(la) and len(set(lb)) == len(lb)
            and a.array.shape[:-1] == tuple(dims[c] for c in la)):
        operands = _sparse_join(la, lb, out_sub, a.array, b.array, tab, dims)
        if operands is not None:
            return JetTensor(_sparse_product(*operands, tab, out_shape, out_space), out_space)

    if out_comp * npairs <= _CHUNK_ELEMS or len(tab.starts) == 1:
        prod = np.einsum(expr, a.array[..., tab.ai], b.array[..., tab.bi])
        coeffs = np.add.reduceat(prod, tab.starts, axis=-1)
        return JetTensor(coeffs, out_space)

    # Large intermediate: process blocks of output coefficients.
    coeffs = np.empty(out_shape + (out_space.size,))
    block = max(1, _CHUNK_ELEMS // max(1, out_comp * (npairs // len(tab.starts) + 1)))
    starts = list(tab.starts) + [npairs]
    for lo in range(0, out_space.size, block):
        hi = min(lo + block, out_space.size)
        s0, s1 = starts[lo], starts[hi]
        prod = np.einsum(expr, a.array[..., tab.ai[s0:s1]], b.array[..., tab.bi[s0:s1]])
        local = np.asarray(starts[lo:hi]) - s0
        coeffs[..., lo:hi] = np.add.reduceat(prod, local, axis=-1)
    return JetTensor(coeffs, out_space)


def tensor_deriv(a):
    """All partial derivatives; appends the derivative axis before the coefficient axis."""
    src, fac = _deriv_table(a.n_vars, a.order)
    return JetTensor(a.array[..., src] * fac, jet_space(a.n_vars, a.order - 1))
