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
  coefficient axis last): the carrier of every jet the curvature engine
  reads, from the tape's metric jets on.  ``tensor_product`` contracts two
  of them with a truncated Cauchy product, as one matrix product with the
  multiplication operator of the operand with fewer components.

The Cauchy product and the elementary-function series act on coefficient
arrays with any leading axes, so the tape runs one implementation on a batch
of points.
"""
from __future__ import annotations

import math
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


def _positions(space, exponents):
    """The position in ``space`` of each row of ``exponents`` (multi-indices
    of total degree <= space.order): each multi-index is read as a number in
    base order + 1 and looked up among the space's sorted keys."""
    weights = (space.order + 1) ** np.arange(space.n_vars, dtype=np.int64)
    keys = space.exponents @ weights
    order = np.argsort(keys)
    return order[np.searchsorted(keys, exponents @ weights, sorter=order)]


@lru_cache(maxsize=None)
def _mul_table(n_vars, qa, qb, qout):
    # Triples (gamma, alpha, beta) with alpha + beta = gamma, sorted by gamma,
    # then alpha, so a truncated Cauchy product is gather / multiply /
    # segment-sum.
    if qout > qa + qb:
        raise JetOrderError(f"product order {qout} exceeds {qa}+{qb}")
    sa = jet_space(n_vars, qa)
    sb = jet_space(n_vars, qb)
    so = jet_space(n_vars, qout)
    alphas = sa.exponents[:sa.size_at(min(qa, qout))]
    betas = sb.exponents[:sb.size_at(min(qb, qout))]
    ai, bi = np.nonzero(alphas.sum(axis=1)[:, None] + betas.sum(axis=1) <= qout)
    gi = _positions(so, alphas[ai] + betas[bi])
    rows = np.lexsort((ai, gi))
    ai, bi, gi = ai[rows], bi[rows], gi[rows]
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
    alphas = jet_space(n_vars, order - 1).exponents
    unit = np.eye(n_vars, dtype=np.int64)
    src = _positions(s, alphas[None, :, :] + unit[:, None, :])
    fac = (alphas.T + 1).astype(np.float64)
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


# -- straight-line programs over jets ----------------------------------------

class JetTape:
    """A straight-line program over jets, compiled once and evaluated on a
    batch of expansion points.

    ``ops`` lists tuples ``(kind, *args)``; an argument naming another op is
    its index in the list, always an earlier one.  The kinds are
    ``("const", value)``, ``("coord", i)``, ``("add", a, b)``, ``("sub", a,
    b)``, ``("neg", a)``, ``("mul", a, b)`` (every product: by a constant
    jet too, and each squaring and product of a power) and ``(tag, a)`` for
    the elementary functions ``reciprocal``, ``sqrt``, ``exp``, ``sin``,
    ``cos``, ``sinh`` and ``cosh``.  An op on constants alone evaluates to
    a constant jet, with no point axis, whose only nonzero coefficient is
    its constant term; ``evaluate`` takes a product with one by scaling the
    other operand, every bit of the Cauchy product on finite jets.
    ``outputs`` are the ops whose jets ``evaluate`` returns, and
    ``owners[op]`` is the first output that reads the op.
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
                    x, y = vals[op[1]], vals[op[2]]
                    if y.ndim == 1:   # a constant jet: its constant term scales
                        v = x * y[0]
                    elif x.ndim == 1:
                        v = y * x[0]
                    else:
                        v = _cauchy(x, y, tab)
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
    integer exponent) or an elementary function.  A quotient becomes a
    product with a reciprocal, and a power the squarings and products of
    repeated squaring (of the reciprocal, for a negative exponent), so the
    tape's ops are those ``JetTape`` lists.  Equal subtrees, within one
    tree or across trees, become one op, and so do equal squarings and
    products.  The ops of each tree come in the order a recursive
    evaluation visits its nodes (operands first, left before right), so the
    first op to fail at a point is the node such an evaluation would fail
    at.
    """
    ops, index, owners, outputs = [], {}, [], []

    def emit(op):
        k = index.get(op)
        if k is None:
            k = index[op] = len(ops)
            ops.append(op)
            owners.append(len(outputs))
        return k

    def power(base, exponent):
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else emit(("mul", result, base))
            exponent >>= 1
            if exponent:
                base = emit(("mul", base, base))
        return emit(("const", 1.0)) if result is None else result

    def walk(node):
        (kind, *params), operands = node.jet_op()
        args = [walk(x) for x in operands]
        if kind == "div":   # a / b is a times the reciprocal of b
            kind, args[1] = "mul", emit(("reciprocal", args[1]))
        if kind == "pow":
            base = args[0] if params[0] >= 0 else emit(("reciprocal", args[0]))
            return power(base, abs(params[0]))
        return emit((kind, *args, *params))

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

    def scaled(self, factor):
        return JetTensor(self.array * factor, self.space)


_CHUNK_ELEMS = 30_000_000

# ``tensor_product`` takes each contraction one of three ways, chosen from
# shapes, orders and supports only, never from the number of points, and
# point by point (a batch whose points would choose differently is taken
# one point at a time), so a point's result is the same bit for bit alone
# or in a batch.
#
# * The operator, by default: the operand with fewer components becomes its
#   multiplication operator and the contraction is one matrix product.  Its
#   matrix holds (y coefficients) x (output coefficients) entries per
#   component, where the gather holds the table's pairs, so the operator
#   grows faster with the order; it is not taken where it would hold more
#   floats at a point than the gather does.
#   Measured, operator against gather, us a call (2-vCPU host, one BLAS
#   thread, random dense operands of one order), with the floats each holds
#   a point; the gather is taken in the rows marked *:
#
#     contraction        n  order  operator floats  gather floats  operator  gather
#     ia,ab->ib          2    3            480             420         35      24  *
#     ia,ab->ib          4    4         80,640          23,760         84     199  *
#     kl,lij->kij        4    3         24,080          23,760         68     164  *
#     kl,lij->kij        6    4      1,678,320         851,760       4841    4681  *
#     lim,mjk->lkij      4    3         89,600          63,360        233     658  *
#     aZA,Abcd->abcdZ    4    3        123,200         221,760        624    1673
#     aZA,Abcd->abcdZ    6    2        423,360         845,208       2247    6880
#     aZA,Abcd->abcdZ    8    1        373,248         635,392       1228    5172
#
# * The join, where the operator's cost reaches ``_SPARSE_MIN_WORK``
#   multiply-adds a point and the pairs of nonzero components cost less, at
#   ``_JOIN_COST`` each plus ``_SPARSE_MIN_WORK``: only those pairs are
#   multiplied.  Finding the supports and joining them costs 0.1-0.3 ms,
#   each joined multiply-add 6-10 ns and an operator one about 0.07 ns.
#   Measured on the contractions of product charts, operator against join,
#   us a call:
#
#     contraction        n  order  operator madds  joined madds  operator  join
#     aZA,Abcd->abcdZ    6    1       2.3e6              52          231   333
#     lim,mjk->lkij      8    1       2.7e6              68          274   279
#     lim,mjk->lkij      6    2       6.1e6             182          536   270
#     kl,lij->kij        8    2       8.3e6            1836          644   354
#
# * The gather, where the operator would hold more floats: both operands
#   are gathered along the table and multiplied by one einsum over every
#   component pair.
#
# Every way takes finite operands and plain subscripts only (each letter at
# most once in an operand, read by the other operand or the output): nan
# times an operator's zero entry is nan where the join skips the pair.  The
# curvature chain refuses a non-finite jet, as the tape does.
_SPARSE_MIN_WORK = 3_000_000
_JOIN_COST = 128
_OPERATOR, _JOIN, _GATHER = range(3)


def _support(arr, letters, weights):
    """The components of ``arr`` whose jets are not identically zero: their
    flat indices, and for each dict of letter weights in ``weights``, the
    sum of their index along each letter times its weight (a flat index)."""
    nz = arr.any(axis=-1)
    rows = np.flatnonzero(nz)
    w = np.array([[wt.get(c, 0) for c in letters] for wt in weights], dtype=np.int64)
    return rows, w @ np.array(np.unravel_index(rows, nz.shape))


def _strides(letters, dims):
    """The weight of each letter in the flat index of a C-ordered array."""
    out, step = {}, 1
    for c in reversed(letters):
        out[c] = step
        step *= dims[c]
    return out


def _join(la, lb, out_sub, batch, a, b, dims):
    """The pairs of nonzero components that meet in a contraction: their
    number at each point of the batch, and a function that lists them: the
    supports' jets, and for each pair its entry in each support and its flat
    output index, sorted by that index."""
    shared = [c for c in la if c in lb]
    key = _strides(shared, dims)
    out = _strides(out_sub, dims)
    rows_a, (key_a, out_a, point_a) = _support(a, la, (key, out, _strides(batch, dims)))
    rows_b, (key_b, out_b) = _support(b, lb, (key, {c: w for c, w in out.items() if c not in la}))
    count_b = np.bincount(key_b, minlength=math.prod(dims[c] for c in shared))
    reps = count_b[key_a]

    def pairs():
        # in key order, the b entries an a entry meets are the run of its key
        by_key = np.argsort(key_b, kind="stable")
        run_start = (np.cumsum(count_b) - count_b)[key_a]
        ia = np.repeat(np.arange(len(reps)), reps)
        within = np.arange(len(ia)) - np.repeat(np.cumsum(reps) - reps, reps)
        ib = by_key[np.repeat(run_start, reps) + within]
        fo = out_a[ia] + out_b[ib]
        order = np.argsort(fo, kind="stable")
        return (a.reshape(-1, a.shape[-1])[rows_a], b.reshape(-1, b.shape[-1])[rows_b],
                (ia[order], ib[order], fo[order]))
    return np.bincount(point_a, weights=reps, minlength=math.prod(dims[c] for c in batch)), pairs


def _joined_product(ja, jb, join, tab, out_shape, out_space):
    """The contraction over the pairs of nonzero components of ``_join``
    only.  Pairs with one output index are summed before the segment sum
    over coefficients, and the sums fill a zero output.  The blocks of
    pairs end where an output index does, so each output is summed at once,
    whatever else the contraction holds."""
    ia, ib, fo = join
    ga, gb = ja[:, tab.ai], jb[:, tab.bi]
    coeffs = np.zeros((math.prod(out_shape), out_space.size))
    block = max(1, _CHUNK_ELEMS // len(tab.ai))
    bounds = np.searchsorted(fo, fo[::block])
    bounds = np.append(bounds[np.diff(bounds, prepend=-1) > 0], len(fo))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        f = fo[lo:hi]
        first = np.flatnonzero(np.diff(f, prepend=-1))
        prod = ga[ia[lo:hi]] * gb[ib[lo:hi]]
        if len(first) < len(f):
            prod = np.add.reduceat(prod, first, axis=0)
        coeffs[f[first]] = np.add.reduceat(prod, tab.starts, axis=-1)
    return coeffs.reshape(out_shape + (out_space.size,))


def _gathered_product(expr, a, b, tab, out_shape, out_space):
    """The contraction over every component pair: both operands gathered
    along the table, one einsum over every index letter and the pair axis,
    and the segment sum; in blocks of output coefficients where the einsum
    would exceed ``_CHUNK_ELEMS`` entries."""
    npairs, out_comp = len(tab.ai), math.prod(out_shape)
    if out_comp * npairs <= _CHUNK_ELEMS or len(tab.starts) == 1:
        return np.add.reduceat(np.einsum(expr, a[..., tab.ai], b[..., tab.bi]),
                               tab.starts, axis=-1)
    coeffs = np.empty(out_shape + (out_space.size,))
    block = max(1, _CHUNK_ELEMS // max(1, out_comp * (npairs // len(tab.starts) + 1)))
    starts = list(tab.starts) + [npairs]
    for lo in range(0, out_space.size, block):
        hi = min(lo + block, out_space.size)
        s0, s1 = starts[lo], starts[hi]
        prod = np.einsum(expr, a[..., tab.ai[s0:s1]], b[..., tab.bi[s0:s1]])
        coeffs[..., lo:hi] = np.add.reduceat(prod, np.asarray(starts[lo:hi]) - s0, axis=-1)
    return coeffs


_Plan = namedtuple("_Plan", "la lb out_sub dims batch lead out_shape held "
                            "madds x_perm x_shape op_shape scatter y_size y_perm y_shape "
                            "res_shape out_perm key")


@lru_cache(maxsize=None)
def _scatter_index(n_vars, qa, qb, qout, x_is_a, n_free):
    """Where the multiplication operator of the operand x (``a`` when
    ``x_is_a``) puts the pairs of the table: for each of x's ``n_free``
    free components and each pair, the flat index of (the other operand's
    coefficient beta, free component, output coefficient gamma) within the
    operator's rows of one summed component; and x's coefficient of each
    pair, gamma - beta."""
    tab = _mul_table(n_vars, qa, qb, qout)
    out_size = jet_space(n_vars, qout).size
    gi = np.repeat(np.arange(out_size), np.diff(np.append(tab.starts, len(tab.ai))))
    xi, yi = (tab.ai, tab.bi) if x_is_a else (tab.bi, tab.ai)
    return (yi * n_free + np.arange(n_free)[:, None]) * out_size + gi, xi


@lru_cache(maxsize=None)
def _plan(sub, a_shape, b_shape, n_vars, qa, qb, order):
    """What the shapes and orders tell about one contraction: the letters'
    roles, the numbers ``tensor_product`` chooses its way by (the floats
    the operator and the gather hold, and the operator's multiply-adds) and
    the layout of the operator's matrix product.

    The operand x with fewer components (batch letters aside) becomes the
    operator, of shape (summed components x the other operand's
    coefficients beta, free components x output coefficients gamma): x's
    coefficient gamma - beta where that is a multi-index of x, else zero.
    The other operand, y, is laid out as (y's free components, summed
    components x beta), and the matrix product of the two is the result
    with its components as (y's free ones, x's free ones)."""
    lhs, out_sub = sub.split("->")
    la, lb = lhs.split(",")
    if any(len(set(s)) < len(s) or not set(s) <= set(t + out_sub) for s, t in ((la, lb), (lb, la))):
        raise ValueError(f"subscript {sub!r}: an operand letter must appear once "
                         "and be read by the other operand or the output")
    dims = {**dict(zip(la, a_shape)), **dict(zip(lb, b_shape))}
    batch = "".join(c for c in out_sub if c in la and c in lb)
    lead = tuple(dims[c] for c in batch)

    def size(letters):
        return math.prod(dims[c] for c in letters if c not in batch)

    x_is_a = size(la) <= size(lb)
    lx, ly, qy = (la, lb, qb) if x_is_a else (lb, la, qa)
    summed = "".join(c for c in lx if c in ly and c not in batch)
    free_x = "".join(c for c in lx if c not in ly)
    free_y = "".join(c for c in ly if c not in lx)
    n_sum, n_free, n_free_y = size(summed), size(free_x), size(free_y)
    npairs = len(_mul_table(n_vars, qa, qb, order).ai)
    y_size = jet_space(n_vars, min(qy, order)).size
    out_size = jet_space(n_vars, order).size
    madds = size(ly) * y_size * n_free * out_size
    # the floats each way holds at a point: the operator, y laid out and the
    # product; both operands gathered along the table and the einsum
    held = (n_sum * n_free * y_size * out_size + size(ly) * y_size + size(out_sub) * out_size,
            (size(la) + size(lb) + size(out_sub)) * npairs)
    res = batch + free_y + free_x
    return _Plan(
        la=la, lb=lb, out_sub=out_sub, dims=dims, batch=batch, lead=lead,
        out_shape=tuple(dims[c] for c in out_sub), held=held, madds=madds,
        x_perm=tuple(lx.index(c) for c in batch + summed + free_x) + (len(lx),),
        x_shape=lead + (n_sum, n_free, npairs),
        op_shape=(lead + (n_sum, y_size * n_free * out_size),
                  lead + (n_sum * y_size, n_free * out_size)),
        scatter=(n_vars, qa, qb, order, x_is_a, n_free),
        y_size=y_size, y_perm=tuple((ly + ".").index(c) for c in batch + free_y + summed + "."),
        y_shape=lead + (n_free_y, n_sum * y_size),
        res_shape=tuple(dims[c] for c in res) + (out_size,),
        out_perm=tuple(res.index(c) for c in out_sub) + (len(res),),
        # what, besides x's array, fixes the operator built from it
        key=(x_is_a, "".join("b" if c in batch else "s" if c in summed else "f" for c in lx),
             n_vars, qa, qb, order))


def _shape_way(p):
    """The way the shapes choose: the operator, unless it would hold more
    floats at a point than the gather."""
    return _OPERATOR if p.held[0] <= p.held[1] else _GATHER


def _ways(p, xa, xb, npairs):
    """The way each point of the batch takes (one for a batch of none), and
    the join's lister of pairs when a point takes the join, else None.

    The way the shapes choose, but where the operator's multiply-adds reach
    ``_SPARSE_MIN_WORK`` the supports are looked at, and a point whose
    joined pairs cost less takes the join."""
    way, cost = _shape_way(p), p.madds
    if not (p.la and p.lb) or cost < _SPARSE_MIN_WORK or not math.prod(p.lead):
        return [way], None
    counts, pairs = _join(p.la, p.lb, p.out_sub, p.batch, xa, xb, p.dims)
    ways = np.where(_SPARSE_MIN_WORK + _JOIN_COST * npairs * counts < cost, _JOIN, way).tolist()
    return ways, pairs if _JOIN in ways else None


def tensor_product(sub, a, b, order=None, operators=None):
    """Contraction of two JetTensors with a truncated Cauchy product.

    ``sub`` is an einsum subscript over the component axes only, e.g.
    ``'kl,lij->kij'``; the coefficient axes convolve.  A letter in both
    operands and in the output is a batch letter, such as the point axis P.

    Subscripts are plain, else ValueError: each letter at most once in an
    operand (no diagonal) and read by the other operand or by the output (no
    sum within one operand).  Coefficients must be finite.

    The operand with fewer components (batch letters aside) becomes its
    multiplication operator, and the contraction is one matrix product,
    batched over the batch letters.  A large contraction whose component
    pairs are mostly zero multiplies only the pairs of nonzero components
    instead.  Where the operator would hold more floats than both operands
    gathered along the multiplication table, they are gathered (see the
    comment above ``_SPARSE_MIN_WORK``).  Each way agrees with the sum over
    every component pair up to the order of summation.

    ``operators`` is a dict in which the operators built are kept for
    reuse by later calls that pass the same dict; an operator is reused
    only by a call that makes the same, unchanged array its operator.
    """
    if order is None:
        order = min(a.order, b.order)
    out_space = jet_space(a.n_vars, order)
    tab = _mul_table(a.n_vars, a.order, b.order, order)
    p = _plan(sub, a.array.shape[:-1], b.array.shape[:-1], a.n_vars, a.order, b.order, order)
    ways, pairs = _ways(p, a.array, b.array, len(tab.ai))
    if len(set(ways)) > 1:
        # the points disagree: each is taken as it would be alone
        coeffs = np.empty(p.out_shape + (out_space.size,))
        drop = {ord(c): None for c in p.batch}
        alone = f"{p.la.translate(drop)},{p.lb.translate(drop)}->{p.out_sub.translate(drop)}"
        for point in np.ndindex(p.lead):
            at = dict(zip(p.batch, point))
            pa, pb, po = (tuple(at.get(c, slice(None)) for c in s)
                          for s in (p.la, p.lb, p.out_sub))
            coeffs[po] = tensor_product(alone, JetTensor(a.array[pa], a.space),
                                        JetTensor(b.array[pb], b.space), order).array
        return JetTensor(coeffs, out_space)
    way = ways[0]
    if way == _JOIN:
        return JetTensor(_joined_product(*pairs(), tab, p.out_shape, out_space), out_space)
    if way == _GATHER:
        return JetTensor(_gathered_product(f"{p.la}...,{p.lb}...->{p.out_sub}...", a.array,
                                           b.array, tab, p.out_shape, out_space), out_space)

    x, y = (a.array, b.array) if p.key[0] else (b.array, a.array)
    kept = (operators or {}).get(p.key)
    if kept is not None and kept[0] is x:
        op = kept[1]
    else:
        index, xi = _scatter_index(*p.scatter)
        op = np.zeros(p.op_shape[0])
        op[..., index] = np.take(x.transpose(p.x_perm), xi, axis=-1).reshape(p.x_shape)
        op = op.reshape(p.op_shape[1])
        if operators is not None:
            operators[p.key] = (x, op)
    res = np.matmul(y[..., :p.y_size].transpose(p.y_perm).reshape(p.y_shape), op)
    return JetTensor(res.reshape(p.res_shape).transpose(p.out_perm), out_space)


def tensor_deriv(a):
    """All partial derivatives; appends the derivative axis before the coefficient axis."""
    src, fac = _deriv_table(a.n_vars, a.order)
    # C order: the product keeps the fancy index's layout, whose strides
    # would make every in-place slot term of a covariant derivative walk
    # the whole array
    return JetTensor(np.ascontiguousarray(a.array[..., src] * fac),
                     jet_space(a.n_vars, a.order - 1))
