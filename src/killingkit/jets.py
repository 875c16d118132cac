"""Truncated multivariate Taylor arithmetic.

A jet of order K in n variables stores the coefficients c_a of an expansion
sum_a c_a (x - p)^a over all multi-indices a with |a| <= K.  The coefficient
vector uses a fixed graded-lexicographic enumeration of the multi-indices, so
coefficients of total degree <= q always occupy a prefix of the vector; this
makes truncation a slice and keeps every matrix built downstream reproducible.

Two layers live here:

* ``Jet`` -- a single scalar expansion with operator overloads, the public
  carrier used by the metric DSL and the field checks.
* ``JetTensor`` -- a numpy array of coefficient vectors (component axes first,
  coefficient axis last) with vectorised convolution/contraction helpers, used
  by the curvature engine where plain Jets would be too slow.
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


class Jet:
    """One truncated Taylor expansion; treat instances as immutable."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs, copy=True):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (space.size,):
            raise JetShapeError(
                f"coefficient vector of length {coeffs.shape} does not fit {space}"
            )
        if copy:
            coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, space, value):
        c = np.zeros(space.size)
        c[0] = value
        return cls(space, c, copy=False)

    @classmethod
    def variable(cls, space, i, base_value):
        """The expansion of the i-th coordinate about a point with x_i = base_value."""
        if not 0 <= i < space.n_vars:
            raise JetShapeError(f"variable index {i} out of range for {space}")
        c = np.zeros(space.size)
        c[0] = base_value
        if space.order >= 1:
            c[1 + i] = 1.0
        return cls(space, c, copy=False)

    # -- basic queries -----------------------------------------------------

    @property
    def n_vars(self):
        return self.space.n_vars

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        """The constant term, i.e. the value at the expansion point."""
        return float(self.coeffs[0])

    def coefficient(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        idx = self.space.index.get(alpha)
        if idx is None:
            raise JetOrderError(f"multi-index {alpha} not stored in {self.space}")
        return float(self.coeffs[idx])

    def deriv(self, i):
        """Partial derivative along coordinate i, as a jet of one order less."""
        src, fac = _deriv_table(self.n_vars, self.order)
        return Jet(jet_space(self.n_vars, self.order - 1),
                   self.coeffs[src[i]] * fac[i], copy=False)

    def truncated(self, order):
        if order > self.order:
            raise JetOrderError(f"cannot extend order {self.order} jet to {order}")
        s = jet_space(self.n_vars, order)
        return Jet(s, self.coeffs[:s.size], copy=False)

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetShapeError(
                    f"mixed jet spaces {self.space} and {other.space}"
                )
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Jet.constant(self.space, float(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.space, self.coeffs + other.coeffs, copy=False)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.space, self.coeffs - other.coeffs, copy=False)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.space, other.coeffs - self.coeffs, copy=False)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, copy=False)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return jet_mul(self, jet_elementary("reciprocal", other))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return jet_mul(other, jet_elementary("reciprocal", self))

    def __pow__(self, exponent):
        return jet_elementary("pow_int", self, exponent=exponent)


def _same_space(a, b):
    if not isinstance(a, Jet) or not isinstance(b, Jet):
        raise TypeError("expected Jet operands")
    if a.space is not b.space:
        raise JetShapeError(f"mixed jet spaces {a.space} and {b.space}")


def jet_add(a, b):
    _same_space(a, b)
    return Jet(a.space, a.coeffs + b.coeffs, copy=False)


def jet_mul(a, b):
    """Cauchy product truncated at the common order."""
    _same_space(a, b)
    k = a.order
    tab = _mul_table(a.n_vars, k, k, k)
    prod = a.coeffs[tab.ai] * b.coeffs[tab.bi]
    return Jet(a.space, np.add.reduceat(prod, tab.starts), copy=False)


def jet_partial(a, alpha):
    """The derivative value d^alpha at the expansion point, i.e. alpha! * c_alpha."""
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != a.n_vars:
        raise JetShapeError(f"multi-index length {len(alpha)} != n_vars {a.n_vars}")
    if sum(alpha) > a.order:
        raise JetOrderError(f"|{alpha}| exceeds jet order {a.order}")
    scale = 1.0
    for x in alpha:
        scale *= math.factorial(x)
    return scale * a.coefficient(alpha)


# -- elementary functions ---------------------------------------------------

def _series_coefficients(tag, c0, order):
    """Univariate Taylor coefficients f^(k)(c0)/k! for k = 0..order."""
    ks = range(order + 1)
    if tag == "exp":
        e = math.exp(c0)
        return [e / math.factorial(k) for k in ks]
    if tag in ("sin", "cos"):
        cycle = [math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0)]
        off = 0 if tag == "sin" else 1
        return [cycle[(k + off) % 4] / math.factorial(k) for k in ks]
    if tag in ("sinh", "cosh"):
        pair = [math.sinh(c0), math.cosh(c0)]
        off = 0 if tag == "sinh" else 1
        return [pair[(k + off) % 2] / math.factorial(k) for k in ks]
    if tag == "sqrt":
        if c0 <= 0.0:
            raise JetDomainError(f"sqrt of jet with constant term {c0} <= 0")
        out = [math.sqrt(c0)]
        for k in range(1, order + 1):
            out.append(out[-1] * (0.5 - (k - 1)) / (k * c0))
        return out
    if tag == "reciprocal":
        if c0 == 0.0:
            raise JetDomainError("reciprocal of jet with zero constant term")
        out = [1.0 / c0]
        for _ in range(order):
            out.append(-out[-1] / c0)
        return out
    raise ValueError(f"unknown elementary function tag {tag!r}")


def jet_elementary(tag, a, exponent=None):
    """Compose an elementary function with a jet.

    ``pow_int`` needs the integer ``exponent``; negative exponents are taken
    as positive powers of the reciprocal.
    """
    if not isinstance(a, Jet):
        raise TypeError("expected a Jet")
    if tag == "pow_int":
        if exponent is None or int(exponent) != exponent:
            raise ValueError("pow_int requires an integer exponent")
        exponent = int(exponent)
        if exponent < 0:
            return jet_elementary("pow_int", jet_elementary("reciprocal", a),
                                  exponent=-exponent)
        result = Jet.constant(a.space, 1.0)
        base = a
        e = exponent
        while e:
            if e & 1:
                result = jet_mul(result, base)
            e >>= 1
            if e:
                base = jet_mul(base, base)
        return result
    coeffs = _series_coefficients(tag, a.value, a.order)
    # Horner evaluation in the nilpotent part b = a - a(0).
    b = a - a.value
    result = Jet.constant(a.space, coeffs[-1])
    for k in range(a.order - 1, -1, -1):
        result = jet_mul(result, b) + coeffs[k]
    return result


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

    def jet(self, *idx):
        return Jet(self.space, self.array[idx])

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


def tensor_from_grid(grid):
    """Stack a (nested) sequence of Jets into a JetTensor."""
    def walk(node):
        if isinstance(node, Jet):
            return node.coeffs, node.space
        rows = [walk(child) for child in node]
        space = rows[0][1]
        for _, s in rows:
            if s is not space:
                raise JetShapeError("grid entries live in different jet spaces")
        return np.stack([r[0] for r in rows]), space

    array, space = walk(grid)
    return JetTensor(array, space)


_CHUNK_ELEMS = 30_000_000


def tensor_product(sub, a, b, order=None):
    """Contraction of two JetTensors with a truncated Cauchy product.

    ``sub`` is an einsum subscript over the component axes only, e.g.
    ``'kl,lij->kij'``; the coefficient axes convolve.
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
    out_comp = 1
    for c in out_sub:
        out_comp *= dims[c]

    npairs = len(tab.ai)
    if out_comp * npairs <= _CHUNK_ELEMS or len(tab.starts) == 1:
        prod = np.einsum(expr, a.array[..., tab.ai], b.array[..., tab.bi])
        coeffs = np.add.reduceat(prod, tab.starts, axis=-1)
        return JetTensor(coeffs, out_space)

    # Large intermediate: process blocks of output coefficients.
    out_shape = tuple(dims[c] for c in out_sub)
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
