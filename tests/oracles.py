"""Independent oracles: the float tree walk and finite differences of it, a
generator of random (domain-safe) expression trees, the tree-walking jet
evaluator, the curvature and its covariant derivatives over every component
of the whole tensor, the tower's levels as whole tensors, the jet-level prolongation
recursion, the tower's matrix contracted against a basis of the
metric-skew endomorphisms, the tower's residual on a germ, the bundle curvature applied to a germ, Killing transport stepped
stage by stage, charts changed by an affine change of coordinates and a
constant metric factor, the product trace from the whole product tower,
unit frames computed afresh at every order, jet contractions taken
densely over every component pair, and the points near a base point as
``killing-dim --multi-point`` chose them before ``killing.nearby_points``,
the jet multiplication and derivative tables built in Python loops, the
catalog charts written as text and parsed, and the report rounded before
the standard JSON encoder writes it.

The package evaluates every expression with its compiled ``JetTape``.  The
float tree walk here is how expressions were evaluated at points before
that: plain float arithmetic, node by node.  The finite-difference oracles
difference it, so they avoid the jet code path on purpose; these are the
reference values the jet-based computations are checked against.  The
whole-tensor levels (``integrability_tensors``) are the tower's closed form
as the package built it before ``killing.tower_level`` gathered only the
independent rows: every one of the n^(4+m) rows, the coefficient of A as an
n^(6+m)-float array.  The recursion is the tower as it was built before
that closed form: it differentiates the jets of the tower's coefficients
level by level, so it shares the jet layer but none of the closed form's
algebra.  The tree walk is how expressions became jets before
they were compiled into a ``JetTape``: one coefficient vector per node,
visited recursively, with no shared subexpressions and no batch of points;
it runs the tape's Cauchy product and series kernels one node at a time, and
takes a power by its own repeated squaring, where the tape compiles one into
shared products.
The whole-tensor curvature chain is how ``CurvatureData`` computed covR
before it kept the curvature lowered in pair form: R from two products of
the connection with itself, and each covariant derivative over all n^(4+m)
components with the first slot upper.
The dense contraction is how ``tensor_product`` contracted every operand before
it learned to skip zero components: one einsum over all component pairs.
The basis contraction is how the tower's matrix in a unit frame built the
A-columns before it read them off the frame's signs: A's coefficient contracted with
every entry of each basis matrix g^-1 (E_rs - E_sr), g^-1 from
``np.linalg.inv``.  The perturbed points are the rule ``nearby_points``
keeps bit for bit on charts of dimension >= 2; on a 1-D chart it repeated
points.  The loop-built tables, the text catalog and the rounding walk are
how the package built those before numpy built the tables, the catalog
built expression trees and ``cli`` wrote the report in one walk; the
package must match them exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from killingkit.curvature import (CurvatureData, OrderExhaustedError, _points, christoffel,
                                  covariant_derivative, point_frame, unpack)
from killingkit.jets import (JetDomainError, JetTensor, _cauchy, _compose, _elementary_error,
                             _mul_table, _series_coefficients, jet_space,
                             tensor_deriv, tensor_product)
from killingkit.killing import KillingGerm, _kernel_trace
from killingkit.metricdsl import (Binary, Call, Const, Coord, Neg, PowInt, make_spec,
                                  substitute_coords)
from killingkit.product import product_metric

FD_STEP = 1e-4


# -- the float tree walk ------------------------------------------------------

def _domain_error(v):
    raise JetDomainError(f"sqrt of non-positive value {v}")


_FLOAT_FUNCS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "sinh": math.sinh, "cosh": math.cosh,
    "sqrt": lambda v: math.sqrt(v) if v > 0 else _domain_error(v),
}


def float_eval(expr, point):
    """The value of an expression at ``point``, walking its tree node by node
    in float arithmetic."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Coord):
        return float(point[expr.index])
    if isinstance(expr, Binary):
        a = float_eval(expr.left, point)
        b = float_eval(expr.right, point)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if b == 0.0:
            raise JetDomainError("division by zero")
        return a / b
    if isinstance(expr, Neg):
        return -float_eval(expr.arg, point)
    if isinstance(expr, PowInt):
        return float_eval(expr.base, point) ** expr.exponent
    if isinstance(expr, Call):
        return _FLOAT_FUNCS[expr.fn](float_eval(expr.arg, point))
    raise TypeError(f"unknown expression node {expr!r}")


def float_metric(spec, point):
    """The metric at ``point`` by the float tree walk, component by component."""
    n = spec.dim
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = float_eval(spec.metric[i][j], point)
    return g


# -- finite differences ---------------------------------------------------------

def fd_metric_partials(spec, p, h=FD_STEP):
    """d_k g_ij by central differences of the float metric evaluation."""
    p = np.asarray(p, dtype=np.float64)
    n = spec.dim
    dg = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[:, :, k] = (float_metric(spec, p + e) - float_metric(spec, p - e)) / (2 * h)
    return dg


def fd_christoffel(spec, p, h=FD_STEP):
    """Connection coefficients straight from the defining formula, with all
    metric derivatives taken by finite differences."""
    g = float_metric(spec, p)
    ginv = np.linalg.inv(g)
    dg = fd_metric_partials(spec, p, h)
    sym = (np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg)
           - np.einsum("ijl->lij", dg))
    return 0.5 * np.einsum("kl,lij->kij", ginv, sym)


def fd_riemann(spec, p, h=1e-3):
    """Curvature values from finite differences of the finite-difference
    connection; accurate to around 1e-5 on unit-scale charts."""
    p = np.asarray(p, dtype=np.float64)
    n = spec.dim
    gamma = fd_christoffel(spec, p)
    dgamma = np.empty((n, n, n, n))  # d_i gamma[l, j, k]
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        dgamma[:, :, :, i] = (fd_christoffel(spec, p + e)
                              - fd_christoffel(spec, p - e)) / (2 * h)
    r = (np.einsum("ljki->lkij", dgamma) - np.einsum("likj->lkij", dgamma)
         + np.einsum("lim,mjk->lkij", gamma, gamma)
         - np.einsum("ljm,mik->lkij", gamma, gamma))
    return r


def fd_first_partial(f, p, i, h=FD_STEP):
    p = np.asarray(p, dtype=np.float64)
    e = np.zeros(len(p))
    e[i] = h
    return (f(p + e) - f(p - e)) / (2 * h)


def fd_second_partial(f, p, i, j, h=FD_STEP):
    p = np.asarray(p, dtype=np.float64)
    ei = np.zeros(len(p))
    ei[i] = h
    if i == j:
        return (f(p + ei) - 2 * f(p) + f(p - ei)) / (h * h)
    ej = np.zeros(len(p))
    ej[j] = h
    return (f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)) / (4 * h * h)


def random_expression(rng, n_vars, depth=3):
    """A random expression tree whose evaluation stays well-defined and of
    moderate size on [-0.6, 0.6]^n (guarded denominators and sqrt arguments,
    damped exponentials)."""
    def leaf():
        if rng.random() < 0.7:
            return Coord(f"x{rng.integers(n_vars) + 1}", int(rng.integers(n_vars)))
        return Const(float(rng.uniform(-2.0, 2.0)))

    def build(d):
        if d == 0:
            return leaf()
        choice = rng.random()
        if choice < 0.45:
            op = ("+", "-", "*")[rng.integers(3)]
            return Binary(op, build(d - 1), build(d - 1))
        if choice < 0.55:
            return Binary("/", build(d - 1),
                          Binary("+", Const(2.5), Call("cos", build(d - 1))))
        if choice < 0.65:
            return Call("sqrt", Binary("+", Const(2.5), Call("sin", build(d - 1))))
        if choice < 0.80:
            return Call(("sin", "cos")[rng.integers(2)], build(d - 1))
        if choice < 0.90:
            fn = ("exp", "sinh", "cosh")[rng.integers(3)]
            return Call(fn, Binary("*", Const(0.3), build(d - 1)))
        return PowInt(build(d - 1), int(rng.integers(2, 4)))

    return build(depth)


# -- the tree-walking jet evaluator ----------------------------------------------

def _power(x, exponent, tab):
    """Non-negative integer power of the jet ``x`` by repeated squaring."""
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


def tree_jet(expr, space, point):
    """The coefficient vector of an expression's jet about ``point``, walking
    its tree node by node: a / b is a times the reciprocal of b, and a
    negative power a positive power of the reciprocal."""
    tab = _mul_table(space.n_vars, space.order, space.order, space.order)

    def elementary(tag, x):
        c, bad = _series_coefficients(tag, x[0], space.order)
        if bad:
            raise _elementary_error(tag, x[0])
        return _compose(x, c, tab)

    def walk(e):
        if isinstance(e, Const):
            c = np.zeros(space.size)
            c[0] = e.value
            return c
        if isinstance(e, Coord):
            c = np.zeros(space.size)
            c[0] = point[e.index]
            if space.order >= 1:
                c[1 + e.index] = 1.0
            return c
        if isinstance(e, Binary):
            a, b = walk(e.left), walk(e.right)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            return _cauchy(a, b if e.op == "*" else elementary("reciprocal", b), tab)
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, PowInt):
            base = walk(e.base)
            if e.exponent < 0:
                base = elementary("reciprocal", base)
            return _power(base, abs(e.exponent), tab)
        if isinstance(e, Call):
            return elementary(e.fn, walk(e.arg))
        raise TypeError(f"unknown expression node {e!r}")

    return walk(expr)


def tree_metric_jets(spec, point, order):
    """Every metric component expanded about one point by the tree walk, an
    (n, n, size) array, with the failure rule and the nondegeneracy check of
    ``metricdsl.metric_jet_tensor``: a component fails on a domain error, or
    else on a non-finite coefficient."""
    point = np.asarray(point, dtype=np.float64)
    space = jet_space(spec.dim, order)
    n = spec.dim
    grid = np.empty((n, n, space.size))
    for i in range(n):
        for j in range(i, n):
            try:
                jet = tree_jet(spec.metric[i][j], space, point)
            except (JetDomainError, OverflowError) as exc:
                raise spec._component_error(point, i, j, exc) from exc
            bad = jet[~np.isfinite(jet)]
            if bad.size:
                raise spec._component_error(
                    point, i, j, OverflowError(f"jet has non-finite coefficient {bad[0]}"))
            grid[i, j] = grid[j, i] = jet
    spec.check_nondegenerate(point, grid[..., 0])
    return grid


# -- the dense contraction ---------------------------------------------------------

def dense_tensor_product(sub, a, b, order=None):
    """``jets.tensor_product`` by one einsum over every component pair, zero
    or not, and the segment sum of the Cauchy product's table."""
    lhs, out = sub.split("->")
    la, lb = lhs.split(",")
    order = min(a.order, b.order) if order is None else order
    tab = _mul_table(a.n_vars, a.order, b.order, order)
    t = next(c for c in "tuvwxyz" if c not in sub)
    prod = np.einsum(f"{la}{t},{lb}{t}->{out}{t}", a.array[..., tab.ai], b.array[..., tab.bi])
    return JetTensor(np.add.reduceat(prod, tab.starts, axis=-1), jet_space(a.n_vars, order))


# -- the full-tensor curvature chain -------------------------------------------------

def riemann_by_connection(gamma):
    """Curvature jets riemann[l, k, i, j] from connection jets, one order
    down, by two Gamma.Gamma contractions: ``curvature.riemann`` as it was
    before it built the lowered curvature in pair form from the Christoffel
    symbols of the first kind."""
    p = _points(gamma, 3)
    dg = tensor_deriv(gamma)  # dg[l, j, k, i] = d_i gamma[l, j, k]
    a = dg.array
    total = np.einsum(f"{p}ljkic->{p}lkijc", a).copy()
    total -= np.einsum(f"{p}likjc->{p}lkijc", a)
    gl = gamma.truncated(dg.order)
    total += tensor_product(f"{p}lim,{p}mjk->{p}lkij", gl, gl).array
    total -= tensor_product(f"{p}ljm,{p}mik->{p}lkij", gl, gl).array
    return JetTensor(total, dg.space)


def full_tensor_chain(curv):
    """The values of the curvature and its covariant derivatives, as deep as
    ``curv`` holds them, as the package computed them before the pair form:
    R by ``riemann_by_connection`` from the connection of ``curv``'s metric
    jets, taken one order deeper than ``curv.gamma_jets``, and
    each covariant derivative over every component of the whole tensor, its
    first slot upper, layout [l, k, i, j, z..]."""
    gamma = christoffel(curv.metric_jets)[0]
    cov, variance = riemann_by_connection(gamma), "uddd"
    covR = [cov.value()]
    for _ in range(len(curv.covR) - 1):
        cov = covariant_derivative(cov, variance, gamma)
        variance += "d"
        covR.append(cov.value())
    return covR


def whole_covR(data):
    """The covR of a ``CurvatureData`` or a ``UnitFrame`` as whole tensors
    with their first slot raised, layout [l, k, i, j, z..]: what covR held
    before the pair form."""
    if isinstance(data, CurvatureData):
        return [data.whole(m) for m in range(len(data.covR))]
    n = len(data.signs)
    return [np.einsum("l,l...->l...", data.signs, unpack(c, n)) for c in data.covR]


# -- the full-tensor tower ----------------------------------------------------------

@dataclass(frozen=True)
class IntegrabilityTensor:
    """One level of the prolongation tower: a linear map on germs.

    ``xi_coeff`` has shape (n,)*(4+order) + (n,) and contracts xi;
    ``a_coeff`` has shape (n,)*(4+order) + (n, n), its first extra index
    pairing with the upper index of A.
    """

    order: int
    xi_coeff: np.ndarray
    a_coeff: np.ndarray

    def matrix(self, signs):
        """Stack into a matrix over the germ coordinates (xi, so_basis(signs))
        of a frame with metric diag(signs), all n^(4+order) rows."""
        n = len(signs)
        rows = int(np.prod(self.xi_coeff.shape[:-1]))
        a = self.a_coeff.reshape(rows, n, n)
        r, s = np.triu_indices(n, k=1)
        a_cols = signs[r] * a[:, r, s] - signs[s] * a[:, s, r]
        return np.hstack([self.xi_coeff.reshape(rows, n), a_cols])


def derivation_coefficient(cov):
    """The coefficient of A in A.T, for A acting as a derivation on T = cov,
    whose first slot is upper and the others lower:

        (A.T)[l, y..] = A[l, b] T[b, y..] - sum_s T[l, .., a at slot s, ..] A[a, y_s]

    with trailing axes (a, b) pairing with A[a, b].  Each term is a Kronecker
    delta times T, so it is written onto the diagonal it lives on; einsum
    with an index repeated in the input returns that diagonal as a writable
    view."""
    n, w = cov.shape[0], cov.ndim
    coeff = np.zeros(cov.shape + (n, n))
    y = list(range(1, w))
    a, b = w, w + 1
    upper = np.einsum(coeff, [0] + y + [0, b], [0] + y + [b])      # l == a
    upper += np.moveaxis(cov, 0, -1)
    for s in y:
        lower = np.einsum(coeff, [0] + y + [a, s], [0] + y + [a])  # b == y_s
        lower -= np.expand_dims(np.moveaxis(cov, s, -1), s)
    return coeff


def integrability_tensors(covR, orders):
    """The levels T_m, m in ``orders``, of the prolongation tower as whole
    tensors over every row (l, k, i, j, z..), from the values ``covR[m]`` of
    the curvature's covariant derivatives at a point as whole tensors with
    their first slot raised (``whole_covR``, of a ``CurvatureData`` or a
    ``UnitFrame``): ``T_m(xi, A) = xi^d (nabla^{m+1} R)[.., d] +
    A.(nabla^m R)``, with A acting as a derivation on every slot."""
    top = max(orders, default=-1)
    if len(covR) < top + 2:
        raise OrderExhaustedError(
            f"the integrability tensor of order {top} reads covR[{top + 1}], "
            f"which needs jet order {top + 3}; got covR[0..{len(covR) - 1}] "
            f"(jet order {len(covR) + 1})")
    return [IntegrabilityTensor(order=m, xi_coeff=covR[m + 1],
                                a_coeff=derivation_coefficient(covR[m]))
            for m in orders]


# -- the prolongation recursion ---------------------------------------------------

# Letters labelling the growing condition slots in the prolongation
# recursion; a, b, c, d, z stay reserved for the bundle contractions and the
# coefficient axis.
_W_LETTERS = "efghijklmnopqrstuvwABCDEFGH"


def tower_by_recursion(curv, m_max):
    """The prolongation tower T_0 .. T_{m_max} at the point of ``curv``.

    T_0 is the curvature condition of the bundle connection; each next level
    is its total covariant derivative with the first-order system substituted
    back in (derivatives of xi become -A, derivatives of A become the
    curvature coupling), so every level stays linear in the germ.
    """
    if curv.jet_order < m_max + 3:
        raise OrderExhaustedError(
            f"integrability tensors to order {m_max} need jet order "
            f">= {m_max + 3}; curvature data has {curv.jet_order}")
    n = curv.spec.dim
    gamma = christoffel(curv.metric_jets)[0]
    r_full = riemann_by_connection(gamma).truncated(m_max + 1)
    eye = np.eye(n)

    # Level 0, xi-coefficient: the directional derivative of the curvature.
    p_jets = covariant_derivative(r_full, "uddd", gamma).truncated(m_max)

    # Level 0, A-coefficient: commutator action minus the two slot insertions.
    ra = r_full.truncated(m_max).array
    q_arr = (np.einsum("la,bkijC->lkijabC", eye, ra)
             - np.einsum("bk,laijC->lkijabC", eye, ra)
             - np.einsum("bi,lkajC->lkijabC", eye, ra)
             - np.einsum("bj,lkiaC->lkijabC", eye, ra))
    q_jets = JetTensor(q_arr, jet_space(n, m_max))

    tensors = []
    for m in range(m_max + 1):
        tensors.append(IntegrabilityTensor(order=m,
                                           xi_coeff=p_jets.value(),
                                           a_coeff=q_jets.value()))
        if m == m_max:
            break
        w = 4 + m
        letters = _W_LETTERS[:w]
        p_var = "u" + "d" * w
        q_var = "u" + "d" * w + "u"
        # Next xi-coefficient: derivative of the current one plus the effect
        # of substituting the curvature coupling for the derivative of A.
        dp = covariant_derivative(p_jets, p_var, gamma)   # [w.., d, z, C]
        dp_arr = np.swapaxes(dp.array, -2, -3)            # -> [w.., z, d, C]
        rq = r_full.truncated(q_jets.order - 1)
        coupling = tensor_product(f"{letters}ab,abzd->{letters}zd",
                                  q_jets, rq, q_jets.order - 1)
        p_next = JetTensor(dp_arr - coupling.array, coupling.space)
        # Next A-coefficient: derivative of the current one plus the effect
        # of substituting -A for the derivative of xi.
        dq = covariant_derivative(q_jets, q_var, gamma)   # [w.., a, b, z, coeff]
        dq_arr = np.moveaxis(dq.array, -2, -4)            # -> [w.., z, a, b, coeff]
        p_trunc = p_jets.truncated(dq.order)
        delta_term = np.einsum(f"{letters}ac,bz->{letters}zabc",
                               p_trunc.array, eye)
        q_next = JetTensor(dq_arr - delta_term, dq.space)
        p_jets, q_jets = p_next, q_next
    return tensors


def tower_stack_by_basis(frame, m):
    """The tower T_0 .. T_m of a ``UnitFrame`` as one matrix over the germ
    coordinates (xi, so-basis components of A), the so-basis built for the
    metric g = diag(signs) as a general one and each level's A-coefficient
    contracted with every basis entry."""
    g = np.diag(frame.signs)
    n = len(g)
    ginv = np.linalg.inv(g)
    basis = []
    for r in range(n):
        for s in range(r + 1, n):
            skew = np.zeros((n, n))
            skew[r, s] = 1.0
            skew[s, r] = -1.0
            basis.append(ginv @ skew)
    basis = np.array(basis).reshape(len(basis), n, n)
    blocks = []
    for t in integrability_tensors(whole_covR(frame), range(m + 1)):
        rows = int(np.prod(t.xi_coeff.shape[:-1]))
        a_cols = np.einsum("wab,kab->wk", t.a_coeff.reshape(rows, n, n), basis)
        blocks.append(np.hstack([t.xi_coeff.reshape(rows, n), a_cols]))
    return np.vstack(blocks)


# -- the tower on one germ ---------------------------------------------------------

def apply_tensor(t, xi, a):
    """The level ``t`` (an ``IntegrabilityTensor``) applied to the germ
    (xi, A): ``xi_coeff`` contracted with xi plus ``a_coeff`` with A."""
    w = t.xi_coeff.ndim - 1
    return (np.tensordot(t.xi_coeff, xi, axes=([w], [0]))
            + np.tensordot(t.a_coeff, a, axes=([w, w + 1], [0, 1])))


def germ_kernel_residual(spec, germ, m_max=2):
    """Residual of the tower levels 0..m_max at the base point applied to one
    germ, each level scaled by its largest coefficient and the germ by its
    largest entry (a membership test in chart coordinates, not the unit
    frame the kernel's rank decisions use)."""
    curv = CurvatureData.compute(spec, m_max=m_max + 1)
    germ_scale = max(1.0, float(np.abs(germ.xi).max()), float(np.abs(germ.a).max()))
    worst = 0.0
    for t in integrability_tensors(whole_covR(curv), range(m_max + 1)):
        res = apply_tensor(t, germ.xi, germ.a)
        scale = max(1.0, float(np.abs(t.xi_coeff).max()),
                    float(np.abs(t.a_coeff).max())) * germ_scale
        worst = max(worst, float(np.abs(res).max()) / scale)
    return worst


# -- curvature of the bundle connection ----------------------------------------

def killing_curvature(curv, germ, i, j):
    """Endomorphism part of the bundle curvature applied to a germ, for the
    coordinate pair (i, j); the tangent part vanishes identically."""
    if len(curv.covR) < 2:
        raise OrderExhaustedError("killing_curvature needs the first covariant "
                                  "derivative of the curvature")
    r = curv.riemann
    a, xi = germ.a, germ.xi
    r_ij = r[:, :, i, j]
    nabla_xi_r = np.einsum("lkc,c->lk", curv.whole(1)[:, :, i, j, :], xi)
    bracket = a @ r_ij - r_ij @ a
    r_ai = np.einsum("lka,a->lk", r[:, :, :, j], a[:, i])   # R(A e_i, e_j)
    r_aj = np.einsum("lka,a->lk", r[:, :, i, :], a[:, j])   # R(e_i, A e_j)
    return -(nabla_xi_r + bracket - r_ai - r_aj)


# -- Killing transport, step by step ------------------------------------------------

def stage_points(path, steps):
    """The RK4 stage points of a polyline in path order: each segment's
    start, then the midpoint and the end of each step, the last the
    segment's end exactly."""
    h = 1.0 / steps
    s = np.arange(steps) * h
    points = []
    for x0, x1 in zip(np.asarray(path, float)[:-1], np.asarray(path, float)[1:]):
        seg = np.empty((2 * steps + 1, len(x0)))
        seg[0] = x0
        seg[1::2] = x0 + (s + h / 2)[:, None] * (x1 - x0)
        seg[2::2] = x0 + (s + h)[:, None] * (x1 - x0)
        seg[-1] = x1
        points.append(seg)
    return np.concatenate(points)


def frame_inputs(gammas, rs, u):
    """The generator inputs of Killing transport along velocity u from
    connection values [P, i, a, b] and curvature values [P, i, j, c, d]:
    Gamma^i_ab u^a as [P, i, b] and R^i_jcd u^c as [P, i, j, d]."""
    return np.einsum("Piab,a->Pib", gammas, u), np.einsum("Pijcd,c->Pijd", rs, u)


def chebyshev_nodes(path, count=16):
    """The Chebyshev points of the second kind of each segment of a polyline,
    count + 1 a segment, in path order: x0 + sin^2(j pi / (2 count)) (x1 - x0)
    for j = 0..count, the first and the last the segment's ends exactly."""
    t = np.sin(np.arange(count + 1) * np.pi / (2 * count)) ** 2
    nodes = []
    for x0, x1 in zip(np.asarray(path, float)[:-1], np.asarray(path, float)[1:]):
        seg = x0 + t[:, None] * (x1 - x0)
        seg[0], seg[-1] = x0, x1
        nodes.append(seg)
    return np.concatenate(nodes)


def transport_by_steps(spec, germ, path, steps_per_segment=1000):
    """Killing transport as it was integrated before the step propagators of
    ``killing.killing_transport``: classical RK4 on the right-hand side of D,
    with xi and A stepped through each stage separately.  The frames of each
    segment come from one ``point_frame`` call over all its stage points,
    whatever the production batching, so the two differ only in the order
    of the floating-point operations."""
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    path = [np.asarray(p, dtype=np.float64) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    xi = np.array(germ.xi, dtype=np.float64)
    a = np.array(germ.a, dtype=np.float64)

    def rhs(gu, r, state, u):
        s_xi, s_a = state
        d_xi = -gu @ s_xi - s_a @ u
        d_a = -gu @ s_a + s_a @ gu - np.einsum("ijcd,c,d->ij", r, u, s_xi)
        return d_xi, d_a

    h = 1.0 / steps_per_segment
    for seg in range(len(path) - 1):
        u = path[seg + 1] - path[seg]
        _, _, gammas, rs = point_frame(spec, stage_points(path[seg:seg + 2],
                                                          steps_per_segment))
        gus = np.einsum("Piab,a->Pib", gammas, u)
        frame0 = gus[0], rs[0]
        for k in range(steps_per_segment):
            mid = gus[2 * k + 1], rs[2 * k + 1]
            frame1 = gus[2 * k + 2], rs[2 * k + 2]
            k1 = rhs(*frame0, (xi, a), u)
            k2 = rhs(*mid, (xi + h / 2 * k1[0], a + h / 2 * k1[1]), u)
            k3 = rhs(*mid, (xi + h / 2 * k2[0], a + h / 2 * k2[1]), u)
            k4 = rhs(*frame1, (xi + h * k3[0], a + h * k3[1]), u)
            xi = xi + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a = a + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            frame0 = frame1
    return KillingGerm(xi=xi, a=a)


# -- changed charts ---------------------------------------------------------------

def _sum(terms):
    return reduce(lambda a, b: Binary("+", a, b), terms) if terms else Const(0.0)


def changed_chart(spec, jacobian=None, shift=None, factor=1.0):
    """``spec`` in coordinates y1.. with x = jacobian y + shift, its metric
    times ``factor``: g'(y) = factor J^T g(J y + shift) J, at the base point
    J^-1 (x0 - shift), the same point of the manifold.  The chart's flags are
    kept, so every invariant of the metric must come out the same."""
    n = spec.dim
    jac = np.eye(n) if jacobian is None else np.asarray(jacobian, dtype=np.float64)
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=np.float64)
    ys = [Coord(f"y{j + 1}", j) for j in range(n)]
    xs = {i: _sum([Binary("*", Const(float(jac[i, j])), ys[j])
                   for j in range(n) if jac[i, j]]
                  + ([Const(float(shift[i]))] if shift[i] else []))
          for i in range(n)}
    grid = [[None] * n for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            grid[k][l] = grid[l][k] = _sum([
                Binary("*", Const(float(factor * jac[i, k] * jac[j, l])),
                       substitute_coords(spec.metric[i][j], xs))
                for i in range(n) for j in range(n)
                if jac[i, k] * jac[j, l] and spec.metric[i][j] != Const(0.0)])
    base = np.linalg.solve(jac, np.asarray(spec.base_point) - shift)
    return make_spec(f"{spec.name}_changed", [y.name for y in ys], grid,
                     params=spec.params, base_point=base, assumptions=spec.assumptions)


# -- the product tower -------------------------------------------------------------

def product_trace_by_full_tower(a, b, m_max, tol):
    """The kernel report of the product of two charts from the whole tower of
    the (n_a + n_b)-dimensional product chart, ranked in its unit frame, as
    ``decomposition_check`` computed it before it read the trace off the
    factors.  The product chart has one curvature scale for both factors, so
    the two disagree on factors far apart in scale, where this one is wrong."""
    spec = product_metric(a, b).combined
    return _kernel_trace(spec, [spec.base_point], m_max, tol)[0][0]


# -- unit frames at every order ------------------------------------------------------

def frames_per_order(spec, points, first=None):
    """A stand-in for ``curvature.frame_ladder`` that does what the rank
    decisions did before it: a fresh ``CurvatureData.compute`` at one point
    to exactly the depth each order asks for, so nothing is shared between
    orders, points or consumers, and no covR is a slice of a deeper
    computation.  ``first`` is accepted and ignored."""
    points = np.asarray(points, dtype=np.float64)

    def frames(depth, which=None):
        return [CurvatureData.compute(spec, points[k], m_max=depth).unit_frames[0]
                for k in (range(len(points)) if which is None else which)]
    return frames


# -- points near a base point ----------------------------------------------------------

def perturbed_points(p, count):
    """``count`` points near p: steps of delta = 0.05 (1 + max |p|) each way
    along the axes in turn, all of one length, then the diagonal
    p + delta / sqrt(n)."""
    n = len(p)
    delta = 0.05 * (1.0 + float(np.abs(p).max()))
    points = []
    i, sign = 0, 1.0
    while len(points) < count - 1:
        q = p.copy()
        q[i % n] += sign * delta
        points.append(q)
        if sign < 0:
            i += 1
        sign = -sign
    points.append(p + delta / np.sqrt(n))
    return points


# -- multiplication and derivative tables, built in loops ------------------------------

def mul_table_by_loop(n_vars, qa, qb, qout):
    """``jets._mul_table`` as it was built before numpy built it: one Python
    loop over the pairs (alpha, beta), a dict lookup of alpha + beta each,
    and a sort of the triples (gamma, alpha, beta).  Returns (ai, bi,
    starts)."""
    sa, sb, so = jet_space(n_vars, qa), jet_space(n_vars, qb), jet_space(n_vars, qout)
    rows = []
    for ia in range(sa.size_at(min(qa, qout))):
        alpha = sa.exponents[ia]
        nb = sb.size_at(min(qb, qout - int(alpha.sum())))
        gammas = alpha + sb.exponents[:nb]
        for ib in range(nb):
            rows.append((so.index[tuple(map(int, gammas[ib]))], ia, ib))
    rows.sort()
    gi, ai, bi = (np.array([r[k] for r in rows], dtype=np.int64) for k in range(3))
    return ai, bi, np.unique(gi, return_index=True)[1]


def deriv_table_by_loop(n_vars, order):
    """``jets._deriv_table`` built entry by entry: d/dx_i maps the
    coefficient of alpha + e_i, scaled by alpha_i + 1, onto alpha."""
    s, s1 = jet_space(n_vars, order), jet_space(n_vars, order - 1)
    src = np.empty((n_vars, s1.size), dtype=np.int64)
    fac = np.empty((n_vars, s1.size), dtype=np.float64)
    for t, alpha in enumerate(s1.exponents):
        a = tuple(map(int, alpha))
        for i in range(n_vars):
            src[i, t] = s.index[a[:i] + (a[i] + 1,) + a[i + 1:]]
            fac[i, t] = a[i] + 1
    return src, fac


# -- the catalog as text ------------------------------------------------------------

def catalog_chart_from_text(name, params):
    """The catalog chart ``name`` as the package built it before its charts
    were expression trees: the chart written as text, its parameters in a
    ``parameters:`` line, and parsed.  ``params`` are the builtin's
    parameters, as ``cli`` reads them from ``name:key=value,...``."""
    if name in ("euclidean", "minkowski"):
        if name == "euclidean":
            n = int(params.get("n", 2))
            coords, signs, label = [f"x{i+1}" for i in range(n)], [1.0] * n, f"euclidean{n}"
        else:
            p, q = int(params.get("p", 1)), int(params.get("q", 1))
            coords = [f"t{i+1}" for i in range(p)] + [f"x{i+1}" for i in range(q)]
            signs, label = [-1.0] * p + [1.0] * q, f"minkowski{p}{q}"
        metric = [[("-1" if signs[i] < 0 else "1") if i == j else "0"
                   for j in range(len(coords))] for i in range(len(coords))]
        return _text_chart(label, coords, metric)
    if name == "sphere2":
        return _text_chart("sphere2", ["theta", "phi"], [["r^2", "0"], ["0", "r^2 * sin(theta)^2"]],
                           params=[("r", float(params.get("r", 1.0)))],
                           base_point=(math.pi / 2, 0))
    if name == "hyperbolic2":
        return _text_chart("hyperbolic2", ["x", "y"], [["1 / y^2", "0"], ["0", "1 / y^2"]],
                           base_point=(0, 1))
    if name == "cahen_wallach":
        n = int(params.get("n", 1))
        q = params.get("q", 1.0)
        qs = [float(v) for v in (q if isinstance(q, list) else [q] * n)]
        dim = n + 2
        metric = [["0"] * dim for _ in range(dim)]
        metric[0][0] = "2 * (" + " + ".join(f"q{i+1} * x{i+1}^2" for i in range(n)) + ")"
        metric[0][1] = metric[1][0] = "1"
        for i in range(2, dim):
            metric[i][i] = "1"
        return _text_chart(f"cahen_wallach{n}", ["t", "v"] + [f"x{i+1}" for i in range(n)],
                           metric, params=[(f"q{i+1}", v) for i, v in enumerate(qs)])
    if name == "walker_recurrent":
        metric = [["x^2 * (1 + v) + x^3", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
        return _text_chart("walker_recurrent", ["t", "v", "x"], metric)
    raise ValueError(f"no text form of builtin {name!r}")


def _text_chart(name, coords, metric, params=(), base_point=None):
    from killingkit.metricdsl import parse_manifold
    lines = [f"manifold {name} {{", f"  coordinates: {', '.join(coords)};"]
    if params:
        lines.append("  parameters: " + ", ".join(f"{k} = {v!r}" for k, v in params) + ";")
    rows = ", ".join("[" + ", ".join(row) + "]" for row in metric)
    lines.append(f"  metric: [{rows}];")
    if base_point is not None:
        lines.append("  base_point: (" + ", ".join(map(repr, base_point)) + ");")
    lines += ["  assume: analytic, simply_connected;", "}"]
    return parse_manifold("\n".join(lines))


# -- the report's rounding, then the standard JSON encoder ----------------------------

def round_floats(obj):
    """A report payload as ``cli`` rounded it before writing it in one walk:
    floats to 12 significant digits with no negative zero, numpy scalars and
    arrays as Python values, tuples as lists.  ``json.dumps(round_floats(p),
    sort_keys=True, indent=2)`` is the report text."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") + 0.0
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}") + 0.0
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj
