"""Independent oracles: the float tree walk and finite differences of it, a
generator of random (domain-safe) expression trees, the tree-walking jet
evaluator, the jet-level prolongation recursion, the bundle curvature
applied to a germ, Killing transport stepped stage by stage, and charts
changed by an affine change of coordinates and a constant metric factor.

The package evaluates every expression with its compiled ``JetTape``.  The
float tree walk here is how expressions were evaluated at points before
that: plain float arithmetic, node by node.  The finite-difference oracles
difference it, so they avoid the jet code path on purpose; these are the
reference values the jet-based computations are checked against.  The
recursion is the tower as it was built before the closed form of
``killing.integrability_tensors``: it differentiates the jets of the tower's
coefficients level by level, so it shares the jet layer but none of the
closed form's algebra.  The tree walk is how expressions became jets before
they were compiled into a ``JetTape``: one ``Jet`` per node, visited
recursively, with no shared subexpressions and no batch of points.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from killingkit.curvature import OrderExhaustedError, covariant_derivative, point_frame
from killingkit.jets import (Jet, JetDomainError, JetTensor, jet_elementary, jet_space,
                             tensor_product)
from killingkit.killing import _BLOCK_STEPS, IntegrabilityTensor, KillingGerm
from killingkit.metricdsl import (Binary, Call, Const, Coord, Neg, PowInt, make_spec,
                                  substitute_coords)

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

def tree_jet(expr, space, point):
    """The jet of an expression about ``point``, walking its tree node by node."""
    if isinstance(expr, Const):
        return Jet.constant(space, expr.value)
    if isinstance(expr, Coord):
        return Jet.variable(space, expr.index, point[expr.index])
    if isinstance(expr, Binary):
        a = tree_jet(expr.left, space, point)
        b = tree_jet(expr.right, space, point)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, Neg):
        return -tree_jet(expr.arg, space, point)
    if isinstance(expr, PowInt):
        return jet_elementary("pow_int", tree_jet(expr.base, space, point),
                              exponent=expr.exponent)
    if isinstance(expr, Call):
        return jet_elementary(expr.fn, tree_jet(expr.arg, space, point))
    raise TypeError(f"unknown expression node {expr!r}")


def tree_metric_jets(spec, point, order):
    """Every metric component expanded about one point by the tree walk, with
    the failure rule and the nondegeneracy check of ``metricdsl.metric_jets``:
    a component fails on a domain error, or else on a non-finite coefficient."""
    point = np.asarray(point, dtype=np.float64)
    space = jet_space(spec.dim, order)
    n = spec.dim
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            try:
                jet = tree_jet(spec.metric[i][j], space, point)
            except (JetDomainError, OverflowError) as exc:
                raise spec._component_error(point, i, j, exc) from exc
            bad = jet.coeffs[~np.isfinite(jet.coeffs)]
            if bad.size:
                raise spec._component_error(
                    point, i, j, OverflowError(f"jet has non-finite coefficient {bad[0]}"))
            grid[i][j] = grid[j][i] = jet
    g0 = np.array([[grid[i][j].value for j in range(n)] for i in range(n)])
    spec.check_nondegenerate(point, g0)
    return grid


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
    n = curv.n
    gamma = curv.gamma_jets
    r_full = curv.riemann_jets.truncated(m_max + 1)
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
    nabla_xi_r = np.einsum("lkc,c->lk", curv.covR[1][:, :, i, j, :], xi)
    bracket = a @ r_ij - r_ij @ a
    r_ai = np.einsum("lka,a->lk", r[:, :, :, j], a[:, i])   # R(A e_i, e_j)
    r_aj = np.einsum("lka,a->lk", r[:, :, i, :], a[:, j])   # R(e_i, A e_j)
    return -(nabla_xi_r + bracket - r_ai - r_aj)


# -- Killing transport, step by step ------------------------------------------------

def transport_by_steps(spec, germ, path, steps_per_segment=1000):
    """Killing transport as it was integrated before the step propagators of
    ``killing.killing_transport``: classical RK4 on the right-hand side of D,
    with xi and A stepped through each stage separately.  The frames come
    from the same batched ``point_frame`` calls, so the two differ only in
    the order of the floating-point operations."""
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
        x0, x1 = path[seg], path[seg + 1]
        u = x1 - x0
        for k0 in range(0, steps_per_segment, _BLOCK_STEPS):
            s = np.arange(k0, min(k0 + _BLOCK_STEPS, steps_per_segment)) * h
            # stage points in path order: (x0,) mid_k, end_k, mid_k+1, ...
            stages = np.empty((2 * len(s), len(u)))
            stages[0::2] = x0 + (s + h / 2)[:, None] * u
            stages[1::2] = x0 + (s + h)[:, None] * u
            if k0 == 0:
                stages = np.vstack([x0, stages])
            _, _, gammas, rs = point_frame(spec, stages)
            gus = np.einsum("Piab,a->Pib", gammas, u)
            if k0 == 0:
                frame0 = gus[0], rs[0]
                gus, rs = gus[1:], rs[1:]
            for k in range(len(s)):
                mid = gus[2 * k], rs[2 * k]
                frame1 = gus[2 * k + 1], rs[2 * k + 1]
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
                if jac[i, k] * jac[j, l] and not (spec.metric[i][j].is_constant
                                                  and spec.metric[i][j].value == 0.0)])
    base = np.linalg.solve(jac, np.asarray(spec.base_point) - shift)
    return make_spec(f"{spec.name}_changed", [y.name for y in ys], grid,
                     params=spec.params, base_point=base, assumptions=spec.assumptions)
