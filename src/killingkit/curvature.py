"""Curvature at a point: Christoffel symbols, the curvature tensor, and its
covariant derivatives, computed as jets of the metric components.

Index conventions, fixed once for the whole project:

* ``gamma[k, i, j]`` is the connection coefficient with upper index k,
  symmetric in (i, j);
* ``riemann[l, k, i, j]`` is the component of the endomorphism produced by the
  coordinate pair (i, j) acting on the k-th basis vector: the commutator of
  covariant derivatives along i and j applied to d_k gives
  ``riemann[l, k, i, j]`` times d_l.  The two-form slots (i, j) come last.
* Covariant-derivative indices are appended after the tensor's own slots, so
  ``covR[m]`` has shape (n,)*(4+m) with layout [l, k, i, j, z_1, ..., z_m],
  z_m being the outermost derivative.
* Jets may carry one leading point axis before the component axes: the same
  quantity at each of a batch of points.  In subscripts it is the letter P.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metricdsl
from .jets import JetShapeError, JetTensor, tensor_deriv, tensor_product


class OrderExhaustedError(ValueError):
    """Jet order too low for the requested derivative depth; increase it."""


_VAR_LETTERS = "abcdefghijklmnopqrstuvwxy"


def _points(t, rank):
    """The subscript of the point axis of a jet tensor whose components have
    rank ``rank``: "P" when it has one, else ""."""
    extra = t.array.ndim - 1 - rank
    if extra not in (0, 1):
        raise JetShapeError(f"jet tensor of shape {t.shape} for rank {rank}")
    return "P" * extra


def inverse_metric(g):
    """Jets of the inverse metric, via a truncated Neumann series.

    Writing g = g0 (I + E) with E carrying no constant term, E is nilpotent in
    the jet algebra, so the series for (I + E)^{-1} terminates at the order.
    """
    p = _points(g, 2)
    n = g.shape[-1]
    g0inv = np.linalg.inv(g.value())
    em = np.einsum(f"{p}ia,{p}abc->{p}ibc", g0inv, g.array)
    em[..., 0] -= np.eye(n)
    e = JetTensor(-em, g.space)  # -E
    acc = e
    term = e
    operators = {}   # -E's multiplication operator, built once for every power
    for _ in range(g.order - 1):
        term = tensor_product(f"{p}ia,{p}ab->{p}ib", e, term, None, operators)
        acc = acc + term
    total = acc.array.copy()
    total[..., 0] += np.eye(n)
    return JetTensor(np.einsum(f"{p}iac,{p}ab->{p}ibc", total, g0inv), g.space)


def christoffel(metric_jets, inverse_jets=None):
    """Connection coefficients as jets of one order less than the metric."""
    g = metric_jets
    if g.order < 1:
        raise OrderExhaustedError("christoffel needs metric jets of order >= 1")
    ginv = inverse_metric(g) if inverse_jets is None else inverse_jets
    p = _points(g, 2)
    dg = tensor_deriv(g)  # dg[i, j, c] = d_c g_ij
    a = dg.array
    # sym[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, summed in one owned
    # buffer: each einsum is a transposed view of dg's array
    sym = np.einsum(f"{p}jlic->{p}lijc", a).copy()
    sym += np.einsum(f"{p}iljc->{p}lijc", a)
    sym -= np.einsum(f"{p}ijlc->{p}lijc", a)
    return tensor_product(f"{p}kl,{p}lij->{p}kij", ginv.truncated(dg.order),
                          JetTensor(sym, dg.space)).scaled(0.5)


def riemann(gamma):
    """Curvature jets from connection jets, one further order down."""
    if gamma.order < 1:
        raise OrderExhaustedError("riemann needs connection jets of order >= 1")
    p = _points(gamma, 3)
    dg = tensor_deriv(gamma)  # dg[l, j, k, i] = d_i gamma[l, j, k]
    a = dg.array
    # R[l, k, i, j] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
    #   + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k],
    # summed in one owned buffer (each einsum is a transposed view of dg's
    # array), so at most one product is held besides it
    total = np.einsum(f"{p}ljkic->{p}lkijc", a).copy()
    total -= np.einsum(f"{p}likjc->{p}lkijc", a)
    gl = gamma.truncated(dg.order)
    total += tensor_product(f"{p}lim,{p}mjk->{p}lkij", gl, gl).array
    total -= tensor_product(f"{p}ljm,{p}mik->{p}lkij", gl, gl).array
    return JetTensor(total, dg.space)


def covariant_derivative(tensor, variance, gamma):
    """Covariant derivative of a jet tensor; appends the derivative slot last.

    ``variance`` marks each component axis 'u' (upper) or 'd' (lower).
    """
    if tensor.order < 1:
        raise OrderExhaustedError("covariant derivative needs jets of order >= 1")
    p = _points(gamma, 3)
    rank = len(variance)
    if rank + len(p) != len(tensor.shape):
        raise ValueError(f"variance {variance!r} does not match rank "
                         f"{len(tensor.shape) - len(p)}")
    out = tensor_deriv(tensor)  # [..., z, coeff]
    q = out.order
    gl = gamma.truncated(min(gamma.order, q))
    letters = _VAR_LETTERS[:rank]
    t_trunc = tensor.truncated(q)
    # every slot contracts the same two jet tensors, so the multiplication
    # operator of the one with fewer components (Gamma, but for a metric) is
    # built once for the upper slots and once for the lower ones
    operators = {}
    for s, v in enumerate(variance):
        slot = letters[s]
        contracted = p + letters[:s] + "A" + letters[s + 1:]
        out_sub = p + letters + "Z"
        if v == "u":
            out.array += tensor_product(f"{p}{slot}ZA,{contracted}->{out_sub}", gl, t_trunc,
                                        q, operators).array
        else:
            out.array -= tensor_product(f"{p}AZ{slot},{contracted}->{out_sub}", gl, t_trunc,
                                        q, operators).array
    return out


def lowered_riemann(curv):
    """Fully covariant curvature rm[l, k, i, j]: the upper index lowered in
    place, i.e. the metric pairing of d_l against the (i, j)-endomorphism
    applied to d_k."""
    return np.einsum("la,akij->lkij", curv.g, curv.riemann)


def identity_residuals(curv):
    """Scaled residuals of the classical curvature identities at the point."""
    rm = lowered_riemann(curv)
    scale = max(1.0, float(np.abs(rm).max()))
    anti_ij = np.abs(rm + np.einsum("lkji->lkij", rm)).max()
    anti_kl = np.abs(rm + np.einsum("klij->lkij", rm)).max()
    pair = np.abs(rm - np.einsum("ijlk->lkij", rm)).max()
    bianchi = np.abs(rm + np.einsum("lijk->lkij", rm)
                     + np.einsum("ljki->lkij", rm)).max()
    nabla_g = covariant_derivative(curv.metric_jets, "dd", curv.gamma_jets).value()
    g_scale = max(1.0, float(np.abs(curv.g).max()),
                  float(np.abs(curv.gamma_jets.value()).max()))
    return {
        "antisymmetry": float(anti_ij / scale),
        "antisymmetry_pair": float(anti_kl / scale),
        "pair_symmetry": float(pair / scale),
        "first_bianchi": float(bianchi / scale),
        "metric_compatibility": float(np.abs(nabla_g).max() / g_scale),
    }


# The frame in which every rank is decided.  e: columns of a frame of the
# metric, e^T g e = diag(signs); einv: its inverse; kappa: the curvature
# scale, 1/length; covR[m]: the m-th covariant derivative of the curvature in
# that frame over kappa^(m + 2), which carries no units.
UnitFrame = namedtuple("UnitFrame", "e einv signs kappa covR")


def _in_frame(t, e, einv):
    """Components of a tensor with its first slot upper and the rest lower
    under the constant change of coordinates x = e y.  Each product contracts
    the first slot and appends the new one last, so after one product per
    slot the slots are back in their own order."""
    flat = t
    for mat in [einv.T] + [e] * (t.ndim - 1):
        flat = flat.reshape(len(mat), -1).T @ mat
    return flat.reshape(t.shape)


@dataclass
class CurvatureData:
    """Everything curvature-related at one point, or at each of a batch of
    points (a leading point axis on every array), to a fixed jet order."""

    spec: object
    point: np.ndarray
    jet_order: int      # metric jets of order m_max + 2
    metric_jets: JetTensor
    inverse_jets: JetTensor
    gamma_jets: JetTensor
    riemann_jets: JetTensor
    covR: list          # covR[m]: values of the m-th covariant derivative

    @property
    def g(self):
        return self.metric_jets.value()

    @property
    def ginv(self):
        return self.inverse_jets.value()

    @property
    def riemann(self):
        return self.riemann_jets.value()

    @classmethod
    def compute(cls, spec, point=None, m_max=1):
        """Build curvature data holding covR[0..m_max], at one point or, with
        a (P, n) array of points, at each of them (a leading point axis on
        every array).

        The m-th covariant derivative of the curvature reads metric jets of
        order m + 2, so the metric is expanded to order m_max + 2 and
        inverted to order m_max + 1, the order the Christoffel symbols read.
        """
        p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
        k = m_max + 2
        g = metricdsl.metric_jet_tensor(spec, p, k)
        ginv = inverse_metric(g.truncated(k - 1))
        gamma = christoffel(g, ginv)
        r = riemann(gamma)
        cov, variance = r, "uddd"
        covR = [r.value()]
        for _ in range(m_max):
            cov = covariant_derivative(cov, variance, gamma)
            variance += "d"
            covR.append(cov.value())
        return cls(spec=spec, point=p, jet_order=k, metric_jets=g,
                   inverse_jets=ginv, gamma_jets=gamma, riemann_jets=r, covR=covR)

    @cached_property
    def unit_frames(self):
        """The data at each point of a batch in its ``UnitFrame``, a list,
        from one batched ``eigh``; a single point is a batch of one.  There
        one fixed singular-value threshold means zero whatever the chart's
        scale: e from ``eigh(g)``; Gamma and covR transformed as tensors
        under the constant change x = e y; kappa = max(max |Gamma|,
        max |R|^(1/2)) there, or 1 when both vanish."""
        def batch(a):
            return a if self.point.ndim == 2 else a[None]

        w, v = np.linalg.eigh(batch(self.g))
        root = np.sqrt(np.abs(w))[:, None, :]
        es, einvs = v / root, np.swapaxes(v * root, 1, 2)
        gammas, covs = batch(self.gamma_jets.value()), [batch(c) for c in self.covR]
        frames = []
        for k, (e, einv) in enumerate(zip(es, einvs)):
            gamma = _in_frame(gammas[k], e, einv)
            cov = [_in_frame(c[k], e, einv) for c in covs]
            kappa = float(max(np.abs(gamma).max(), np.sqrt(np.abs(cov[0]).max()))) or 1.0
            frames.append(UnitFrame(e=e, einv=einv, signs=np.sign(w[k]), kappa=kappa,
                                    covR=[c / kappa ** (m + 2) for m, c in enumerate(cov)]))
        return frames


# Frame budget: one ``CurvatureData.compute`` of a frame ladder or of
# Killing transport, and one lockstep group of multi-point Killing traces,
# takes P points with P * n^(4 + depth) <= _FRAME_BUDGET (at least one
# point; ``budget_points``), so the deepest curvature values it holds stay
# within the budget whatever the number of points; transport evaluates depth
# 0.  Each call has a fixed cost that more points spread.  Measured time per
# point of one depth-0 call (2-vCPU host, one BLAS thread; sphere2,
# Schwarzschild, cw2 x cw2), by P * n^4:
#
#     P * n^4   5e2   2e3   8e3   3.4e4  1.4e5  5.4e5
#     n = 2      22    11   7.7    7.2    5.2      -   us
#     n = 4       -    85    49     30     35     43   us
#     n = 8       -     -     -    268    165    234   us
#
# One point alone takes 0.37 / 0.41 / 0.81 ms at n = 2 / 4 / 8.  Past about
# 1e5 the time per point stops falling at n = 4 and 8 and then rises.  The
# budget, 33 * 8^4, is the 2 * 16 + 1 stage points of one block of 16 steps
# at n = 8: 528 points a call at n = 4, 8448 at n = 2.
_FRAME_BUDGET = 33 * 8 ** 4


def budget_points(n, depth):
    """The points one ``CurvatureData.compute`` of depth ``depth`` on an
    n-dimensional chart may take: P with P * n^(4 + depth) <=
    ``_FRAME_BUDGET``, at least one."""
    return max(1, _FRAME_BUDGET // n ** (4 + depth))


def frame_ladder(spec, points, first):
    """``frames(depth, which)``: the ``UnitFrame`` of the chart at each row
    ``which`` (indices; all rows by default) of the (P, n) array ``points``,
    holding covR[0..depth], for the rank decisions of one call.

    ``CurvatureData`` is computed at a point only for a depth deeper than
    any computed there so far, the first time straight to max(depth, first),
    and for all the rows asked that need it at once: one batched compute of
    as many rows as ``budget_points`` allows, then the next.  A shallower
    depth is a slice of the deepest frame's covR.  The stabilisation loop
    always asks for order 1 after order 0 when it may, so a caller passes as
    ``first`` the depth its order min(1, m_max) reads.  Batching changes no
    bit of a point's frame; sliced covR agree with a fresh computation at
    the shallower depth up to rounding: the two contract jets of different
    orders."""
    points = np.asarray(points, dtype=np.float64)
    deepest = [None] * len(points)

    def frames(depth, which=None):
        which = range(len(points)) if which is None else which
        todo = [k for k in which if deepest[k] is None or depth >= len(deepest[k].covR)]
        m_max = max(depth, first)
        per_call = budget_points(spec.dim, m_max)
        for lo in range(0, len(todo), per_call):
            rows = todo[lo:lo + per_call]
            # a lone point is computed without a point axis, which costs a
            # few percent at P = 1; the batch's jets are released before the
            # next batch is computed
            batch = points[rows] if len(rows) > 1 else points[rows[0]]
            for k, frame in zip(rows, CurvatureData.compute(spec, batch,
                                                            m_max=m_max).unit_frames):
                deepest[k] = frame
        return [deepest[k]._replace(covR=deepest[k].covR[:depth + 1]) for k in which]
    return frames


def point_frame(spec, point):
    """Metric, inverse, connection values, and curvature values at one point,
    or at each row of a (P, n) array of points (a leading point axis on each).

    The cheap evaluator behind the transport integrator.
    """
    curv = CurvatureData.compute(spec, point, m_max=0)
    return curv.g, curv.ginv, curv.gamma_jets.value(), curv.riemann
