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
from .jets import JetShapeError, JetTensor, tensor_deriv, tensor_from_grid, tensor_product


class OrderExhaustedError(ValueError):
    """Jet order too low for the requested derivative depth; increase it."""


_VAR_LETTERS = "abcdefghijklmnopqrstuvwxy"


def _as_tensor(grid):
    return grid if isinstance(grid, JetTensor) else tensor_from_grid(grid)


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
    g = _as_tensor(g)
    p = _points(g, 2)
    n = g.shape[-1]
    g0inv = np.linalg.inv(g.value())
    em = np.einsum(f"{p}ia,{p}abc->{p}ibc", g0inv, g.array)
    em[..., 0] -= np.eye(n)
    e = JetTensor(-em, g.space)  # -E
    acc = e
    term = e
    for _ in range(g.order - 1):
        term = tensor_product(f"{p}ia,{p}ab->{p}ib", e, term)
        acc = acc + term
    total = acc.array.copy()
    total[..., 0] += np.eye(n)
    return JetTensor(np.einsum(f"{p}iac,{p}ab->{p}ibc", total, g0inv), g.space)


def christoffel(metric_jets, inverse_jets=None):
    """Connection coefficients as jets of one order less than the metric."""
    g = _as_tensor(metric_jets)
    if g.order < 1:
        raise OrderExhaustedError("christoffel needs metric jets of order >= 1")
    ginv = inverse_metric(g) if inverse_jets is None else _as_tensor(inverse_jets)
    p = _points(g, 2)
    dg = tensor_deriv(g)  # dg[i, j, c] = d_c g_ij
    a = dg.array
    # sym[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    sym = JetTensor(np.einsum(f"{p}jlic->{p}lijc", a)
                    + np.einsum(f"{p}iljc->{p}lijc", a)
                    - np.einsum(f"{p}ijlc->{p}lijc", a), dg.space)
    return tensor_product(f"{p}kl,{p}lij->{p}kij", ginv.truncated(dg.order),
                          sym).scaled(0.5)


def riemann(gamma):
    """Curvature jets from connection jets, one further order down."""
    gamma = _as_tensor(gamma)
    if gamma.order < 1:
        raise OrderExhaustedError("riemann needs connection jets of order >= 1")
    p = _points(gamma, 3)
    dg = tensor_deriv(gamma)  # dg[l, j, k, i] = d_i gamma[l, j, k]
    a = dg.array
    d_term = np.einsum(f"{p}ljkic->{p}lkijc", a) - np.einsum(f"{p}likjc->{p}lkijc", a)
    gl = gamma.truncated(dg.order)
    quad = tensor_product(f"{p}lim,{p}mjk->{p}lkij", gl, gl)
    quad2 = tensor_product(f"{p}ljm,{p}mik->{p}lkij", gl, gl)
    return JetTensor(d_term + quad.array - quad2.array, dg.space)


def covariant_derivative(tensor, variance, gamma):
    """Covariant derivative of a jet tensor; appends the derivative slot last.

    ``variance`` marks each component axis 'u' (upper) or 'd' (lower).
    """
    t = _as_tensor(tensor)
    if t.order < 1:
        raise OrderExhaustedError("covariant derivative needs jets of order >= 1")
    p = _points(gamma, 3)
    rank = len(variance)
    if rank + len(p) != len(t.shape):
        raise ValueError(f"variance {variance!r} does not match rank "
                         f"{len(t.shape) - len(p)}")
    out = tensor_deriv(t)  # [..., z, coeff]
    q = out.order
    gl = gamma.truncated(min(gamma.order, q))
    letters = _VAR_LETTERS[:rank]
    t_trunc = t.truncated(q)
    for s, v in enumerate(variance):
        slot = letters[s]
        contracted = p + letters[:s] + "A" + letters[s + 1:]
        out_sub = p + letters + "Z"
        if v == "u":
            term = tensor_product(f"{p}{slot}ZA,{contracted}->{out_sub}", gl, t_trunc, q)
            out = out + term
        else:
            term = tensor_product(f"{p}AZ{slot},{contracted}->{out_sub}", gl, t_trunc, q)
            out = out - term
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
    def n(self):
        return self.spec.dim

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
    def unit_frame(self):
        """The data at a single point in its ``UnitFrame``, where one fixed
        singular-value threshold means zero whatever the chart's scale: e
        from ``eigh(g)``; Gamma and covR transformed as tensors under the
        constant change x = e y; kappa = max(max |Gamma|, max |R|^(1/2))
        there, or 1 when both vanish."""
        w, v = np.linalg.eigh(self.g)
        root = np.sqrt(np.abs(w))
        e, einv = v / root, (v * root).T
        gamma = _in_frame(self.gamma_jets.value(), e, einv)
        cov = [_in_frame(c, e, einv) for c in self.covR]
        kappa = float(max(np.abs(gamma).max(), np.sqrt(np.abs(cov[0]).max()))) or 1.0
        return UnitFrame(e=e, einv=einv, signs=np.sign(w), kappa=kappa,
                         covR=[c / kappa ** (m + 2) for m, c in enumerate(cov)])


def point_frame(spec, point):
    """Metric, inverse, connection values, and curvature values at one point,
    or at each row of a (P, n) array of points (a leading point axis on each).

    The cheap evaluator behind the transport integrator and the field checks.
    """
    curv = CurvatureData.compute(spec, point, m_max=0)
    return curv.g, curv.ginv, curv.gamma_jets.value(), curv.riemann
