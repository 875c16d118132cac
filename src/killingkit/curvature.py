"""Curvature at a point: Christoffel symbols, the curvature tensor, and its
covariant derivatives, computed as jets of the metric components.

Index conventions, fixed once for the whole project:

* ``gamma[k, i, j]`` is the connection coefficient with upper index k,
  symmetric in (i, j); ``first[l, i, j]`` = g_la gamma[a, i, j] is the
  Christoffel symbol of the first kind;
* ``riemann[l, k, i, j]`` is the component of the endomorphism produced by the
  coordinate pair (i, j) acting on the k-th basis vector: the commutator of
  covariant derivatives along i and j applied to d_k gives
  ``riemann[l, k, i, j]`` times d_l.  The two-form slots (i, j) come last.
  Lowered, rm[l, k, i, j] = g_la riemann[a, k, i, j].
* The curvature and its covariant derivatives are kept lowered and in pair
  form.  The pairs (l, k) with l < k are numbered in the order of
  ``np.triu_indices(n, 1)``, N = C(n, 2) of them, and ``covR[m]`` has shape
  (N, N) + (n,)*m with layout [P, Q, z_1, ..., z_m], P = (l, k) and
  Q = (i, j): the m-th covariant derivative of rm, z_m being the outermost
  derivative.  Lowered, nabla^m R is antisymmetric in (l, k) and in (i, j)
  and symmetric under the swap of the pairs (Kobayashi-Nomizu I, ch. V,
  section 2), so the pair form holds every independent component, and
  ``unpack`` gives the whole tensor [l, k, i, j, z..] back.
* Jets may carry one leading point axis before the component axes: the same
  quantity at each of a batch of points.  In subscripts it is the letter P.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import metricdsl
from .jets import JetDomainError, JetShapeError, JetTensor, tensor_deriv, tensor_product


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
    """Connection coefficients of the second and of the first kind, gamma and
    first.  first has one order less than the metric; gamma = g^-1 first has
    the order of ``inverse_jets`` if that is lower, and without it g^-1 is
    taken at the order of first."""
    g = metric_jets
    if g.order < 1:
        raise OrderExhaustedError("christoffel needs metric jets of order >= 1")
    ginv = inverse_metric(g.truncated(g.order - 1)) if inverse_jets is None else inverse_jets
    p = _points(g, 2)
    dg = tensor_deriv(g)  # dg[i, j, c] = d_c g_ij
    a = dg.array
    # first[l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, summed in one
    # owned buffer of transposed views of dg's array, halved so as not to overflow
    a *= 0.5
    first = np.einsum(f"{p}jlic->{p}lijc", a).copy()
    first += np.einsum(f"{p}iljc->{p}lijc", a)
    first -= np.einsum(f"{p}ijlc->{p}lijc", a)
    first = JetTensor(first, dg.space)
    q = min(ginv.order, first.order)
    return tensor_product(f"{p}kl,{p}lij->{p}kij", ginv.truncated(q), first.truncated(q)), first


@lru_cache(maxsize=None)
def _pair_cells(n):
    """The flat indices, in an (n, n, n, n) array, of the entries [l, k, i, j]
    and [l, k, j, i] with (l, k) = P and (i, j) = Q, on the (N, N) grid of
    pairs P, Q; read-only."""
    r, s = np.triu_indices(n, k=1)
    head = (r * n + s)[:, None] * n * n
    cells = (head + r * n + s, head + s * n + r)
    for arr in cells:
        arr.flags.writeable = False
    return cells


def riemann(gamma, first):
    """The lowered curvature in pair form, [P, Q], as jets one order below
    ``first``'s, from the connection coefficients of both kinds
    (``christoffel``):

        rm[l, k, i, j] = D[l, k, i, j] - D[l, k, j, i],
        D[l, k, i, j] = d_i first[l, j, k] - first[a, i, l] gamma[a, j, k],

    which is g_la riemann[a, k, i, j] with d_i g_la = first[l, i, a] +
    first[a, i, l] substituted, so no jet of g is read.  gamma is read to
    the order of the result only."""
    if first.order < 1:
        raise OrderExhaustedError("riemann needs first-kind connection jets of order >= 1")
    p = _points(gamma, 3)
    n = gamma.shape[-1]
    dg = tensor_deriv(first)  # dg[l, j, k, i] = d_i first[l, j, k]
    d = tensor_product(f"{p}ail,{p}ajk->{p}lkij", first.truncated(dg.order),
                       gamma.truncated(dg.order)).array
    # D in B's buffer, and dg released before D is laid out flat
    np.subtract(np.einsum(f"{p}ljkic->{p}lkijc", dg.array), d, out=d)
    space, dg = dg.space, None
    d = d.reshape(d.shape[:len(p)] + (n ** 4, d.shape[-1]))
    cells, swapped = _pair_cells(n)
    total = np.take(d, cells, axis=len(p))
    total -= np.take(d, swapped, axis=len(p))
    return JetTensor(total, space)


@lru_cache(maxsize=None)
def _wedge_matrix(n):
    """The (N N, n n) matrix, entries 0 and +-1, that maps an endomorphism
    B[e, f] (upper index first, flattened row by row) to its action on
    two-forms in pair form: (B.w)[a, b] = B[e, a] w[e, b] + B[e, b] w[a, e]
    is sum over Q of W[P, Q] w[Q] with P = (a, b), Q = (c, d) and

        W[P, Q] = B[c, a] delta_bd - B[d, a] delta_bc
                  + delta_ac B[d, b] - delta_ad B[c, b].

    Read-only: every call of the process shares it."""
    r, s = np.triu_indices(n, k=1)
    big = len(r)
    rows, cols = np.meshgrid(np.arange(big), np.arange(big), indexing="ij")
    a, b, c, d = r[rows], s[rows], r[cols], s[cols]
    mat = np.zeros((big, big, n, n))
    for sign, upper, lower, hit in ((1.0, c, a, b == d), (-1.0, d, a, b == c),
                                    (1.0, d, b, a == c), (-1.0, c, b, a == d)):
        np.add.at(mat, (rows[hit], cols[hit], upper[hit], lower[hit]), sign)
    mat = mat.reshape(big * big, n * n)
    mat.flags.writeable = False
    return mat


def pair_connection(gamma):
    """The connection acting on two-forms in pair form: jets of W[P, Q, z],
    the ``_wedge_matrix`` of gamma[., z, .], one matrix product for every z
    and coefficient."""
    p = _points(gamma, 3)
    n = gamma.shape[-1]
    a = np.moveaxis(gamma.array, len(p) + 1, -2)   # [e, f, z, coeff]
    flat = a.reshape(a.shape[:len(p)] + (n * n, n * a.shape[-1]))
    big = n * (n - 1) // 2
    return JetTensor((_wedge_matrix(n) @ flat).reshape(
        a.shape[:len(p)] + (big, big, n, a.shape[-1])), gamma.space)


def covariant_derivative(tensor, variance, gamma, pairs=None):
    """Covariant derivative of a jet tensor; appends the derivative slot last.

    ``variance`` marks each component axis 'u' (upper), 'd' (lower) or 'p'
    (a lowered pair of two-form slots in pair form); on a 'p' slot the
    connection acts through ``pairs`` (``pair_connection(gamma)``, built
    here when not given).
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
    if "p" in variance:
        pairs = pair_connection(gamma) if pairs is None else pairs
        wl = pairs.truncated(min(pairs.order, q))
    letters = _VAR_LETTERS[:rank]
    t_trunc = tensor.truncated(q)
    # every slot of one kind contracts the same two jet tensors, so the
    # multiplication operator of the one with fewer components is built once
    # for the upper slots, once for the lower ones and once for the pairs
    operators = {}
    for s, v in enumerate(variance):
        slot = letters[s]
        contracted = p + letters[:s] + "A" + letters[s + 1:]
        out_sub = p + letters + "Z"
        if v == "u":
            out.array += tensor_product(f"{p}{slot}ZA,{contracted}->{out_sub}", gl, t_trunc,
                                        q, operators).array
        elif v == "d":
            out.array -= tensor_product(f"{p}AZ{slot},{contracted}->{out_sub}", gl, t_trunc,
                                        q, operators).array
        else:
            out.array -= tensor_product(f"{p}{slot}AZ,{contracted}->{out_sub}", wl, t_trunc,
                                        q, operators).array
    return out


@lru_cache(maxsize=None)
def _unpack_map(n):
    """For each entry [l, k, i, j] of an (n, n, n, n) array, the flat index of
    its pair entry [P, Q] in an (N, N) array with one more entry, a zero, at
    N N, and its sign: the zero where l = k or i = j; read-only."""
    r, s = np.triu_indices(n, k=1)
    big = len(r)
    pair = np.full((n, n), big)
    sign = np.zeros((n, n))
    pair[r, s] = pair[s, r] = np.arange(big)
    sign[r, s], sign[s, r] = 1.0, -1.0
    index = np.where((pair < big)[:, :, None, None] & (pair < big)[None, None],
                     pair[:, :, None, None] * big + pair[None, None], big * big).ravel()
    signs = (sign[:, :, None, None] * sign[None, None]).ravel()
    for arr in (index, signs):
        arr.flags.writeable = False
    return index, signs


def unpack(pairs, n, lead=0):
    """The whole lowered tensor [l, k, i, j, z..] of a covR entry in pair
    form [P, Q, z..] (``lead`` leading axes, such as a point axis, are kept
    in front): antisymmetric in (l, k) and in (i, j), and zero where l = k
    or i = j."""
    index, signs = _unpack_map(n)
    head, tail = pairs.shape[:lead], pairs.shape[lead + 2:]
    flat = pairs.reshape(head + (pairs.shape[lead] * pairs.shape[lead + 1],) + tail)
    flat = np.concatenate([flat, np.zeros(head + (1,) + tail)], axis=lead)
    whole = np.take(flat, index, axis=lead) * signs.reshape((-1,) + (1,) * len(tail))
    return whole.reshape(head + (n,) * 4 + tail)


def lowered_riemann(curv):
    """Fully covariant curvature rm[l, k, i, j]: the metric pairing of d_l
    against the (i, j)-endomorphism applied to d_k."""
    return unpack(curv.covR[0], curv.g.shape[-1], curv.point.ndim - 1)


def identity_residuals(curv):
    """Scaled residuals of the classical curvature identities at the point."""
    rm = lowered_riemann(curv)
    scale = max(1.0, float(np.abs(rm).max()))
    anti_ij = np.abs(rm + np.einsum("lkji->lkij", rm)).max()
    anti_kl = np.abs(rm + np.einsum("klij->lkij", rm)).max()
    pair = np.abs(rm - np.einsum("ijlk->lkij", rm)).max()
    bianchi = np.abs(rm + np.einsum("lijk->lkij", rm)
                     + np.einsum("ljki->lkij", rm)).max()
    nabla_g = covariant_derivative(curv.metric_jets.truncated(1), "dd",
                                   curv.gamma_jets.truncated(0)).value()
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
# that frame over kappa^(m + 2), which carries no units, in pair form.
UnitFrame = namedtuple("UnitFrame", "e einv signs kappa covR")


def _in_frame(t, mats):
    """Components of a tensor under the constant change of coordinates
    x = e y: slot s is contracted with ``mats[s]`` along its rows (einv.T
    for an upper slot, e for a lower one, the 2 x 2 minors of e for a pair).
    Each product contracts the first slot and appends the new one last, so
    after one product per slot the slots are back in their own order."""
    if not t.size:
        return t
    flat = t
    for mat in mats:
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
    inverse_jets: JetTensor     # of order m_max
    gamma_jets: JetTensor       # of order m_max, the most any reader reads
    covR: list          # covR[m]: values of the m-th covariant derivative, in pair form

    @property
    def g(self):
        return self.metric_jets.value()

    @property
    def ginv(self):
        return self.inverse_jets.value()

    def whole(self, m):
        """covR[m] as the whole tensor [l, k, i, j, z..] with its first slot
        raised by the inverse metric's values."""
        lead = self.point.ndim - 1
        t = unpack(self.covR[m], self.g.shape[-1], lead)
        flat = t.reshape(t.shape[:lead + 1] + (math.prod(t.shape[lead + 1:]),))
        return np.matmul(self.ginv, flat).reshape(t.shape)

    @cached_property
    def riemann(self):
        """The curvature values riemann[l, k, i, j], raised from covR[0]."""
        return self.whole(0)

    @classmethod
    def compute(cls, spec, point=None, m_max=1):
        """Build curvature data holding covR[0..m_max], at one point or, with
        a (P, n) array of points, at each of them (a leading point axis on
        every array).

        The m-th covariant derivative of the curvature reads metric jets of
        order m + 2, so the metric is expanded to order m_max + 2, and the
        Christoffel symbols of the first kind, from which R is built, to
        order m_max + 1.  Those of the second kind are read to order m_max
        at most, by R's Gamma.Gamma term and by each covariant derivative,
        so the metric is inverted to order m_max and gamma has that order.

        A non-finite entry in the jets of g^-1 or gamma or in a covR[m]
        raises a JetDomainError naming the chart and the earliest point with
        one, as a metric jet does; a batch raises what its points would
        raise one by one, in order.
        """
        p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
        k = m_max + 2
        try:
            g = metricdsl.metric_jet_tensor(spec, p, k)
        except (JetDomainError, metricdsl.SpecError):
            # an earlier point may overflow: the halves in order raise the first failure
            if p.ndim == 2 and len(p) > 1:
                for half in np.array_split(p, 2):
                    cls.compute(spec, half, m_max)
            raise
        with np.errstate(all="ignore"):
            ginv = inverse_metric(g.truncated(m_max))
            gamma, first = christoffel(g, ginv)
            cov = riemann(gamma, first)
            # the first covariant derivative, the deepest that reads the pair
            # connection, takes it to the order of its output, m_max - 1
            variance, pairs = "pp", pair_connection(gamma.truncated(m_max - 1)) if m_max else None
            covR = [cov.value()]
            for _ in range(m_max):
                cov = covariant_derivative(cov, variance, gamma, pairs)
                variance += "d"
                covR.append(cov.value())
        kept = {"the jets of g^-1": ginv.array, "the jets of gamma": gamma.array,
                **{f"nabla^{m} R": c for m, c in enumerate(covR)}}
        bad = np.array([~np.isfinite(a).all(axis=tuple(range(p.ndim - 1, a.ndim)))
                        for a in kept.values()]).reshape(len(kept), -1)   # [quantity, point]
        if bad.any():
            at = int(np.argmax(bad.any(axis=0)))
            raise JetDomainError(
                f"curvature of {spec.name!r} at {tuple(map(float, p.reshape(-1, spec.dim)[at]))}"
                f": a non-finite entry in {list(kept)[int(np.argmax(bad[:, at]))]}")
        return cls(spec=spec, point=p, jet_order=k, metric_jets=g,
                   inverse_jets=ginv, gamma_jets=gamma, covR=covR)

    @cached_property
    def unit_frames(self):
        """The data at each point of a batch in its ``UnitFrame``, a list,
        from one batched ``eigh``; a single point is a batch of one.  There
        one fixed singular-value threshold means zero whatever the chart's
        scale: e from ``eigh(g)``; Gamma and covR transformed as tensors
        under the constant change x = e y, a pair slot by the 2 x 2 minors
        of e; kappa = max(max |Gamma|, max |R|^(1/2)) there, or 1 when both
        vanish."""
        def batch(a):
            return a if self.point.ndim == 2 else a[None]

        w, v = np.linalg.eigh(batch(self.g))
        root = np.sqrt(np.abs(w))[:, None, :]
        es, einvs = v / root, np.swapaxes(v * root, 1, 2)
        gammas, covs = batch(self.gamma_jets.value()), [batch(c) for c in self.covR]
        cells, swapped = _pair_cells(es.shape[-1])
        frames = []
        for k, (e, einv) in enumerate(zip(es, einvs)):
            gamma = _in_frame(gammas[k], [einv.T, e, e])
            # minors[P', P] = e[l', l] e[k', k] - e[l', k] e[k', l]: the entries
            # [l', k', l, k] and [l', k', k, l] of e[x, y] e[u, v] laid out [x, u, y, v]
            outer = np.einsum("xy,uv->xuyv", e, e).ravel()
            minors = outer[cells] - outer[swapped]
            cov = [_in_frame(c[k], [minors, minors] + [e] * m) for m, c in enumerate(covs)]
            kappa = float(max(np.abs(gamma).max(),
                              np.sqrt(np.abs(cov[0]).max(initial=0.0)))) or 1.0
            frames.append(UnitFrame(e=e, einv=einv, signs=np.sign(w[k]), kappa=kappa,
                                    covR=[_over_power(c, kappa, m + 2)
                                          for m, c in enumerate(cov)]))
        return frames


def _over_power(c, kappa, power):
    """c / kappa^power: one division where the power is a normal float, else
    ``power`` divisions by kappa, so that a power past the float range (kappa
    = 5e99 on a flat chart, power 4) neither overflows nor underflows."""
    try:
        scale = kappa ** power
    except OverflowError:
        scale = 0.0
    if scale >= sys.float_info.min:
        return c / scale
    for _ in range(power):
        c = c / kappa
    return c


# Frame budget: one ``CurvatureData.compute`` of a frame ladder or of
# Killing transport, and one lockstep group of multi-point Killing traces,
# takes P points with P * n^(4 + depth) <= _FRAME_BUDGET (at least one
# point; ``budget_points``), so the deepest curvature values it holds stay
# within the budget whatever the number of points; transport evaluates depth
# 0 (``killing.killing_transport`` says which points share a call).  Each
# call has a fixed cost that more points spread.  Measured time per point of
# one depth-0 call (2-vCPU host, one BLAS thread; sphere2,
# Schwarzschild, cw2 x cw2), by P * n^4:
#
#     P * n^4   5e2   2e3   8e3   3.4e4  1.4e5  5.4e5
#     n = 2      22    11   7.7    7.2    5.2      -   us
#     n = 4       -    85    49     30     35     43   us
#     n = 8       -     -     -    268    165    234   us
#
# One point alone takes 0.37 / 0.41 / 0.81 ms at n = 2 / 4 / 8.  Past about
# 1e5 the time per point stops falling at n = 4 and 8 and then rises.  The
# budget, 33 * 8^4, is 33 points a call at n = 8, 528 at n = 4 and 8448 at
# n = 2.
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
