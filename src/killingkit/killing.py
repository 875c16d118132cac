"""The Killing bundle over a chart point and the machinery built on it.

A germ is a pair (xi, A) with xi a tangent vector and A a metric-skew
endomorphism; the germ of a vector field is (xi(p), -nabla xi(p)).  Germs of
Killing fields are exactly the parallel sections of the bundle connection

    D_X (xi, A) = (nabla_X xi + A X,  nabla_X A + R(X, xi)),

so three computations fall out of one construction:

* the curvature condition of D and its repeated covariant derivatives give a
  tower of linear conditions on (xi, A) -- the integrability tensors -- whose
  stabilised joint kernel bounds (and, for analytic charts, computes) the
  dimension of the isometry algebra; level m is the Lie derivative of the
  m-th covariant derivative of the curvature along the germ (Nomizu 1960),
  so the tower is read off from the curvature's covariant derivatives at p;
* integrating D-parallelism along a path transports germs (Killing transport);
* the tower applied to one germ is a pointwise test that the germ can belong
  to a Killing field.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import metricdsl
from .curvature import (CurvatureData, OrderExhaustedError, _wedge_matrix, budget_points,
                        christoffel, covariant_derivative, frame_ladder, point_frame)
from .jets import (JetDomainError, JetTensor, compile_tape, jet_space, tensor_deriv,
                   tensor_product)
from .rank import fixed_basis, numerical_rank, stabilise


class PreconditionError(ValueError):
    """A check was invoked on input that fails its stated precondition."""


@dataclass(frozen=True)
class KillingGerm:
    """A candidate 1-jet (xi, A) of a Killing field at a point."""

    xi: np.ndarray
    a: np.ndarray

    def so_defect(self, g):
        """Residual of the metric-skewness condition g A + (g A)^T = 0."""
        s = g @ self.a
        return float(np.abs(s + s.T).max())


def wedge(v_plus, v_minus, g):
    """The metric-skew endomorphism pairing two tangent vectors:
    maps u to <v_plus, u> v_minus - <v_minus, u> v_plus."""
    v_plus = np.asarray(v_plus, dtype=np.float64)
    v_minus = np.asarray(v_minus, dtype=np.float64)
    return np.outer(v_minus, g @ v_plus) - np.outer(v_plus, g @ v_minus)


def so_basis(signs):
    """A basis of the endomorphisms that are skew for the metric diag(signs),
    whose entries are +-1: diag(signs)(E_rs - E_sr) for the pairs r < s in
    order."""
    n = len(signs)
    r, s = np.triu_indices(n, k=1)
    k = np.arange(len(r))
    basis = np.zeros((len(r), n, n))
    basis[k, r, s] = signs[r]
    basis[k, s, r] = -signs[s]
    return basis


def vector_to_germ(vec, signs):
    """The germ with coordinates ``vec``, (xi, the so_basis(signs)
    components of A), in a frame with metric diag(signs)."""
    n = len(signs)
    xi = np.asarray(vec[:n], dtype=np.float64)
    a = np.einsum("k,kij->ij", vec[n:], so_basis(signs))
    return KillingGerm(xi=xi, a=a)


def bundle_dim(n):
    return n * (n + 1) // 2


# -- germs of explicit fields -------------------------------------------------

def field_jets(spec, fld):
    """``jets(points, order)``: the jets of the field's components about a
    point, (n, size), or about each row of a (P, n) array, (P, n, size), from
    one tape compiled here.  A failing component raises a JetDomainError
    naming the (earliest failing) point, the component and its expression."""
    exprs = metricdsl.parse_field(fld, spec)
    tape = compile_tape(exprs)

    def jets(points, order):
        batch = np.atleast_2d(points)
        coeffs, failure = tape.evaluate(batch, jet_space(spec.dim, order))
        if failure is not None:
            i, k, exc = failure
            raise JetDomainError(
                f"field on {spec.name!r} at {tuple(map(float, batch[i]))}: component "
                f"{k} = {exprs[k].to_text()}: {exc}") from exc
        return coeffs if np.ndim(points) == 2 else coeffs[0]
    return jets


def _field_germ(jets, gamma):
    """The germ (xi, A), A = -(grad xi + Gamma xi), of a field with jets
    ``jets`` (``field_jets`` at order >= 1) at a point with connection values
    ``gamma``."""
    xi, dxi = jets[:, 0], jets[:, 1:len(jets) + 1]  # dxi[i, j] = d_j xi^i
    return KillingGerm(xi=xi, a=-(dxi + np.einsum("ijk,k->ij", gamma, xi)))


@dataclass(frozen=True)
class FieldSamples:
    """A field and its chart at sample points: ``curv``, the chart's depth-0
    ``CurvatureData`` over the points that evaluate, one (P, n) batch in the
    order given; ``jets``, the field's 2-jets there, a (P, n) JetTensor; and
    ``errors``, the (point, error) of each point that does not evaluate."""

    curv: CurvatureData
    jets: JetTensor
    errors: list

    def at(self, point):
        """The field's germ and the metric at a point; a bad point raises."""
        exc = dict(self.errors).get(tuple(map(float, point)))
        if exc is not None:
            raise exc
        k = np.flatnonzero((self.curv.point == np.asarray(point)).all(axis=1))[0]
        return _field_germ(self.jets.array[k], self.curv.gamma_jets.value()[k]), self.curv.g[k]


def sample_field(spec, fld, points):
    """``FieldSamples`` of a field (``fld``: its component expressions) from
    one batched evaluation of the chart and one of the field at ``points``.
    Only if that raises, each point is evaluated alone, the chart first, to
    find the bad ones, and the good ones once more in one batch, whose
    failure is raised."""
    jets_at = field_jets(spec, fld)
    points = np.asarray(points, dtype=np.float64).reshape(-1, spec.dim)

    def samples(batch, errors):
        return FieldSamples(CurvatureData.compute(spec, batch, m_max=0),
                            JetTensor(jets_at(batch, 2), jet_space(spec.dim, 2)), errors)
    try:
        return samples(points, [])
    except ValueError:
        good, errors = [], []
    for p in points:
        try:
            CurvatureData.compute(spec, p, m_max=0)
            jets_at(p, 2)
            good.append(p)
        except ValueError as exc:
            errors.append((tuple(map(float, p)), exc))
    return samples(np.reshape(good, (-1, spec.dim)), errors)


@dataclass
class FieldCheck:
    """Outcome of a per-point residual check of a vector field."""

    passed: bool
    max_residual: float
    tol: float
    scale: float
    point_residuals: list
    point_errors: list = field(default_factory=list)


def _lie_residuals(samples):
    """Per point max |L_xi g| from the order <= 1 jets, and 1 + max |g|."""
    g, jets = samples.curv.metric_jets.truncated(1).array, samples.jets.truncated(1).array
    gval, dg = g[..., 0], np.moveaxis(g[..., 1:], -1, 1)  # dg[P, k, i, j] = d_k g_ij
    xi, dxi = jets[..., 0], jets[..., 1:]  # dxi[P, k, i] = d_i xi^k
    lie = (np.einsum("Pk,Pkij->Pij", xi, dg)
           + np.einsum("Pkj,Pki->Pij", gval, dxi)
           + np.einsum("Pik,Pkj->Pij", gval, dxi))
    return np.abs(lie).max(axis=(1, 2)), 1.0 + np.abs(gval).max(initial=0.0)


def verify_killing(samples, tol=1e-9):
    """Residuals of the metric Lie derivative along the field at the points
    of ``samples`` (``sample_field``), over the batch at once: passed when
    each point that evaluates has residual <= tol * (1 + |g|)."""
    return _field_check(samples, *_lie_residuals(samples), tol)


def _field_check(samples, residuals, scale, tol):
    """Passed when there is a residual and the largest is <= tol * scale."""
    max_res = float(residuals.max()) if len(residuals) else float("inf")
    return FieldCheck(passed=bool(len(residuals) and max_res <= tol * scale),
                      max_residual=max_res, tol=tol, scale=float(scale),
                      point_residuals=[(tuple(map(float, p)), float(r))
                                       for p, r in zip(samples.curv.point, residuals)],
                      point_errors=[(p, str(exc)) for p, exc in samples.errors])


def _riemann_from_connection(gamma):
    """The curvature values riemann[P, l, k, i, j] from connection jets
    gamma[P, l, i, j] of order 1, by the same contractions of gamma's jets
    as the covariant derivative of A in ``check_first_prolongation``:

        riemann[l, k, i, j] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
            + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k].

    For a field of the chart's symmetry the two then cancel bit for bit.
    ``CurvatureData.riemann``, raised from the lowered curvature, does not:
    near a coordinate singularity, where g^-1 is large, the raise turns its
    rounding into residuals above the check's tolerance (sphere2 at
    theta = 3e-5: 3.2e-7 against 0)."""
    dg = tensor_deriv(gamma)  # dg[P, l, j, k, i] = d_i gamma[l, j, k]
    gl = gamma.truncated(dg.order)
    total = (np.einsum("Pljkic->Plkijc", dg.array) - np.einsum("Plikjc->Plkijc", dg.array)
             + tensor_product("Plim,Pmjk->Plkij", gl, gl).array
             - tensor_product("Pljm,Pmik->Plkij", gl, gl).array)
    return total[..., 0]


def check_first_prolongation(samples, tol=1e-8):
    """For a verified Killing field, the derivative of A must cancel R(., xi)
    at the points of ``samples``, over the batch at once.  Refuses
    (PreconditionError) if the field is not Killing there at max(tol, 1e-9)."""
    killing = _field_check(samples, *_lie_residuals(samples), max(tol, 1e-9))
    if not killing.passed:
        raise PreconditionError(
            f"field is not Killing on the sample points "
            f"(residual {killing.max_residual:.3g}); check refused")
    dxi = tensor_deriv(samples.jets)  # [P, i, j]: d_j xi^i
    # the connection to order 1, one more than the depth-0 data's own gamma
    gamma1 = christoffel(samples.curv.metric_jets)[0]
    a_jets = (dxi + tensor_product("Pijk,Pk->Pij", gamma1, samples.jets.truncated(1))
              ).scaled(-1.0)
    grad_a = covariant_derivative(a_jets, "ud", gamma1).value()  # [P, i, j, c]
    coupling = np.einsum("Pijcd,Pd->Pijc", _riemann_from_connection(gamma1),
                         samples.jets.value())
    return _field_check(samples, np.abs(grad_a + coupling).max(axis=(1, 2, 3)),
                        1.0 + max(np.abs(grad_a).max(), np.abs(coupling).max()), tol)


# -- the tower's levels --------------------------------------------------------------

def _build_level_gather(n, m):
    """The index arrays that build level m of the tower at dimension n from
    covR[m] and covR[m + 1] in pair form (``tower_level``), whatever the
    signs.

    Returns ``xi_rows``, the level's rows (P, Q, z..) with P <= Q, in order,
    as rows of covR[m + 1] over its last slot; ``weights``, 2 where P = Q
    and 2 sqrt(2) elsewhere; and the terms of the A-columns: term t adds
    ``coef[t] signs[sign[t]] covR[m].flat[source[t]]`` to the flat entry
    ``target[t]`` of the (rows, C(n, 2)) block.  A acts on the lowered
    covR[m] as a derivation, (A.T)[y..] = -sum_s T[.., A e_{y_s} at slot
    s, ..], and A = sum_p c_p so_basis(signs)[p], whose entry (r, s),
    r < s, is signs[r] and (s, r) is -signs[s].  On a pair slot it acts by
    minus the ``_wedge_matrix`` of so_basis(signs)[p], which meets each
    pair P sharing one index with p in one pair; on a derivation slot with
    index y in p = {y, y'}, it reads T at y' there, times -signs[y'] if
    y' < y and +signs[y'] if y < y'.  That is 4 (n - 2) + m (n - 1) terms a
    row."""
    r, s = np.triu_indices(n, k=1)
    big = len(r)
    heads, tails = np.triu_indices(big)
    size = n ** m
    z = np.arange(size)
    weights = np.repeat(np.where(heads == tails, 2.0, 2.0 * np.sqrt(2.0)), size)
    at = (np.arange(len(heads))[:, None] * size + z) * big   # [h, z]: the row's first entry
    xi_rows = ((heads * big + tails)[:, None] * size + z).ravel()
    wedge = _wedge_matrix(n).reshape(big, big, n, n)
    by_r, by_s = -wedge[:, :, r, s], wedge[:, :, s, r]          # [P, R, p]
    # each pair P meets, for the 2 (n - 2) columns p sharing one index with
    # it, one pair met[P, k], with one of by_r and by_s nonzero
    pair, met, col = np.nonzero((by_r != 0) | (by_s != 0))
    hits = max(2 * (n - 2), 0)
    value = (by_r + by_s)[pair, met, col].reshape(big, hits)
    sign_of = np.where(by_r[pair, met, col] != 0, r[col], s[col]).reshape(big, hits)
    met, col = met.reshape(big, hits), col.reshape(big, hits)
    target, source, sign, coef = [], [], [], []
    w = weights.reshape(len(heads), size)
    for moving, cells in ((heads, met[heads] * big + tails[:, None]),    # [h, k]
                          (tails, heads[:, None] * big + met[tails])):
        target.append(at[:, None, :] + col[moving][:, :, None])
        source.append(cells[:, :, None] * size + z)
        sign.append(np.broadcast_to(sign_of[moving][:, :, None], target[-1].shape))
        coef.append(value[moving][:, :, None] * w[:, None, :])
    a = np.arange(n)
    pair_of = np.zeros((n, n), dtype=np.intp)
    pair_of[r, s] = pair_of[s, r] = np.arange(big)
    for slot in range(m):
        stride = n ** (m - 1 - slot)
        y = z // stride % n                                    # [z]
        other = np.array([a[a != k] for k in range(n)]).reshape(n, n - 1)[y]   # [z, j]
        target.append(at[:, :, None] + pair_of[y[:, None], other])
        source.append(((heads * big + tails)[:, None, None] * size + z[:, None])
                      + (other - y[:, None]) * stride)
        sign.append(np.broadcast_to(other, target[-1].shape))
        coef.append(np.where(other < y[:, None], -1.0, 1.0) * w[:, :, None])
    arrays = (xi_rows, weights) + tuple(np.concatenate([t.ravel() for t in group])
                                        for group in (target, source, sign, coef))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


# The level gathers kept for reuse, most recently used last, and the bytes
# they may hold in all: a gather larger than that is built for its call and
# released with it (at n = 8, m = 2 it holds 32 MB).
_gathers = {}
_GATHER_BYTES = 8 << 20


def _level_gather(n, m):
    """``_build_level_gather(n, m)``, kept for reuse within ``_GATHER_BYTES``
    (the least recently used dropped first)."""
    arrays = _gathers.pop((n, m), None)
    if arrays is None:
        arrays = _build_level_gather(n, m)
        _gathers[(n, m)] = arrays
        while sum(a.nbytes for kept in _gathers.values() for a in kept) > _GATHER_BYTES:
            del _gathers[next(iter(_gathers))]
    else:
        _gathers[(n, m)] = arrays
    return arrays


def tower_level(frame, m):
    """Level m of the tower at a point as a matrix over the germ coordinates
    of its ``UnitFrame``: there a germ (xi, A) has coordinates
    (kappa e^-1 xi, e^-1 A e over so_basis(signs)) and level m is divided by
    kappa^(m + 2), so no column or row carries units.

    Level m is the Lie derivative of the m-th covariant derivative of the
    curvature along the germ (Nomizu 1960), T_m(xi, A) = xi^d
    covR[m + 1][.., d] + A.covR[m], with A acting as a derivation on every
    slot; T_{m+1} is the covariant derivative of T_m with the first-order
    system (nabla xi = -A, nabla A = -R(., xi)) substituted back in.  Its
    rows (l, k, i, j, z..) keep the lowered curvature's symmetries,
    antisymmetry in (l, k) and in (i, j) and the pair symmetry, as
    nabla^m R and a derivation by A in so(g) both keep them
    (Kobayashi-Nomizu I, ch. V, section 2).  So the rows with l = k or
    i = j are zero in exact arithmetic, the rest come in groups of 4 or 8
    equal up to sign, and one row of each group, the pairs P <= Q of covR
    in pair form weighted by the square root of its group's size
    (``_build_level_gather``), has the Gram matrix of all n^(4+m) rows: the same
    singular values, rank, margin and null space, from C(C(n, 2) + 1, 2)
    n^m rows."""
    covR = frame.covR
    if len(covR) < m + 2:
        raise OrderExhaustedError(
            f"the tower's level {m} reads covR[{m + 1}], which needs jet order "
            f"{m + 3}; got covR[0..{len(covR) - 1}] (jet order {len(covR) + 1})")
    n = len(frame.signs)
    xi_rows, weights, target, source, sign, coef = _level_gather(n, m)
    shape = (len(xi_rows), n * (n - 1) // 2)
    a_cols = np.bincount(target, covR[m].ravel()[source] * frame.signs[sign] * coef,
                         minlength=shape[0] * shape[1])
    return np.hstack([covR[m + 1].reshape(-1, n)[xi_rows] * weights[:, None],
                      a_cols.reshape(shape)])


# -- kernel dimension -------------------------------------------------------------

@dataclass
class KernelReport:
    """Joint-kernel trace of the integrability tower at one point (killing-dim's report)."""

    point: tuple
    dims: list
    stabilized_dim: int
    stabilization_order: object  # int, or None when not stabilized
    gaps: list
    warnings: list
    tol: float
    m_max: int

    @property
    def stable(self):
        return self.stabilization_order is not None


@dataclass
class MultiPointReport:
    """Kernel traces at the base point and its nearby points; min is reported."""

    min_dim: int
    reports: list
    points: list
    warnings: list

    @property
    def stable(self):
        return all(r.stable for r in self.reports)


def kernel_report(decisions, stab_order, point, dim_e, analytic, m_max, tol):
    """The ``KernelReport`` of the rank decisions of a tower, order by order,
    over a germ space of dimension ``dim_e``."""
    warnings = []
    if not analytic:
        warnings.append(
            "analytic flag absent: the computed dimension is an upper bound "
            "on the isometry-algebra dimension, not necessarily attained")
    if stab_order is None:
        warnings.append(
            f"unstable: kernel dimension still changing at order m_max={m_max}; "
            "result is an upper bound only")
    dims = [dim_e - d.rank for d in decisions]
    return KernelReport(point=tuple(float(x) for x in np.atleast_1d(point)),
                        dims=dims, stabilized_dim=dims[-1],
                        stabilization_order=stab_order,
                        gaps=[dict(d.margin, order=m) for m, d in enumerate(decisions)],
                        warnings=warnings, tol=tol, m_max=m_max)


def _kernel_trace(spec, points, m_max, tol, frames=None):
    """For each row of the (P, n) array ``points``: the kernel report, the
    rank decision of each order (the last one's null space is the kernel, as
    rows over the germ coordinates of its unit frame), and that frame.  The
    points are ranked in lockstep by one ``stabilise`` loop; order m ranks
    level m on each point's decision at order m - 1, from ``frames``, a
    ``frame_ladder`` of the chart at ``points``: by default a new one, whose
    first computation is the depth order 1 reads."""
    if frames is None:
        frames = frame_ladder(spec, points, min(2, m_max + 1))
    traces = stabilise(lambda m, active, previous: [
        numerical_rank(tower_level(frame, m), tol, prev)
        for frame, prev in zip(frames(m + 1, active), previous)], m_max, len(points))
    return [(kernel_report(decisions, stab_order, point, bundle_dim(spec.dim),
                           spec.assumptions.analytic, m_max, tol),
             decisions, frames(len(decisions), [k])[0])
            for k, (point, (decisions, stab_order)) in enumerate(zip(points, traces))]


def killing_dimension(spec, point=None, m_max=10, tol=1e-8, multi_point=False):
    """Stabilised joint-kernel dimension of the integrability tower.

    With ``multi_point`` the trace is also taken at the point's five
    ``nearby_points``, reporting the minimum (guards against non-generic base
    points).  The points are ranked in lockstep, each group sharing one frame
    ladder and one stabilisation loop: each depth of the curvature is
    computed in one batch over the points whose trace is still changing, and
    each point's ranks are decided in its own frame, so every trace is the
    one the point alone gives.  A group holds the frames of all its points at once, so it
    takes as many points as one computation of the first depth may
    (``curvature.budget_points``): all six up to n = 4, one at n = 8.
    """
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    if not multi_point:
        return _kernel_trace(spec, p[None], m_max, tol)[0][0]
    points = np.array([p] + nearby_points(p))
    group = budget_points(spec.dim, min(2, m_max + 1))
    reports = []
    for lo in range(0, len(points), group):   # one group's frames are released before the next
        reports += [report for report, _, _ in _kernel_trace(spec, points[lo:lo + group],
                                                             m_max, tol)]
    warnings = sorted({w for r in reports for w in r.warnings})
    return MultiPointReport(min_dim=min(r.stabilized_dim for r in reports),
                            reports=reports,
                            points=[tuple(map(float, q)) for q in points],
                            warnings=warnings)


def nearby_points(p):
    """Five points near the point ``p``: four steps of delta = 0.05 (1 +
    max |p|) each way along the coordinate axes in turn, a quarter longer
    each time the axes wrap, then the diagonal p + delta / sqrt(n); a 1-D
    chart has no diagonal, so it gets a fifth axis step instead."""
    p = np.asarray(p, dtype=np.float64)
    n = len(p)
    delta = 0.05 * (1.0 + float(np.abs(p).max()))
    points = []
    for k in range(4 if n > 1 else 5):
        q = p.copy()
        q[k // 2 % n] += (-delta if k % 2 else delta) * (1.0 + 0.25 * (k // 2 // n))
        points.append(q)
    if n > 1:
        points.append(p + delta / np.sqrt(n))
    return points


def kernel_germs(spec, point=None, m_max=10, tol=1e-8):
    """The kernel report plus germs spanning the stabilised kernel."""
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    [(report, decisions, frame)] = _kernel_trace(spec, p[None], m_max, tol)
    germs = [vector_to_germ(v, frame.signs) for v in fixed_basis(decisions[-1].null)]
    return report, [KillingGerm(xi=frame.e @ h.xi / frame.kappa,
                                a=frame.e @ h.a @ frame.einv) for h in germs]


# -- transport --------------------------------------------------------------------

# A piece of a segment takes its frames at N + 1 Chebyshev points of the
# second kind, N = _CHEBYSHEV_N.  It is resolved when the last two Chebyshev
# coefficients of each input of its generators there are at most
# _CHEBYSHEV_TAIL times that input's largest entry, and its collocation
# stops once a step changes the state by at most _CHEBYSHEV_TAIL times the
# state's largest entry (see ``killing_transport``).
_CHEBYSHEV_N = 16
_CHEBYSHEV_TAIL = 1e-13


def _transport_generators(gus, rus, us):
    """The generators M of D-transport, one per frame: ds/dt = M s for
    s = (xi, A flattened row by row) along a segment whose velocity there is
    u, the frame's row of ``us``, (P, n).  ``gus`` holds Gamma^i_ab u^a as
    [P, i, b] and ``rus`` the curvature values R^i_jcd u^c as [P, i, j, d];
    the result has shape (P, n + n^2, n + n^2)."""
    count, n = gus.shape[:2]
    eye = np.eye(n)
    m = np.empty((count, n + n * n, n + n * n))
    m[:, :n, :n] = -gus                                       # -Gamma(u) xi
    m[:, :n, n:] = -np.einsum("ik,Pl->Pikl", eye, us).reshape(count, n, n * n)   # -A u
    m[:, n:, :n] = -rus.reshape(count, n * n, n)              # -R(u, xi)
    m[:, n:, n:] = (np.einsum("ik,Plj->Pijkl", eye, gus)      # A Gamma(u)
                    - np.einsum("Pik,jl->Pijkl", gus, eye)    # -Gamma(u) A
                    ).reshape(count, n * n, n * n)
    return m


def _grid_times(steps, i):
    """The parameters t in [0, 1] of the grid points ``i`` (an index array)
    of a segment of ``steps`` steps: 0, then the midpoint and the end of
    each step, the last 1 exactly."""
    h = 1.0 / steps
    s = (i - 1) // 2 * h   # step k starts at s = k h
    return np.where(i % 2, s + h / 2, np.where(i == 2 * steps, 1.0, s + h))


def _segment_points(path, seg, t):
    """The points x0 + t (x1 - x0) at the parameters ``t`` (an array) of
    segment ``seg`` of ``path``, from x0 = path[seg] to x1, one segment or
    one a parameter; x0 and x1 exactly where t is 0 and 1 (x0 + 0 u would
    turn -0.0 into 0.0)."""
    x0, x1, t = path[seg], path[seg + 1], t[:, None]
    return np.where(t == 0, x0, np.where(t == 1, x1, x0 + t * (x1 - x0)))


@lru_cache(maxsize=None)
def _chebyshev_nodes(count):
    """The ``count`` + 1 Chebyshev points of the second kind on [0, 1],
    t_j = sin^2(j pi / (2 count)) for j = 0..count, 0 and 1 exactly; the
    (2, count + 1) matrix that takes values there to the last two
    coefficients, c_(count - 1) and c_count, of their interpolant in
    Chebyshev polynomials T_k(1 - 2 t) (Trefethen, ATAP, ch. 3); and the
    (count + 1, count + 1) matrix that takes them to the integral of the
    interpolant from 0 to each point, in closed form: with theta = j pi /
    count, the integral of T_k(1 - 2 t) from 0 to t_j is half that of
    cos(k phi) sin(phi) from 0 to theta, (f(k + 1) - f(k - 1)) / 4 with
    f(m) = (1 - cos(m theta)) / m.  Its first row is 0.  All read-only."""
    j = np.arange(count + 1)
    t = np.sin(j * np.pi / (2 * count)) ** 2
    coeffs = (np.where((j == 0) | (j == count), 1.0, 2.0) / count
              * np.cos(np.outer(j, j) * np.pi / count))
    coeffs[[0, count]] /= 2
    theta = j[:, None] * np.pi / count

    def f(m):   # (1 - cos(m theta)) / m, 0 at m = 0
        return theta * np.sin(m * theta / 2) * np.sinc(m * theta / (2 * np.pi))
    integral = (f(j + 1) - f(j - 1)) / 4 @ coeffs
    tail = coeffs[count - 1:]
    for arr in (t, tail, integral):
        arr.flags.writeable = False
    return t, tail, integral


@dataclass(frozen=True)
class Transport:
    """Killing transport of a germ along a path: the germ at the start, the
    transported germ at the end, the metric there and, when a field's germ
    was transported, the field's own germ at the end (else None)."""

    start: KillingGerm
    end: KillingGerm
    g_end: np.ndarray
    field_end: KillingGerm = None


def killing_transport(spec, germ, path, steps_per_segment=1000):
    """Parallel transport of a germ along a polyline for the bundle connection.

    D is linear in the state s = (xi, vec A): ds/dt = M(t) s along a
    segment, with M built from Gamma(u) and R(., ., u, .), u its velocity.
    These are analytic in t wherever the chart is, so each piece of a
    segment (at first the whole segment) takes them at its N + 1 = 17
    Chebyshev nodes (``_chebyshev_nodes``; the first and last are the
    piece's ends exactly) and is integrated by collocation there
    (Trefethen, ATAP, ch. 19): the states S at the nodes solve
    S = s(0) + Q (M S), Q the Chebyshev integration matrix, by fixed-point
    iteration from S = s(0) until a step changes S by at most
    ``_CHEBYSHEV_TAIL`` of its largest entry (Battles and Trefethen 2004).
    The state at the last node goes on to the next piece.

    A piece is taken when its iteration settles and the last two Chebyshev
    coefficients of both inputs are at most ``_CHEBYSHEV_TAIL`` of each one's
    largest entry.  Otherwise it is halved, and its halves' nodes are evaluated
    together.  A half that settles is taken whatever its tail when the tail
    stopped shrinking (near a coordinate axis it stalls at rounding, about
    1e-12) or the half is one grid step long; one that does not settle is
    halved again.  ``steps_per_segment`` sets that grid: the 2 steps + 1 points
    of each segment at its start, then the midpoint and the end of each of
    ``steps`` equal steps.

    The chart is checked at every grid point, by one order-0 metric evaluation
    with its nondegeneracy check, in chunks of at most ``budget_points``
    points at depth 0 across a run of segments: as many whole segments as one
    call holds (31 at n = 4, one at n = 8), or one segment where a call holds
    fewer than its 17 nodes.  The nodes of a run, or of a piece's two halves,
    come in path order in calls of at most ``budget_points`` points from the
    first node, as the grid does; each call's frames are contracted with their
    nodes' velocities and turned into generators at once.  A run, or two
    halves, shares one grid check and one call only where both pass; else each
    segment or half goes alone, in path order, checked once the one before it
    is taken.  Where a segment's own check or call raises, its grid points are
    walked through ``point_frame`` in path order, which raises the first
    failure a point by point evaluation meets; with none, it is halved as
    above.  A half of one grid step whose nodes raise raises that error; one
    that does not settle where it no longer halves raises a SpecError.  Where
    a segment's grid points pass, det g keeps its sign between consecutive
    ones, or transport raises a DegenerateMetricError naming the first such
    two: a pole or a zero of the metric lies between them.  Memory holds the
    frames and generators ((n + n^2)^2 floats a node) of the run and of the
    two halves at each depth of halving, not one call's at a time; the number
    of steps bounds only that depth.

    Returns a ``Transport``.  The metric at the end is the last frame's,
    at ``path[-1]`` itself.  ``germ`` is a ``KillingGerm``, or a field's
    ``field_jets``: then the field's germs at both ends come from the same
    frames, as ``sample_field`` would give them: the start germ from
    ``path[0]`` and the end germ from ``path[-1]``, the field's jets at both
    from one evaluation.  Only where that raises is each end evaluated
    alone, where the order of errors takes it.  The first failure raised
    is the first of: the chart at ``path[0]``, the field there, the chart
    at a grid point in path order (the last is ``path[-1]``), the field at
    ``path[-1]``.
    """
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    path = np.array(path, dtype=np.float64)
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    jets_at = germ if callable(germ) else None
    if jets_at is not None:
        try:
            start_jets, end_jets = jets_at(path[[0, -1]], 1)
        except ValueError:   # then each end alone, where the order of errors takes it
            end_jets = None
            try:
                start_jets = jets_at(path[0], 1)
            except ValueError:
                point_frame(spec, path[0])   # a chart failure at path[0] comes first
                raise
    steps = steps_per_segment
    n = path.shape[1]
    per_call = budget_points(n, 0)
    per_segment = 2 * steps + 1
    segments = len(path) - 1
    velocity = path[1:] - path[:-1]
    t, tail, integral = _chebyshev_nodes(_CHEBYSHEV_N)

    def frames(pieces):
        """g, Gamma, Gamma(u), R(., ., u, .) and the generators M at the
        nodes of each (segment, a, b) of ``pieces``, u the velocity there:
        all their nodes in path order, in ``point_frame`` calls of at most
        ``per_call`` points from the first; each call's frames are contracted
        with their velocities and turned into generators at once."""
        points = np.concatenate([_segment_points(path, seg, a + (b - a) * t)
                                 for seg, a, b in pieces])
        us = np.repeat([(b - a) * velocity[seg] for seg, a, b in pieces], len(t), axis=0)
        calls = []
        for lo in range(0, len(points), per_call):
            u = us[lo:lo + per_call]
            g, _, gammas, rs = point_frame(spec, points[lo:lo + per_call])
            gus = np.einsum("Piab,Pa->Pib", gammas, u)
            rus = np.einsum("Pijcd,Pc->Pijd", rs, u)
            del rs   # the curvature is not held while the generators are built
            calls.append((g, gammas, gus, rus, _transport_generators(gus, rus, u)))
        out = calls[0] if len(calls) == 1 else tuple(map(np.concatenate, zip(*calls)))
        return [tuple(x[lo:lo + len(t)] for x in out) for lo in range(0, len(points), len(t))]

    def grid(pieces):
        """The grid points of ``pieces`` that are whole segments (a run; two
        halves have none) in path order, in chunks of at most ``per_call``."""
        if pieces[0][1:] != (0.0, 1.0):
            return
        stop = (pieces[-1][0] + 1) * per_segment
        for lo in range(pieces[0][0] * per_segment, stop, per_call):
            seg, i = np.divmod(np.arange(lo, min(lo + per_call, stop)), per_segment)
            yield _segment_points(path, seg, _grid_times(steps, i))

    def check(pieces):
        """Check the chart at the ``grid`` points of ``pieces``, raising what a
        chunk raises; return the first sign change of det g between two
        consecutive ones as an error, or None.  Segments meet at one point,
        so such a pair lies within a segment."""
        flip = last = None
        for points in grid(pieces):
            positive = metricdsl.metric_det_positive(spec, points)
            if flip is None:
                pairs = np.flatnonzero(positive[1:] != positive[:-1])
                if last is not None and last[1] != positive[0]:
                    flip = last[0], points[0].copy()
                elif len(pairs):
                    flip = points[pairs[0]:pairs[0] + 2].copy()
            last = points[-1].copy(), positive[-1]   # no view: one chunk at a time
        if flip is None:
            return None
        ends = [tuple(map(float, p)) for p in flip]
        return metricdsl.DegenerateMetricError(
            f"metric of {spec.name!r} degenerate or singular between {ends[0]} and "
            f"{ends[1]}: det g changes sign")

    def alone(piece):
        """The frames at the nodes of one (segment, a, b) after its ``check``;
        where that or the call raises, the error, once ``point_frame`` at its
        grid points in path order raises none."""
        try:
            flip = check([piece])
            if flip is None:
                return frames([piece])[0]
        except ValueError as exc:
            for points in grid([piece]):
                point_frame(spec, points)
            return exc
        raise flip

    def node_frames(pieces):
        """The frames at the nodes of each (segment, a, b) of ``pieces`` in
        path order: from one ``check`` and one call where both pass, else each
        piece ``alone`` once the one before it is taken."""
        with contextlib.suppress(ValueError):   # else each alone, in the order of errors
            if len(pieces) > 1 and check(pieces) is None:
                return frames(pieces)
        return map(alone, pieces)

    def begin(gamma):
        """The state at ``path[0]``: the germ's, or the field's there, where
        the connection is ``gamma``."""
        nonlocal germ
        if jets_at is not None:
            germ = _field_germ(start_jets, gamma)
        return np.concatenate([np.ravel(germ.xi), np.ravel(germ.a)]).astype(np.float64)

    def collocate(state, ms):
        """The state at the end of a piece from its generators at its nodes,
        and whether the iteration settled before its steps stopped
        shrinking."""
        states, change = np.broadcast_to(state, (len(t), len(state))), np.inf
        while True:
            new = state + integral @ (ms @ states[:, :, None])[:, :, 0]
            step = np.abs(new - states).max()
            states = new
            settled = step <= _CHEBYSHEV_TAIL * np.abs(states).max()
            if settled or not step < change:
                return states[-1], settled
            change = step

    def advance(state, seg, a, b, inputs, above):
        """The state carried over the parameters a to b of segment ``seg``
        from the frames at their nodes (or their error), given the tail and
        the largest generator entry of the piece they halve; and the frames
        of the last piece taken."""
        size = reach = np.inf
        if not isinstance(inputs, ValueError):
            state = begin(inputs[1][0]) if state is None else state
            size = max(np.abs(tail @ x.reshape(len(t), -1)).max() / (np.abs(x).max() or 1.0)
                       for x in inputs[2:4])
            ms = inputs[4]
            reach = np.abs(ms).max()
            end, settled = collocate(state, ms)
            if settled and (size <= _CHEBYSHEV_TAIL or size >= above[0]
                            or 2 * steps * (b - a) <= 1):
                return end, inputs
            if not settled and reach >= above[1]:
                ends = [tuple(map(float, x)) for x in _segment_points(path, seg, np.array([a, b]))]
                raise metricdsl.SpecError(f"transport on {spec.name!r} does not settle between "
                                          f"{ends[0]} and {ends[1]}")
        elif 2 * steps * (b - a) <= 1:
            raise inputs
        mid = (a + b) / 2
        halves = [(seg, a, mid), (seg, mid, b)]
        for half, frame in zip(halves, node_frames(halves)):
            state, inputs = advance(state, *half, frame, (size, reach))
        return state, inputs

    state = None
    group = max(1, per_call // (_CHEBYSHEV_N + 1))   # segments whose nodes share calls
    for lo in range(0, segments, group):
        run = [(seg, 0.0, 1.0) for seg in range(lo, min(lo + group, segments))]
        for piece, inputs in zip(run, node_frames(run)):
            state, last = advance(state, *piece, inputs, (np.inf, np.inf))
    moved = KillingGerm(xi=state[:n].copy(), a=state[n:].reshape(n, n).copy())
    if jets_at is not None and end_jets is None:
        end_jets = jets_at(path[-1], 1)
    field_end = None if jets_at is None else _field_germ(end_jets, last[1][-1])
    return Transport(start=germ, end=moved, g_end=last[0][-1], field_end=field_end)
