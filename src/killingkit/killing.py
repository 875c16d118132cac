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

from dataclasses import dataclass, field

import numpy as np

from . import metricdsl
from .curvature import (CurvatureData, OrderExhaustedError, covariant_derivative,
                        point_frame)
from .jets import (JetDomainError, JetTensor, compile_tape, jet_space, tensor_deriv,
                   tensor_product)
from .rank import stabilise


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

    def is_so(self, g, tol=1e-9):
        scale = max(1.0, float(np.abs(g).max())) * max(1.0, float(np.abs(self.a).max()))
        return self.so_defect(g) <= tol * scale


def wedge(v_plus, v_minus, g):
    """The metric-skew endomorphism pairing two tangent vectors:
    maps u to <v_plus, u> v_minus - <v_minus, u> v_plus."""
    v_plus = np.asarray(v_plus, dtype=np.float64)
    v_minus = np.asarray(v_minus, dtype=np.float64)
    return np.outer(v_minus, g @ v_plus) - np.outer(v_plus, g @ v_minus)


def so_basis(g):
    """A basis of the metric-skew endomorphisms, enumerated by pairs r < s."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    mats = []
    for r in range(n):
        for s in range(r + 1, n):
            skew = np.zeros((n, n))
            skew[r, s] = 1.0
            skew[s, r] = -1.0
            mats.append(ginv @ skew)
    return np.array(mats).reshape(len(mats), n, n)


def so_coordinates(a, g):
    """Coordinates of a metric-skew A in the so_basis enumeration."""
    s = g @ a
    n = g.shape[0]
    return np.array([s[r, c] for r in range(n) for c in range(r + 1, n)])


def germ_to_vector(germ, g):
    return np.concatenate([germ.xi, so_coordinates(germ.a, g)])


def vector_to_germ(vec, g):
    n = g.shape[0]
    xi = np.asarray(vec[:n], dtype=np.float64)
    a = np.einsum("k,kij->ij", vec[n:], so_basis(g))
    return KillingGerm(xi=xi, a=a)


def bundle_dim(n):
    return n * (n + 1) // 2


# -- germs of explicit fields -------------------------------------------------

def _field_jets(spec, fld):
    """``jets(point, order)``: the jets of the field's components about a
    point, an (n, size) array, from one tape compiled here.  A failing
    component raises a JetDomainError naming the point, the component and
    its expression."""
    exprs = metricdsl.parse_field(fld, spec)
    tape = compile_tape(exprs)

    def jets(point, order):
        coeffs, failure = tape.evaluate(np.asarray(point)[None], jet_space(spec.dim, order))
        if failure is not None:
            _, k, exc = failure
            raise JetDomainError(
                f"field on {spec.name!r} at {tuple(map(float, point))}: component "
                f"{k} = {exprs[k].to_text()}: {exc}") from exc
        return coeffs[0]
    return jets


def germ_of_field(spec, fld, point=None):
    """The germ (xi(p), A(p)) of a vector field, with A = -(grad xi + Gamma xi)."""
    field_jets = _field_jets(spec, fld)
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    _, _, gamma, _ = point_frame(spec, p)
    jets = field_jets(p, 1)
    xi, dxi = jets[:, 0], jets[:, 1:]  # dxi[i, j] = d_j xi^i
    a = -(dxi + np.einsum("ijk,k->ij", gamma, xi))
    return KillingGerm(xi=xi, a=a)


@dataclass
class FieldCheck:
    """Outcome of a per-point residual check of a vector field."""

    passed: bool
    max_residual: float
    tol: float
    scale: float
    point_residuals: list
    point_errors: list = field(default_factory=list)


def default_sample_points(spec, count=5, radius=0.1):
    """Deterministic sample points near the base point, for the CLI checks."""
    p = np.asarray(spec.base_point, dtype=np.float64)
    delta = radius * (1.0 + float(np.abs(p).max()))
    points = [p.copy()]
    i, sign = 0, 1.0
    while len(points) < count:
        q = p.copy()
        q[i % spec.dim] += sign * delta * (1.0 + 0.25 * (i // spec.dim))
        points.append(q)
        if sign < 0:
            i += 1
        sign = -sign
    return points


def verify_killing(spec, fld, sample_points, tol=1e-9):
    """Residuals of the metric Lie derivative along the field at sample points.

    Passes when every valid sample point has residual <= tol * (1 + |g|).
    Failures at individual points (a component that cannot be evaluated, a
    degenerate metric) are recorded, not fatal.
    """
    field_jets = _field_jets(spec, fld)
    residuals, errors = [], []
    g_scale = 0.0
    for p in sample_points:
        p = np.asarray(p, dtype=np.float64)
        try:
            g = metricdsl.metric_jet_tensor(spec, p, 1).array
            gval, dg = g[..., 0], np.moveaxis(g[..., 1:], -1, 0)  # dg[k, i, j] = d_k g_ij
            jets = field_jets(p, 1)
            xi, dxi = jets[:, 0], jets[:, 1:].T  # dxi[i, k] = d_i xi^k
        except (metricdsl.SpecError, ValueError) as exc:
            errors.append((tuple(map(float, p)), str(exc)))
            continue
        lie = (np.einsum("k,kij->ij", xi, dg)
               + np.einsum("kj,ik->ij", gval, dxi)
               + np.einsum("ik,jk->ij", gval, dxi))
        residuals.append((tuple(map(float, p)), float(np.abs(lie).max())))
        g_scale = max(g_scale, float(np.abs(gval).max()))
    max_res = max((r for _, r in residuals), default=float("inf"))
    scale = 1.0 + g_scale
    passed = bool(residuals) and max_res <= tol * scale
    return FieldCheck(passed=passed, max_residual=max_res, tol=tol, scale=scale,
                      point_residuals=residuals, point_errors=errors)


def check_first_prolongation(spec, fld, sample_points, tol=1e-8):
    """For a verified Killing field, the derivative of A must cancel R(., xi).

    Refuses (PreconditionError) when the field is not Killing on the samples.
    """
    killing_check = verify_killing(spec, fld, sample_points, tol=max(tol, 1e-9))
    if not killing_check.passed:
        raise PreconditionError(
            f"field is not Killing on the sample points "
            f"(residual {killing_check.max_residual:.3g}); check refused")
    field_jets = _field_jets(spec, fld)
    residuals, errors = [], []
    scale = 1.0
    for p in sample_points:
        p = np.asarray(p, dtype=np.float64)
        try:
            curv = CurvatureData.compute(spec, p, m_max=0)
            xi_jets = JetTensor(field_jets(p, 2), jet_space(spec.dim, 2))
        except (metricdsl.SpecError, ValueError) as exc:
            errors.append((tuple(map(float, p)), str(exc)))
            continue
        dxi = tensor_deriv(xi_jets)  # [i, j]: d_j xi^i
        gamma1 = curv.gamma_jets
        a_jets = (dxi + tensor_product("ijk,k->ij", gamma1, xi_jets.truncated(1))
                  ).scaled(-1.0)
        grad_a = covariant_derivative(a_jets, "ud", gamma1).value()  # [i, j, c]
        coupling = np.einsum("ijcd,d->ijc", curv.riemann, xi_jets.value())
        res = grad_a + coupling
        residuals.append((tuple(map(float, p)), float(np.abs(res).max())))
        scale = max(scale, 1.0 + float(np.abs(grad_a).max()),
                    1.0 + float(np.abs(coupling).max()))
    max_res = max((r for _, r in residuals), default=float("inf"))
    passed = bool(residuals) and max_res <= tol * scale
    return FieldCheck(passed=passed, max_residual=max_res, tol=tol, scale=scale,
                      point_residuals=residuals, point_errors=errors)


# -- integrability tensors -------------------------------------------------------

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

    def apply(self, xi, a):
        w = self.xi_coeff.ndim - 1
        return (np.tensordot(self.xi_coeff, xi, axes=([w], [0]))
                + np.tensordot(self.a_coeff, a, axes=([w, w + 1], [0, 1])))

    def matrix(self, basis):
        """Stack into a matrix over the germ coordinates (xi, so-basis)."""
        n = self.xi_coeff.shape[-1]
        rows = int(np.prod(self.xi_coeff.shape[:-1]))
        xi_cols = self.xi_coeff.reshape(rows, n)
        a_cols = np.einsum("wab,kab->wk", self.a_coeff.reshape(rows, n, n), basis)
        return np.hstack([xi_cols, a_cols])


def _derivation_coefficient(cov):
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


def integrability_tensors(covR, m_max):
    """The prolongation tower T_0 .. T_{m_max} from the values ``covR[m]`` of
    the curvature's covariant derivatives at a point (``CurvatureData.covR``,
    or the same in any frame).

    Level m is the Lie derivative of the m-th covariant derivative of the
    curvature along the germ (Nomizu 1960):
    ``T_m(xi, A) = xi^d (nabla^{m+1} R)[.., d] + A.(nabla^m R)``, with A acting
    as a derivation on every slot.  T_0 is the curvature condition of the
    bundle connection; T_{m+1} is the covariant derivative of T_m with the
    first-order system (nabla xi = -A, nabla A = -R(., xi)) substituted
    back in, rewritten by the Ricci identity.
    """
    if len(covR) < m_max + 2:
        raise OrderExhaustedError(
            f"integrability tensors to order {m_max} read covR[0..{m_max + 1}], "
            f"which needs jet order {m_max + 3}; got covR[0..{len(covR) - 1}] "
            f"(jet order {len(covR) + 1})")
    return [IntegrabilityTensor(order=m, xi_coeff=covR[m + 1],
                                a_coeff=_derivation_coefficient(covR[m]))
            for m in range(m_max + 1)]


# -- kernel dimension -------------------------------------------------------------

@dataclass
class KernelReport:
    """Joint-kernel trace of the integrability tower at one point."""

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
    """Kernel traces at the base point and perturbed points; min is reported."""

    min_dim: int
    reports: list
    points: list
    warnings: list

    @property
    def stable(self):
        return all(r.stable for r in self.reports)


def _kernel_trace(spec, point, m_max, tol):
    """The kernel report, and the kernel as rows over the germ coordinates of
    the last order's unit frame, with that frame."""
    frame = None
    dim_e = bundle_dim(spec.dim)
    warnings = []
    if not spec.assumptions.analytic:
        warnings.append(
            "analytic flag absent: the computed dimension is an upper bound "
            "on the isometry-algebra dimension, not necessarily attained")

    def stack_at(m):
        # in the unit frame a germ (xi, A) has coordinates (kappa e^-1 xi,
        # e^-1 A e), level m is divided by kappa^(m + 2), and so_basis is
        # taken for diag(signs): no column or row carries units
        nonlocal frame
        frame = CurvatureData.compute(spec, point, m_max=m + 1).unit_frame
        basis = so_basis(np.diag(frame.signs))
        return np.vstack([t.matrix(basis).reshape(-1, dim_e)
                          for t in integrability_tensors(frame.covR, m)])

    decisions, stab_order, _ = stabilise(stack_at, m_max, tol)
    if stab_order is None:
        warnings.append(
            f"unstable: kernel dimension still changing at order m_max={m_max}; "
            "result is an upper bound only")
    dims = [dim_e - d.rank for d in decisions]
    gaps = [dict(d.margin, order=m) for m, d in enumerate(decisions)]
    report = KernelReport(point=tuple(float(x) for x in np.atleast_1d(point)),
                          dims=dims, stabilized_dim=dims[-1],
                          stabilization_order=stab_order, gaps=gaps,
                          warnings=warnings, tol=tol, m_max=m_max)
    return report, decisions[-1].null, frame


def killing_dimension(spec, point=None, m_max=10, tol=1e-8, multi_point=False):
    """Stabilised joint-kernel dimension of the integrability tower.

    With ``multi_point`` the computation also runs at five perturbed points,
    reporting the minimum (guards against non-generic base points).
    """
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    if not multi_point:
        report, _, _ = _kernel_trace(spec, p, m_max, tol)
        return report
    points = [p] + _perturbed_points(p, 5)
    reports = [_kernel_trace(spec, q, m_max, tol)[0] for q in points]
    warnings = sorted({w for r in reports for w in r.warnings})
    return MultiPointReport(min_dim=min(r.stabilized_dim for r in reports),
                            reports=reports,
                            points=[tuple(map(float, q)) for q in points],
                            warnings=warnings)


def _perturbed_points(p, count):
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


def kernel_germs(spec, point=None, m_max=10, tol=1e-8):
    """The kernel report plus germs spanning the stabilised kernel."""
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    report, kernel, frame = _kernel_trace(spec, p, m_max, tol)
    germs = [vector_to_germ(v, np.diag(frame.signs)) for v in kernel]
    return report, [KillingGerm(xi=frame.e @ h.xi / frame.kappa,
                                a=frame.e @ h.a @ frame.einv) for h in germs]


def germ_kernel_residual(spec, germ, point=None, m_max=2):
    """Scaled residual of the tower applied to one germ (membership test)."""
    p = np.asarray(spec.base_point if point is None else point, dtype=np.float64)
    curv = CurvatureData.compute(spec, p, m_max=m_max + 1)
    tensors = integrability_tensors(curv.covR, m_max)
    germ_scale = max(1.0, float(np.abs(germ.xi).max()), float(np.abs(germ.a).max()))
    worst = 0.0
    for t in tensors:
        res = t.apply(germ.xi, germ.a)
        scale = max(1.0, float(np.abs(t.xi_coeff).max()),
                    float(np.abs(t.a_coeff).max())) * germ_scale
        worst = max(worst, float(np.abs(res).max()) / scale)
    return worst


# -- transport --------------------------------------------------------------------

# Steps per batched frame evaluation (2 * _BLOCK_STEPS + 1 stage points at
# most): bounds the memory of one batch, whatever the number of steps.
_BLOCK_STEPS = 16


def _transport_generators(gus, rs, u):
    """The generators M of D-transport along a segment with velocity u, one
    per frame: ds/dt = M s for s = (xi, A flattened row by row).  ``gus``
    holds Gamma^i_ab u^a as [P, i, b] and ``rs`` the curvature values
    [P, l, k, i, j]; the result has shape (P, n + n^2, n + n^2)."""
    count, n = gus.shape[:2]
    eye = np.eye(n)
    m = np.empty((count, n + n * n, n + n * n))
    m[:, :n, :n] = -gus                                       # -Gamma(u) xi
    m[:, :n, n:] = -np.einsum("ik,l->ikl", eye, u).reshape(n, n * n)   # -A u
    m[:, n:, :n] = -np.einsum("Pijcd,c->Pijd", rs, u).reshape(count, n * n, n)
    m[:, n:, n:] = (np.einsum("ik,Plj->Pijkl", eye, gus)      # A Gamma(u)
                    - np.einsum("Pik,jl->Pijkl", gus, eye)    # -Gamma(u) A
                    ).reshape(count, n * n, n * n)
    return m


def killing_transport(spec, germ, path, steps_per_segment=1000):
    """Parallel transport of a germ along a polyline for the bundle connection.

    Classical fixed-step 4th-order integration of D along each segment.  D is
    linear in the state s = (xi, vec A), ds/dt = M(t) s, so one step of size
    h is a matrix, the step propagator

        P = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   K1 = M(t),
        K2 = M(t + h/2) (I + h/2 K1),   K3 = M(t + h/2) (I + h/2 K2),
        K4 = M(t + h) (I + h K3),

    and the state is multiplied by the propagators in step order.  The stage
    points of a block of ``_BLOCK_STEPS`` steps are known in advance, so
    their connection and curvature values come from one batched
    ``point_frame`` call, in path order, and the block's M and P come from
    batched products; a point where the chart fails raises what evaluating
    the points one by one would raise first.  A block holds the M of its
    2 * _BLOCK_STEPS + 1 stage points, (n + n^2)^2 floats each, whatever
    the number of steps.  The products round differently from stepping
    xi and A through the right-hand side of D stage by stage, so end
    germs differ from that form in the last bits.
    """
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    path = [np.asarray(p, dtype=np.float64) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    n = len(germ.xi)
    state = np.concatenate([np.ravel(germ.xi), np.ravel(germ.a)]).astype(np.float64)
    eye = np.eye(len(state))

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
            ms = _transport_generators(gus, rs, u)
            if k0 == 0:
                m_start, ms = ms[0], ms[1:]
            mids, ends = ms[0::2], ms[1::2]
            k1 = np.concatenate([m_start[None], ends[:-1]])
            k2 = mids + h / 2 * (mids @ k1)
            k3 = mids + h / 2 * (mids @ k2)
            k4 = ends + h * (ends @ k3)
            for step in eye + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4):
                state = step @ state
            m_start = ends[-1]
    return KillingGerm(xi=state[:n].copy(), a=state[n:].reshape(n, n).copy())
