"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest hook prints one [acceptance] PASS/FAIL line per criterion.
"""
import functools
import itertools
import time

import numpy as np

from killingkit.curvature import CurvatureData, identity_residuals
from killingkit.holonomy import parallel_field_check
from killingkit.jets import JetTensor, jet_space, tensor_deriv, tensor_product
from killingkit.killing import (bundle_dim, check_first_prolongation, killing_dimension,
                                killing_transport, sample_field, verify_killing)
from killingkit.metricdsl import builtin, known_killing_fields
from killingkit.product import (cw_counterexample, decomposition_check,
                                mixed_curvature_residuals, product_metric)

from oracles import (fd_first_partial, fd_second_partial, float_eval, killing_curvature,
                     random_expression)
from test_jets import partial_value, tape_jet
from test_killing import field_germ, sample

FLAT_SPECS = [
    ("euclidean", {"n": 2}),
    ("euclidean", {"n": 3}),
    ("euclidean", {"n": 4}),
    ("minkowski", {"p": 1, "q": 1}),
    ("minkowski", {"p": 1, "q": 3}),
]

CATALOG_SPECS = FLAT_SPECS + [
    ("sphere2", {}),
    ("hyperbolic2", {}),
    ("cahen_wallach", {"n": 1, "q": 1.0}),
    ("cahen_wallach", {"n": 2, "q": [1.0, -1.0]}),
    ("walker_recurrent", {}),
]

FIELD_CATALOG = [
    ("euclidean", {"n": 2}),
    ("minkowski", {"p": 1, "q": 1}),
    ("sphere2", {}),
    ("hyperbolic2", {}),
    ("cahen_wallach", {"n": 1, "q": 1.0}),
]


def test_criterion_1_flat_spaces():
    for name, params in FLAT_SPECS:
        spec = builtin(name, **params)
        start = time.perf_counter()
        rep = killing_dimension(spec)
        elapsed = time.perf_counter() - start
        assert rep.stabilized_dim == bundle_dim(spec.dim)
        assert rep.stabilization_order == 0
        assert elapsed < 1.0, (name, params, elapsed)
        pts = sample(spec)
        fields = known_killing_fields(name, **params)
        assert len(fields) == bundle_dim(spec.dim)
        for field in fields:
            assert verify_killing(sample_field(spec, field, pts), tol=1e-9).passed


def test_criterion_2_constant_curvature_surfaces():
    for name in ("sphere2", "hyperbolic2"):
        spec = builtin(name)
        start = time.perf_counter()
        rep = killing_dimension(spec)
        elapsed = time.perf_counter() - start
        assert rep.stabilized_dim == 3
        assert elapsed < 2.0
        pts = sample(spec)
        fields = known_killing_fields(name)
        assert len(fields) == 3
        for field in fields:
            chk = verify_killing(sample_field(spec, field, pts), tol=1e-9)
            assert chk.passed
            assert chk.max_residual <= 1e-9


def test_criterion_3_curvature_identities():
    for name, params in CATALOG_SPECS:
        spec = builtin(name, **params)
        curv = CurvatureData.compute(spec, m_max=1)
        for key, value in identity_residuals(curv).items():
            assert value <= 1e-9, (name, key, value)


def test_criterion_4_product_block_law():
    prod1 = product_metric(builtin("sphere2"), builtin("hyperbolic2"))
    prod2, _ = cw_counterexample(1, (1.0,), 1, (-1.0,))
    for prod in (prod1, prod2):
        residuals = mixed_curvature_residuals(prod, m_max=3)
        assert len(residuals) == 4
        for m, res in enumerate(residuals):
            assert res <= 1e-9, (prod.combined.name, m, res)


def test_criterion_5_theorem_instance():
    start = time.perf_counter()
    rep = decomposition_check(builtin("sphere2"), builtin("hyperbolic2"))
    elapsed = time.perf_counter() - start
    assert rep.excess == 0
    assert rep.verdict_a == "no_parallel_field"
    assert rep.verdict_b == "no_parallel_field"
    assert not rep.inconclusive
    assert elapsed < 10.0


def test_criterion_6_counterexample_reproduction():
    from killingkit.killing import wedge
    prod, field = cw_counterexample(1, (1.0,), 1, (-1.0,))
    spec = prod.combined
    iv_a, iv_b = spec.coord_index("a_v"), spec.coord_index("b_v")
    it_a, it_b = spec.coord_index("a_t"), spec.coord_index("b_t")
    # the advertised field: t_plus d/dv_minus - t_minus d/dv_plus
    assert field[iv_b] == "a_t"
    assert field[iv_a] == "-b_t"
    chk = verify_killing(sample_field(spec, field, sample(spec)), tol=1e-10)
    assert chk.passed
    assert chk.max_residual <= 1e-10
    germ = field_germ(spec, field)
    g0 = spec.metric_values(spec.base_point)
    vp = np.zeros(6)
    vp[iv_a] = 1.0
    vm = np.zeros(6)
    vm[iv_b] = 1.0
    w = wedge(vp, vm, g0)
    # the covariant gradient of the field IS the wedge of the two parallel
    # null directions; the germ stores its negative (A = -grad xi), so the
    # germ's endomorphism is the wedge up to that fixed sign
    assert np.abs(-germ.a - w).max() <= 1e-12
    assert np.abs(germ.xi).max() == 0.0
    rep = decomposition_check(prod.factors[0], prod.factors[1])
    assert rep.excess >= 1


def test_criterion_7_hypothesis_detector():
    verdict = parallel_field_check(builtin("cahen_wallach", n=1, q=1.0))
    assert verdict.kind == "has_parallel_field"
    direction = verdict.basis[0] / np.abs(verdict.basis[0]).max()
    assert np.allclose(np.abs(direction), [0.0, 1.0, 0.0])  # the null direction

    assert parallel_field_check(builtin("sphere2")).kind == "no_parallel_field"
    assert parallel_field_check(builtin("walker_recurrent")).kind == "no_parallel_field"

    for n in (2, 3):
        verdict = parallel_field_check(builtin("euclidean", n=n))
        assert verdict.kind == "has_parallel_field"
        assert np.linalg.matrix_rank(verdict.basis) == n


def test_criterion_8_killing_connection_consistency():
    rng = np.random.default_rng(20240811)
    cases = []
    for name, params in FIELD_CATALOG:
        spec = builtin(name, **params)
        for field in known_killing_fields(name, **params):
            cases.append((spec, field))
    prod, cross = cw_counterexample(1, (1.0,), 1, (-1.0,))
    cases.append((prod.combined, cross))

    for spec, field in cases:
        pts = sample(spec)
        samples = sample_field(spec, field, pts)
        assert verify_killing(samples, tol=1e-9).passed
        prolong = check_first_prolongation(samples, tol=1e-8)
        assert prolong.passed
        assert prolong.max_residual <= 1e-8 * prolong.scale

        curv = CurvatureData.compute(spec, m_max=1)
        germ = field_germ(spec, field)
        kappa_scale = max(1.0, float(np.abs(curv.riemann).max())) * max(
            1.0, float(np.abs(germ.xi).max()), float(np.abs(germ.a).max()))
        worst = max(np.abs(killing_curvature(curv, germ, i, j)).max()
                    for i, j in itertools.combinations(range(spec.dim), 2))
        assert worst <= 1e-8 * kappa_scale

        p0 = np.asarray(spec.base_point, dtype=np.float64)
        for k in range(3):
            polyline = [p0]
            for _ in range(1 if k < 2 else 2):  # third polyline has a corner
                polyline.append(p0 + rng.uniform(-0.25, 0.25, size=spec.dim))
            out = killing_transport(spec, germ, polyline, steps_per_segment=1000).end
            ref = field_germ(spec, field, polyline[-1])
            deviation = max(float(np.abs(out.xi - ref.xi).max()),
                            float(np.abs(out.a - ref.a).max()))
            assert deviation <= 1e-6, (spec.name, field, deviation)


def test_criterion_9_flat_factor_phenomenon():
    e1 = builtin("euclidean", n=1)
    rep = decomposition_check(e1, e1)
    assert rep.dim_product == 3
    assert rep.excess == 1


def test_criterion_10_jet_engine():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(100):
        n_vars = int(rng.integers(2, 4))
        expr = random_expression(rng, n_vars, depth=3)
        p = rng.uniform(-0.5, 0.5, size=n_vars)
        space = jet_space(n_vars, 2)
        jet = tape_jet(expr, space, p)
        f = functools.partial(float_eval, expr)
        for i in range(n_vars):
            e = tuple(1 if k == i else 0 for k in range(n_vars))
            jv = partial_value(jet, space, e)
            assert abs(jv - fd_first_partial(f, p, i)) <= 1e-6 * max(1.0, abs(jv))
        for i in range(n_vars):
            for j in range(i, n_vars):
                alpha = tuple((1 if k == i else 0) + (1 if k == j else 0)
                              for k in range(n_vars))
                jv = partial_value(jet, space, alpha)
                assert abs(jv - fd_second_partial(f, p, i, j)) <= 1e-6 * max(1.0, abs(jv))
        checked += 1
    assert checked == 100

    # Leibniz rule on random jets
    space = jet_space(3, 3)
    for _ in range(100):
        a = JetTensor(rng.normal(size=space.size), space)
        b = JetTensor(rng.normal(size=space.size), space)
        da, db = tensor_deriv(a).array, tensor_deriv(b).array
        dprod = tensor_deriv(tensor_product(",->", a, b)).array
        for i in range(3):
            lhs = dprod[i, 0]
            rhs = da[i, 0] * b.array[0] + a.array[0] * db[i, 0]
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
