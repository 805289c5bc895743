"""Acceptance gate: the ten numbered criteria, one test each.

Every test prints a single pass/fail line; tolerances are pinned to the
values the criteria state, not to whatever the implementation achieves.
"""

import time

import numpy as np
import pytest

from holopar.cli import main
from holopar.connections import Connection, constant_christoffels, nabla_P, torsion
from holopar.constructions import (ConvexChartRegion,
                                   connection_from_covering_parallelism,
                                   parallelism_from_connection)
from holopar.fixtures import rescaling_connection
from holopar.geometry import Box, ChartPoint, TangentVector, point, segment
from holopar.norms import (ContinuousFamily, constant_norm_field,
                           euclidean_norm, is_isometry, isometry_group_2x2,
                           lie_algebra_member)
from holopar.parallelism import CoveringParallelism, frame_parallelism, pushdown_norm
from holopar.transport import matrix_ode_solve, parallel_transport, transport_ensemble
from holopar.verification import (CurveGenerator, check_holonomy_invariance,
                                  check_parallelism_compat)


def _line(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_torsion(s5):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    pts = s5.domain.sample(rng, 50, margin=0.05)
    e1, e2 = s5.frame.fields
    worst = 0.0
    for row in pts:
        t = torsion(s5.connection, e1, e2, ChartPoint(row))
        worst = max(worst, float(np.max(np.abs(t.components - [-1.0, 0.0]))))
    elapsed = time.monotonic() - t0
    _line(1, f"torsion (-1, 0) at 50 points (err {worst:.2e}, {elapsed:.2f}s)",
          worst <= 1e-9 and elapsed < 1.0)


def test_criterion_02_isometry_group(s5):
    t0 = time.monotonic()
    group = isometry_group_2x2(s5.minkowski_norm)
    elapsed = time.monotonic() - t0
    ok = not isinstance(group, ContinuousFamily) and len(group) == 2
    if ok:
        targets = [np.eye(2), np.diag([1.0, -1.0])]
        for tgt in targets:
            ok = ok and min(float(np.max(np.abs(g - tgt))) for g in group) <= 1e-6
        # every listed element is an isometry on the dense circle
        for g in group:
            ok = ok and is_isometry(s5.minkowski_norm, g)[0]
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        ok = ok and not is_isometry(s5.minkowski_norm, rot90)[0]
    _line(2, f"isometry group exactly {{I, diag(1,-1)}} ({elapsed:.2f}s)",
          ok and elapsed < 5.0)


def test_criterion_03_holonomy_invariance(s5):
    t0 = time.monotonic()
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=42, count=100)
    rep = check_holonomy_invariance(s5.norm_field, s5.connection, gen,
                                    tol=1e-6, step=1e-3, vectors=20)
    elapsed = time.monotonic() - t0
    _line(3, f"holonomy invariance max rel {rep.max_rel_error:.2e} ({elapsed:.2f}s)",
          rep.passed and elapsed < 20.0)


def test_criterion_04_transport_oracle(s5):
    op = parallel_transport(s5.connection, segment((0.0, 0.0), (1.0, 0.0)),
                            1.0, step=1e-3)
    err = float(np.max(np.abs(op.matrix - [[1.0, 1.0], [0.0, 1.0]])))
    gen = CurveGenerator(s5.domain.shrink(0.05), seed=7, count=20)
    for curve in gen.curves():
        t = parallel_transport(s5.connection, curve, 1.0, step=1e-3)
        oracle = s5.frame.matrix(t.to_point) @ np.linalg.inv(s5.frame.matrix(t.from_point))
        err = max(err, float(np.max(np.abs(t.matrix - oracle))))
    _line(4, f"transport vs frame-transfer oracle (err {err:.2e})", err <= 1e-7)


def test_criterion_05_matrix_ode_group_membership():
    rng = np.random.default_rng(5)
    worst_orth = 0.0
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, (3, 3, 3))

        def A(t, c=c):
            m = c[0] + c[1] * np.sin(t) + c[2] * np.cos(t)
            return m - m.T

        phis = matrix_ode_solve(A, 1.0, step=1e-3).matrices
        dev = np.max(np.abs(np.einsum("tji,tjk->tik", phis, phis) - np.eye(3)))
        worst_orth = max(worst_orth, float(dev))
    worst_tri = 0.0
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, (3, 3, 3))

        def A(t, c=c):
            return np.triu(c[0] + c[1] * np.sin(t) + c[2] * np.cos(t))

        phis = matrix_ode_solve(A, 1.0, step=1e-3).matrices
        lower = phis[:, np.tril_indices(3, -1)[0], np.tril_indices(3, -1)[1]]
        worst_tri = max(worst_tri, float(np.max(np.abs(lower))))
    _line(5, f"ODE stays in group (orth {worst_orth:.2e}, triangular {worst_tri:.2e})",
          worst_orth <= 1e-8 and worst_tri <= 1e-8)


def test_criterion_06_pushdown_independence(s5):
    pushed = pushdown_norm(s5.norm_field, s5.parallelism, point(0.0, 0.0),
                           basepoints=10, vectors=200, tol=1e-9)
    ok = pushed is not None and abs(float(pushed.norm(np.array([1.0, 0.0]))) - 1.0) < 1e-9
    _line(6, "pushed-down norm basepoint independent at 1e-9", ok)


def test_criterion_07_round_trips(s5, blend):
    region = ConvexChartRegion(point(0.0, 0.0), Box((-4.0, -4.0), (4.0, 4.0)))
    built = parallelism_from_connection(s5.connection, region, step=1e-3)
    rng = np.random.default_rng(1)
    ps = region.box.sample(rng, 100, margin=0.05)
    qs = region.box.sample(rng, 100, margin=0.05)
    err_par = float(np.max(np.abs(built.transfer(ps, qs)
                                  - s5.parallelism.transfer(ps, qs))))

    cover = CoveringParallelism.build(
        [(s5.domain, s5.parallelism)], Box((-4.0, -4.0), (4.0, 4.0)))
    synth = connection_from_covering_parallelism(cover)
    curves = CurveGenerator(Box((-4.0, -4.0), (4.0, 4.0)).shrink(0.05),
                            seed=3, count=50).curves()
    ts = np.array([0.5, 1.0])
    phis_a, _, _ = transport_ensemble(s5.connection, curves, ts, step=1e-3)
    phis_b, _, _ = transport_ensemble(synth, curves, ts, step=1e-3)
    err_conn = float(np.max(np.abs(phis_a - phis_b)))

    gen = CurveGenerator(blend.domain.shrink(0.05), seed=42, count=100)
    rep = check_holonomy_invariance(blend.norm_field, blend.connection, gen,
                                    tol=1e-6, step=1e-3, vectors=20)
    _line(7, f"round trips (parallelism {err_par:.2e}, connection {err_conn:.2e}, "
             f"blend invariance {rep.max_rel_error:.2e})",
          err_par <= 1e-6 and err_conn <= 1e-6 and rep.passed)


def test_criterion_08_negative_controls(scaled):
    inner = check_parallelism_compat(scaled.norm_field, scaled.parallelism,
                                     pairs=[((0.0, 0.0), (1.0, 0.0))], tol=1e-9)
    ratio_err = abs(inner.witness["value_ratio"] - float(np.e))
    ok_compat = (not inner.passed) and ratio_err <= 1e-6

    conn = rescaling_connection()
    F = constant_norm_field(euclidean_norm(2))
    sgm = segment((0.0, 0.0), (1.0, 0.0))
    op = parallel_transport(conn, sgm, 1.0, step=1e-3)
    factor = float(F(np.array([1.0, 0.0]), op.matrix @ np.array([1.0, 0.0])))
    rep = check_holonomy_invariance(F, conn, [sgm], tol=1e-6, step=1e-3)
    ok_resc = (not rep.passed) and abs(factor - np.exp(-1.0)) <= 1e-4
    _line(8, f"negative controls (compat ratio err {ratio_err:.2e}, "
             f"rescale factor {factor:.6f})", ok_compat and ok_resc)


def test_criterion_09_compalg(s5):
    rng = np.random.default_rng(9)
    pts = s5.domain.sample(rng, 100, margin=0.05)
    comps = rng.normal(size=(100, 2))
    worst = 0.0
    for row, vc in zip(pts, comps):
        p = ChartPoint(row)
        endo = nabla_P(s5.connection, s5.parallelism, TangentVector(p, vc))
        worst = max(worst, float(np.max(np.abs(endo))))

    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    perturbed = Connection(s5.frame, constant_christoffels(gamma))
    p = point(0.5, -0.5)
    endo = nabla_P(perturbed, s5.parallelism, TangentVector(p, np.array([1.0, 0.3])))
    rejected, viol = lie_algebra_member(s5.norm_field.at(p), endo)
    _line(9, f"(nabla P)_v = 0 (max {worst:.2e}); perturbation rejected "
             f"(violation {viol:.2e})", worst <= 1e-10 and not rejected)


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = main(["verify", "section5", "--seed", "42", "--out", str(out1)])
    code2 = main(["verify", "section5", "--seed", "42", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    _line(10, "two section5 verify runs byte-identical",
          code1 == 0 and code2 == 0 and same)
