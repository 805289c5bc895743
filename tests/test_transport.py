"""Parallel translation: the RK4 kernel, transport ensembles, the
one-curve transport, and transport read in a trivialization."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from holopar import transport
from holopar.connections import (Connection, constant_christoffels,
                                 from_coordinate_christoffels)
from holopar.constructions import (ConvexChartRegion, connection_from_covering_parallelism,
                                   covering_from_connection, parallelism_from_connection)
from holopar.errors import IntegrationBlowupError, SingularFrameError
from holopar.fixtures import SPECS, build_fixture, build_frame
from holopar.geometry import (Box, Curve, Frame, coordinate_frame,
                              curve_positions_velocities, segment)
from holopar.jets import jsin
from holopar.parallelism import CoveringParallelism, Parallelism, frame_parallelism
from holopar.transport import (BLOCK_MATRICES, SEGMENT_STEPS, _block_steps,
                               _coefficient_grid, _rk4_matrix, _step_grid,
                               parallel_transport, transport_ensemble)
from holopar.verification import (CurveGenerator, bezier_coords, check_holonomy_invariance,
                                  circle_coords)

DOM = Box((-5.0, -5.0), (5.0, 5.0))
S5_FRAME = SPECS["section5"]["manifold"]["frame"]
# the fewest steps a block of the RK4 kernel holds, and a batch that has it
LEAST_BLOCK = _block_steps(BLOCK_MATRICES)
MANY = BLOCK_MATRICES // LEAST_BLOCK


@pytest.fixture(scope="module")
def s5_conn():
    return Connection.flat(build_frame(S5_FRAME, DOM))


def wavy():
    return Curve(lambda t: [-1.0 + 3.0 * t, 0.5 * jsin(3.0 * t)], domain=DOM)


# ---------------------------------------------------------- parallel_transport

def test_flat_transport_is_identity():
    conn = Connection.flat(coordinate_frame(2, DOM))
    mat, step_error = parallel_transport(conn, wavy(), step=1e-3)
    assert np.max(np.abs(mat - np.eye(2))) <= 1e-12
    assert step_error <= 1e-12


def test_section5_segment_transport(s5_conn):
    mat, step_error = parallel_transport(s5_conn, segment((0.0, 0.0), (1.0, 0.0)), step=1e-3)
    assert np.max(np.abs(mat - [[1.0, 1.0], [0.0, 1.0]])) <= 1e-9
    assert step_error <= 1e-9


def test_transport_flow_property(s5_conn):
    # transport over [0,1] equals transport over the second half composed
    # with the first half, read off the ensemble at t = 0.5
    c = wavy()
    full = parallel_transport(s5_conn, c, step=1e-3)[0]
    first = transport_ensemble(s5_conn, [c], [0.5], step=5e-4)[0][0, 0]
    second_curve = Curve(lambda t: c.fn(0.5 + 0.5 * t), domain=DOM)
    second = parallel_transport(s5_conn, second_curve, step=5e-4)[0]
    assert np.max(np.abs(full - second @ first)) <= 1e-9


def test_a_near_singular_transport_is_the_ensemble_matrix():
    # constant Gamma^x_xx = 30 contracts d/dx by e^-30 ~ 9.36e-14 along the
    # unit x-segment; the one-curve transport keeps the ensemble's step/2 run
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 30.0
    conn = from_coordinate_christoffels(constant_christoffels(gamma), 2, DOM)
    seg = segment((0.0, 0.0), (1.0, 0.0), domain=DOM)
    mat, _ = parallel_transport(conn, seg, step=1e-3)
    phis, _, _ = transport_ensemble(conn, [seg], [1.0], step=5e-4)
    assert np.array_equal(mat, phis[0, 0])
    assert abs(np.linalg.det(mat)) == pytest.approx(np.exp(-30.0), rel=1e-6)


def test_empty_ensemble_gives_empty_arrays(s5_conn):
    phis, pos0, pos_s = transport_ensemble(s5_conn, [], [0.5, 1.0])
    assert (phis.shape, pos0.shape, pos_s.shape) == ((0, 2, 2, 2), (0, 2), (0, 2, 2))


def test_empty_sample_times_are_refused_by_name_before_any_symbol(s5_conn, monkeypatch):
    def unreachable(*args):
        raise AssertionError("Christoffel symbols evaluated")

    monkeypatch.setattr(Connection, "coordinate_christoffels_along", unreachable)
    for curves in ([wavy()], []):
        with pytest.raises(ValueError, match="sample_ts is empty"):
            transport_ensemble(s5_conn, curves, [])


def test_a_radial_parallelism_gives_no_matrix_on_an_empty_batch(s5_conn):
    radial = parallelism_from_connection(
        s5_conn, ConvexChartRegion(np.array([0.0, 0.0]), DOM.shrink(0.1)))
    assert radial.phi(np.empty((0, 2))).shape == (0, 2, 2)
    assert frame_parallelism(s5_conn.frame).phi(np.empty((0, 2))).shape == (0, 2, 2)


@pytest.mark.parametrize("ts", [[1.5], [-0.1], [0.5, 1.0 + 1e-6], [np.nan]])
def test_ensemble_refuses_sample_times_outside_the_interval(ts, monkeypatch):
    # the refusal comes before any symbol, frame jet or frame Jacobian; the
    # frame is built first, as building it samples its matrix
    def unreachable(*args):
        raise AssertionError("Christoffel symbols evaluated")

    conn = Connection.flat(build_frame(S5_FRAME, DOM))
    for owner, name in ((Connection, "coordinate_christoffels_batch"),
                        (Connection, "coordinate_christoffels_along"),
                        (Frame, "matrix_jacobian_batch"),
                        (Frame, "matrix_derivative_batch"),
                        (Frame, "matrix_batch"),
                        (Frame, "_jets_into")):
        monkeypatch.setattr(owner, name, unreachable)
    with pytest.raises(ValueError, match=r"sample times must lie in \[0, 1.0\]"):
        transport_ensemble(conn, [wavy()], ts, step=1e-3)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.inf, np.nan])
@pytest.mark.parametrize("path", ["ensemble", "one_curve", "radial", "empty"])
def test_every_integration_refuses_a_step_that_is_not_positive_and_finite(path, step,
                                                                          monkeypatch):
    # the refusal comes before any Christoffel symbol
    def unreachable(*args):
        raise AssertionError("Christoffel symbols evaluated")

    conn = Connection.flat(build_frame(S5_FRAME, DOM))
    radial = parallelism_from_connection(
        conn, ConvexChartRegion(np.array([0.0, 0.0]), DOM.shrink(0.1)), step=step)
    run = {"ensemble": lambda: transport_ensemble(conn, [wavy()], [1.0], step=step),
           "one_curve": lambda: parallel_transport(conn, wavy(), step=step),
           "radial": lambda: radial.phi(np.array([[1.0, 0.5]])),
           "empty": lambda: transport_ensemble(conn, [], [1.0], step=step)}[path]
    monkeypatch.setattr(Connection, "coordinate_christoffels_along", unreachable)
    with pytest.raises(ValueError, match=f"step must be a positive finite number, got {step}"):
        run()


@pytest.mark.parametrize("curves", [[wavy()], []])
def test_ensemble_refuses_sample_times_off_the_step_grid(s5_conn, curves):
    with pytest.raises(ValueError, match="sample times must be multiples of the step"):
        transport_ensemble(s5_conn, curves, [0.5], step=0.3)


def test_section5_coefficients_are_the_contracted_tensor_bit_for_bit(s5_conn):
    # the directional jet pass gives d_v E = [[v_x, 0], [0, 0]], so
    # -(d_v E) C has the bits of the full tensor contracted with v
    rng = np.random.default_rng(8)
    pos = rng.uniform(-4.0, 4.0, (6, 33, 2))
    vel = rng.normal(size=(6, 33, 2))
    gamma = s5_conn.coordinate_christoffels_batch(pos.reshape(-1, 2))
    rows = gamma.swapaxes(1, 2).reshape(-1, 2, 4)
    want = (-vel.reshape(-1, 1, 2) @ rows).reshape(6, 33, 2, 2)
    assert np.array_equal(_coefficient_grid(s5_conn, pos, vel), want)


def test_richardson_fourth_order_convergence(rescaling):
    conn = rescaling
    c = wavy()
    ref, _, _ = transport_ensemble(conn, [c], [1.0], step=0.0125)
    coarse, _, _ = transport_ensemble(conn, [c], [1.0], step=0.05)
    half, _, _ = transport_ensemble(conn, [c], [1.0], step=0.025)
    e_coarse = np.max(np.abs(coarse - ref))
    e_half = np.max(np.abs(half - ref))
    assert e_coarse / e_half >= 8.0


def test_transport_determinant_stays_positive(s5_conn):
    ts = np.round(np.linspace(0.1, 1.0, 10), 10)
    curves = [wavy(), segment((-2.0, -2.0), (3.0, 1.0))]
    phis, _, _ = transport_ensemble(s5_conn, curves, ts, step=1e-3)
    assert np.all(np.linalg.det(phis) > 0.0)


def test_non_finite_ode_raises_on_every_integration_path():
    # A = 1e3 I along the x axis: RK4 overflows long before s = 1
    values = np.zeros((2, 2, 2))
    values[:, 0, :] = -1e3 * np.eye(2)
    conn = from_coordinate_christoffels(constant_christoffels(values), 2, DOM)
    radial = parallelism_from_connection(conn, ConvexChartRegion(np.array([0.0, 0.0]), DOM))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError):
            transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 0.0))], [1.0], step=1e-3)
        with pytest.raises(IntegrationBlowupError):
            radial.phi([[1.0, 0.0]])


def test_blow_up_raises_without_numpy_warnings():
    values = np.zeros((2, 2, 2))
    values[:, 0, :] = -1e3 * np.eye(2)
    conn = from_coordinate_christoffels(constant_christoffels(values), 2, DOM)
    radial = parallelism_from_connection(conn, ConvexChartRegion(np.array([0.0, 0.0]), DOM))
    paths = [
        lambda: transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 0.0))], [1.0], step=1e-3),
        lambda: radial.phi([[1.0, 0.0]]),
    ]
    for run in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationBlowupError):
                run()


# ---------------------------------------------------------- RK4 kernel

def _rk4_held(A_all, h, sample_idx):
    """The RK4 kernel over a grid held whole, grid-major A_all
    (2N+1, m, n, n), each block a slice of it."""
    G, m, n, _ = A_all.shape
    return _rk4_matrix(lambda lo, hi: A_all[lo:hi], m, n, (G - 1) // 2, h, sample_idx)


def _rk4_by_stages(A_all, h, sample_idx):
    """Classical RK4 evaluating its four stages at every step: the
    reference for the increment-matrix kernel."""
    G, m, n, _ = A_all.shape
    phi = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    out = {0: phi.copy()} if 0 in sample_idx else {}
    for k in range((G - 1) // 2):
        A1, A2, A4 = A_all[2 * k], A_all[2 * k + 1], A_all[2 * k + 2]
        k1 = A1 @ phi
        k2 = A2 @ (phi + 0.5 * h * k1)
        k3 = A2 @ (phi + 0.5 * h * k2)
        k4 = A4 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(phi)):
            raise IntegrationBlowupError("transport blow-up", t=(k + 1) * h)
        if k + 1 in sample_idx:
            out[k + 1] = phi.copy()
    return out


def _product(P, Q):
    """P Q for stacks (..., n, n), entry by entry: entry (i, k) is
    sum_j P_ij Q_jk, j ascending, the kernel's order of operations on the
    untransposed layout."""
    n = P.shape[-1]
    out = np.empty(np.broadcast_shapes(P.shape, Q.shape))
    for i in range(n):
        for k in range(n):
            acc = P[..., i, 0] * Q[..., 0, k]
            for j in range(1, n):
                acc = acc + P[..., i, j] * Q[..., j, k]
            out[..., i, k] = acc
    return out


def _component_major_increments(A_all, h):
    """The RK4 increments D (N, m, n, n) of every step from a grid-major
    A_all (2N+1, m, n, n), each product P (I + c Q) by ``_product``."""
    n = A_all.shape[-1]
    A1, A2, A4 = A_all[:-1:2], A_all[1::2], A_all[2::2]

    def times_shifted(P, c, Q):
        X = c * Q
        X[..., range(n), range(n)] += 1.0
        return _product(P, X)

    B2 = times_shifted(A2, 0.5 * h, A1)
    B3 = times_shifted(A2, 0.5 * h, B2)
    B4 = times_shifted(A4, h, B3)
    return (h / 6.0) * (A1 + 2.0 * B2 + 2.0 * B3 + B4)


def _rk4_step_by_step(A_all, h, sample_idx):
    """The sequential product without blocks, stepping
    phi <- phi + D_k phi as a new array per step, each checked for
    finiteness: the reference for where a blow-up is reported, and, within
    rounding, for the matrices."""
    _, m, n, _ = A_all.shape
    with np.errstate(over="ignore", invalid="ignore"):
        D = _component_major_increments(A_all, h)
    phi = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    out = {0: phi} if 0 in sample_idx else {}
    for j in range(D.shape[0]):
        phi = phi + D[j] @ phi
        k = j + 1
        if not np.isfinite(phi).all():
            raise IntegrationBlowupError("transport blow-up", t=k * h)
        if k in sample_idx:
            out[k] = phi
    return out


def _rk4_tree(A_all, h, sample_idx):
    """The tree product without blocks: the factors I + D_k of
    ``_component_major_increments``, the steps cut at every multiple of
    SEGMENT_STEPS and at every sample index, each segment's factors
    multiplied pairwise as a list, level by level (the later factor on the
    left, an odd last one carried up), and its product applied to phi, all
    by ``_product``: the reference the block-buffered kernel must match bit
    for bit."""
    _, m, n, _ = A_all.shape
    F = _component_major_increments(A_all, h)
    F[..., range(n), range(n)] += 1.0
    steps = F.shape[0]
    phi = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    out = {0: phi} if 0 in sample_idx else {}
    cuts = sorted({steps} | set(range(0, steps, SEGMENT_STEPS))
                  | {k for k in sample_idx if 0 < k < steps})
    for lo, hi in zip(cuts, cuts[1:]):
        level = list(F[lo:hi])
        while len(level) > 1:
            pairs = [_product(later, earlier)
                     for earlier, later in zip(level[0::2], level[1::2])]
            level = pairs + level[2 * len(pairs):]
        phi = _product(level[0], phi)
        if hi in sample_idx:
            out[hi] = phi
    return out


def _check_block_buffering(m, n, steps):
    rng = np.random.default_rng(100 * steps + n)
    A_all = rng.normal(size=(2 * steps + 1, m, n, n))
    block = _block_steps(m)
    edges = {k for b in range(0, steps + 1, block) for k in (b - 1, b, b + 1)}
    for idx in (set(range(steps + 1)), {k for k in edges if 0 <= k <= steps} | {steps},
                {steps}):
        got = _rk4_held(A_all, 1.0 / steps, idx)
        want = _rk4_tree(A_all, 1.0 / steps, idx)
        assert sorted(got) == sorted(want) == sorted(idx)
        for k in want:
            assert np.array_equal(got[k], want[k])


# blocked steps against the unblocked tree product of _rk4_tree
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("steps", [1, LEAST_BLOCK - 1, LEAST_BLOCK, LEAST_BLOCK + 1, 1000])
def test_block_buffered_steps_match_the_step_by_step_kernel_bit_for_bit(n, steps):
    _check_block_buffering(4, n, steps)


@pytest.mark.parametrize("m, n, steps, blocks", [
    (1, 2, 2000, 1),                                # one curve: a whole run is one block
    (1, 3, BLOCK_MATRICES + 1, 2),                  # ... and a second block of one step
    (MANY, 2, 2 * LEAST_BLOCK + 22, 3),             # blocks of the fewest steps
    (MANY // 2 + 1, 3, 5 * _block_steps(MANY // 2 + 1) - 3, 5),
])
def test_block_buffered_steps_match_across_batch_sizes_and_blocks(m, n, steps, blocks):
    assert -(-steps // _block_steps(m)) == blocks
    _check_block_buffering(m, n, steps)


def test_block_buffered_samples_own_their_data():
    # the kernel holds Phi as component-major planes: a sample is an
    # (m, n, n) copy of them, not a strided view that keeps them alive
    A_all = np.random.default_rng(0).normal(size=(2 * 200 + 1, 2, 2, 2))
    out = _rk4_held(A_all, 1e-2, range(201))
    assert len(out) == 201 and all(phi.base is None for phi in out.values())


@pytest.mark.parametrize("step", [1, LEAST_BLOCK // 2, LEAST_BLOCK, LEAST_BLOCK + 1,
                                  2 * LEAST_BLOCK + LEAST_BLOCK // 2, 2 * LEAST_BLOCK, 300])
def test_block_buffered_blow_up_reports_the_step_by_step_parameter(step):
    # the midpoint coefficient at grid index 2k - 1 enters step k only; the
    # steps cover the first, a middle and the last step of a block of the
    # fewest steps
    h = 1.0 / 300
    A_all = np.random.default_rng(step).normal(size=(601, MANY, 2, 2))
    A_all[2 * step - 1, 2, 1, 0] = np.inf if step % 2 else np.nan
    ts = []
    for kernel in (_rk4_held, _rk4_step_by_step):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError) as info:
                kernel(A_all, h, {300})
        ts.append(info.value.t)
    assert ts[0] == ts[1] == step * h
    assert type(ts[0]) is float


def test_tree_product_is_the_sequential_product_within_rounding():
    # the same factors multiplied in another order: each sample of 1000
    # steps agrees with phi <- phi + D_k phi to rounding
    A_all = np.random.default_rng(7).normal(size=(2001, 6, 2, 2))
    idx = set(range(0, 1001, 100))
    got = _rk4_held(A_all, 1e-3, idx)
    want = _rk4_step_by_step(A_all, 1e-3, idx)
    for k in idx:
        assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(np.abs(want[k]))


@pytest.mark.parametrize("n, steps", [(2, 1), (2, 130), (3, 77), (3, 2 * LEAST_BLOCK + 9)])
def test_rk4_increments_match_the_stage_by_stage_reference(n, steps):
    rng = np.random.default_rng(10 * steps + n)
    A_all = rng.normal(size=(2 * steps + 1, 5, n, n))
    idx = set(range(0, steps + 1, 3)) | {steps}
    got = _rk4_held(A_all, 1.0 / steps, idx)
    want = _rk4_by_stages(A_all, 1.0 / steps, idx)
    assert sorted(got) == sorted(want)
    for k in want:
        assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(np.abs(want[k]))


@pytest.mark.parametrize("bad", [0, 1, 2, 2 * LEAST_BLOCK, 2 * LEAST_BLOCK + 1, 171])
def test_rk4_blow_up_reports_the_reference_parameter(bad):
    A_all = np.random.default_rng(bad).normal(size=(201, 3, 2, 2))
    A_all[bad, 1, 0, 1] = np.inf if bad % 2 else np.nan
    errors = []
    for kernel in (_rk4_held, _rk4_by_stages):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError) as info:
                kernel(A_all, 1e-2, {100})
        errors.append(info.value.t)
    assert errors[0] == errors[1] == max(1, (bad + 1) // 2) * 1e-2


# ---------------------------------------------------------- streamed coefficients

def _one_shot_ensemble(conn, curves, sample_ts, step, monkeypatch):
    """transport_ensemble's arrays from the whole coefficient grid, built
    at once and integrated as one block: the reference for the streamed
    kernel."""
    steps, h, grid = _step_grid(1.0, step)
    idx = np.rint(np.asarray(sample_ts) / h).astype(int)
    pos, vel = curve_positions_velocities(curves, grid)
    A_all = _coefficient_grid(conn, pos.swapaxes(0, 1), vel.swapaxes(0, 1))
    with monkeypatch.context() as patch:
        patch.setattr(transport, "BLOCK_MATRICES", len(curves) * (steps + SEGMENT_STEPS))
        assert _block_steps(len(curves)) >= steps
        out = _rk4_held(A_all, h, set(idx.tolist()))
    return np.stack([out[i] for i in idx], axis=1), pos[:, 0], pos[:, 2 * idx]


def _check_streamed(conn, domain, steps, monkeypatch):
    # MANY curves take blocks of the fewest steps; samples sit on the
    # first step, on block boundaries and at the end
    assert steps > 2 * LEAST_BLOCK
    curves = CurveGenerator(domain, seed=steps, count=MANY).curves()
    h = 1.0 / steps
    ts = np.array([1, LEAST_BLOCK, LEAST_BLOCK + 1, 2 * LEAST_BLOCK, steps]) * h
    got = transport_ensemble(conn, curves, ts, step=h)
    want = _one_shot_ensemble(conn, curves, ts, h, monkeypatch)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_streamed_section5_transport_is_the_one_shot_grid_bit_for_bit(s5_conn, monkeypatch):
    _check_streamed(s5_conn, DOM.shrink(0.05), 3 * LEAST_BLOCK + 11, monkeypatch)


def test_streamed_blend_transport_is_the_one_shot_grid_bit_for_bit(blend, monkeypatch):
    _check_streamed(blend.connection, blend.domain.shrink(0.05), 2 * LEAST_BLOCK + 5,
                    monkeypatch)


def test_streamed_rebuilt_transport_is_the_one_shot_grid_bit_for_bit(rescaling, monkeypatch):
    # ODE-built member frames: each blended coefficient differentiates
    # radial transports by central differences; the curves stay in the
    # two lower members, where both weights are positive in the overlap
    work = Box((-1.0, -1.0), (1.0, 1.0))
    rebuilt = connection_from_covering_parallelism(
        covering_from_connection(rescaling, work, step=0.5))
    _check_streamed(rebuilt, Box((-0.8, -0.8), (0.8, -0.4)), 2 * LEAST_BLOCK + 3, monkeypatch)


def _traced_peak_of_the_section5_check(s5):
    """Traced numpy peak of check_holonomy_invariance on 200 section5
    curves at step 1e-3."""
    curves = CurveGenerator(s5.domain.shrink(0.05), seed=1, count=200).curves()
    tracemalloc.start()
    try:
        check_holonomy_invariance(s5.norm_field, s5.connection, curves, step=1e-3, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_holonomy_check_never_holds_the_whole_coefficient_grid(s5):
    # the grid's A alone is 12.8 MB, and the frame jets, inverses and
    # products each as much again
    assert _traced_peak_of_the_section5_check(s5) < 32 * 2**20


def test_holonomy_check_never_holds_the_whole_curve_grid(s5):
    # positions and velocities are evaluated block by block too: on the
    # whole grid they would be 6.4 MB each
    assert _traced_peak_of_the_section5_check(s5) < 12 * 2**20


@pytest.mark.parametrize("m, steps", [(1, 2000), (MANY, 3 * LEAST_BLOCK + 5)])
def test_each_half_step_sample_is_pulled_once(m, steps):
    # consecutive blocks share a sample, which the kernel carries over
    A_all = np.random.default_rng(steps).normal(size=(2 * steps + 1, m, 2, 2))
    pulled = []

    def coefficients(lo, hi):
        pulled.append((lo, hi))
        return A_all[lo:hi]

    got = _rk4_matrix(coefficients, m, 2, steps, 1.0 / steps, {steps})
    assert [lo for lo, _ in pulled[1:]] == [hi for _, hi in pulled[:-1]]
    assert pulled[0][0] == 0 and pulled[-1][1] == 2 * steps + 1
    assert np.array_equal(got[steps], _rk4_held(A_all, 1.0 / steps, {steps})[steps])


def test_ensemble_of_shuffled_curves_gives_the_shuffled_results_bit_for_bit(s5_conn):
    # the kernel takes the curves family by family; results come back in
    # the caller's order
    curves = CurveGenerator(DOM.shrink(0.05), seed=5, count=24).curves() + [wavy()]
    perm = np.random.default_rng(5).permutation(len(curves))
    ts = [0.25, 0.5, 1.0]
    want = transport_ensemble(s5_conn, curves, ts, step=1e-3)
    got = transport_ensemble(s5_conn, [curves[i] for i in perm], ts, step=1e-3)
    for a, b in zip(got, want):
        assert np.array_equal(a, b[perm])


@pytest.mark.parametrize("count", [150, MANY])
@pytest.mark.parametrize("steps, ks", [(1000, range(100, 1001, 100)), (777, (1, 300, 777))])
def test_a_curve_has_the_bits_alone_and_in_an_ensemble(s5_conn, count, steps, ks):
    # alone, a curve's whole run is one block; among 150 or 200 curves a
    # block is 64 steps, so blocks and samples cut the runs differently
    curves = CurveGenerator(DOM.shrink(0.05), seed=count, count=count).curves()
    ts = np.array(ks) / steps
    phis, _, _ = transport_ensemble(s5_conn, curves, ts, step=1.0 / steps)
    for c in (0, count // 3, count - 1):
        alone, _, _ = transport_ensemble(s5_conn, [curves[c]], ts, step=1.0 / steps)
        assert np.array_equal(alone[0], phis[c])


def test_section5_transport_at_step_2e_4_is_the_exact_transfer_to_5e_14(s5):
    # section5's parallelism transfers exactly; at step 2e-4 the RK4
    # truncation is about 3e-15, so the bound is on the product's rounding
    curves = CurveGenerator(s5.domain.shrink(0.05), seed=42, count=200).curves()
    phis, starts, ends = transport_ensemble(s5.connection, curves, [1.0], step=2e-4)
    exact = s5.parallelism.transfer(starts, ends[:, 0])
    assert np.max(np.abs(phis[:, 0] - exact)) < 5e-14


def test_mixed_families_come_back_in_the_callers_order_bit_for_bit(s5_conn):
    # segments, circles in both axis orders and Bezier curves interleaved:
    # every curve's positions, velocities and transports come back in the
    # caller's order, those of one call with that curve alone
    def circle(c, r, axes):
        return Curve(circle_coords, (c, r, 0.3, 4.0), key=axes, domain=DOM)

    def bezier(*ctrl):
        return Curve(bezier_coords, ctrl, domain=DOM)

    mixed = [circle([0.5, -1.0], 0.8, (1, 0)), segment((0.0, 0.0), (1.0, -2.0)),
             bezier([0, 0], [1, 2], [2, -1], [3, 0]), circle([-1.0, 1.0], 1.2, (0, 1)),
             segment((-2.0, 1.0), (0.5, 0.5)), circle([1.0, 2.0], 0.5, (1, 0)),
             bezier([-1, -1], [0, 3], [1, -3], [2, 1]), circle([0.0, 0.0], 2.0, (0, 1))]
    ts = np.linspace(0.0, 1.0, 11)
    pos, vel = curve_positions_velocities(mixed, ts)
    got = transport_ensemble(s5_conn, mixed, [0.5, 1.0], step=1e-3)
    for c, curve in enumerate(mixed):
        p, v = curve.positions_velocities(ts)
        assert np.array_equal(pos[c], p) and np.array_equal(vel[c], v)
        for a, b in zip(got, transport_ensemble(s5_conn, [curve], [0.5, 1.0], step=1e-3)):
            assert np.array_equal(a[c], b[0])


def test_a_singular_frame_reached_only_by_a_late_block_is_refused():
    # the frame is the identity for x < 2 and singular beyond, so the
    # blocks before t = 2/3 integrate without error
    reached = []

    def matrix_fn(coords):
        reached.append(float(np.max(coords[:, 0])))
        return np.where(coords[:, 0, None, None] < 2.0, np.eye(2), 0.0)

    conn = Connection.flat(Frame(matrix_fn=matrix_fn, domain=DOM, dim=2))
    curves = [segment((0.0, 0.01 * i), (3.0, 0.01 * i), domain=DOM) for i in range(MANY)]
    with pytest.raises(SingularFrameError, match="frame in Christoffel transform"):
        transport_ensemble(conn, curves, [1.0], step=1e-3)
    assert reached[0] < 2.0 <= reached[-1]


def test_an_early_blow_up_stops_before_later_coefficients_are_evaluated():
    # A = 1e3 I along the x axis overflows at step 713 of 1000, in the
    # block of steps 704..767 (MANY curves); a singular frame past that
    # block would be refused if its coefficients were ever evaluated
    values = np.zeros((2, 2, 2))
    values[:, 0, :] = -1e3 * np.eye(2)
    conn = from_coordinate_christoffels(constant_christoffels(values), 2, DOM)
    reached = []

    def gamma(coords, w):
        reached.append(float(np.max(coords[:, 0])))
        if reached[-1] > 0.768:
            raise SingularFrameError("late coefficients evaluated")
        return conn.gamma(coords, w)

    curves = [segment((0.0, 0.01 * i), (1.0, 0.01 * i), domain=DOM) for i in range(MANY)]
    streamed = dataclasses.replace(conn, gamma=gamma)
    for c in (conn, streamed):
        with pytest.raises(IntegrationBlowupError) as info:
            transport_ensemble(c, curves, [1.0], step=1e-3)
        assert info.value.t == 0.713
    assert reached[-1] == 0.768


def test_coefficients_are_evaluated_in_the_callers_error_state():
    # only the RK4 steps ignore overflow: a warning raised while the
    # Christoffels are evaluated still reaches the caller
    def gamma(coords, w):
        np.exp(np.full(len(coords), 800.0))
        return np.zeros((len(coords), 2, 2))

    conn = from_coordinate_christoffels(gamma, 2, DOM)
    with pytest.warns(RuntimeWarning, match="overflow"):
        transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 0.0))], [1.0], step=1e-2)


# ---------------------------------------------------------- prescribed coefficients

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_zero_coefficient_gives_identity(solve_ode):
    _, phis = solve_ode(lambda x: np.zeros((len(x), 2, 2)), 2, 1.0, 1e-2)
    assert np.max(np.abs(phis - np.eye(2))) == 0.0


def test_constant_rotation_generator(solve_ode):
    _, phis = solve_ode(lambda x: np.broadcast_to(J, (len(x), 2, 2)), 2, np.pi / 2.0,
                        np.pi / 2.0 / 2000)
    assert np.max(np.abs(phis[-1] - J)) <= 1e-8


def test_time_dependent_antisymmetric_stays_orthogonal(solve_ode):
    _, phis = solve_ode(lambda x: np.sin(x)[:, None, None] * J, 2, 1.0, 1e-3)
    dev = np.max(np.abs(np.einsum("tji,tjk->tik", phis, phis) - np.eye(2)))
    assert dev <= 1e-8


def test_coefficient_recovery_from_solution(solve_ode):
    # the converse direction: A(t) = Phi'(t) Phi(t)^-1 recovered by central
    # differences matches the input coefficient curve
    def A(x):
        return np.cos(x)[:, None, None] * J + 0.3 * np.sin(2.0 * x)[:, None, None] * np.eye(2)

    h = 1e-3
    ts, phis = solve_ode(A, 2, 1.0, h)
    worst = 0.0
    for k in range(1, len(ts) - 1, 50):
        rec = (phis[k + 1] - phis[k - 1]) / (2.0 * h) @ np.linalg.inv(phis[k])
        worst = max(worst, float(np.max(np.abs(rec - A(ts[k:k + 1])[0]))))
    assert worst <= 1e-5


# ---------------------------------------------------------- trivialized transport

def _trivialized(par, conn, curve, ts):
    """Phi(t) = phi(c(t))^-1 P_c^t phi(c(0)): the transport along `curve`
    read in the trivialization of `par`, at the parameters ts."""
    phis, pos0, pos_s = transport_ensemble(conn, [curve], ts, step=1e-3)
    return np.linalg.inv(par.phi(pos_s[0])) @ phis[0] @ par.phi(pos0)[0]


def test_section5_phi_curve_is_identity(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    mats = _trivialized(par, s5_conn, wavy(), np.arange(1, 21) / 20)
    assert np.max(np.abs(mats - np.eye(2))) <= 1e-9


def test_blended_phi_curve_is_orthogonal(blend):
    box2, par2 = blend.parallelism.members[1]
    c = segment((-0.5, 0.0), (3.0, 0.5), domain=box2)
    phis = _trivialized(par2, blend.connection, c, np.arange(1, 26) / 25)
    dev = np.max(np.abs(np.einsum("tji,tjk->tik", phis, phis) - np.eye(2)))
    assert dev <= 1e-7


# ---------------------------------------------------------- one-member covers

ROTATION = [["cos(0.3*x)", "sin(0.3*x)"], ["-sin(0.3*x)", "cos(0.3*x)"]]
ONE_MEMBER = {"manifold": {
    "domain": [[-2, 2], [-2, 2]], "frame": ROTATION,
    "norm": {"type": "randers", "Q": [[1, 0], [0, 1]], "beta": [0.3, 0]},
    "cover": [{"domain": [[-2.5, 2.5], [-2.5, 2.5]], "frame": ROTATION}]}}


def test_a_one_member_cover_integrates_its_connection(monkeypatch):
    # the holonomy check integrates the blended connection: it passes as
    # built, fails with a broken gamma, and cannot run without the kernel
    fx = build_fixture(ONE_MEMBER)
    gen = CurveGenerator(fx.domain.shrink(0.05), seed=1, count=30)
    assert check_holonomy_invariance(fx.norm_field, fx.connection, gen).passed
    broken = dataclasses.replace(fx.connection,
                                 gamma=constant_christoffels(np.full((2, 2, 2), 7.0)))
    assert not check_holonomy_invariance(fx.norm_field, broken, gen).passed

    def unreachable(*args):
        raise AssertionError("RK4 kernel reached")

    monkeypatch.setattr(transport, "_rk4_matrix", unreachable)
    with pytest.raises(AssertionError, match="RK4 kernel reached"):
        check_holonomy_invariance(fx.norm_field, fx.connection, gen)


def _diag_parallelism(scale):
    """phi(x, y) = diag(scale(x), 1), singular where scale vanishes."""
    def phi(coords):
        coords = np.atleast_2d(coords)
        out = np.zeros(coords.shape[:-1] + (2, 2))
        out[..., 0, 0] = scale(coords[..., 0])
        out[..., 1, 1] = 1.0
        return out
    return Parallelism(DOM, phi)


@pytest.mark.parametrize("floor", [0.0, 1e-13])
def test_a_one_member_cover_of_a_singular_trivialization_is_refused(floor):
    # phi is singular (or within DET_FLOOR of it) at the curve's start
    par = _diag_parallelism(lambda x: floor + x * x)
    conn = connection_from_covering_parallelism(
        CoveringParallelism.build([(DOM, par)], DOM.shrink(0.1)))
    with pytest.raises(SingularFrameError, match="singular frame in Christoffel transform"):
        transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 1.0))], [1.0])


# ------------------------------------------------------------ heap thresholds

@pytest.mark.parametrize("environ, libc", [
    ({"MALLOC_MMAP_THRESHOLD_": "131072"}, "glibc 2.36"),
    ({"MALLOC_TRIM_THRESHOLD_": "131072"}, "glibc 2.36"),
    ({"MALLOC_TOP_PAD_": "0"}, "glibc 2.36"),
    ({"MALLOC_MMAP_MAX_": "0"}, "glibc 2.36"),
    ({"GLIBC_TUNABLES": "glibc.cpu.x86_shstk=on:glibc.malloc.trim_threshold=0"},
     "glibc 2.36"),
    ({}, None),
    ({}, ""),
    ({}, "musl 1.2"),
], ids=["mmap", "trim", "top_pad", "mmap_max", "tunables", "no_libc", "empty", "musl"])
def test_heap_policy_is_off_under_any_override_or_another_c_library(environ, libc):
    assert not transport.heap_policy_applies(environ, libc)


def test_heap_policy_is_on_for_glibc_without_malloc_settings():
    assert transport.heap_policy_applies({"PATH": "/usr/bin", "MALLOC_CHECK_": "0",
                                          "GLIBC_TUNABLES": "glibc.cpu.x86_shstk=on"},
                                         "glibc 2.36")


_FAULTS = """
import resource, statistics
from holopar import transport
from holopar.fixtures import load_fixture
from holopar.verification import CurveGenerator, check_holonomy_invariance
fx = load_fixture("section5")
curves = CurveGenerator(fx.domain.shrink(0.05), seed=1, count=100).curves()
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    check_holonomy_invariance(fx.norm_field, fx.connection, curves)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(transport.HEAP_THRESHOLDS_FIXED, statistics.median(faults[1:]))
"""


@pytest.mark.skipif(not (transport._libc_version() or "").startswith("glibc "),
                    reason="glibc's heap thresholds")
@pytest.mark.parametrize("override", [None, "131072"])
def test_a_warm_holonomy_check_reuses_its_blocks_heap(override):
    # glibc's own dynamic rule trims the heap after each RK4 block, and a
    # warm 100-curve section5 check takes about 1,660 minor faults; from
    # the fixed thresholds it takes a few. A user's threshold restores the
    # dynamic rule's behaviour.
    env = {k: v for k, v in os.environ.items()
           if k not in transport.HEAP_OVERRIDES and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if override:
        env["MALLOC_TRIM_THRESHOLD_"] = override
    out = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                         text=True, check=True)
    fixed, faults = out.stdout.split()
    assert fixed == str(override is None)
    assert (float(faults) <= 32) == (override is None), faults
