"""Parallel translation, the general matrix ODE and trivialized
transport curves."""

import warnings

import numpy as np
import pytest

from holopar.connections import (Connection, constant_christoffels,
                                 from_coordinate_christoffels, zero_christoffels)
from holopar.constructions import ConvexChartRegion, parallelism_from_connection
from holopar.errors import IntegrationBlowupError, SingularFrameError
from holopar.fixtures import rescaling_connection, section5_frame
from holopar.geometry import (Box, Curve, Frame, VectorField, coordinate_frame, point,
                              segment)
from holopar.jets import jcos, jsin
from holopar.norms import euclidean_norm, randers_norm, RandersData, unit_sphere
from holopar.parallelism import Parallelism, frame_parallelism, translation_parallelism
from holopar.transport import (BLOCK_MATRICES, _block_steps, _coefficient_grid,
                               _rk4_matrix, matrix_ode_solve, parallel_transport,
                               phi_curve, transport_ensemble)

DOM = Box((-5.0, -5.0), (5.0, 5.0))
# the fewest steps a block of the RK4 kernel holds, and a batch that has it
LEAST_BLOCK = _block_steps(BLOCK_MATRICES)
MANY = BLOCK_MATRICES // LEAST_BLOCK


@pytest.fixture(scope="module")
def s5_conn():
    return Connection(section5_frame(DOM), zero_christoffels(2))


def wavy():
    return Curve(lambda t: [-1.0 + 3.0 * t, 0.5 * jsin(3.0 * t)], domain=DOM)


# ---------------------------------------------------------- parallel_transport

def test_flat_transport_is_identity():
    conn = Connection.flat(coordinate_frame(2, DOM))
    op = parallel_transport(conn, wavy(), 1.0, step=1e-3)
    assert np.max(np.abs(op.matrix - np.eye(2))) <= 1e-12
    assert op.step_error <= 1e-12


def test_section5_segment_transport(s5_conn):
    op = parallel_transport(s5_conn, segment((0.0, 0.0), (1.0, 0.0)), 1.0, step=1e-3)
    assert np.max(np.abs(op.matrix - [[1.0, 1.0], [0.0, 1.0]])) <= 1e-9
    assert op.step_error <= 1e-9


def test_transport_flow_property(s5_conn):
    # transport over [0,1] equals transport over the second half composed
    # with the first half
    c = wavy()
    full = parallel_transport(s5_conn, c, 1.0, step=1e-3).matrix
    first = parallel_transport(s5_conn, c, 0.5, step=1e-3).matrix
    second_curve = Curve(lambda t: c.coords_fn(0.5 + 0.5 * t), domain=DOM)
    second = parallel_transport(s5_conn, second_curve, 1.0, step=5e-4).matrix
    assert np.max(np.abs(full - second @ first)) <= 1e-9


@pytest.mark.parametrize("backed", [False, True])
def test_empty_ensemble_gives_empty_arrays(s5_conn, backed):
    conn = (Connection(coordinate_frame(2, DOM), zero_christoffels(2),
                       backing_parallelism=translation_parallelism(DOM)) if backed else s5_conn)
    phis, pos0, pos_s = transport_ensemble(conn, [], [0.5, 1.0])
    assert (phis.shape, pos0.shape, pos_s.shape) == ((0, 2, 2, 2), (0, 2), (0, 2, 2))


@pytest.mark.parametrize("ts", [[1.5], [-0.1], [0.5, 1.0 + 1e-6], [np.nan]])
def test_ensemble_refuses_sample_times_outside_the_interval(ts, monkeypatch):
    # the refusal comes before any symbol, frame jet or frame Jacobian
    def unreachable(*args):
        raise AssertionError("Christoffel symbols evaluated")

    for owner, name in ((Connection, "coordinate_christoffels_batch"),
                        (Connection, "coordinate_christoffels_along"),
                        (Frame, "matrix_jacobian_batch"),
                        (Frame, "matrix_derivative_batch"),
                        (VectorField, "_jets_into")):
        monkeypatch.setattr(owner, name, unreachable)
    conn = Connection(section5_frame(DOM), zero_christoffels(2))
    with pytest.raises(ValueError, match=r"sample times must lie in \[0, 1.0\]"):
        transport_ensemble(conn, [wavy()], ts, step=1e-3)


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


def test_transport_parameter_validation(s5_conn):
    with pytest.raises(ValueError):
        parallel_transport(s5_conn, wavy(), 0.0)
    with pytest.raises(ValueError):
        parallel_transport(s5_conn, wavy(), 1.5)


def test_richardson_fourth_order_convergence():
    conn = rescaling_connection()
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
    radial = parallelism_from_connection(conn, ConvexChartRegion(point(0.0, 0.0), DOM))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError):
            transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 0.0))], [1.0], step=1e-3)
        with pytest.raises(IntegrationBlowupError):
            radial.phi([[1.0, 0.0]])
        with pytest.raises(IntegrationBlowupError):
            matrix_ode_solve(lambda t: 1e3 * np.eye(2), 1.0, step=1e-3)


def test_blow_up_raises_without_numpy_warnings():
    values = np.zeros((2, 2, 2))
    values[:, 0, :] = -1e3 * np.eye(2)
    conn = from_coordinate_christoffels(constant_christoffels(values), 2, DOM)
    radial = parallelism_from_connection(conn, ConvexChartRegion(point(0.0, 0.0), DOM))
    paths = [
        lambda: transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 0.0))], [1.0], step=1e-3),
        lambda: radial.phi([[1.0, 0.0]]),
        lambda: matrix_ode_solve(lambda t: 1e3 * np.eye(2), 1.0, step=1e-3),
    ]
    for run in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationBlowupError):
                run()


# ---------------------------------------------------------- RK4 kernel

def _rk4_by_stages(A_all, h, sample_idx):
    """Classical RK4 evaluating its four stages at every step: the
    reference for the increment-matrix kernel."""
    m, G, n, _ = A_all.shape
    phi = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    out = {0: phi.copy()} if 0 in sample_idx else {}
    for k in range((G - 1) // 2):
        A1, A2, A4 = A_all[:, 2 * k], A_all[:, 2 * k + 1], A_all[:, 2 * k + 2]
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


def _component_major_increments(A_all, h):
    """The RK4 increments D (m, N, n, n) of every step, entry by entry:
    product entry (i, k) is sum_j P_ij X_jk with X = I + c Q, j ascending,
    the kernel's order of operations on the untransposed layout."""
    n = A_all.shape[-1]
    A1, A2, A4 = A_all[:, :-1:2], A_all[:, 1::2], A_all[:, 2::2]

    def times_shifted(P, c, Q):
        X = c * Q
        X[..., range(n), range(n)] += 1.0
        out = np.empty_like(P)
        for i in range(n):
            for k in range(n):
                acc = P[..., i, 0] * X[..., 0, k]
                for j in range(1, n):
                    acc = acc + P[..., i, j] * X[..., j, k]
                out[..., i, k] = acc
        return out

    B2 = times_shifted(A2, 0.5 * h, A1)
    B3 = times_shifted(A2, 0.5 * h, B2)
    B4 = times_shifted(A4, h, B3)
    return (h / 6.0) * (A1 + 2.0 * B2 + 2.0 * B3 + B4)


def _rk4_step_by_step(A_all, h, sample_idx):
    """The increment-matrix kernel without blocks, stepping
    phi <- phi + D_k phi as a new array per step, each checked for
    finiteness: the reference the block-buffered kernel must match bit
    for bit."""
    m, _, n, _ = A_all.shape
    with np.errstate(over="ignore", invalid="ignore"):
        D = _component_major_increments(A_all, h)
    phi = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    out = {0: phi} if 0 in sample_idx else {}
    for j in range(D.shape[1]):
        phi = phi + D[:, j] @ phi
        k = j + 1
        if not np.isfinite(phi).all():
            raise IntegrationBlowupError("transport blow-up", t=k * h)
        if k in sample_idx:
            out[k] = phi
    return out


def _check_block_buffering(m, n, steps):
    rng = np.random.default_rng(100 * steps + n)
    A_all = rng.normal(size=(m, 2 * steps + 1, n, n))
    block = _block_steps(m)
    edges = {k for b in range(0, steps + 1, block) for k in (b - 1, b, b + 1)}
    for idx in (set(range(steps + 1)), {k for k in edges if 0 <= k <= steps} | {steps}):
        got = _rk4_matrix(A_all, 1.0 / steps, idx)
        want = _rk4_step_by_step(A_all, 1.0 / steps, idx)
        assert sorted(got) == sorted(want) == sorted(idx)
        for k in want:
            assert np.array_equal(got[k], want[k])


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
    # the buffer is reused by every block, so a sample left as a view of it
    # would be overwritten by the steps of later blocks
    A_all = np.random.default_rng(0).normal(size=(2, 2 * 200 + 1, 2, 2))
    out = _rk4_matrix(A_all, 1e-2, range(201))
    assert len(out) == 201 and all(phi.base is None for phi in out.values())


@pytest.mark.parametrize("step", [1, LEAST_BLOCK // 2, LEAST_BLOCK, LEAST_BLOCK + 1,
                                  2 * LEAST_BLOCK + LEAST_BLOCK // 2, 2 * LEAST_BLOCK, 300])
def test_block_buffered_blow_up_reports_the_step_by_step_parameter(step):
    # the midpoint coefficient at grid index 2k - 1 enters step k only; the
    # steps cover the first, a middle and the last step of a block of the
    # fewest steps
    h = 1.0 / 300
    A_all = np.random.default_rng(step).normal(size=(MANY, 601, 2, 2))
    A_all[2, 2 * step - 1, 1, 0] = np.inf if step % 2 else np.nan
    ts = []
    for kernel in (_rk4_matrix, _rk4_step_by_step):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError) as info:
                kernel(A_all, h, {300})
        ts.append(info.value.t)
    assert ts[0] == ts[1] == step * h
    assert type(ts[0]) is float


@pytest.mark.parametrize("n, steps", [(2, 1), (2, 130), (3, 77), (3, 2 * LEAST_BLOCK + 9)])
def test_rk4_increments_match_the_stage_by_stage_reference(n, steps):
    rng = np.random.default_rng(10 * steps + n)
    A_all = rng.normal(size=(5, 2 * steps + 1, n, n))
    idx = set(range(0, steps + 1, 3)) | {steps}
    got = _rk4_matrix(A_all, 1.0 / steps, idx)
    want = _rk4_by_stages(A_all, 1.0 / steps, idx)
    assert sorted(got) == sorted(want)
    for k in want:
        assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(np.abs(want[k]))


@pytest.mark.parametrize("bad", [0, 1, 2, 2 * LEAST_BLOCK, 2 * LEAST_BLOCK + 1, 171])
def test_rk4_blow_up_reports_the_reference_parameter(bad):
    A_all = np.random.default_rng(bad).normal(size=(3, 201, 2, 2))
    A_all[1, bad, 0, 1] = np.inf if bad % 2 else np.nan
    errors = []
    for kernel in (_rk4_matrix, _rk4_by_stages):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError) as info:
                kernel(A_all, 1e-2, {100})
        errors.append(info.value.t)
    assert errors[0] == errors[1] == max(1, (bad + 1) // 2) * 1e-2


# ---------------------------------------------------------- matrix_ode_solve

def test_zero_coefficient_gives_identity():
    mc = matrix_ode_solve(lambda t: np.zeros((2, 2)), 1.0, step=1e-2)
    assert np.max(np.abs(mc.matrices - np.eye(2))) == 0.0


def test_constant_rotation_generator():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    mc = matrix_ode_solve(lambda t: J, np.pi / 2.0, step=np.pi / 2.0 / 2000)
    assert np.max(np.abs(mc.matrices[-1] - J)) <= 1e-8


def test_time_dependent_antisymmetric_stays_orthogonal():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    mc = matrix_ode_solve(lambda t: np.sin(t) * J, 1.0, step=1e-3)
    phis = mc.matrices
    dev = np.max(np.abs(np.einsum("tji,tjk->tik", phis, phis) - np.eye(2)))
    assert dev <= 1e-8


def test_coefficient_recovery_from_solution():
    # the converse direction: A(t) = Phi'(t) Phi(t)^-1 recovered by central
    # differences matches the input coefficient curve
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    A = lambda t: np.cos(t) * J + 0.3 * np.sin(2.0 * t) * np.eye(2)
    h = 1e-3
    mc = matrix_ode_solve(A, 1.0, step=h)
    phis = mc.matrices
    ts = mc.ts
    worst = 0.0
    for k in range(1, len(ts) - 1, 50):
        rec = (phis[k + 1] - phis[k - 1]) / (2.0 * h) @ np.linalg.inv(phis[k])
        worst = max(worst, float(np.max(np.abs(rec - A(ts[k])))))
    assert worst <= 1e-5


def test_matrix_curve_requires_identity_start():
    from holopar.transport import MatrixCurve
    with pytest.raises(ValueError):
        MatrixCurve(((0.0, np.zeros((2, 2))),))


# ---------------------------------------------------------- phi_curve

def test_section5_phi_curve_is_identity(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    mc = phi_curve(par, s5_conn, wavy(), step=1e-3, samples=20)
    assert np.max(np.abs(mc.matrices - np.eye(2))) <= 1e-9


def test_phi_curve_starts_at_identity(s5_conn):
    par = frame_parallelism(s5_conn.frame)
    mc = phi_curve(par, s5_conn, segment((0.0, 0.0), (1.0, 1.0)), samples=5)
    assert np.array_equal(mc.matrices[0], np.eye(2))


def test_blended_phi_curve_is_orthogonal(blend):
    box2, par2 = blend.parallelism.members[1]
    c = segment((-0.5, 0.0), (3.0, 0.5), domain=box2)
    mc = phi_curve(par2, blend.connection, c, step=1e-3, samples=25)
    phis = mc.matrices
    dev = np.max(np.abs(np.einsum("tji,tjk->tik", phis, phis) - np.eye(2)))
    assert dev <= 1e-7


def test_invariance_equivalence_through_trivialization():
    # f(Phi(t) v) = f(v) iff F(P v) = F(v): with the translation
    # parallelism the two sides agree identically, compatible or not
    conn = rescaling_connection()
    par = translation_parallelism(DOM)
    F = euclidean_norm(2)
    c = segment((0.0, 0.0), (1.0, 0.0))
    mc = phi_curve(par, conn, c, step=1e-3, samples=10)
    phis, _, pos_s = transport_ensemble(conn, [c], mc.ts[1:], step=1e-3)
    v = unit_sphere(2, 50)
    for i, t in enumerate(mc.ts[1:]):
        lhs = np.abs(F(v @ mc.matrices[i + 1].T) - F(v))
        rhs = np.abs(F(v @ phis[0, i].T) - F(v))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
    # and the incompatibility really shows on both sides
    assert np.max(np.abs(F(v @ mc.matrices[-1].T) - F(v))) > 0.1


# ---------------------------------------------------------- singular trivializations

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
def test_backing_transport_refuses_singular_trivialization(floor):
    # phi is singular (or within DET_FLOOR of it) at the curves' start
    par = _diag_parallelism(lambda x: floor + x * x)
    conn = Connection(coordinate_frame(2, DOM), zero_christoffels(2),
                      backing_parallelism=par)
    with pytest.raises(SingularFrameError, match="backing trivialization"):
        transport_ensemble(conn, [segment((0.0, 0.0), (1.0, 1.0))], [1.0])


@pytest.mark.parametrize("floor", [0.0, 1e-13])
def test_phi_curve_refuses_singular_trivialization(floor):
    # phi is invertible at the start and singular at the end of the curve
    par = _diag_parallelism(lambda x: floor + (1.0 - x) ** 2)
    conn = Connection.flat(coordinate_frame(2, DOM))
    with pytest.raises(SingularFrameError, match="trivialization along the curve"):
        phi_curve(par, conn, segment((0.0, 0.0), (1.0, 0.0)), samples=5)
