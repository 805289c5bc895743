"""Parallel translation along curves and the general matrix ODE.

Transport solves the matrix ODE Phi' = A(t) Phi, Phi(0) = I with
A^i_k(t) = -(velocity)^j Gamma^i_{jk}(position) in coordinates, i.e. all
n basis solutions in one pass, using classical fixed-step RK4 (default
step 1e-3). An ensemble takes its curves' positions and velocities from
``geometry.curve_positions_velocities``, one jet pass per curve family.
Every integration, here and in the radial transports of
``constructions``, samples A once on the half-step grid with one
``Connection.coordinate_christoffels_along`` call, which forms only the
endomorphism Gamma(velocity) (for a connection flat in a jet frame,
-(d_v E) E^-1 from one jet pass seeded along the velocity), and steps it
in one vectorized kernel, ``_rk4_matrix``. As the ODE is linear, each
RK4 step there is one product phi <- phi + D_k phi. The increments D_k
are formed for blocks of about BLOCK_MATRICES step·curve matrices at a
time, component-major: n^3 whole-array multiply-adds per product rather
than one small matrix product per step and curve. A block writes its
steps into one buffer and checks them for finiteness together. Only the
one-curve ``parallel_transport`` also carries a step-halving error
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError
from .geometry import DET_FLOOR, curve_positions_velocities, invert_frames

DEFAULT_STEP = 1e-3
# step·curve increment matrices formed together: forming every increment
# at once would hold four more (m, N, n, n) arrays, 6.4 MB each for 200
# curves at step 1e-3, while small blocks pay the per-block ufunc calls
BLOCK_MATRICES = 12800
SAMPLE_TOL = 1e-9                         # slack of a sample time on the step grid


@dataclass(frozen=True)
class TransportOperator:
    """Linear isomorphism from T_from to T_to, in coordinate components."""

    from_point: object
    to_point: object
    matrix: np.ndarray
    step_error: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if abs(np.linalg.det(self.matrix)) <= DET_FLOOR:
            raise IntegrationBlowupError("transport operator is singular")

    def __call__(self, v):
        return self.matrix @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class MatrixCurve:
    """Sampled matrix curve (t, Phi(t)); Phi(0) must be the identity."""

    samples: tuple

    def __post_init__(self):
        t0, m0 = self.samples[0]
        if t0 != 0.0 or np.max(np.abs(np.asarray(m0) - np.eye(len(m0)))) > 1e-12:
            raise ValueError("matrix curve must start at (0, I)")

    @property
    def ts(self):
        return np.asarray([t for t, _ in self.samples])

    @property
    def matrices(self):
        return np.asarray([m for _, m in self.samples])


def _step_grid(t_end, step):
    """Step count, step size and half-step grid covering [0, t_end]."""
    steps = max(1, int(round(t_end / step)))
    return steps, t_end / steps, np.linspace(0.0, t_end, 2 * steps + 1)


def _block_steps(m):
    """Steps per block of _rk4_matrix for m curves: about BLOCK_MATRICES
    step·curve matrices, and at least 64 steps."""
    return max(64, BLOCK_MATRICES // m)


def _times_shifted(P, c, Q):
    """P (I + c Q) for component-major stacks P, Q of shape (n, n, ...):
    entry (i, k) is sum_j P[i, j] X[j, k], X = I + c Q, as n^3 whole-array
    multiply-adds, j ascending. Q is overwritten with X."""
    n = P.shape[0]
    Q *= c
    for i in range(n):
        Q[i, i] += 1.0
    out = P[:, 0, None] * Q[None, 0]
    for j in range(1, n):
        out += P[:, j, None] * Q[None, j]
    return out


def _increments(A, h):
    """RK4 increment matrices D (b, m, n, n) of a block A (m, 2b+1, n, n)
    on the half-step grid: D = h/6 (A1 + 2 B2 + 2 B3 + B4) with
    B2 = A2 (I + h/2 A1), B3 = A2 (I + h/2 B2) and B4 = A4 (I + h B3).

    The block's step and midpoint samples are transposed to (n, n, steps,
    m), so each product is n^3 multiply-adds over all of the block's
    step·curve matrices at once instead of one BLAS call per 2×2 matrix.
    The sum accumulates in the order written, each B overwritten once it
    has been added.
    """
    m, G, n, _ = A.shape
    ends = np.ascontiguousarray(A[:, ::2].transpose(2, 3, 1, 0))
    A2 = np.ascontiguousarray(A[:, 1::2].transpose(2, 3, 1, 0))
    A1, A4 = ends[:, :, :-1], ends[:, :, 1:]
    B = _times_shifted(A2, 0.5 * h, A1.copy())
    S = A1 + 2.0 * B
    B = _times_shifted(A2, 0.5 * h, B)
    S += 2.0 * B
    S += _times_shifted(A4, h, B)
    D = np.empty(((G - 1) // 2, m, n, n))
    np.multiply(h / 6.0, S, out=D.transpose(2, 3, 0, 1))
    return D


# a blow-up is reported once, by the finiteness check, not also as a warning
@np.errstate(over="ignore", invalid="ignore")
def _rk4_matrix(A_all, h, sample_idx):
    """Integrate Phi' = A Phi for a batch; A_all has shape (m, 2N+1, n, n)
    on the half-step grid. Returns {k: Phi at step k} for the step indices
    in sample_idx.

    The ODE is linear, so RK4 step k is phi <- phi + D_k phi with the
    increment D_k of ``_increments``, formed for a block of
    ``_block_steps(m)`` steps at a time; the block's steps are written
    into one buffer, one product and one sum each, and checked for
    finiteness together. The first non-finite step is the reported t.
    """
    m, G, n, _ = A_all.shape
    N = (G - 1) // 2
    block = _block_steps(m)
    idx = np.unique(np.fromiter(sample_idx, dtype=int))
    buf = np.empty((min(block, N) + 1, m, n, n))
    buf[0] = np.eye(n)
    phis, prod = list(buf), np.empty((m, n, n))
    out = {0: buf[0].copy()} if idx.size and idx[0] == 0 else {}
    for k0 in range(0, N, block):
        D = _increments(A_all[:, 2 * k0:2 * min(k0 + block, N) + 1], h)
        b = D.shape[0]
        for j, Dj in enumerate(D):
            np.add(phis[j], np.matmul(Dj, phis[j], out=prod), out=phis[j + 1])
        finite = np.isfinite(buf[1:b + 1].reshape(b, -1)).all(axis=1)
        if not finite.all():
            k = k0 + 1 + int(np.argmin(finite))
            raise IntegrationBlowupError("transport blow-up", t=k * h)
        lo, hi = np.searchsorted(idx, (k0 + 1, k0 + b + 1))
        for k in idx[lo:hi].tolist():
            out[k] = buf[k - k0].copy()
        buf[0] = buf[b]
    return out


def _coefficient_grid(conn, pos, vel):
    """A = -vel^j Gamma^i_{jk}(pos) for positions and velocities of shape
    (m, G, n): (m, G, n, n), from one Connection.coordinate_christoffels_along
    call (no (n, n, n) symbol tensor)."""
    m, G, n = pos.shape
    A = conn.coordinate_christoffels_along(pos.reshape(-1, n), vel.reshape(-1, n))
    return np.negative(A, out=A).reshape(m, G, n, n)


def transport_ensemble(conn, curves, sample_ts, step=DEFAULT_STEP, t_end=1.0):
    """Transport matrices for many curves at once.

    Returns (phis, positions0, sample_positions): phis has shape
    (ncurves, nsamples, n, n), sample_ts must be multiples of `step` in
    [0, t_end].

    Connections flagged with a backing parallelism translate by exact
    frame transfer instead of integrating.
    """
    sample_ts = np.asarray(sample_ts, dtype=float)
    if not np.all((sample_ts >= -SAMPLE_TOL) & (sample_ts <= t_end + SAMPLE_TOL)):
        raise ValueError(f"sample times must lie in [0, {t_end}]")
    n = conn.dim
    m = len(curves)
    if m == 0:                      # no curve gives the evaluator a dimension
        return (np.empty((0, sample_ts.size, n, n)), np.empty((0, n)),
                np.empty((0, sample_ts.size, n)))
    if conn.backing_parallelism is not None:
        par = conn.backing_parallelism
        pos, _ = curve_positions_velocities(curves, np.append(0.0, sample_ts))
        pos0, pos_s = pos[:, 0], pos[:, 1:]
        phi0 = par.phi(pos0)
        phis_s = par.phi(pos_s.reshape(-1, n)).reshape(m, sample_ts.size, n, n)
        phis = np.einsum("mtij,mjk->mtik", phis_s,
                         invert_frames(phi0, "backing trivialization"))
        return phis, pos0, pos_s

    _, h, grid = _step_grid(t_end, step)
    idx = np.rint(sample_ts / h).astype(int)
    if np.max(np.abs(idx * h - sample_ts)) > SAMPLE_TOL:
        raise ValueError("sample times must be multiples of the step")
    pos, vel = curve_positions_velocities(curves, grid)
    out = _rk4_matrix(_coefficient_grid(conn, pos, vel), h, set(idx.tolist()))
    phis = np.stack([out[i] for i in idx], axis=1)
    return phis, pos[:, 0], pos[:, 2 * idx]


def parallel_transport(conn, curve, t=1.0, step=DEFAULT_STEP):
    """TransportOperator along `curve` from parameter 0 to t.

    Integrates at the requested step and at step/2; the finer run is the
    result and the max-entry difference is the Richardson error field.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("transport parameter must lie in (0, 1]")
    steps = max(1, int(round(t / step)))
    coarse, _, _ = transport_ensemble(conn, [curve], [t], step=t / steps, t_end=t)
    fine, _, _ = transport_ensemble(conn, [curve], [t], step=t / (2 * steps), t_end=t)
    err = float(np.max(np.abs(coarse[0, 0] - fine[0, 0])))
    return TransportOperator(curve.point(0.0), curve.point(t), fine[0, 0], err)


def matrix_ode_solve(A, t_end, step=DEFAULT_STEP):
    """RK4 solution of Phi' = A(t) Phi, Phi(0) = I, sampled at step multiples."""
    steps, h, grid = _step_grid(t_end, step)
    A_all = np.stack([np.asarray(A(t), dtype=float) for t in grid])
    out = _rk4_matrix(A_all[None], h, range(steps + 1))
    return MatrixCurve(tuple((k * h, out[k][0]) for k in range(steps + 1)))


def phi_curve(parallelism, conn, curve, step=DEFAULT_STEP, samples=100):
    """The trivialized transport Phi(t) = phi(c(t))^-1 P_c^t phi(c(0)).

    For a parallelism-compatible pair this runs in the isometry group of
    the pushed-down norm; sampled at `samples` equispaced parameters.
    """
    ts = np.linspace(0.0, 1.0, samples + 1)
    ts = np.round(ts / step) * step
    ts[0] = 0.0
    ts = np.unique(ts)
    nonzero = ts[ts > 0]
    phis, pos0, pos_s = transport_ensemble(conn, [curve], nonzero, step=step)
    phi0 = parallelism.phi(pos0)[0]
    n = conn.dim
    phi_t_inv = invert_frames(parallelism.phi(pos_s[0]), "trivialization along the curve")
    mats = np.einsum("tij,tjk,kl->til", phi_t_inv, phis[0], phi0)
    out = [(0.0, np.eye(n))]
    out += [(float(t), mats[i]) for i, t in enumerate(nonzero)]
    return MatrixCurve(tuple(out))
