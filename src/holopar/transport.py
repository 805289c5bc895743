"""Parallel translation along curves.

Transport solves the matrix ODE Phi' = A(t) Phi, Phi(0) = I with
A^i_k(t) = -(velocity)^j Gamma^i_{jk}(position) in coordinates, i.e. all
n basis solutions in one pass, using classical fixed-step RK4 (default
step 1e-3). Curve ensembles and the radial segments of
``radial_transport`` take one path, ``_integrate``, to one kernel,
``_rk4_matrix``, which pulls every per-point quantity block by block
from a callable: for a block of about BLOCK_MATRICES step·curve
matrices the path evaluates the positions and velocities on the block's
part of the half-step grid (``geometry.family_evaluator``, one jet pass
per curve family, its args stacked once per run), then A with one
``Connection.coordinate_christoffels_along`` call, which forms only the
endomorphism Gamma(velocity) (for a connection flat in a jet frame,
-(d_v E) E^-1 from one jet pass seeded along the velocity), and the
kernel steps the block before the next block is evaluated. Neither the
positions nor the coefficients of a whole run are ever held, and each
half-step sample is evaluated once. A block's points are grid-major,
ordered (grid, curve), and every per-point quantity from the frame jets
to the RK4 factors lives in component-major (n, n, points) planes, so a
product of 2×2 matrices is n^3 whole-plane multiply-adds rather than
one small matrix product per point, with no transposing copy between
the layers. As the ODE is linear, Phi at step k is the product
(I + D_k) ... (I + D_1) of the RK4 factors. The steps are cut into
segments at every multiple of SEGMENT_STEPS and at every sample index;
each segment's factors are multiplied as a pairwise tree, level by level
over whole planes, and its product is applied to Phi. The segments depend
only on the step and sample indices, so a curve's matrices have the same
bits alone or in any batch, whatever the block, and no product goes to
BLAS, so they have the same bits under every BLAS kernel. Only the one-curve
``parallel_transport`` (the transport oracle's expected segment) also
carries a step-halving error estimate.

A block allocates and frees about 10 MB of per-point arrays. glibc's
adaptive heap policy would set its trim threshold to twice the largest
mapped block freed so far (about 1.6 MB here), hand that memory back to
the OS after each block and fault it in again for the next. So importing
this module starts glibc at the thresholds its own rule reaches last on
a 64-bit system: mmap threshold 32 MB, trim threshold 64 MB
(``mallopt``), and a block reuses the memory the previous one freed. The
cost is that a long-lived process keeps up to 64 MB of freed heap
mapped. The policy is left off, and the process as it was, on a C
library other than glibc, when ``mallopt`` refuses a value, and when the
environment sets any of ``HEAP_OVERRIDES`` or a ``glibc.malloc.`` entry
of ``GLIBC_TUNABLES``. The allocator does not touch arithmetic: no
transport bit depends on it.
"""

from __future__ import annotations

import ctypes
import os
from itertools import groupby

import numpy as np

from .errors import IntegrationBlowupError
from .geometry import curve_evaluator, family_evaluator, matmul_planes, segment_coords

DEFAULT_STEP = 1e-3
# step·curve matrices per block of the RK4 kernel (more only where one
# segment of SEGMENT_STEPS steps holds more): a block's factors are at
# most 12 800 (n, n) matrices, 0.4 MB for n = 2, and its positions,
# velocities, frame jets, inverses and coefficients, one per half-step
# sample, 0.4 MB per (n,) and 0.8 MB per (n, n) array; they stay in cache
# from the curves to the steps, while small blocks pay the per-block
# ufunc calls
BLOCK_MATRICES = 12800
# steps: every multiple of it cuts the RK4 product into segments, whatever
# the block (_rk4_matrix)
SEGMENT_STEPS = 64
SAMPLE_TOL = 1e-9                         # slack of a sample time on the step grid
# glibc's heap thresholds for the blocks (module docstring): the ceiling of
# its dynamic mmap threshold on 64 bits, and twice that for the trim
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3          # mallopt parameters, malloc.h
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
HEAP_OVERRIDES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                  "MALLOC_MMAP_MAX_")


def heap_policy_applies(environ, libc):
    """Whether to fix the heap thresholds: `libc` (the
    CS_GNU_LIBC_VERSION string, or None) names glibc, and `environ` sets
    none of HEAP_OVERRIDES and no glibc.malloc. tunable."""
    return ((libc or "").startswith("glibc ")
            and not any(var in environ for var in HEAP_OVERRIDES)
            and "glibc.malloc." not in environ.get("GLIBC_TUNABLES", ""))


def _libc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):    # no confstr, or not glibc
        return None


def _fix_heap_thresholds():
    """Set both thresholds if the policy applies; the trim threshold only
    once the mmap threshold is accepted, so a refusal changes nothing."""
    if not heap_policy_applies(os.environ, _libc_version()):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


HEAP_THRESHOLDS_FIXED = _fix_heap_thresholds()


def _step_grid(t_end, step):
    """Step count, step size and half-step grid covering [0, t_end]; a
    step that is not a positive finite number is refused."""
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    steps = max(1, int(round(t_end / step)))
    return steps, t_end / steps, np.linspace(0.0, t_end, 2 * steps + 1)


def _block_steps(m):
    """Steps per block of _rk4_matrix for m curves: whole segments of
    SEGMENT_STEPS steps, as many as BLOCK_MATRICES step·curve matrices
    hold, and at least one."""
    return SEGMENT_STEPS * max(1, BLOCK_MATRICES // (SEGMENT_STEPS * m))


def _times_shifted(P, c, Q):
    """P (I + c Q) for component-major stacks P, Q of shape (n, n, ...),
    by ``matmul_planes``. Q is overwritten with I + c Q."""
    Q *= c
    for i in range(Q.shape[0]):
        Q[i, i] += 1.0
    return matmul_planes(P, Q)


def _increments(first, A, h):
    """RK4 factors I + D (n, n, b, m) of a block of b steps, component-major
    planes: D = h/6 (A1 + 2 B2 + 2 B3 + B4) with B2 = A2 (I + h/2 A1),
    B3 = A2 (I + h/2 B2) and B4 = A4 (I + h B3), so step k takes Phi to
    (I + D_k) Phi.

    `first` (n, n, m) is the sample at the block's first step and A (n, n,
    2b, m) the 2b half-step samples after it, both component-major planes,
    so each product is n^3 multiply-adds over all of the block's
    step·curve matrices at once instead of one BLAS call per 2×2 matrix.
    The sum accumulates in the order written, each B overwritten once it
    has been added; I is added to the scaled sum.
    """
    A2, A4 = A[:, :, 0::2], A[:, :, 1::2]
    A1 = np.concatenate((first[:, :, None], A4[:, :, :-1]), axis=2)
    B = _times_shifted(A2, 0.5 * h, A1.copy())
    S = A1 + 2.0 * B
    B = _times_shifted(A2, 0.5 * h, B)
    S += 2.0 * B
    S += _times_shifted(A4, h, B)
    S *= h / 6.0
    for i in range(S.shape[0]):
        S[i, i] += 1.0
    return S


def _segment_products(F, cuts):
    """The product F[hi - 1] ... F[lo] (n, n, m) of each segment lo..hi-1
    between consecutive `cuts`, along the step axis of the factor planes
    F (n, n, b, m). Each is reduced pairwise, level by level, the later
    factor on the left and an odd last factor carried up, so its bits
    depend on its own factors alone; adjacent segments of one length are
    reduced together, as one view of F."""
    n, _, _, m = F.shape
    out, lo = [], cuts[0]
    for length, run in groupby(np.diff(cuts).tolist()):
        count = len(list(run))
        X = F[:, :, lo:lo + count * length].reshape(n, n, count, length, m)
        while X.shape[3] > 1:
            pairs = X.shape[3] // 2
            P = matmul_planes(X[:, :, :, 1:2 * pairs:2], X[:, :, :, 0:2 * pairs:2])
            X = np.concatenate((P, X[:, :, :, 2 * pairs:]), axis=3) if X.shape[3] % 2 else P
        out += [X[:, :, i, 0] for i in range(count)]
        lo += count * length
    return out


def _first_non_finite_step(F, phi, lo, hi):
    """The first of the steps lo..hi-1 of the factor planes F after which
    phi, taken one factor at a time, is not finite; hi - 1 if none is, so
    that only the segment's tree product left the floating-point range."""
    for k in range(lo, hi):
        phi = matmul_planes(F[:, :, k], phi)
        if not np.isfinite(phi).all():
            return k
    return hi - 1


def _rk4_matrix(coefficients, m, n, steps, h, sample_idx):
    """Integrate Phi' = A Phi for a batch of m curves over `steps` steps
    of size h. coefficients(lo, hi) returns the samples lo..hi-1 of A on
    the half-step grid, grid-major: shape (hi - lo, m, n, n), read
    fastest as a view of component-major (n, n, hi - lo, m) planes. Returns {k: Phi at
    step k} for the step indices in sample_idx.

    The ODE is linear, so Phi at step k is (I + D_k) ... (I + D_1), with
    the factors of ``_increments``. A block of ``_block_steps(m)`` steps
    pulls its 2b new samples (the first block also the sample at t = 0),
    so each sample is evaluated once: a block's last sample is carried
    into the next as its first. The block cuts its steps into segments at
    every multiple of SEGMENT_STEPS and every sample index, multiplies
    each segment's factors as a tree (``_segment_products``) and applies
    the products to Phi in order, so the tree's shape depends only on the
    step and sample indices, never on m or the block. Phi is checked for finiteness after
    each segment, before the next block's coefficients are evaluated; a
    segment that leaves it non-finite is re-run one step at a time from
    its first Phi, and the first non-finite step is the reported t.
    """
    block = _block_steps(m)
    idx = np.unique(np.fromiter(sample_idx, dtype=int))
    wanted = set(idx.tolist())
    phi = np.repeat(np.eye(n)[:, :, None], m, axis=2)
    out = {0: phi.transpose(2, 0, 1).copy()} if idx.size and idx[0] == 0 else {}
    first = None
    for k0 in range(0, steps, block):
        A = coefficients(2 * k0 + (first is not None), 2 * min(k0 + block, steps) + 1)
        A = A.transpose(2, 3, 0, 1)
        if first is None:
            first, A = A[:, :, 0], A[:, :, 1:]
        b = A.shape[2] // 2
        inner = idx[(idx > k0) & (idx < k0 + b)] - k0
        cuts = np.append(np.union1d(np.arange(0, b, SEGMENT_STEPS), inner), b).tolist()
        # a blow-up is reported once, by the finiteness check, not also as
        # a warning; the coefficients keep the caller's error state
        with np.errstate(over="ignore", invalid="ignore"):
            F = _increments(first, A, h)
            for lo, hi, P in zip(cuts, cuts[1:], _segment_products(F, cuts)):
                nxt = matmul_planes(P, phi)
                if not np.isfinite(nxt).all():
                    k = k0 + 1 + _first_non_finite_step(F, phi, lo, hi)
                    raise IntegrationBlowupError("transport blow-up", t=k * h)
                phi = nxt
                if k0 + hi in wanted:
                    out[k0 + hi] = phi.transpose(2, 0, 1).copy()
        first = A[:, :, -1].copy()
    return out


def _coefficient_grid(conn, pos, vel):
    """A = -vel^j Gamma^i_{jk}(pos) for positions and velocities of shape
    (..., n): (..., n, n), from one Connection.coordinate_christoffels_along
    call (no (n, n, n) symbol tensor); grid-major positions give A as a
    view of component-major planes."""
    n = pos.shape[-1]
    A = conn.coordinate_christoffels_along(pos.reshape(-1, n), vel.reshape(-1, n))
    return np.negative(A, out=A).reshape(pos.shape + (n,))


def _integrate(conn, evaluate, m, sample_ts, step, t_end):
    """Transport matrices (m, len(sample_ts), n, n) along the m curves of
    a ``family_evaluator``, in its order, and the sample times as grid
    points; sample_ts must be multiples of the step. No curve gives no
    matrix, and no Christoffel symbol is evaluated."""
    steps, h, grid = _step_grid(t_end, step)
    idx = np.rint(sample_ts / h).astype(int)
    if np.max(np.abs(idx * h - sample_ts)) > SAMPLE_TOL:
        raise ValueError("sample times must be multiples of the step")
    if m == 0:
        return np.empty((0, idx.size, conn.dim, conn.dim)), grid[2 * idx]
    out = _rk4_matrix(lambda lo, hi: _coefficient_grid(conn, *evaluate(grid[lo:hi])),
                      m, conn.dim, steps, h, set(idx.tolist()))
    return np.stack([out[i] for i in idx], axis=1), grid[2 * idx]


def transport_ensemble(conn, curves, sample_ts, step=DEFAULT_STEP, t_end=1.0):
    """Transport matrices for many curves at once.

    Returns (phis, positions0, sample_positions): phis has shape
    (ncurves, nsamples, n, n), sample_ts must be at least one multiple of
    `step` in [0, t_end].

    The kernel takes the curves family by family (``curve_evaluator``)
    and evaluates each block's positions and velocities when it pulls
    the block's coefficients; the results are returned in the order of
    `curves`. Every ensemble, an empty one included, passes the step and
    sample-time checks of ``_integrate``.
    """
    sample_ts = np.asarray(sample_ts, dtype=float)
    if sample_ts.size == 0:
        raise ValueError("no sample times: sample_ts is empty")
    if not np.all((sample_ts >= -SAMPLE_TOL) & (sample_ts <= t_end + SAMPLE_TOL)):
        raise ValueError(f"sample times must lie in [0, {t_end}]")
    m = len(curves)
    order, evaluate = curve_evaluator(curves)
    phis, sample_ts = _integrate(conn, evaluate, m, sample_ts, step, t_end)
    if m == 0:                      # no curve gives the evaluator a dimension
        return phis, np.empty((0, conn.dim)), np.empty((0, sample_ts.size, conn.dim))
    back = np.argsort(order)
    pos = evaluate(np.append(0.0, sample_ts))[0].swapaxes(0, 1)[back]
    return phis[back], pos[:, 0], pos[:, 1:]


def radial_transport(conn, center, targets, step=DEFAULT_STEP):
    """Transport matrices (m, n, n) along the segments from center (n,)
    to each of targets (m, n): one ``segment_coords`` family, its args
    the center and the targets as rows, integrated without a Curve."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    rows = (np.asarray(center, dtype=float)[:, None], targets.T)
    evaluate = family_evaluator([(segment_coords, rows, (), len(targets))])
    return _integrate(conn, evaluate, len(targets), np.ones(1), step, 1.0)[0][:, 0]


def parallel_transport(conn, curve, step=DEFAULT_STEP):
    """Transport matrix (n, n) along `curve` from parameter 0 to 1, and
    its step-halving error estimate.

    Integrates at the requested step and at step/2; the finer run is the
    matrix and the max-entry difference of the two is the estimate.
    """
    steps = _step_grid(1.0, step)[0]
    coarse, _, _ = transport_ensemble(conn, [curve], [1.0], step=1.0 / steps)
    fine, _, _ = transport_ensemble(conn, [curve], [1.0], step=1.0 / (2 * steps))
    return fine[0, 0], float(np.max(np.abs(coarse[0, 0] - fine[0, 0])))
