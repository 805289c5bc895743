"""Parallelisms, induced trivializations, covering parallelisms,
partitions of unity, and the pushed-down norm.

A parallelism is stored through its trivialization matrix field
q -> [phi_q]; P(p, q) = [phi_q][phi_p]^-1, which makes the cocycle and
identity axioms hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CoveringGapError, IncompatibleParallelismError,
                     SingularFrameError)
from .geometry import DET_FLOOR, Box, Frame, coordinate_frame, invert_frames
from .jets import smooth_step_num
from .norms import MinkowskiNorm, unit_sphere


class Parallelism:
    """Trivialization-backed family of tangent-space identifications.

    ``phi`` maps a batch of coordinates (m, n) to matrices (m, n, n);
    ``frame`` (optional) is the parallel frame phi came from, whose fields
    give exact derivatives. ODE-built parallelisms have none, and their
    parallel frame is differentiated by finite differences.
    """

    def __init__(self, domain, phi, basepoint=None, frame=None):
        self.domain = domain
        self.phi = phi
        self.frame = frame
        if basepoint is None:
            lo = np.asarray(domain.lo, dtype=float)
            hi = np.asarray(domain.hi, dtype=float)
            finite = np.isfinite(lo) & np.isfinite(hi)
            basepoint = 0.5 * (np.where(finite, lo, 0.0) + np.where(finite, hi, 0.0))
        self.basepoint = np.asarray(basepoint, dtype=float)
        self.dim = domain.dim

    def transfer(self, p_coords, q_coords):
        """P(p, q) as a coordinate matrix; accepts single points or batches."""
        p = np.atleast_2d(np.asarray(p_coords, dtype=float))
        q = np.atleast_2d(np.asarray(q_coords, dtype=float))
        phi_p = self.phi(p)
        phi_q = self.phi(q)
        # matmul broadcasts (1,n,n) v (m,n,n)
        out = phi_q @ invert_frames(phi_p, "trivialization matrix")
        return out[0] if np.asarray(p_coords).ndim == 1 and np.asarray(q_coords).ndim == 1 else out

    def apply(self, v, q):
        """P(base(v), q) applied to a tangent vector."""
        mat = self.transfer(v.base.coords, q.coords)
        return type(v)(q, mat @ v.components)

    def parallel_frame(self):
        """The frame (E_i) with E_i(q) = [phi_q] e_i (P-parallel by
        construction)."""
        if self.frame is not None:
            return self.frame
        return Frame(matrix_fn=self.phi, domain=self.domain, dim=self.dim)


def frame_parallelism(frame):
    """The parallelism induced by a frame: [phi_q] = frame matrix at q."""
    return Parallelism(frame.domain or Box((-np.inf,) * frame.dim, (np.inf,) * frame.dim),
                       frame.matrix_batch, frame=frame)


def translation_parallelism(domain):
    """phi = identity everywhere: P(p, q) = I."""
    n = domain.dim

    def phi(coords):
        coords = np.asarray(coords, dtype=float)
        return np.broadcast_to(np.eye(n), coords.shape[:-1] + (n, n)).copy()

    return Parallelism(domain, phi, frame=coordinate_frame(n, domain))


def induced_trivialization(parallelism, p, eta):
    """Matrix field q -> [P(p, q)] eta of the trivialization anchored at p."""
    eta = np.asarray(eta, dtype=float)
    if abs(np.linalg.det(eta)) <= DET_FLOOR:
        raise SingularFrameError("eta must be invertible")
    p_coords = np.asarray(p.coords if hasattr(p, "coords") else p, dtype=float)
    phi_p = parallelism.phi(p_coords[None, :])[0]
    anchor = np.linalg.solve(phi_p, eta)

    def field(coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return parallelism.phi(coords) @ anchor

    return field


@dataclass(frozen=True)
class PushedNorm:
    """Norm on R^n obtained as F_p o phi_p; independent of the witness p."""

    norm: MinkowskiNorm
    witness: np.ndarray


def pushdown_norm(norm_field, parallelism, p, basepoints=10, vectors=200,
                  tol=1e-9, seed=7):
    """Push F down to R^n through the trivialization and certify that the
    result does not depend on the chosen basepoint.

    Raises IncompatibleParallelismError (with the violating pair) when
    independence fails beyond `tol`, which happens exactly when F is not
    compatible with the parallelism.
    """
    p_coords = np.asarray(p.coords if hasattr(p, "coords") else p, dtype=float)
    n = parallelism.dim
    rng = np.random.default_rng(seed)
    others = parallelism.domain.sample(rng, basepoints, margin=0.05)
    vs = unit_sphere(n, vectors)

    def pushed_at(q_coords):
        phi_q = parallelism.phi(q_coords[None, :])[0]
        return norm_field(np.broadcast_to(q_coords, vs.shape), vs @ phi_q.T)

    ref = pushed_at(p_coords)
    for q in others:
        dev = float(np.max(np.abs(pushed_at(q) - ref)))
        if dev > tol:
            raise IncompatibleParallelismError(
                f"pushed-down norm depends on the basepoint (deviation {dev:.3e})",
                witness={"p": p_coords.tolist(), "q": q.tolist(), "deviation": dev})

    def evaluator(v):
        v = np.asarray(v, dtype=float)
        phi_p = parallelism.phi(p_coords[None, :])[0]
        flat = v.reshape(-1, n)
        cc = np.broadcast_to(p_coords, flat.shape)
        return norm_field(cc, flat @ phi_p.T).reshape(v.shape[:-1])

    return PushedNorm(MinkowskiNorm(n, evaluator, kind="pushed"), p_coords)


def _bump_1d(x, a, b, delta_frac=0.25):
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    if np.isfinite(a) and np.isfinite(b):
        delta = delta_frac * (b - a)
    else:
        delta = 1.0
    if np.isfinite(a):
        out = out * smooth_step_num((x - a) / delta)
    if np.isfinite(b):
        out = out * smooth_step_num((b - x) / delta)
    return out


def bump_partition(domains, region=None, check_samples=1000, seed=11):
    """Smooth partition of unity subordinate to overlapping boxes.

    Each weight is a product of 1-D mollifier bumps supported strictly
    inside its box; weights are normalized to sum to one. Raises
    CoveringGapError when a sampled point of the working region has
    zero total weight.
    """
    if not domains:
        raise CoveringGapError("no covering boxes given")
    n = domains[0].dim

    def raw_weight(box):
        def w(coords):
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            out = np.ones(coords.shape[0])
            for d in range(n):
                out = out * _bump_1d(coords[:, d], box.lo[d], box.hi[d])
            return out
        return w

    weights = [raw_weight(b) for b in domains]

    def total(coords):
        return np.sum([w(coords) for w in weights], axis=0)

    if region is not None:
        rng = np.random.default_rng(seed)
        pts = region.sample(rng, check_samples, margin=1e-6)
        tot = total(pts)
        if np.any(tot <= 0.0):
            bad = pts[np.argmin(tot)]
            raise CoveringGapError(f"point {bad.tolist()} not covered by any box")

    def normalized(w):
        def f(coords):
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            tot = total(coords)
            out = np.zeros(coords.shape[0])
            pos = tot > 0.0
            out[pos] = w(coords[pos]) / tot[pos]
            return out
        return f

    return [normalized(w) for w in weights]


@dataclass(frozen=True)
class CoveringParallelism:
    """Chart-indexed family of parallelisms with a partition of unity."""

    members: tuple          # of (Box, Parallelism)
    partition: tuple        # of callables (m, n) -> (m,)
    region: Box

    @staticmethod
    def build(members, region):
        members = tuple((box, par) for box, par in members)
        partition = tuple(bump_partition([box for box, _ in members], region))
        return CoveringParallelism(members, partition, region)
