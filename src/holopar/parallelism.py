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
    give exact derivatives. ODE-built parallelisms have none: their
    parallel frame is given by the matrix function phi, has no fields,
    and is differentiated by central differences.
    """

    def __init__(self, domain, phi, frame=None):
        self.domain = domain
        self.phi = phi
        self.frame = frame
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
    return frame_parallelism(coordinate_frame(domain.dim, domain))


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

    # F(q, phi_q v) at p and every basepoint q from one phi and one norm call
    pts = np.concatenate([p_coords[None, :], others])
    phis = parallelism.phi(pts)
    w = vs @ phis.swapaxes(1, 2)                                # (1 + basepoints, V, n)
    vals = norm_field(np.broadcast_to(pts[:, None, :], w.shape).reshape(-1, n),
                      w.reshape(-1, n)).reshape(len(pts), -1)
    devs = np.max(np.abs(vals[1:] - vals[0]), axis=1)
    for q, dev in zip(others, devs):
        if dev > tol:
            raise IncompatibleParallelismError(
                f"pushed-down norm depends on the basepoint (deviation {dev:.3e})",
                witness={"p": p_coords.tolist(), "q": q.tolist(), "deviation": float(dev)})
    phi_p = phis[0]

    def at_p(v):
        """Basepoint p and vectors phi_p v for v of shape (..., n), as (m, n)."""
        w = np.reshape(v, (-1, n)) @ phi_p.T
        return np.broadcast_to(p_coords, w.shape), w

    def evaluator(v):
        return norm_field(*at_p(v)).reshape(np.shape(v)[:-1])

    def gradient(v):
        # d/dv F(p, phi_p v) = phi_p^T (grad_v F)(p, phi_p v)
        return (norm_field.gradient(*at_p(v)) @ phi_p).reshape(np.shape(v))

    return PushedNorm(MinkowskiNorm(n, evaluator, gradient=gradient), p_coords)


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

    if region is not None:
        rng = np.random.default_rng(seed)
        pts = region.sample(rng, check_samples, margin=1e-6)
        tot = np.sum([w(pts) for w in weights], axis=0)
        if np.any(tot <= 0.0):
            bad = pts[np.argmin(tot)]
            raise CoveringGapError(f"point {bad.tolist()} not covered by any box")

    def normalized(i):
        # every bump is evaluated once per call: entry i of the summed list
        # is this weight's own (bumps act pointwise, so slicing commutes)
        def f(coords):
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            raw = [w(coords) for w in weights]
            tot = np.sum(raw, axis=0)
            out = np.zeros(coords.shape[0])
            pos = tot > 0.0
            out[pos] = raw[i][pos] / tot[pos]
            return out
        return f

    return [normalized(i) for i in range(len(weights))]


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
