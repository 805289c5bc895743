"""Parallelisms, covering parallelisms, partitions of unity, and the
pushed-down norm.

A parallelism is stored through its trivialization matrix field
q -> [phi_q]; P(p, q) = [phi_q][phi_p]^-1, which makes the cocycle and
identity axioms hold by construction. A CoveringParallelism holds its
members, partition and region in __slots__.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CoveringGapError, IncompatibleParallelismError
from .geometry import Box, Frame, apply_matrices, coordinate_frame, invert_frames
from .jets import smooth_step_num
from .norms import MinkowskiNorm, unit_sphere

BUMP_RAMP = 0.25            # a finite bump's ramp, as a fraction of its side
PARTITION_SAMPLES, PARTITION_SEED = 1000, 11    # seeded points checked for a gap
PUSHDOWN_BASEPOINTS, PUSHDOWN_VECTORS, PUSHDOWN_TOL = 10, 200, 1e-9   # pushdown_norm's check


class Parallelism:
    """Trivialization-backed family of tangent-space identifications.

    ``phi`` maps a batch of coordinates (m, n) to matrices (m, n, n);
    ``frame`` (optional) is the parallel frame phi came from, whose jets
    give exact derivatives. ODE-built parallelisms have none: their
    parallel frame is the matrix function phi, differentiated by central
    differences.
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


def pushdown_norm(norm_field, parallelism, p, seed=7):
    """Push F down to R^n through the trivialization: the MinkowskiNorm
    F_p o phi_p, certified not to depend on the chosen basepoint p at
    PUSHDOWN_BASEPOINTS seeded basepoints and PUSHDOWN_VECTORS unit vectors.

    Raises IncompatibleParallelismError (with the violating pair) when
    independence fails beyond PUSHDOWN_TOL, which happens exactly when F
    is not compatible with the parallelism.
    """
    p_coords = np.asarray(p, dtype=float)
    n = parallelism.dim
    rng = np.random.default_rng(seed)
    others = parallelism.domain.sample(rng, PUSHDOWN_BASEPOINTS, margin=0.05)
    vs = unit_sphere(n, PUSHDOWN_VECTORS)

    # F(q, phi_q v) at p and every basepoint q from one phi and one norm call
    pts = np.concatenate([p_coords[None, :], others])
    phis = parallelism.phi(pts)
    w = vs @ phis.swapaxes(1, 2)                                # (1 + basepoints, V, n)
    vals = norm_field(pts[:, None, :], w)
    devs = np.max(np.abs(vals[1:] - vals[0]), axis=1)
    for q, dev in zip(others, devs):
        if dev > PUSHDOWN_TOL:
            raise IncompatibleParallelismError(
                f"pushed-down norm depends on the basepoint (deviation {dev:.3e})",
                witness={"p": p_coords.tolist(), "q": q.tolist(), "deviation": float(dev)})
    phi_p = phis[0]
    return MinkowskiNorm(n, lambda v: norm_field.evaluator(p_coords, apply_matrices(phi_p, v)))


def _bump_1d(x, a, b):
    x = np.asarray(x, dtype=float)
    if np.isfinite(a) and np.isfinite(b):
        delta = BUMP_RAMP * (b - a)
    else:
        delta = 1.0
    steps = []
    if np.isfinite(a):
        steps.append(smooth_step_num((x - a) / delta))
    if np.isfinite(b):
        steps.append(smooth_step_num((b - x) / delta))
    return functools.reduce(np.multiply, steps) if steps else np.ones_like(x)


def bump_partition(domains, region):
    """Smooth partition of unity subordinate to overlapping boxes.

    Each weight is a product of 1-D mollifier bumps supported strictly
    inside its box; weights are normalized to sum to one. Raises
    CoveringGapError when one of PARTITION_SAMPLES seeded points of the
    working region has zero total weight.

    The weights are k callables, one per box, and each call forms all k
    raw weights (every distinct 1-D bump once). A blended connection
    calls each moving member's weight once per evaluation, on the whole
    batch, and evaluates the member on its active points compressed out.
    A weight is 0 where the total is not positive (a NaN point included);
    the total sums the raw weights in box order, so a point alone and in
    a batch get the same bits.
    """
    if not domains:
        raise CoveringGapError("no covering boxes given")

    def raw_weights(coords):
        # the k raw weights at coords (m, n); a 1-D bump that boxes share
        # (same axis and bounds) is evaluated once
        bumps, raw = {}, []
        for box in domains:
            factors = []
            for d, bounds in enumerate(zip(box.lo, box.hi)):
                if (d, bounds) not in bumps:
                    bumps[d, bounds] = _bump_1d(coords[:, d], *bounds)
                factors.append(bumps[d, bounds])
            raw.append(functools.reduce(np.multiply, factors))
        return raw

    pts = region.sample(np.random.default_rng(PARTITION_SEED), PARTITION_SAMPLES, margin=1e-6)
    tot = functools.reduce(np.add, raw_weights(pts))
    if np.any(tot <= 0.0):
        raise CoveringGapError(f"point {pts[np.argmin(tot)].tolist()} not covered by any box")

    def normalized(i):
        def f(coords):
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            raw = raw_weights(coords)
            tot = functools.reduce(np.add, raw)
            return np.divide(raw[i], tot, out=np.zeros(len(tot)), where=tot > 0.0)
        return f

    return [normalized(i) for i in range(len(domains))]


class CoveringParallelism:
    """Chart-indexed family of parallelisms with a partition of unity:
    members a tuple of (Box, Parallelism), partition a tuple of callables
    (m, n) -> (m,), and the region Box they cover."""

    __slots__ = ("members", "partition", "region")

    def __init__(self, members, partition, region):
        self.members = members
        self.partition = partition
        self.region = region

    @staticmethod
    def build(members, region):
        members = tuple((box, par) for box, par in members)
        partition = tuple(bump_partition([box for box, _ in members], region))
        return CoveringParallelism(members, partition, region)
