"""The two constructive directions between connections and parallelisms.

Direction one: a parallelism from a connection by transporting along the
radial line segments of a convex chart region (``radial_transport``, on
the path of curve ensembles). Direction two: a connection from a
covering parallelism by declaring zero Christoffels in each member's
parallel frame and blending the members' coordinate endomorphisms
Gamma(v) with a partition of unity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connections import Connection
from .geometry import Box, coordinate_frame
from .parallelism import CoveringParallelism, Parallelism
from .transport import DEFAULT_STEP, radial_transport


@dataclass(frozen=True)
class ConvexChartRegion:
    """Open box around a center point (n,) (boxes are convex in coordinates)."""

    center: np.ndarray
    box: Box

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.box.contains(self.center):
            raise ValueError("center must lie inside the region box")


def parallelism_from_connection(conn, region, step=DEFAULT_STEP):
    """Parallelism whose trivialization is transport along radial segments.

    [phi_q] := P_{gamma_q} where gamma_q runs from the region center to q
    along the coordinate line segment; P(q1, q2) then composes through
    the center.
    """
    return Parallelism(region.box,
                       lambda coords: radial_transport(conn, region.center, coords, step))


def connection_from_covering_parallelism(cover):
    """The blended covariant derivative of a covering parallelism.

    Each member gets zero Christoffels in its parallel frame, and the
    blend, written in the coordinate frame, is Gamma(v) = sum_a w_a
    Gamma_a(v): each member's Gamma_a(v) = -(d_v E_a) E_a^-1 at the points
    where its weight is positive. A member whose parallel frame is the
    coordinate frame contributes exactly zero, so neither its frame nor
    its weight is evaluated.
    """
    n = cover.region.dim
    terms = []
    for (_, par), weight in zip(cover.members, cover.partition):
        conn_a = Connection.flat(par.parallel_frame())
        if not conn_a.frame.coordinate:
            terms.append((conn_a, weight))

    def blend(coords, vectors):
        """sum_a w_a Gamma_a(v): (m, n, n) at points and vectors (m, n),
        accumulated on component-major (n, n, m) planes."""
        out = np.zeros((n, n, len(coords)))
        for conn_a, weight in terms:
            w = np.asarray(weight(coords), dtype=float)
            active = np.flatnonzero(w > 0.0)
            if not active.size:
                continue
            ga = conn_a.coordinate_christoffels_along(coords.T[:, active].T,
                                                      vectors.T[:, active].T)
            out[:, :, active] += w[active] * ga.transpose(1, 2, 0)
        return out.transpose(2, 0, 1)

    return Connection(coordinate_frame(n, cover.region), blend)


def decompose_box(box, per_axis=2, overlap=0.25):
    """Fixed decomposition of a box into overlapping sub-boxes.

    Each axis is split into `per_axis` pieces enlarged by `overlap`
    times their own width (25% linear overlap by default).
    """
    axis_pieces = []
    for lo, hi in zip(box.lo, box.hi):
        width = (hi - lo) / per_axis
        # overhang past the working region keeps bump weights bounded
        # away from zero on its closure (callers keep the region
        # strictly inside the chart)
        axis_pieces.append([(lo + k * width - overlap * width,
                             lo + (k + 1) * width + overlap * width) for k in range(per_axis)])
    return [Box(tuple(a for a, _ in pieces), tuple(b for _, b in pieces))
            for pieces in itertools.product(*axis_pieces)]


def covering_from_connection(conn, domain, per_axis=2, overlap=0.25,
                             step=DEFAULT_STEP):
    """Covering parallelism built from radial transports on a fixed
    overlapping box decomposition (the connection-to-parallelism direction
    of the equivalence)."""
    members = []
    for box in decompose_box(domain, per_axis, overlap):
        region = ConvexChartRegion(0.5 * (np.asarray(box.lo) + np.asarray(box.hi)), box)
        members.append((box, parallelism_from_connection(conn, region, step)))
    return CoveringParallelism.build(members, domain)
