"""The two constructive directions between connections and parallelisms.

Direction one: a parallelism from a connection by transporting along the
radial line segments of a convex chart region. Direction two: a
connection from a covering parallelism by declaring zero Christoffels in
each member's parallel frame and blending the members' coordinate
endomorphisms Gamma(v) with a partition of unity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connections import Connection
from .geometry import Box, ChartPoint, coordinate_frame
from .parallelism import CoveringParallelism, Parallelism
from .transport import DEFAULT_STEP, _coefficient_grid, _rk4_matrix, _step_grid


@dataclass(frozen=True)
class ConvexChartRegion:
    """Open box around a center point (boxes are convex in coordinates)."""

    center: ChartPoint
    box: Box

    def __post_init__(self):
        if not self.box.contains(self.center.coords):
            raise ValueError("center must lie inside the region box")


def _radial_transport(conn, center, targets, step):
    """Transport matrices along the segments center -> target, batched.

    Integrates Phi' = A(s) Phi over s in [0,1] with positions
    center + s (target - center) and constant velocity target - center.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    vel = targets - center
    steps, h, grid = _step_grid(1.0, step)
    pos = center + grid[None, :, None] * vel[:, None, :]
    A_all = _coefficient_grid(conn, pos, np.broadcast_to(vel[:, None, :], pos.shape))
    return _rk4_matrix(A_all, h, {steps})[steps]


def parallelism_from_connection(conn, region, step=DEFAULT_STEP):
    """Parallelism whose trivialization is transport along radial segments.

    [phi_q] := P_{gamma_q} where gamma_q runs from the region center to q
    along the coordinate line segment; P(q1, q2) then composes through
    the center.
    """
    center = np.asarray(region.center.coords, dtype=float)

    def phi(coords):
        return _radial_transport(conn, center, coords, step)

    return Parallelism(region.box, phi)


def connection_from_covering_parallelism(cover):
    """The blended covariant derivative of a covering parallelism.

    Each member gets zero Christoffels in its parallel frame, and the
    blend, written in the coordinate frame, is Gamma(v) = sum_a w_a
    Gamma_a(v): each member's Gamma_a(v) = -(d_v E_a) E_a^-1 at the points
    where its weight is positive. A member whose parallel frame is the
    coordinate frame contributes exactly zero, so neither its frame nor
    its weight is evaluated. Single-member covers keep a reference to
    their parallelism so transport can use exact frame transfer.
    """
    n = cover.region.dim
    terms = []
    for (_, par), weight in zip(cover.members, cover.partition):
        conn_a = Connection.flat(par.parallel_frame())
        if not conn_a.frame.coordinate:
            terms.append((conn_a, weight))

    def blend(coords, vectors):
        """sum_a w_a Gamma_a(v): (m, n, n) at points and vectors (m, n)."""
        out = np.zeros(coords.shape + (n,))
        for conn_a, weight in terms:
            w = np.asarray(weight(coords), dtype=float)
            active = np.flatnonzero(w > 0.0)
            if not active.size:
                continue
            ga = conn_a.coordinate_christoffels_along(coords[active], vectors[active])
            out[active] += w[active, None, None] * ga
        return out

    backing = cover.members[0][1] if len(cover.members) == 1 else None
    return Connection(coordinate_frame(n, cover.region), blend, backing_parallelism=backing)


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
        center = ChartPoint(0.5 * (np.asarray(box.lo) + np.asarray(box.hi)))
        region = ConvexChartRegion(center, box)
        members.append((box, parallelism_from_connection(conn, region, step)))
    return CoveringParallelism.build(members, domain)
