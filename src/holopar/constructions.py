"""The two constructive directions between connections and parallelisms.

Direction one: a parallelism from a connection by transporting along the
radial line segments of a convex chart region (``radial_transport``, on
the path of curve ensembles). Direction two: a connection from a
covering parallelism by declaring zero Christoffels in each member's
parallel frame and blending the members' coordinate endomorphisms
Gamma(v) with a partition of unity. A ``ConvexChartRegion`` is a plain
class with __slots__ that refuses a center outside its box.
"""

from __future__ import annotations

import itertools

import numpy as np

from .connections import Connection
from .geometry import Box, coordinate_frame
from .parallelism import CoveringParallelism, Parallelism
from .transport import DEFAULT_STEP, radial_transport


class ConvexChartRegion:
    """Open box around a center point (n,) (boxes are convex in coordinates)."""

    __slots__ = ("center", "box")

    def __init__(self, center, box):
        self.center = np.asarray(center, dtype=float)
        self.box = box
        if not box.contains(self.center):
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

    The weights stay the cover's k callables, and each other member's
    is called once per evaluation. The member is evaluated on its active
    points alone, taken with one boolean ``np.compress`` of the point and
    vector columns; no member frame sees a point where its weight is 0
    or NaN. Its w_a Gamma_a(v) is written into zero planes and added
    whole, which has the bits of adding it at the active points only
    (the sum starts at +0 and so is never -0).
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
            active = w > 0.0
            if not active.any():
                continue
            ga = conn_a.coordinate_christoffels_along(np.compress(active, coords.T, axis=1).T,
                                                      np.compress(active, vectors.T, axis=1).T)
            term = np.zeros_like(out)
            term[:, :, active] = np.compress(active, w) * ga.transpose(1, 2, 0)
            out += term
        return out.transpose(2, 0, 1)

    return Connection(coordinate_frame(n, cover.region), blend)


def decompose_box(box):
    """Fixed decomposition of a box into overlapping sub-boxes.

    Each axis is split into 2 pieces, each enlarged by 0.25 of its own
    width at both ends (25% linear overlap).
    """
    axis_pieces = []
    for lo, hi in zip(box.lo, box.hi):
        width = (hi - lo) / 2
        # overhang past the working region keeps bump weights bounded
        # away from zero on its closure (callers keep the region
        # strictly inside the chart)
        axis_pieces.append([(lo + k * width - 0.25 * width,
                             lo + (k + 1) * width + 0.25 * width) for k in range(2)])
    return [Box(tuple(a for a, _ in pieces), tuple(b for _, b in pieces))
            for pieces in itertools.product(*axis_pieces)]


def covering_from_connection(conn, domain, step=DEFAULT_STEP):
    """Covering parallelism built from radial transports on a fixed
    overlapping box decomposition (the connection-to-parallelism direction
    of the equivalence)."""
    members = []
    for box in decompose_box(domain):
        region = ConvexChartRegion(0.5 * (np.asarray(box.lo) + np.asarray(box.hi)), box)
        members.append((box, parallelism_from_connection(conn, region, step)))
    return CoveringParallelism.build(members, domain)
