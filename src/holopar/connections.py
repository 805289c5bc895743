"""Covariant derivatives nabla_X Y = X(Y) + Gamma(X) Y from frame-relative
Christoffel symbols.

A connection is stored relative to a designated frame E (both directions
of the parallelism equivalence are frame-native: "zero Christoffels in
a parallel frame") in one format: Gt(w)^i_k = w^j Gt^i_{jk}, the symbols
contracted with frame components w, with nabla_{E_j} E_k = Gt^i_{jk} E_i.
Its coordinate view is the endomorphism

    Gamma(v) = E Gt(C v) C - (d_v E) C,    C = E^-1,

which is all that transport, torsion, the partition-of-unity blend,
nabla P and the change of frame need; the coordinate tensor
Gamma^a_{bc} = Gamma(e_b)^a_c is only ever an output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChartPoint, Frame, TangentVector, coordinate_frame, invert_frames
from .parallelism import frame_parallelism


def constant_christoffels(values):
    """Constant symbols values[i, j, k] = Gt^i_{jk} as the contraction
    (coords, w) -> w^j Gt^i_{jk}: one stacked (1, n) @ (n, n*n) product
    per point, so a point gives the same bits alone and in a batch (a
    2-D (m, n) product rounds differently with the row count)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    rows = values.swapaxes(0, 1).reshape(n, n * n)            # [j, (i, k)]

    def gamma(coords, w):
        return (np.asarray(w, dtype=float)[:, None, :] @ rows).reshape(-1, n, n)
    return gamma


@dataclass(frozen=True)
class Connection:
    """Covariant derivative: frame plus frame-relative Christoffels.

    ``gamma`` maps points and frame components (m, n), (m, n) to the
    contracted symbols Gt(w) (m, n, n), or is None when the symbols
    vanish: the frame is then parallel. ``backing_parallelism`` marks
    connections constructed with zero Christoffels in a
    parallelism-parallel frame; their parallel translation equals the
    parallelism transfer exactly, which the transport module may use
    directly when the frame is only available through ODE integration.
    """

    frame: Frame
    gamma: object                       # (m, n), (m, n) -> (m, n, n), or None for 0
    backing_parallelism: object = None

    @property
    def dim(self):
        return self.frame.dim

    @staticmethod
    def flat(frame):
        return Connection(frame, None)

    def coordinate_christoffels_along(self, coords, vectors):
        """Gamma(v)^a_c = v^b Gamma^a_{bc} in coordinates at a batch of
        points (m, n), one vector (m, n) each: (m, n, n).

        Gamma(v) = E Gt(C v) C - (d_v E) C with C = E^-1 and E, d_v E
        from Frame.matrix_derivative_batch (one jet pass seeded along v
        for a jet frame). In the coordinate frame this is Gt(v) itself,
        with no frame evaluated; with Gt zero the first term is left out.
        """
        coords = np.asarray(coords, dtype=float)
        v = np.asarray(vectors, dtype=float)
        if self.frame.coordinate:
            if self.gamma is None:
                return np.zeros(coords.shape + coords.shape[-1:])
            return np.asarray(self.gamma(coords, v), dtype=float)
        E, dvE = self.frame.matrix_derivative_batch(coords, v)
        C = invert_frames(E, "frame in Christoffel transform")
        g = dvE @ C
        np.negative(g, out=g)
        if self.gamma is not None:
            w = (C @ v[:, :, None])[:, :, 0]
            g += E @ np.asarray(self.gamma(coords, w), dtype=float) @ C
        return g

    def coordinate_christoffels_batch(self, coords):
        """Coordinate-frame symbols Gamma^a_{bc} (m, n, n, n) at a batch
        of points: Gamma(e_b)^a_c from one coordinate_christoffels_along
        call over the m*n (point, e_b) pairs."""
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        g = self.coordinate_christoffels_along(np.repeat(coords, n, axis=0),
                                               np.tile(np.eye(n), (m, 1)))
        return g.reshape(m, n, n, n).swapaxes(1, 2)

    def coordinate_christoffels(self, p):
        return self.coordinate_christoffels_batch(p.coords[None, :])[0]


def christoffels_in_frame(conn, new_frame, p):
    """Christoffel symbols Gt^i_{jk} of `conn` relative to `new_frame` B:
    Gt_j = B^-1 (nabla P)_{B_j} B with P = frame_parallelism(B), the n
    columns B_j taken as one nabla_P_batch at p."""
    B = new_frame.matrix(p)
    C = invert_frames(B, "target frame")
    n = len(B)
    cov = nabla_P_batch(conn, frame_parallelism(new_frame), np.tile(p.coords, (n, 1)), B.T)
    return (C @ cov @ B).swapaxes(0, 1)                       # [j, i, k] -> [i, j, k]


def from_coordinate_christoffels(gamma, n, domain=None):
    """Connection given directly by coordinate-frame symbols."""
    return Connection(coordinate_frame(n, domain), gamma)


def nabla_P_batch(conn, parallelism, coords, vectors):
    """Coordinate matrices (m, n, n) of w -> w^k v^j Gt^i_{jk} E_i at points
    and vectors (m, n), Gt the symbols in the P-parallel frame E = phi.

    Contracting E_j^b (phi^-1 v)^j = v^b leaves (d_v phi + Gamma(v) phi) phi^-1:
    phi and d_v phi from one Frame.matrix_derivative_batch, Gamma(v) from
    one coordinate_christoffels_along call.
    """
    coords = np.asarray(coords, dtype=float)
    v = np.asarray(vectors, dtype=float)
    phi, dvphi = parallelism.parallel_frame().matrix_derivative_batch(coords, v)
    phi_inv = invert_frames(phi, "parallel frame in nabla_P")
    return (dvphi + conn.coordinate_christoffels_along(coords, v) @ phi) @ phi_inv


def nabla_P(conn, parallelism, v):
    """(nabla P)_v at the base of v, an (n, n) coordinate matrix: the
    one-point nabla_P_batch."""
    return nabla_P_batch(conn, parallelism, v.base.coords[None, :], v.components[None, :])[0]


def covariant_derivative(conn, X, Y, p):
    """(nabla_X Y)(p) = dY X + Gamma(X) Y in coordinates."""
    coords = p.coords[None, :]
    xv = X.values_batch(coords)
    yv, yj = Y.jacobian_batch(coords)
    comps = yj[0] @ xv[0] + conn.coordinate_christoffels_along(coords, xv)[0] @ yv[0]
    return TangentVector(p, comps)


def torsion(conn, X, Y, p):
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y] at p: a ChartPoint, giving a
    TangentVector, or coordinates (m, n), giving components (m, n).

    The derivative terms of the covariant derivatives cancel the bracket
    exactly, leaving Gamma(X) Y - Gamma(Y) X, from one
    coordinate_christoffels_along call over the stacked [X; Y].
    """
    one = isinstance(p, ChartPoint)
    coords = p.coords[None, :] if one else np.asarray(p, dtype=float)
    m = len(coords)
    xv = X.values_batch(coords)
    yv = Y.values_batch(coords)
    g = conn.coordinate_christoffels_along(np.concatenate([coords, coords]),
                                           np.concatenate([xv, yv]))
    comps = (g[:m] @ yv[:, :, None] - g[m:] @ xv[:, :, None])[:, :, 0]
    return TangentVector(p, comps[0]) if one else comps
