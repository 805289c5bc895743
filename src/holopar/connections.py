"""Covariant derivatives nabla_X Y = X(Y) + Gamma(X) Y from frame-relative
Christoffel symbols.

A connection is stored relative to a designated frame E (both directions
of the parallelism equivalence are frame-native: "zero Christoffels in
a parallel frame") in one format: Gt(w)^i_k = w^j Gt^i_{jk}, the symbols
contracted with frame components w, with nabla_{E_j} E_k = Gt^i_{jk} E_i.
Its coordinate view is the endomorphism

    Gamma(v) = E Gt(C v) C - (d_v E) C,    C = E^-1,

which is all that transport, torsion, the partition-of-unity blend and
nabla P need; the coordinate tensor
Gamma^a_{bc} = Gamma(e_b)^a_c is only ever an output. ``torsion`` and
``nabla_P`` take batches: points and vectors are (m, n) arrays, and a
vector field enters as its components at the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Frame, apply_matrices, coordinate_frame, invert_frames, matmul_planes


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
    vanish: the frame is then parallel. Every parallel translation
    integrates these symbols.
    """

    frame: Frame
    gamma: object                       # (m, n), (m, n) -> (m, n, n), or None for 0
    backing_parallelism = None          # not a field: no caller sets it; bench/tracing.py reads it

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
        for a jet frame). The inverse and the products are formed on
        component-major (n, n, m) planes, n^3 whole-plane multiply-adds
        each, and the result is an (m, n, n) view of such planes. In the
        coordinate frame this is Gt(v) itself, with no frame evaluated;
        with Gt zero the first term is left out.
        """
        coords = np.asarray(coords, dtype=float)
        v = np.asarray(vectors, dtype=float)
        if self.frame.coordinate:
            if self.gamma is None:
                return np.zeros(coords.shape + coords.shape[-1:])
            return np.asarray(self.gamma(coords, v), dtype=float)
        E, dvE = self.frame.matrix_derivative_batch(coords, v)
        C = invert_frames(E, "frame in Christoffel transform")
        E, dvE, C = (x.transpose(1, 2, 0) for x in (E, dvE, C))
        g = matmul_planes(dvE, C)
        np.negative(g, out=g)
        if self.gamma is not None:
            w = matmul_planes(C, v.T[:, None])[:, 0].T                # (m, n)
            G = np.asarray(self.gamma(coords, np.ascontiguousarray(w)), dtype=float)
            g += matmul_planes(matmul_planes(E, G.transpose(1, 2, 0)), C)
        return g.transpose(2, 0, 1)

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
        return self.coordinate_christoffels_batch(np.asarray(p, dtype=float)[None, :])[0]


def from_coordinate_christoffels(gamma, n, domain=None):
    """Connection given directly by coordinate-frame symbols."""
    return Connection(coordinate_frame(n, domain), gamma)


def nabla_P(conn, parallelism, coords, vectors):
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


def torsion(conn, X, Y, coords):
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y]: components (m, n) at
    points (m, n), for vector fields given by their components X, Y
    (m, n) there.

    The derivative terms of the covariant derivatives cancel the bracket
    exactly, leaving Gamma(X) Y - Gamma(Y) X, from one
    coordinate_christoffels_along call over the stacked [X; Y], each
    product as ``apply_matrices`` multiply-adds, whose bits do not depend
    on the layout the transform returns.
    """
    coords = np.asarray(coords, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m = len(coords)
    g = conn.coordinate_christoffels_along(np.concatenate([coords, coords]),
                                           np.concatenate([X, Y]))
    return apply_matrices(g[:m], Y) - apply_matrices(g[m:], X)
