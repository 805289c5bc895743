"""Covariant derivatives via frame-relative Christoffel symbols.

A connection is stored relative to a designated frame (both directions
of the parallelism equivalence are frame-native: "zero Christoffels in
a parallel frame"); coordinate Christoffels are a derived view. Index convention:
gamma[i, j, k] is Gamma^i_{jk} with nabla_{E_j} E_k = Gamma^i_{jk} E_i.

Every connection holopar builds is either zero in its own frame (``gamma``
is None: the connection compatible with a parallelism, and each blend
member) or written in the coordinate frame (the blend itself), so the
coordinate view computes only the terms that can be non-zero. Torsion
and (nabla P) take batches of points: one coordinate Christoffel call each.
Transport needs only the symbols contracted with a velocity, Gamma(v), and
``coordinate_christoffels_along`` forms those without the (n, n, n) tensor
wherever the connection's data allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChartPoint, Frame, TangentVector, coordinate_frame, invert_frames


def zero_christoffels(n):
    """Vanishing frame-relative symbols in dimension n: None, which
    ``Connection`` reads as zero without evaluating anything."""
    return None


def constant_christoffels(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]

    def gamma(coords):
        coords = np.asarray(coords, dtype=float)
        return np.broadcast_to(values, coords.shape[:-1] + (n, n, n)).copy()
    return gamma


@dataclass(frozen=True)
class Connection:
    """Covariant derivative: frame plus frame-relative Christoffels.

    ``gamma`` maps coordinates (m, n) to symbols (m, n, n, n), or is None
    when the symbols vanish: the frame is then parallel.
    ``backing_parallelism`` marks connections constructed with zero
    Christoffels in a parallelism-parallel frame; their parallel
    translation equals the parallelism transfer exactly, which the
    transport module may use directly when the frame is only available
    through ODE integration. ``gamma_along``, for a connection written in
    the coordinate frame, maps points and vectors to ``gamma`` contracted
    with the vectors without building the tensors (the blend of
    ``constructions`` sums its members' contractions).
    """

    frame: Frame
    gamma: object                       # (m, n) -> (m, n, n, n), or None for 0
    backing_parallelism: object = None
    gamma_along: object = None          # (m, n), (m, n) -> (m, n, n), or None

    @property
    def dim(self):
        return self.frame.dim

    @staticmethod
    def flat(frame):
        return Connection(frame, None)

    def coordinate_christoffels_batch(self, coords):
        """Coordinate-frame symbols Gamma^a_{bc} at a batch of points.

        In the coordinate frame these are the frame-relative symbols
        themselves; with those zero, only the frame-derivative term is
        computed.
        """
        coords = np.asarray(coords, dtype=float)
        m, n = coords.shape
        if self.frame.coordinate:
            if self.gamma is None:
                return np.zeros((m, n, n, n))
            return np.asarray(self.gamma(coords), dtype=float)
        E, dE = self.frame.matrix_jacobian_batch(coords)
        C = invert_frames(E, "frame in Christoffel transform")
        # nabla_{E_j} E_k = E_j^b (d_b E_k^a + Gamma^a_{bc} E_k^c) d_a, so with
        # C = E^-1: Gamma^a_{bc} = (C^j_b E^a_i Gt^i_{jk} - d_b E^a_k) C^k_c
        # (the d_b term is E^d_j d_d E^a_k contracted with C^j_b = delta^d_b).
        # With Gt = 0 only the d_b term is left: one (n*n, n) @ (n, n)
        # product per point over the rows (b, a) of the derivative-major dE.
        if self.gamma is None:
            g = dE.transpose(0, 3, 1, 2).reshape(m, n * n, n) @ -C
            return g.reshape(m, n, n, n).swapaxes(1, 2)
        # One (m, n, n, n) temporary at a time besides dE and the result.
        g = E @ np.asarray(self.gamma(coords), dtype=float).reshape(m, n, n * n)
        g = np.swapaxes(C, 1, 2)[:, None] @ g.reshape(m, n, n, n)
        g -= np.swapaxes(dE, 2, 3)
        return (g.reshape(m, n * n, n) @ C).reshape(m, n, n, n)

    def coordinate_christoffels_along(self, coords, vectors):
        """Gamma(v)^a_c = v^b Gamma^a_{bc} in coordinates at a batch of
        points (m, n), one vector (m, n) each: (m, n, n).

        This is all that transport needs. A flat coordinate connection
        evaluates nothing, and a coordinate one contracts its symbols, one
        (1, n) @ (n, n*n) product per point, or calls ``gamma_along``. A
        connection flat in another frame is -(d_v E) C, C = E^-1, with E
        and d_v E from Frame.matrix_derivative_batch; any other contracts
        the full coordinate symbols.
        """
        coords = np.asarray(coords, dtype=float)
        v = np.asarray(vectors, dtype=float)
        m, n = coords.shape
        if self.frame.coordinate:
            if self.gamma is None:
                return np.zeros((m, n, n))
            if self.gamma_along is not None:
                return np.asarray(self.gamma_along(coords, v), dtype=float)
            g = np.asarray(self.gamma(coords), dtype=float)
        elif self.gamma is None:
            E, dvE = self.frame.matrix_derivative_batch(coords, v)
            g = dvE @ invert_frames(E, "frame in Christoffel transform")
            return np.negative(g, out=g)
        else:
            g = self.coordinate_christoffels_batch(coords)
        rows = g.swapaxes(1, 2).reshape(m, n, n * n)          # [b, (a, c)]
        return (v[:, None, :] @ rows).reshape(m, n, n)

    def coordinate_christoffels(self, p):
        return self.coordinate_christoffels_batch(p.coords[None, :])[0]


def christoffels_in_frame(conn, new_frame, p):
    """Christoffel symbols of `conn` expressed relative to `new_frame`."""
    coords = p.coords[None, :]
    B, dB = new_frame.matrix_jacobian_batch(coords)
    B, dB = B[0], dB[0]
    C = invert_frames(B, "target frame")
    gamma_coord = conn.coordinate_christoffels(p)
    # nabla_{B_j} B_k = B_j^b (d_b B_k^a + Gamma^a_{bc} B_k^c)
    cov = np.einsum("bj,akb->ajk", B, dB) + np.einsum("abc,bj,ck->ajk", gamma_coord, B, B)
    return np.einsum("ia,ajk->ijk", C, cov)


def from_coordinate_christoffels(gamma, n, domain=None):
    """Connection given directly by coordinate-frame symbols."""
    return Connection(coordinate_frame(n, domain), gamma)


def nabla_P_batch(conn, parallelism, coords, vectors):
    """Coordinate matrices (m, n, n) of w -> w^k v^j Gt^i_{jk} E_i at points
    and vectors (m, n), Gt the symbols in the P-parallel frame E = phi.

    Contracting E_j^b (phi^-1 v)^j = v^b leaves (d_v phi + Gamma(v) phi) phi^-1.
    """
    coords = np.asarray(coords, dtype=float)
    v = np.asarray(vectors, dtype=float)
    phi, dphi = parallelism.parallel_frame().matrix_jacobian_batch(coords)
    phi_inv = invert_frames(phi, "parallel frame in nabla_P")
    gamma = conn.coordinate_christoffels_batch(coords)
    # (d_v phi)^a_k = d_d phi^a_k v^d; (Gamma(v) phi)^a_k = Gamma^a_{bc} v^b phi^c_k
    cov = np.einsum("makd,md->mak", dphi, v) + np.einsum("mabc,mb->mac", gamma, v) @ phi
    return cov @ phi_inv


def nabla_P(conn, parallelism, v):
    """(nabla P)_v at the base of v, an (n, n) coordinate matrix: the
    one-point nabla_P_batch."""
    return nabla_P_batch(conn, parallelism, v.base.coords[None, :], v.components[None, :])[0]


def covariant_derivative(conn, X, Y, p):
    """(nabla_X Y)(p) in coordinates."""
    coords = p.coords[None, :]
    xv = X.values_batch(coords)[0]
    yv, yj = Y.jacobian_batch(coords)
    yv, yj = yv[0], yj[0]
    gamma = conn.coordinate_christoffels(p)
    comps = yj @ xv + np.einsum("abc,b,c->a", gamma, xv, yv)
    return TangentVector(p, comps)


def torsion(conn, X, Y, p):
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y] at p: a ChartPoint, giving a
    TangentVector, or coordinates (m, n), giving components (m, n).

    The derivative terms of the covariant derivatives cancel the bracket
    exactly, leaving the antisymmetrized Christoffel contraction.
    """
    one = isinstance(p, ChartPoint)
    coords = p.coords[None, :] if one else np.asarray(p, dtype=float)
    xv = X.values_batch(coords)
    yv = Y.values_batch(coords)
    gamma = conn.coordinate_christoffels_batch(coords)
    comps = (np.einsum("mabc,mb,mc->ma", gamma, xv, yv)
             - np.einsum("mabc,mb,mc->ma", gamma, yv, xv))
    return TangentVector(p, comps[0]) if one else comps
