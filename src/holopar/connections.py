"""Covariant derivatives via frame-relative Christoffel symbols.

A connection is stored relative to a designated frame (both directions
of the parallelism equivalence are frame-native: "zero Christoffels in
a parallel frame"); coordinate Christoffels are a derived view. Index convention:
gamma[i, j, k] is Gamma^i_{jk} with nabla_{E_j} E_k = Gamma^i_{jk} E_i.

Every connection holopar builds is either zero in its own frame (``gamma``
is None: the connection compatible with a parallelism, and each blend
member) or written in the coordinate frame (the blend itself), so the
coordinate view computes only the terms that can be non-zero.
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
    through ODE integration.
    """

    frame: Frame
    gamma: object                       # (m, n) -> (m, n, n, n), or None for 0
    backing_parallelism: object = None

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
        # With Gt = 0 only the d_b term is left.
        if self.gamma is None:
            return -np.swapaxes(dE, 2, 3) @ C[:, None]
        # One (m, n, n, n) temporary at a time besides dE and the result.
        g = E @ np.asarray(self.gamma(coords), dtype=float).reshape(m, n, n * n)
        g = np.swapaxes(C, 1, 2)[:, None] @ g.reshape(m, n, n, n)
        g -= np.swapaxes(dE, 2, 3)
        return g @ C[:, None]

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


@dataclass(frozen=True)
class Endomorphism:
    base: ChartPoint
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))


def nabla_P(conn, parallelism, v):
    """Endomorphism w -> w^k v^j Gamma^i_{jk}(p) E_i(p) of the tangent space
    at the base of v, for Christoffels taken in a P-parallel frame.

    The matrix is returned in coordinate components.
    """
    p = v.base
    frame = parallelism.parallel_frame()
    phi_p = frame.matrix(p)
    phi_inv = invert_frames(phi_p, "parallel frame in nabla_P")
    gt = christoffels_in_frame(conn, frame, p)
    m_frame = np.einsum("j,ijk->ik", phi_inv @ v.components, gt)
    return Endomorphism(p, phi_p @ m_frame @ phi_inv)


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
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y], evaluated at p.

    The derivative terms of the covariant derivatives cancel the bracket
    exactly, leaving the antisymmetrized Christoffel contraction.
    """
    coords = p.coords[None, :]
    xv = X.values_batch(coords)[0]
    yv = Y.values_batch(coords)[0]
    gamma = conn.coordinate_christoffels(p)
    comps = (np.einsum("abc,b,c->a", gamma, xv, yv)
             - np.einsum("abc,b,c->a", gamma, yv, xv))
    return TangentVector(p, comps)
