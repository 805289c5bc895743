"""Built-in manifolds: the two-dimensional Randers example that is
generalized Berwald but not Berwald, plus control cases for the
property suites.

Every fixture carries an expected-value table with provenance tags;
``Fixture.validate()`` re-derives each entry with the corresponding
operation and checks it at its stated tolerance. ``checks`` and
``summary`` declare the ``verify`` suite by names in the CLI's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import (Connection, constant_christoffels,
                          from_coordinate_christoffels, torsion, zero_christoffels)
from .constructions import connection_from_covering_parallelism
from .geometry import (Box, Frame, VectorField, coordinate_frame, dual_coframe,
                       point, segment)
from .jets import jcos, jsin, smooth_step
from .norms import (NormField, RandersData, constant_norm_field, euclidean_norm,
                    one_form_norm_field, randers_norm)
from .parallelism import CoveringParallelism, frame_parallelism, translation_parallelism
from .transport import parallel_transport


@dataclass(frozen=True)
class Expected:
    value: object
    tol: float
    provenance: str          # "analytic" | "derived" | "trivial"


@dataclass(frozen=True)
class Fixture:
    name: str
    dim: int
    domain: Box
    frame: Frame
    norm_field: object
    connection: Connection
    parallelism: object                  # Parallelism or CoveringParallelism
    expected: dict
    expects_failure: dict = field(default_factory=dict)
    minkowski_norm: object = None        # norm in frame components, if one-form
    checks: tuple = ()                   # verify suite: (check name, overrides)
    summary: tuple = ()                  # names of the verify summary values

    def validate(self):
        """Re-derive every expected-table entry at its stated tolerance."""
        for key, exp in self.expected.items():
            got = _DERIVERS[key](self)
            if np.max(np.abs(np.asarray(got) - np.asarray(exp.value))) > exp.tol:
                raise AssertionError(
                    f"fixture {self.name}: expected {key}={exp.value}, got {got}")
        return self


def _derive_torsion(fx):
    fields = fx.frame.fields
    p = point(*(0.3,) * fx.dim)
    return torsion(fx.connection, fields[0], fields[1], p).components


def _derive_transport(fx):
    curve = segment((0.0, 0.0), (1.0, 0.0), domain=fx.domain)
    return parallel_transport(fx.connection, curve, 1.0, step=1e-3).matrix


def _derive_coord_gamma(fx):
    return fx.connection.coordinate_christoffels(point(0.7, *(-0.4,) * (fx.dim - 1)))


def _derive_norm_values(fx):
    F = fx.norm_field
    return [float(F(np.array([0.0, 0.0]), np.array([0.0, 1.0]))),
            float(F(np.array([1.0, 0.0]), np.array([1.0, 1.0])))]


_DERIVERS = {
    "torsion_E1_E2": _derive_torsion,
    "transport_00_to_10": _derive_transport,
    "coordinate_christoffels": _derive_coord_gamma,
    "norm_values": _derive_norm_values,
}


def section5_frame(domain):
    """E_1 = x d/dx + d/dy, E_2 = -d/dx."""
    e1 = VectorField(2, components=lambda xs: (xs[0], 1.0), domain=domain)
    e2 = VectorField(2, components=lambda xs: (-1.0, 0.0), domain=domain)
    return Frame(fields=[e1, e2], domain=domain)


def section5_example():
    """The proper generalized Berwald surface: Randers norm
    sqrt(4 a^2 + 12 b^2) - a read through the coframe (dy, -dx + x dy),
    with the connection that kills the frame."""
    domain = Box((-5.0, -5.0), (5.0, 5.0))
    frame = section5_frame(domain)
    coframe = dual_coframe(frame)
    f = randers_norm(RandersData(np.diag([4.0, 12.0]), np.array([-1.0, 0.0])))
    F = one_form_norm_field(coframe, f)
    conn = Connection(frame, zero_christoffels(2))
    par = frame_parallelism(frame)

    gamma_expected = np.zeros((2, 2, 2))
    gamma_expected[0, 0, 1] = -1.0          # Gamma^x_{xy}
    expected = {
        "torsion_E1_E2": Expected([-1.0, 0.0], 1e-9, "analytic"),
        "transport_00_to_10": Expected([[1.0, 1.0], [0.0, 1.0]], 1e-7, "derived"),
        "coordinate_christoffels": Expected(gamma_expected, 1e-9, "derived"),
        "norm_values": Expected([1.0, 1.0], 1e-12, "derived"),
    }
    checks = (("expected_torsion", {}), ("holonomy", {}), ("compat", {"tol": 1e-9}),
              ("isometry_group", {"group": (np.eye(2), np.diag([1.0, -1.0]))}),
              ("transport_oracle", {}), ("pushdown", {}), ("compalg", {"tol": 1e-8}))
    summary = ("torsion_max", "isometry_count", "invariance_max_rel")
    return Fixture("section5", 2, domain, frame, F, conn, par, expected,
                   minkowski_norm=f, checks=checks, summary=summary).validate()


def euclidean_flat(n=2):
    """Euclidean norm, coordinate frame, flat connection: everything passes."""
    domain = Box((-5.0,) * n, (5.0,) * n)
    frame = coordinate_frame(n, domain)
    F = constant_norm_field(euclidean_norm(n))
    conn = Connection.flat(frame)
    par = translation_parallelism(domain)
    expected = {
        "coordinate_christoffels": Expected(np.zeros((n, n, n)), 1e-12, "trivial"),
    }
    return Fixture("euclidean_flat", n, domain, frame, F, conn, par, expected,
                   checks=(("holonomy", {"max_curves": 30}),
                           ("compat", {"tol": 1e-9}))).validate()


def scaled_euclidean_incompatible():
    """e^x-scaled Euclidean field with the translation parallelism: the
    compatibility check must fail with value ratio e between x=0 and x=1."""
    domain = Box((-3.0, -3.0), (3.0, 3.0))
    frame = coordinate_frame(2, domain)
    base = euclidean_norm(2)

    def evaluator(coords, vectors):
        coords = np.asarray(coords, dtype=float)
        return np.exp(coords[..., 0]) * base(vectors)

    F = NormField(2, evaluator,
                  gradient=lambda coords, vectors:
                  np.exp(coords[..., 0])[..., None] * base.gradient(vectors))
    conn = Connection.flat(frame)
    par = translation_parallelism(domain)
    return Fixture("scaled_euclidean_incompatible", 2, domain, frame, F, conn,
                   par, {}, expects_failure={
                       "parallelism_compat": "value ratio e between (0,0) and (1,0)",
                       "holonomy_invariance": "norm scale drifts along x",
                   }, checks=(("expected_failure", {
                       "check": "compat", "ratio": float(np.e), "tol": 1e-9,
                       "pairs": [((0.0, 0.0), (1.0, 0.0))]}),))


def rescaling_connection():
    """Coordinate Christoffel Gamma^x_{xx} = 1 (others zero): transport
    along unit x-displacement rescales d/dx by 1/e."""
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    domain = Box((-5.0, -5.0), (5.0, 5.0))
    return from_coordinate_christoffels(constant_christoffels(gamma), 2, domain)


def rotated_frame(domain, max_angle=np.pi / 6.0):
    """Coordinate frame rotated by a smooth x-dependent angle; the angle
    ramps from 0 to max_angle over x in [-1, 1]."""

    def theta(x):
        return max_angle * smooth_step((x + 1.0) * 0.5)

    e1 = VectorField(2, components=lambda xs: (jcos(theta(xs[0])), jsin(theta(xs[0]))),
                     domain=domain)
    e2 = VectorField(2, components=lambda xs: (-1.0 * jsin(theta(xs[0])), jcos(theta(xs[0]))),
                     domain=domain)
    return Frame(fields=[e1, e2], domain=domain)


def rotated_blend():
    """Euclidean norm with a two-chart covering parallelism: translations
    on x < 1, a smoothly rotated frame on x > -1, blended in the overlap.
    The blended derivative stays Euclidean-compatible (its transport runs
    in O(2)) but picks up torsion from the rotation rate."""
    region = Box((-4.0, -4.0), (4.0, 4.0))
    box1 = Box((-4.5, -4.5), (1.0, 4.5))
    box2 = Box((-1.0, -4.5), (4.5, 4.5))
    chart = Box((-5.0, -5.0), (5.0, 5.0))
    par1 = translation_parallelism(box1)
    par2 = frame_parallelism(rotated_frame(chart))
    par2.domain = box2
    cover = CoveringParallelism.build([(box1, par1), (box2, par2)], region)
    conn = connection_from_covering_parallelism(cover)
    F = constant_norm_field(euclidean_norm(2))
    return Fixture("rotated_blend", 2, region, coordinate_frame(2, region), F,
                   conn, cover, {},
                   checks=(("holonomy", {"max_curves": 30}),
                           ("torsion", {"floor": 1e-6})))


_REGISTRY = {
    "section5": section5_example,
    "euclidean_flat": euclidean_flat,
    "scaled_euclidean_incompatible": scaled_euclidean_incompatible,
    "rotated_blend": rotated_blend,
}


def fixture_names():
    return sorted(_REGISTRY)


def load_fixture(name):
    if name not in _REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}")
    return _REGISTRY[name]()
