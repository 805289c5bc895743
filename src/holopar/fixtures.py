"""Built-in manifolds as data: the two-dimensional Randers example that is
generalized Berwald but not Berwald, plus control cases for the
property suites.

A fixture is a spec dictionary in ``SPECS``: its ``manifold`` (the
grammar of ``check --config``, see README) plus its ``verify`` suite and
summary, by names in the CLI's check table, and its expected-value
table (key -> [value, tol, provenance]). ``build_fixture`` is the one
builder of every spec, and ``Fixture.validate()`` re-derives each
expected entry at its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import Connection, torsion
from .constructions import connection_from_covering_parallelism
from .errors import ConfigError
from .exprs import parse_exprs
from .geometry import Box, Frame, VectorField, coordinate_frame, dual_coframe, point, segment
from .jets import as_jet, seed_jets
from .norms import (MinkowskiNorm, NormField, RandersData, constant_norm_field,
                    one_form_norm_field, randers_norm)
from .parallelism import CoveringParallelism, frame_parallelism
from .transport import parallel_transport

COORD_NAMES = ("x", "y", "z")
NORM_VARS = ("a", "b", "c")

# the rotation angle of rotated_blend's second member: 0 to pi/6 over x in [-1, 1]
_TURN = "0.5235987755982988*smooth_step((x+1)*0.5)"

SPECS = {
    # the proper generalized Berwald surface: a Randers norm read through the
    # coframe (dy, -dx + x dy) of E_1 = x d/dx + d/dy, E_2 = -d/dx
    "section5": {
        "manifold": {
            "domain": [[-5.0, 5.0], [-5.0, 5.0]],
            "frame": [["x", "1"], ["-1", "0"]],
            "norm": {"type": "randers", "Q": [[4.0, 0.0], [0.0, 12.0]], "beta": [-1.0, 0.0]},
        },
        "checks": [["expected_torsion", {}], ["holonomy", {}], ["compat", {"tol": 1e-9}],
                   ["isometry_group", {"group": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]}],
                   ["transport_oracle", {}], ["pushdown", {}], ["compalg", {"tol": 1e-8}]],
        "summary": ["torsion_max", "isometry_count", "invariance_max_rel"],
        "expected": {
            "torsion_E1_E2": [[-1.0, 0.0], 1e-9, "analytic"],
            "transport_00_to_10": [[[1.0, 1.0], [0.0, 1.0]], 1e-7, "derived"],
            "coordinate_christoffels": [[[[0, -1], [0, 0]], [[0, 0], [0, 0]]], 1e-9, "derived"],
            "norm_values": [[1.0, 1.0], 1e-12, "derived"],
        },
    },
    # Euclidean norm, coordinate frame, flat connection: everything passes
    "euclidean_flat": {
        "manifold": {
            "domain": [[-5.0, 5.0], [-5.0, 5.0]],
            "frame": [["1", "0"], ["0", "1"]],
            "norm": {"type": "custom", "expr": "sqrt(a^2+b^2)"},
        },
        "checks": [["holonomy", {"max_curves": 30}], ["compat", {"tol": 1e-9}]],
        "expected": {"coordinate_christoffels": [0.0, 1e-12, "trivial"]},
    },
    # e^x-scaled Euclidean field: compat fails with value ratio e from x=0 to x=1
    "scaled_euclidean_incompatible": {
        "manifold": {
            "domain": [[-3.0, 3.0], [-3.0, 3.0]],
            "frame": [["1", "0"], ["0", "1"]],
            "norm": {"type": "custom", "expr": "exp(x)*sqrt(a^2+b^2)"},
        },
        "checks": [["expected_failure", {"check": "compat", "ratio": 2.718281828459045,
                                         "tol": 1e-9, "pairs": [[[0.0, 0.0], [1.0, 0.0]]]}]],
    },
    # translations on x < 1 and a rotating frame on x > -1, blended: the
    # derivative preserves the Euclidean norm but has torsion
    "rotated_blend": {
        "manifold": {
            "domain": [[-4.0, 4.0], [-4.0, 4.0]],
            "frame": [["1", "0"], ["0", "1"]],
            "norm": {"type": "custom", "expr": "sqrt(a^2+b^2)"},
            "cover": [
                {"domain": [[-4.5, 1.0], [-4.5, 4.5]], "frame": "translation"},
                {"domain": [[-1.0, 4.5], [-4.5, 4.5]],
                 "frame": [[f"cos({_TURN})", f"sin({_TURN})"],
                           [f"-sin({_TURN})", f"cos({_TURN})"]]},
            ],
        },
        "checks": [["holonomy", {"max_curves": 30}], ["torsion", {"floor": 1e-6}]],
    },
}


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


# ---------------------------------------------------------------- builder

def require_keys(obj, allowed, required, what):
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {what}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {what}")


def build_box(spec):
    """The Box of [[lo, hi], ...], refusing a bound that is not finite."""
    try:
        lo, hi = zip(*((float(a), float(b)) for a, b in spec))
    except (TypeError, ValueError, OverflowError) as exc:      # Overflow: an int past 1e308
        raise ConfigError(f"bad domain box {spec!r}") from exc
    for bound in lo + hi:
        if not np.isfinite(bound):
            raise ConfigError(f"box bound {bound} is not finite in {spec!r}")
    try:
        return Box(lo, hi)
    except ValueError as exc:
        raise ConfigError(f"bad domain box {spec!r}") from exc


def build_frame(spec, domain):
    """n fields of n expressions in x, y, z, each field's components
    evaluated in one pass; the identity ("1" and "0") is ``coordinate_frame``."""
    n = len(spec) if isinstance(spec, list) else 0
    if (not 1 <= n <= len(COORD_NAMES) or (domain is not None and domain.dim != n)
            or any(not isinstance(col, list) or len(col) != n for col in spec)):
        raise ConfigError(f"frame must be n fields of n expressions on an n-D domain, "
                          f"not {spec!r}")
    if spec == [["1" if i == k else "0" for i in range(n)] for k in range(n)]:
        return coordinate_frame(n, domain)
    fns = [parse_exprs(col, COORD_NAMES[:n]) for col in spec]
    return Frame(fields=[VectorField(n, components=lambda xs, fn=fn: fn(*xs), domain=domain)
                         for fn in fns], domain=domain)


def build_norm(spec, dim=2, coordinates=False):
    """A Minkowski norm: Randers data, or a custom expression in the
    components a, b, c of `dim` (or "dimension") variables, with its exact
    gradient through jets. With `coordinates`, a custom expression may also
    name x, y, z; one that does is a NormField."""
    require_keys(spec, ("type", "Q", "beta", "expr", "dimension"), ("type",), "norm spec")
    if spec["type"] == "randers":
        require_keys(spec, ("type", "Q", "beta"), ("Q", "beta"), "randers norm")
        try:
            Q, beta = (np.asarray(spec[key], dtype=float) for key in ("Q", "beta"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad randers data: {exc}") from exc
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or beta.shape != Q.shape[:1]:
            raise ConfigError(f"randers norm needs an n x n Q and n entries of beta, "
                              f"not shapes {Q.shape} and {beta.shape}")
        return randers_norm(RandersData(Q, beta))
    if spec["type"] != "custom":
        raise ConfigError(f"unknown norm type {spec['type']!r}")
    require_keys(spec, ("type", "expr", "dimension"), ("expr",), "custom norm")
    n = spec.get("dimension", dim)
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= len(NORM_VARS):
        raise ConfigError(f"custom norm dimension must be 1, 2 or 3, not {n!r}")
    k = n if coordinates else 0                 # coordinates the expression may name
    fn = parse_exprs([spec["expr"]], COORD_NAMES[:k] + NORM_VARS[:n])
    field = bool(fn.names & set(COORD_NAMES))

    def value(coords, vectors, seed):
        v = np.asarray(vectors, dtype=float)
        x = [np.asarray(coords, dtype=float)[..., d] if field else None for d in range(k)]
        comps = [v[..., d] for d in range(n)]
        return v, fn(*x, *(seed_jets(comps) if seed else comps))[0]

    def evaluator(coords, vectors):
        return np.asarray(value(coords, vectors, False)[1], dtype=float)

    def gradient(coords, vectors):
        # a kink (sqrt of 0) gives a non-finite partial, which
        # isometry_algebra refuses; no warning is raised for it here
        with np.errstate(divide="ignore", invalid="ignore"):
            v, jet = value(coords, vectors, True)
        return np.stack([p + np.zeros(v.shape[:-1]) for p in as_jet(jet, n).partials], axis=-1)

    if field:
        return NormField(n, evaluator, gradient)
    return MinkowskiNorm(n, lambda v: evaluator(None, v),
                         gradient=lambda v: gradient(None, v)).check_definite()


def build_cover(members, region):
    """The covering parallelism of `region` by members {"domain", "frame"},
    each frame "translation" or a frame spec on the member's box."""
    if not isinstance(members, list):
        raise ConfigError(f"cover members must be a list, not {members!r}")
    pars = []
    for idx, m in enumerate(members):
        require_keys(m, ("domain", "frame"), ("domain", "frame"), f"member {idx}")
        box = build_box(m["domain"])
        if box.dim != region.dim:
            raise ConfigError(f"member {idx} is {box.dim}-D in a {region.dim}-D region")
        frame = (coordinate_frame(box.dim, box) if m["frame"] == "translation"
                 else build_frame(m["frame"], box))
        pars.append((box, frame_parallelism(frame)))
    return CoveringParallelism.build(pars, region)


def build_fixture(spec, name="inline"):
    """The validated fixture of a spec: its manifold's domain, frame, norm
    field, connection (the cover's blend, or the one that kills the frame)
    and parallelism, with the spec's suite and expected table."""
    require_keys(spec, ("manifold", "checks", "summary", "expected"), ("manifold",),
                 f"fixture {name}")
    m = spec["manifold"]
    require_keys(m, ("domain", "frame", "norm", "norm_via", "cover", "seed", "step", "tolerance",
                     "curves", "vectors"), ("domain", "frame", "norm"), "manifold spec")
    domain = build_box(m["domain"])
    frame = build_frame(m["frame"], domain)
    samples = domain.sample(np.random.default_rng(0), 50, margin=0.05)
    frame.check_invertible(samples)
    norm = build_norm(m["norm"], domain.dim, coordinates=True)
    if norm.dim != domain.dim:
        raise ConfigError(f"{norm.dim}-D norm on a {domain.dim}-D domain")
    via = m.get("norm_via", "coframe")
    if via not in ("coframe", "constant"):
        raise ConfigError(f"norm_via must be 'coframe' or 'constant', not {via!r}")
    if isinstance(norm, NormField):
        if via == "coframe" and not frame.coordinate:
            raise ConfigError("a norm that names coordinates is read in coordinate "
                              "components: norm_via 'constant' or the identity frame")
        for p in samples[:5]:
            norm.at(p).check_definite()
        F = norm
    elif via == "constant" or frame.coordinate:    # there frame components are coordinates
        F = constant_norm_field(norm)
    else:
        F = one_form_norm_field(dual_coframe(frame), norm)
    if "cover" in m:
        par = build_cover(m["cover"], domain)
        conn = connection_from_covering_parallelism(par)
    else:
        conn, par = Connection.flat(frame), frame_parallelism(frame)
    return Fixture(name, domain.dim, domain, frame, F, conn, par,
                   {key: Expected(*e) for key, e in spec.get("expected", {}).items()},
                   minkowski_norm=None if via != "coframe" or isinstance(norm, NormField) else norm,
                   checks=tuple((c, dict(o)) for c, o in spec.get("checks", ())),
                   summary=tuple(spec.get("summary", ()))).validate()


def fixture_names():
    return sorted(SPECS)


def load_fixture(name):
    if name not in SPECS:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}")
    return build_fixture(SPECS[name], name)
