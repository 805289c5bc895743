"""Built-in manifolds as data: the two-dimensional Randers example that is
generalized Berwald but not Berwald, plus control cases for the
property suites.

A fixture is a spec dictionary in ``SPECS``: its ``manifold`` (the
grammar of ``check --config``, see README) plus its ``verify`` suite and
summary, by names in the CLI's check table, and its expected-value table
(key -> [value, tol, provenance]). ``build_fixture`` is the one builder
of every spec and integrates nothing; ``build_frame`` checks every
frame, a cover member's too, and ``build_norm`` every norm. The suite's
checks read the expected entries (``expected_torsion``,
``transport_oracle``); the tests re-derive the others. An entry is an
``Expected`` NamedTuple; a ``Fixture`` stays a dataclass, for
``dataclasses.replace``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connections import Connection
from .constructions import connection_from_covering_parallelism
from .errors import ConfigError
from .exprs import parse_exprs
from .geometry import DET_FLOOR, Box, Frame, coordinate_frame
from .norms import (MinkowskiNorm, NormField, RandersData, constant_norm_field,
                    one_form_norm_field, randers_norm)
from .parallelism import CoveringParallelism, frame_parallelism

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


class Expected(NamedTuple):
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
    minkowski_norm: object = None        # norm in frame components, unless a field
    checks: tuple = ()                   # verify suite: (check name, overrides)
    summary: tuple = ()                  # names of the verify summary values


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
    """The Box of [[lo, hi], ...], refusing a bound that is not a finite
    number (a string or a bool is not converted) and a side hi - lo that
    overflows, which no box can sample or shrink."""
    try:
        lo, hi = zip(*((a, b) for a, b in spec))
        bad = [bound for bound in lo + hi if not is_finite_number(bound)]
        if bad:
            raise ConfigError(f"box bound {bad[0]!r} is not a finite number in {spec!r}")
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        if not all(b - a < np.inf for a, b in zip(lo, hi)):
            raise ConfigError(f"box {spec!r} has a side that overflows a float")
        return Box(lo, hi)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain box {spec!r}") from exc


def is_finite_number(x):
    """A JSON number, not a bool, that is finite: abs(nan) <= max is
    False, and an int past the float range is refused, not overflowed."""
    return not isinstance(x, bool) and isinstance(x, (int, float)) and abs(x) <= sys.float_info.max


def spec_samples(domain, count=50):
    """The seeded points at which spec frames and norm fields are checked."""
    return domain.sample(np.random.default_rng(0), count, margin=0.05)


def build_frame(spec, domain):
    """n fields of n expressions in x, y, z, the whole matrix compiled by
    one ``parse_exprs`` call, so one pass evaluates a subexpression the
    fields share once; the identity ("1" and "0") is ``coordinate_frame``.
    On a box, one singular at or between ``spec_samples`` is refused."""
    n = len(spec) if isinstance(spec, list) else 0
    if (not 1 <= n <= len(COORD_NAMES) or (domain is not None and domain.dim != n)
            or any(not isinstance(col, list) or len(col) != n for col in spec)):
        raise ConfigError(f"frame must be n fields of n expressions on an n-D domain, "
                          f"not {spec!r}")
    if spec == [["1" if i == k else "0" for i in range(n)] for k in range(n)]:
        return coordinate_frame(n, domain)
    fn = parse_exprs([col[a] for a in range(n) for col in spec], COORD_NAMES[:n])
    frame = Frame(entries=lambda xs: fn(*xs), dim=n, domain=domain)
    if domain is not None:
        pts = spec_samples(domain)
        with np.errstate(all="ignore"):          # a NaN det is refused, not warned about
            det = np.linalg.det(frame.matrix_batch(pts))
        fine = np.abs(det) > DET_FLOOR
        if not fine.all() or (np.any(det < 0) and np.any(det > 0)):
            at = [np.argmin(fine)] if not fine.all() else [np.argmax(det < 0), np.argmax(det > 0)]
            raise ConfigError(f"frame {spec!r} is singular on its box: its det is " + " and ".join(
                f"{det[k]:.3g} at the sampled point {pts[k].round(6).tolist()}" for k in at))
    return frame


def norm_dimension(spec, domain=None):
    """A norm spec's dimension, read before its norm is built and refused
    unless it is the domain's: n for Randers Q (n, n), or "dimension"."""
    require_keys(spec, ("type", "Q", "beta", "expr", "dimension"), ("type",), "norm spec")
    if spec["type"] == "randers":
        require_keys(spec, ("type", "Q", "beta"), ("Q", "beta"), "randers norm")
        for key in ("Q", "beta"):
            # a ragged list leaves a list as an entry, which is refused too
            bad = [x for x in np.ravel(np.asarray(spec[key], dtype=object))
                   if not is_finite_number(x)]
            if bad:
                raise ConfigError(f"randers {key} entries must be finite numbers, not {bad[0]!r}")
        Q, beta = (np.asarray(spec[key], dtype=float) for key in ("Q", "beta"))
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or beta.shape != Q.shape[:1]:
            raise ConfigError(f"randers norm needs an n x n Q and n entries of beta, "
                              f"not shapes {Q.shape} and {beta.shape}")
        n = len(Q)
    elif spec["type"] == "custom":
        require_keys(spec, ("type", "expr", "dimension"), ("expr",), "custom norm")
        n = spec.get("dimension", 2 if domain is None else domain.dim)
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= len(NORM_VARS):
            raise ConfigError(f"custom norm dimension must be 1, 2 or 3, not {n!r}")
    else:
        raise ConfigError(f"unknown norm type {spec['type']!r}")
    if domain is not None and n != domain.dim:
        raise ConfigError(f"{n}-D norm on a {domain.dim}-D domain")
    return n


def build_norm(spec, domain=None):
    """A definite Minkowski norm: Randers data, or a custom expression in
    the components a, b, c of "dimension" variables (the domain's, or 2),
    on jets as on arrays. On a `domain` it may also name the coordinates
    x, y, z: then it is a NormField, definite at the first 5 ``spec_samples``,
    after its ``norm_dimension`` is read."""
    n = norm_dimension(spec, domain)
    if spec["type"] == "randers":
        return randers_norm(RandersData(spec["Q"], spec["beta"]))
    k = 0 if domain is None else domain.dim     # coordinates the expression may name
    fn = parse_exprs([spec["expr"]], COORD_NAMES[:k] + NORM_VARS[:n])
    field = bool(fn.names & set(COORD_NAMES))

    def evaluator(coords, vectors):
        x = [coords[..., d] if field else None for d in range(k)]
        return fn(*x, *(vectors[..., d] for d in range(n)))[0]

    if not field:
        return MinkowskiNorm(n, lambda v: evaluator(None, v)).check_definite()
    F = NormField(n, evaluator)
    for p in spec_samples(domain, 5):
        F.at(p).check_definite()
    return F


def build_cover(members, region):
    """The covering parallelism of `region` by members {"domain", "frame"},
    each frame "translation" or a frame spec on the member's box."""
    if not isinstance(members, list) or not members:
        raise ConfigError(f"cover members must be a non-empty list, not {members!r}")
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
    """The fixture of a spec: its manifold's domain, frame, norm field,
    connection (the cover's blend, or the one that kills the frame) and
    parallelism, with the spec's suite and expected table, assembled from
    ``build_box``, ``build_frame``, ``build_norm`` and ``build_cover``,
    which check what they build; no expected entry is re-derived here."""
    require_keys(spec, ("manifold", "checks", "summary", "expected"), ("manifold",),
                 f"fixture {name}")
    m = spec["manifold"]
    require_keys(m, ("domain", "frame", "norm", "cover", "seed", "step", "tolerance",
                     "curves", "vectors"), ("domain", "frame", "norm"), "manifold spec")
    domain = build_box(m["domain"])
    frame = build_frame(m["frame"], domain)
    norm = build_norm(m["norm"], domain)
    if isinstance(norm, NormField) and not frame.coordinate:
        raise ConfigError("a norm that names coordinates is read in coordinate "
                          "components: it needs the identity frame")
    F = (norm if isinstance(norm, NormField) else one_form_norm_field(frame, norm)
         if not frame.coordinate else constant_norm_field(norm))   # components are coordinates
    if "cover" in m:
        par = build_cover(m["cover"], domain)
        conn = connection_from_covering_parallelism(par)
    else:
        conn, par = Connection.flat(frame), frame_parallelism(frame)
    return Fixture(name, domain.dim, domain, frame, F, conn, par,
                   {key: Expected(*e) for key, e in spec.get("expected", {}).items()},
                   minkowski_norm=None if isinstance(norm, NormField) else norm,
                   checks=tuple((c, dict(o)) for c, o in spec.get("checks", ())),
                   summary=tuple(spec.get("summary", ())))


def fixture_names():
    return sorted(SPECS)


def load_fixture(name):
    if name not in SPECS:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}")
    return build_fixture(SPECS[name], name)
