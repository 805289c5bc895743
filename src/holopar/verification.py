"""Numerical certification of the compatibility notions.

Every check returns a CheckReport, a NamedTuple: sample counts, worst
absolute and relative errors, the tolerance and a worst-case witness.
Its pass flag is derived, max_rel_error <= tolerance, so no report can
contradict it. A CurveGenerator draws each candidate's points as
lo + (hi - lo) * rng.random(size), the bits of rng.uniform(lo, hi, size),
with the bounds checked once per generation instead of on every draw.
Reports are deterministic functions of (seed, inputs) and serialize to
the CLI's JSON schema. Pointwise checks evaluate their points as one batch.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .connections import nabla_P, torsion
from .constructions import covering_from_connection, connection_from_covering_parallelism
from .errors import DomainError, PreconditionError
from .geometry import Curve, apply_matrices, check_curves, segment
from .jets import jsin, jsincos
from .norms import LIE_ALGEBRA_SAMPLES, ContinuousFamily, isometry_group_2x2, unit_sphere
from .parallelism import CoveringParallelism
from .transport import DEFAULT_STEP, transport_ensemble

REL_FLOOR = 1e-12
# CurveGenerator gives up after this many draws per requested curve
MAX_ATTEMPTS_PER_CURVE = 100
# CurveGenerator draws candidates from these families in turn; a circle
# needs two axes and a sine a direction across its chord, so a 1-D
# domain skips both
CURVE_FAMILIES = ("segment", "circle", "sine", "bezier")
DEFAULT_TS = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))
TORSION_SAMPLES = 50                      # points of the torsion obstruction
COMPALG_SAMPLES = 100                     # points of the compalg criterion


class CheckReport(NamedTuple):
    check: str
    samples: int
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    witness: dict = {}          # shared by the reports given none; never mutated
    seed: int = 0
    step: float = 0.0

    @property
    def passed(self):
        """Whether max_rel_error <= tolerance; a NaN error does not pass."""
        return bool(self.max_rel_error <= self.tolerance)

    def to_dict(self):
        return {
            "check": self.check,
            "samples": int(self.samples),
            "max_abs_error": float(self.max_abs_error),
            "max_rel_error": float(self.max_rel_error),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "witness": self.witness,
            "seed": int(self.seed),
            "step": float(self.step),
        }


class CurveGenerator:
    """Deterministic family of regular curves inside a box."""

    __slots__ = ("domain", "seed", "count")

    def __init__(self, domain, seed=42, count=100):
        self.domain = domain
        self.seed = seed
        self.count = count

    def curves(self):
        """The first `count` regular candidates inside the domain, in draw
        order; each round draws the missing number of candidates, the
        CURVE_FAMILIES in turn, and checks them in one batch."""
        families = tuple(f for f in CURVE_FAMILIES
                         if self.domain.dim >= 2 or f in ("segment", "bezier"))
        rng = np.random.default_rng(self.seed)
        bounds = _draw_bounds(self.domain.shrink(0.1))
        limit = MAX_ATTEMPTS_PER_CURVE * self.count
        out = []
        i = 0
        while len(out) < self.count:
            if i == limit:
                raise DomainError(f"only {len(out)} of {self.count} curves fit in "
                                  f"{self.domain} after {i} attempts")
            batch = [self._make(families[k % len(families)], rng, bounds)
                     for k in range(i, min(i + self.count - len(out), limit))]
            i += len(batch)
            inside, regular = check_curves(batch)
            out += [c for c, ok in zip(batch, inside & regular) if ok]
        return out

    def _make(self, family, rng, bounds):
        """One candidate of `family`, its points drawn with rng between
        the family's bounds from ``_draw_bounds``."""
        lo, side = bounds["segment"]
        n = lo.size
        if family == "segment":
            p0, p1 = _uniform(rng, bounds["segment"], (2, n))
            if np.linalg.norm(p1 - p0) < 1e-3:
                p1 = p0 + 0.1 * side
            return segment(p0, p1, domain=self.domain)
        if family == "circle":
            margin = 0.25 * bounds["min_side"]
            c = [float(v) for v in _uniform(rng, bounds["circle"], n)]
            r = float(rng.uniform(0.2, 0.95) * margin)
            th0 = float(rng.uniform(0.0, 2.0 * np.pi))
            dth = float(rng.uniform(0.5 * np.pi, 2.0 * np.pi))
            axes = rng.permutation(n)[:2]
            return Curve(circle_coords, (c, r, th0, dth),
                         key=(int(axes[0]), int(axes[1])), domain=self.domain,
                         params={"family": "circle", "center": c, "radius": r,
                                 "theta0": th0, "dtheta": dth,
                                 "axes": [int(axes[0]), int(axes[1])]})
        if family == "sine":
            p0, p1 = _uniform(rng, bounds["sine"], (2, n))
            d = p1 - p0
            if math.sqrt(_dot(d, d)) < 1e-3:
                d = 0.1 * side
            perp = rng.normal(size=n)
            perp -= _dot(perp, d) / _dot(d, d) * d
            nrm = math.sqrt(_dot(perp, perp))
            perp = perp / nrm if nrm > 1e-12 else np.zeros(n)
            amp = float(rng.uniform(0.02, 0.1) * bounds["min_side"])
            omega = float(rng.uniform(1.0, 3.0) * np.pi)
            p0l = [float(v) for v in p0]
            dl = [float(v) for v in d]
            pl = [float(v) for v in amp * perp]
            return Curve(sine_coords, (p0l, dl, pl, omega), domain=self.domain,
                         params={"family": "sine", "p0": p0l, "d": dl,
                                 "perp": pl, "omega": omega})
        if family == "bezier":
            ctrl = [[float(v) for v in row]
                    for row in _uniform(rng, bounds["bezier"], (4, n))]
            return Curve(bezier_coords, tuple(ctrl), domain=self.domain,
                         params={"family": "bezier", "ctrl": ctrl})
        raise ValueError(f"unknown curve family {family!r}")


def _draw_bounds(box):
    """Per curve family, the (lo, hi - lo) arrays between which it draws
    its points uniformly (see ``_uniform``): the draw box itself for
    segments, and the box shrunk by 0.25 (circle centers), 0.15 (sine
    ends) or 0.1 (Bezier control points) of each side; and the smallest
    side, "min_side". Computed, and a side that is not finite refused,
    once per ``curves()`` call."""
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        side = hi - lo
    if not np.all(np.isfinite(side)):
        raise DomainError(f"cannot draw curves in {box}: a side is not finite")
    out = {"segment": (lo, side), "min_side": float(np.min(side))}
    for family, margin in (("circle", 0.25), ("sine", 0.15), ("bezier", 0.1)):
        flo, fhi = lo + margin * side, hi - margin * side
        out[family] = (flo, fhi - flo)
    return out


def _dot(a, b):
    """a . b of two vectors, multiplied and added in index order by
    ``apply_matrices``, where a BLAS dot rounds as its kernel does."""
    return float(apply_matrices(a[None], b)[0])


def _uniform(rng, bounds, size):
    """Points of shape `size` uniform between the (lo, hi - lo) `bounds`:
    lo + (hi - lo) * u, the bits of rng.uniform(lo, hi, size) without its
    check of the bounds on every draw (``_draw_bounds`` checks them once)."""
    lo, span = bounds
    return lo + span * rng.random(size)


def circle_coords(t, c, r, th0, dth, a0, a1):
    """Coordinates of the arc of radius r about c in the (a0, a1) plane,
    from angle th0 through dth."""
    sin, cos = jsincos(th0 + dth * t)
    cs = [c[d] for d in range(len(c))]
    cs[a0] = c[a0] + r * cos
    cs[a1] = c[a1] + r * sin
    return cs


def sine_coords(t, p0, d, perp, omega):
    """Coordinates of p0 + d t + perp sin(omega t)."""
    s = jsin(omega * t)
    return [p0[i] + d[i] * t + perp[i] * s for i in range(len(p0))]


def bezier_coords(t, c0, c1, c2, c3):
    """Coordinates of the cubic Bezier curve with control points c0..c3,
    its Bernstein basis formed once for all coordinates."""
    u = 1.0 - t
    b0, b1, b2, b3 = u * u * u, 3.0 * u * u * t, 3.0 * u * t * t, t * t * t
    return [b0 * c0[i] + b1 * c1[i] + b2 * c2[i] + b3 * c3[i] for i in range(len(c0))]


def _resolve_curves(gen_or_curves):
    if isinstance(gen_or_curves, CurveGenerator):
        return gen_or_curves.curves(), gen_or_curves.seed
    return list(gen_or_curves), 0


def _refuse_empty(**sizes):
    """PreconditionError naming the first sample input of size 0: a check
    over no samples has no worst case."""
    for name, size in sizes.items():
        if size == 0:
            raise PreconditionError(f"nothing to check: {name} is empty")


def check_holonomy_invariance(norm_field, conn, gen, tol=1e-6, step=DEFAULT_STEP,
                              vectors=20, seed=None):
    """Max relative |F(P_c^t v) - F(v)| / max(F(v), eps) over generated
    curves, the DEFAULT_TS t-samples and random unit vectors."""
    curves, gseed = _resolve_curves(gen)
    seed = gseed if seed is None else seed
    _refuse_empty(curves=len(curves), vectors=vectors)
    ts = np.asarray(DEFAULT_TS)
    transported = transport_ensemble(conn, curves, ts, step=step)
    return _invariance_report(norm_field, curves, ts, *transported, tol=tol,
                              step=step, vectors=vectors, seed=seed)


def _invariance_report(norm_field, curves, ts, phis, pos0, pos_s, tol, step,
                       vectors=20, seed=0):
    """The norm comparison of check_holonomy_invariance on transports
    phis (m, T, n, n) from pos0 (m, n) to pos_s (m, T, n)."""
    n = phis.shape[-1]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(len(curves), vectors, n))
    v /= np.linalg.norm(v, axis=2, keepdims=True)

    f0 = norm_field(pos0[:, None, :], v)                              # (m, V)
    pv = apply_matrices(phis[:, :, None], v[:, None])                 # (m, T, V, n)
    ft = norm_field(pos_s[:, :, None, :], pv)
    abs_err = np.abs(ft - f0[:, None, :])
    rel_err = abs_err / np.maximum(np.abs(f0[:, None, :]), REL_FLOOR)
    worst = np.unravel_index(np.argmax(rel_err), rel_err.shape)
    ci, tig, vi = worst
    witness = {
        "curve": curves[ci].params,
        "t": float(ts[tig]),
        "vector": v[ci, vi].tolist(),
        "F_before": float(f0[ci, vi]),
        "F_after": float(ft[ci, tig, vi]),
        "value_ratio": float(ft[ci, tig, vi] / f0[ci, vi]),
    }
    samples = int(rel_err.size)
    return CheckReport("holonomy_invariance", samples, float(np.max(abs_err)),
                       float(np.max(rel_err)), tol, witness, seed, step)


def check_parallelism_compat(norm_field, parallelism, pairs=200, vectors=20,
                             tol=1e-9, seed=42, name="parallelism_compat"):
    """F_q(P(p,q) v) must equal F_p(v) on sampled point pairs.

    `pairs` is a count (sampled in the parallelism's domain) or an
    explicit list of (p_coords, q_coords) pairs.
    """
    n = parallelism.dim
    if isinstance(pairs, int):
        rng = np.random.default_rng(seed)
        ps = parallelism.domain.sample(rng, pairs, margin=0.05)
        qs = parallelism.domain.sample(rng, pairs, margin=0.05)
    else:
        ps = np.asarray([p for p, _ in pairs], dtype=float)
        qs = np.asarray([q for _, q in pairs], dtype=float)
    count = ps.shape[0]
    _refuse_empty(pairs=count, vectors=vectors)
    v = unit_sphere(n, vectors)

    mats = parallelism.transfer(ps, qs)                               # (m, n, n)
    pv = apply_matrices(mats[:, None], v)                             # (m, V, n)
    fp = norm_field(ps[:, None, :], np.broadcast_to(v, pv.shape))
    fq = norm_field(qs[:, None, :], pv)
    abs_err = np.abs(fq - fp)
    rel_err = abs_err / np.maximum(np.abs(fp), REL_FLOOR)
    mi, vi = np.unravel_index(np.argmax(rel_err), rel_err.shape)
    witness = {
        "p": ps[mi].tolist(),
        "q": qs[mi].tolist(),
        "vector": v[vi].tolist(),
        "F_p": float(fp[mi, vi]),
        "F_q": float(fq[mi, vi]),
        "value_ratio": float(fq[mi, vi] / fp[mi, vi]),
    }
    return CheckReport(name, int(rel_err.size), float(np.max(abs_err)),
                       float(np.max(rel_err)), tol, witness, seed)


def check_compalg_criterion(norm_field, parallelism, conn, tol=1e-8, seed=42):
    """Infinitesimal criterion: (nabla P)_v lies in the Lie algebra of iso(F_p),
    i.e. max |grad_v F(p, u) . (nabla P)_v u| over the unit-sphere grid of
    `lie_algebra_member` vanishes at COMPALG_SAMPLES seeded points; the
    witness is the first worst sample. A norm whose gradient is not
    finite on that grid (a kink) is refused."""
    n = parallelism.dim
    rng = np.random.default_rng(seed)
    pts = parallelism.domain.sample(rng, COMPALG_SAMPLES, margin=0.05)
    comps = rng.normal(size=(COMPALG_SAMPLES, n))
    endo = nabla_P(conn, parallelism, pts, comps)              # (m, n, n)
    u = unit_sphere(n, LIE_ALGEBRA_SAMPLES)
    grad = norm_field.gradient(pts[:, None, :], np.broadcast_to(u, (COMPALG_SAMPLES, len(u), n)))
    if not np.all(np.isfinite(grad)):
        raise PreconditionError("compalg needs a norm gradient that is finite on its sample grid")
    flow = apply_matrices(endo[:, None], u)                          # (m, U, n)
    viol = np.max(np.abs(np.einsum("msi,msi->ms", grad, flow)), axis=1)
    k = int(np.argmax(viol))
    worst = float(viol[k])
    witness = {"p": pts[k].tolist(), "v": comps[k].tolist(),
               "endomorphism": endo[k].tolist(), "violation": worst}
    return CheckReport("compalg_criterion", COMPALG_SAMPLES, worst, worst, tol, witness, seed)


def berwald_obstruction(conn, domain, seed=42):
    """Max coordinate sup-norm of the torsion over sampled points and
    frame field pairs; zero for (locally) Berwald-compatible derivatives."""
    return float(np.max(np.abs(torsion_samples(conn, domain, seed)[1]), initial=0.0))


def torsion_samples(conn, domain, seed=42):
    """TORSION_SAMPLES seeded points (m, n) and torsion components (m,
    pairs, n) of T(E_i, E_j) for each frame field pair i < j, in
    lexicographic order: the frame matrix E is evaluated once, and each
    pair passes its columns."""
    rng = np.random.default_rng(seed)
    pts = domain.sample(rng, TORSION_SAMPLES, margin=0.05)
    E = conn.frame.matrix_batch(pts)
    pairs = list(combinations(range(conn.dim), 2))
    T = np.empty((TORSION_SAMPLES, len(pairs), conn.dim))
    for k, (i, j) in enumerate(pairs):
        T[:, k] = torsion(conn, E[:, :, i], E[:, :, j], pts)
    return pts, T


def check_uniqueness(norm_field, conn1, conn2, gen, tol=1e-6, step=DEFAULT_STEP):
    """Entrywise agreement of the two induced parallel translations at
    the DEFAULT_TS t-samples.

    Preconditions (refused loudly, never silently skipped): the isometry
    group of F at a sample point is discrete (checked first, as it needs
    no integration; the oracle takes n = 2), and both connections are
    individually holonomy invariant for F.
    """
    curves, seed = _resolve_curves(gen)
    _refuse_empty(curves=len(curves))
    ts = np.asarray(DEFAULT_TS)
    if isinstance(isometry_group_2x2(norm_field.at(curves[0].point(0.0))),
                  ContinuousFamily):
        raise PreconditionError(
            "uniqueness is not applicable: iso(F_p) is a continuous family")
    phis = []
    for tag, conn in (("conn1", conn1), ("conn2", conn2)):
        transported = transport_ensemble(conn, curves, ts, step=step)
        rep = _invariance_report(norm_field, curves, ts, *transported, tol=tol,
                                 step=step, seed=seed)
        if not rep.passed:
            raise PreconditionError(
                f"{tag} is not holonomy invariant for F "
                f"(max rel err {rep.max_rel_error:.3e})")
        phis.append(transported[0])

    diff = np.abs(phis[0] - phis[1])
    ci, tig = np.unravel_index(np.argmax(diff), diff.shape)[:2]
    witness = {"curve": curves[ci].params, "t": float(ts[tig])}
    worst = float(np.max(diff))
    return CheckReport("uniqueness", int(diff.size), worst, worst, tol, witness, seed, step)


class VerdictResult(NamedTuple):
    verdict: str
    reports: tuple
    torsion_obstruction: float
    note: str


def generalized_berwald_verdict(norm_field, structure, domain=None,
                                tol=1e-6, step=DEFAULT_STEP, seed=42,
                                curves=30, compat_pairs=100):
    """Certify (or refuse to certify) the generalized Berwald property.

    Given a covering parallelism: member compatibility checks, then the
    synthesized connection's holonomy invariance. Given a connection:
    holonomy invariance, then per-region radial parallelisms and their
    compatibility checks (the connection-to-parallelism direction).
    """
    def compat(cover, tag):
        return [check_parallelism_compat(norm_field, par, pairs=compat_pairs, tol=tol,
                                         seed=seed + idx, name=f"{tag}_{idx}_compat")
                for idx, (box, par) in enumerate(cover.members)]

    from_cover = isinstance(structure, CoveringParallelism)
    if from_cover:
        domain = domain or structure.region
        reports = compat(structure, "member")
        conn = connection_from_covering_parallelism(structure)
    elif domain is None:
        raise ValueError("a domain box is required with a connection input")
    else:
        conn, reports = structure, []
    gen = CurveGenerator(domain.shrink(0.05), seed=seed, count=curves)
    reports.append(check_holonomy_invariance(norm_field, conn, gen, tol=tol, step=step))
    if not from_cover:
        reports += compat(covering_from_connection(conn, domain, step=step), "region")

    obstruction = berwald_obstruction(conn, domain, seed=seed)
    all_pass = all(r.passed for r in reports)
    verdict = "generalized Berwald (certified)" if all_pass else "not certified"
    if all_pass:
        note = ("not Berwald for this derivative (non-vanishing torsion)"
                if obstruction > 1e-9 else "torsion-free within tolerance")
    else:
        note = "compatibility failed; see reports"
    return VerdictResult(verdict, tuple(reports), obstruction, note)
