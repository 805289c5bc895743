"""holopar benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload round_trip --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process runs one workload, single-threaded (BLAS and OpenMP pinned to
one thread before numpy loads), one caller issuing operations back to
back. ``--workload all`` runs each workload in its own process, one after
another, and prints a table of every metric.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` the metrics are the per-layer ones. The line
before it is the detail: quartiles, per-operation medians, failed_frac,
the unscaled times and speed-probe times, and the environment. A wrong verdict, an exception, or report bytes that
differ between passes (or between traced and untraced passes) make the
result incorrect and the exit code 1.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# numpy and scipy load before any timing: set-up time is holopar's own
import numpy
import scipy
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOLOPAR_MODULES = ("cli", "connections", "constructions", "fixtures", "geometry",
                   "norms", "parallelism", "report", "transport", "verification")
MIN_PASSES = 2
MARGIN_CAP = 16.0        # decades credited to a check whose error is exactly 0
SPAN_DIR = ROOT / ".bench_spans"
# The host's speed swings by up to 1.7x within seconds and drifts over
# minutes (other tenants share its cores). A speed probe runs before each
# set-up and after every operation, and the run's set-up and pass times
# are rescaled by REF_PROBE_S / (median probe time): they read as on a
# host where the probe takes REF_PROBE_S, a round figure near its time on
# the 2-vCPU Xeon VM of the baseline. The raw times are in the detail line.
PROBE_EINSUMS = 150
PROBE_LOOP = 50_000
PROBE_WARMUP = 5
REF_PROBE_S = 0.01

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("curves_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("accuracy_margin_dec", "dec"))


def load_holopar():
    """Import holopar afresh, dropping any earlier import of it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "holopar" or m.startswith("holopar.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"holopar.{m}")
                              for m in HOLOPAR_MODULES})


def setup(workload, seed, small):
    """Import holopar and build the workload's inputs: (modules, ops, seconds)."""
    t0 = time.perf_counter()
    hp = load_holopar()
    ops = WORKLOADS[workload](hp, seed, small)
    return hp, ops, time.perf_counter() - t0


_PROBE_RNG = numpy.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((500, 2, 2, 2))
_PROBE_B = _PROBE_RNG.standard_normal((500, 2))


def speed_probe():
    """Seconds that a fixed mix of small-array numpy calls and interpreted
    Python takes now: the yardstick of the host's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(PROBE_EINSUMS):
        acc += float(numpy.einsum("pkij,pj->pki", _PROBE_A, _PROBE_B).sum())
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


def run_pass(ops):
    """Run every operation once, with a speed probe after each.

    Returns (wall seconds of the operations, [probe seconds],
    [(op, result, error, s)]).
    """
    results = []
    probes = []
    wall = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:          # a raising operation is a failed one
            out, err = None, traceback.format_exc()
        dt = time.perf_counter() - start
        wall += dt
        results.append((op, out, err, dt))
        probes.append(speed_probe())
    return wall, probes, results


def evaluate(results, reference):
    """Outcomes of one pass; ``reference`` maps op name -> bytes of the
    first pass, which every later pass must reproduce."""
    outcomes = []
    for op, out, err, _ in results:
        if err is None:
            try:
                outcome = op.check(out)
            except (AssertionError, KeyError, TypeError, ValueError) as exc:
                outcome = Outcome(False, why=f"{type(exc).__name__}: {exc}")
        else:
            outcome = Outcome(False, why=err.strip().splitlines()[-1])
        if outcome.ok:
            ref = reference.setdefault(op.name, outcome.text)
            if ref != outcome.text:
                outcome = Outcome(False, why="report bytes differ from the first pass")
        outcomes.append((op.name, outcome))
    return outcomes


def accuracy_margin(outcomes):
    """min over checks of log10(tol / max_rel_error), capped at MARGIN_CAP."""
    margins = []
    for _, outcome in outcomes:
        for rel, tol in outcome.checks:
            if isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0:
                margins.append(math.log10(tol / max(rel, tol * 10.0 ** -MARGIN_CAP)))
    return min(margins) if margins else MARGIN_CAP


def tail_stats(values):
    """Median, quartiles and, from eleven samples on, the highest
    percentile with at least ten samples beyond it."""
    n = len(values)
    q = statistics.quantiles(values, n=4, method="inclusive") if n > 1 else [values[0]] * 3
    stats = {"samples": n, "median": statistics.median(values), "p25": q[0], "p75": q[2]}
    if n > 10:
        k = n - 11                 # index of the highest value with ten above it
        stats["tail"] = {"percentile": 100.0 * (k + 1) / n, "value": sorted(values)[k]}
    return stats


def measure(workload, seed, seconds, trace, small=False):
    """Run one workload; returns (detail dict, result dict).

    Untraced, every pass runs on a fresh set-up, so that the set-up
    samples spread over the run as the passes do. Traced, one traced
    set-up serves every pass: callables built with the inputs (a blended
    fixture's gamma, partition weights) must carry spans.
    """
    tracer = None
    setup_spans = []
    if trace:
        hp, ops, _ = setup(workload, seed, small)
        tracer = Tracer()
        tracer.install(hp)
        ops = WORKLOADS[workload](hp, seed, small)
        tracer.uninstall()
        setup_spans = tracer.spans

    reference, op_times, failures = {}, {}, []
    raw_walls, raw_setups, probes = [], [], []
    traced_walls, pass_spans = [], []
    passes = attempted = failed = 0
    outcomes_all = []
    for _ in range(PROBE_WARMUP):
        speed_probe()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        probes.append(speed_probe())
        if not trace:
            hp, ops, dt = setup(workload, seed, small)
            raw_setups.append(dt)
        traced = trace and passes % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install(hp)
        wall, pass_probes, results = run_pass(ops)
        probes.extend(pass_probes)
        if traced:
            tracer.uninstall()
            pass_spans.append(tracer.spans)
            traced_walls.append(wall)
        else:
            raw_walls.append(wall)
        passes += 1
        outcomes = evaluate(results, reference)
        outcomes_all.extend(outcomes)
        for (name, outcome), (_, _, _, op_s) in zip(outcomes, results):
            op_times.setdefault(name, []).append(op_s)
            attempted += 1
            if not outcome.ok:
                failed += 1
                failures.append(f"pass {passes} {name}: {outcome.why}")
        now = time.perf_counter()
        if passes >= MIN_PASSES and (now - start) + (now - cycle_start) > seconds:
            break

    curves = sum(op.curves for op in ops)
    scale = REF_PROBE_S / statistics.median(probes)
    walls = [w * scale for w in raw_walls]
    setups = [s * scale for s in raw_setups]
    wall_med = statistics.median(walls)
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        with open(SPAN_DIR / f"{workload}-seed{seed}.jsonl", "w") as fh:
            for s in setup_spans + pass_spans[-1]:
                fh.write(json.dumps(s._asdict()) + "\n")
        layer = layer_metrics(pass_spans, setup_spans, traced_walls, raw_walls)
        units = dict(LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_med,
            "curves_per_s": curves / wall_med,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_margin_dec": accuracy_margin(outcomes_all),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "curves_per_pass": curves,
        "setup_s_samples": setups,
        "wall_s": tail_stats(walls),
        "wall_s_samples": walls,
        "raw": {"setup_s_samples": raw_setups, "wall_s": tail_stats(raw_walls),
                "wall_s_samples": raw_walls,
                "probe_s": tail_stats(probes), "ref_probe_s": REF_PROBE_S,
                "scale": scale},
        "op_median_s": {k: statistics.median(v) for k, v in op_times.items()},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures[:10],
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }
    if trace:
        detail["traced_wall_s_samples"] = traced_walls
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def run_all(args):
    """Each workload in its own process, one after another."""
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            ok = False
            sys.stderr.write(proc.stderr)
            if len(lines) < 2:
                continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(lines[-2])
        print(lines[-1])
        metrics = dict(result["metrics"])
        metrics["failed_frac"] = detail["failed_frac"]
        rows += [(name, k, m["value"], m["unit"]) for k, m in metrics.items()]
    for row in rows:
        print(f"{row[0]:<18} {row[1]:<48} {row[2]:>14.6g} {row[3]}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holopar" / "__init__.py").is_file():
        print(f"holopar sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in detail["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
