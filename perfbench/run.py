"""zonoridge benchmark: seeded closed-loop workloads against the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload features --seed 1 --seconds 38 --trace 0

One process feeds one problem at a time from the workload's seeded pool
(see ``workloads.py``) and repeats whole passes over the pool while another
pass fits in ``--seconds``.  Every problem is checked against the
brute-force oracle; an escape exits with status 1.

``--trace 0`` prints the end-to-end metrics: set-up time, fit and query
latency per problem (median and tail), throughput, peak memory and three
precision figures.  Every time is scaled to a host of nominal speed: a
short reference computation (``pace``) runs around each step, and the
step's time is multiplied by ``NOMINAL_PACE_S`` over the reference times
around it; set-up is scaled the same way by a bare interpreter start.  The
unscaled medians are printed too.  ``--trace 1``
alternates untraced and traced passes and prints per-layer call counts and
self times (``spans.py``) and the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans as S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Reported times are for a host on which ``pace`` takes this long, about
#: its time on a calm 2-vCPU x86-64 host.
NOMINAL_PACE_S = 0.003
#: ``setup_s`` is for a host on which a bare interpreter start that imports
#: numpy takes this long, about its time on the same calm host.
NOMINAL_START_S = 0.15


def import_library():
    """Import zonoridge from this checkout's ``src/``, or exit with status 2."""
    package = SRC / "zonoridge"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no zonoridge sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import zonoridge

    if Path(zonoridge.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported zonoridge from {zonoridge.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return zonoridge


def pace() -> float:
    """Seconds the host takes, right now, for a fixed reference computation.

    The reference does the kinds of work the library does -- dictionary
    updates with tuple keys and small matrix products -- and calls nothing
    of it.  It takes about 3 ms on a calm host (``NOMINAL_PACE_S``).
    """
    t0 = time.perf_counter()
    terms: dict = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        terms[key] = terms.get(key, 0.0) + 0.5 * i
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(150):
        a = a @ a * 1e-3 + 1.0
    return time.perf_counter() - t0


def run_problem(zr, W, spec, p, tracer=None):
    """The four steps of one problem; a typed refusal ends it early.

    ``pace`` runs before the problem, between fit and query and after the
    query, outside the timed steps.
    """
    gc.collect()
    step = tracer.span if tracer else lambda name: contextlib.nullcontext()
    out = W.Outcome()
    before = pace()
    t0 = time.perf_counter()
    with step("bench.abstract"):
        ad = W.abstract(spec, p)
    t1 = time.perf_counter()
    try:
        with step("bench.fit"):
            weights, diag = zr.fixed_point(ad, zr.RidgeConfig(lam=spec.lam))
    except (zr.SplitBudgetError, zr.LambdaTooSmall) as exc:
        out.refusal = type(exc).__name__
        out.total_s = time.perf_counter() - t0
        out.paces = (before, pace())
        return out
    t2 = time.perf_counter()
    between = pace()
    t3 = time.perf_counter()
    with step("bench.query"):
        for _ in range(spec.query_repeats):
            q = W.query(spec, p, weights)
    t4 = time.perf_counter()
    after = pace()
    t5 = time.perf_counter()
    with step("bench.check"):
        W.check(spec, p, ad, weights, q, out)
    out.fit_s, out.query_s = t2 - t1, (t4 - t3) / spec.query_repeats
    out.total_s = (t2 - t0) + (t4 - t3) + (time.perf_counter() - t5)
    out.paces = (before, between, after)
    out.parts = diag.splits_used
    return out


def run_pass(zr, W, spec, pool, tracer=None):
    outcomes = []
    for p in pool:
        if tracer:
            tracer.problem = p.pid
        outcomes.append(run_problem(zr, W, spec, p, tracer))
    return outcomes


def run_traced_pass(zr, W, spec, pool, tracer):
    """One pass with every traced target wrapped; returns outcomes and traced names."""
    tracer.reset()
    names = tracer.install()
    try:
        return run_pass(zr, W, spec, pool, tracer), names
    finally:
        tracer.uninstall()


#: The paces around each timed quantity of an ``Outcome``.
PACES = {"fit_s": slice(0, 2), "query_s": slice(1, 3), "total_s": slice(None)}


def nominal_seconds(seconds: float, paces) -> float:
    """``seconds`` scaled to the nominal host by the paces around them."""
    return seconds * NOMINAL_PACE_S / statistics.fmean(paces)


def per_problem(passes, attr: str, scaled: bool = True) -> list[float]:
    """Each problem's median time over the passes; +inf if refused.

    On a shared machine every step runs up to twice as slow while
    neighbours are busy, in spells of a second to minutes, and a run of
    half a minute can be busy throughout; the host's best speed drifts too.
    Scaling each step by the host's pace around it takes that out, and the
    median over passes takes out what the pace does not follow.  With
    ``scaled`` false the times are taken as timed.
    """
    def seconds(o) -> float:
        timed = getattr(o, attr)
        if timed is None:
            return float("inf")
        return nominal_seconds(timed, o.paces[PACES[attr]]) if scaled else timed

    return [statistics.median(map(seconds, outcomes)) for outcomes in zip(*passes)]


def latency(passes, attr: str, scaled: bool = True) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, samples) over the pool's problems.

    A refused problem counts as +inf, so turning a refusal into a success
    never raises a percentile.
    """
    times = sorted(per_problem(passes, attr, scaled))
    n = len(times)
    idx = max(0, n - TAIL_BEYOND - 1)
    return statistics.median(times), times[idx], 100.0 * (idx + 1) / n, n


def start_seconds(*args: str) -> float:
    """Wall time of a fresh interpreter run with ``args``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes: (scaled, as timed).

    A probe is a fresh process that imports the library and generates the
    pool.  Set-up is mostly process start and imports, whose slow spells
    ``pace`` does not follow; a bare start that imports numpy, timed before
    and after each probe, does, and scales the probe to ``NOMINAL_START_S``.
    """
    probe = [str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    bare = ["-c", "import numpy"]
    scaled, timed = [], []
    before = start_seconds(*bare)
    for _ in range(SETUP_PROBES):
        seconds = start_seconds(*probe)
        after = start_seconds(*bare)
        timed.append(seconds)
        scaled.append(seconds * NOMINAL_START_S / statistics.fmean((before, after)))
        before = after
    return statistics.median(scaled), statistics.median(timed)


def keep_going(start: float, seconds: float, passes_done: int, minimum: int) -> bool:
    """Start another pass only while one more of average length still fits."""
    elapsed = time.perf_counter() - start
    return passes_done < minimum or elapsed + elapsed / passes_done <= seconds


def measure(zr, W, spec, pool, seconds: float, seed: int):
    setup, setup_as_timed = setup_seconds(spec.name, seed)
    passes = []
    start = time.perf_counter()
    while not passes or keep_going(start, seconds, len(passes), 1):
        passes.append(run_pass(zr, W, spec, pool))
    first = passes[0]
    done = [o for o in first if not o.refusal]
    fit = latency(passes, "fit_s")
    query = latency(passes, "query_s")
    metrics = {
        "setup_s": (setup, "s"),
        "fit_p50_s": (fit[0], "s"),
        "fit_tail_s": (fit[1], "s"),
        "query_p50_s": (query[0], "s"),
        "query_tail_s": (query[1], "s"),
        "problems_per_s": (len(done) / sum(per_problem(passes, "total_s")), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "certified_frac": (statistics.fmean(o.certified for o in done), "share"),
        "width_ratio": (
            sum(o.zono_width for o in done) / sum(o.oracle_width for o in done), "ratio"),
        "loss_width_ratio": (
            sum(o.loss_width for o in done) / sum(o.oracle_loss_width for o in done), "ratio"),
    }
    refused = [o for o in first if o.refusal]
    as_timed = [latency(passes, attr, scaled=False)[0] for attr in ("fit_s", "query_s")]
    paces = [r for outcomes in passes for o in outcomes for r in o.paces]
    notes = [
        f"passes {len(passes)} over {len(pool)} problems",
        f"tails are p{fit[2]:.0f} of {fit[3]} problems",
        f"pace fastest {min(paces) * 1e3:.3f} ms, median {statistics.median(paces) * 1e3:.3f} ms "
        f"(nominal {NOMINAL_PACE_S * 1e3:.3f} ms)",
        f"as timed (not scaled): setup_s {setup_as_timed:.6g}, fit_p50_s {as_timed[0]:.6g}, "
        f"query_p50_s {as_timed[1]:.6g}",
        f"failed_frac {len(refused) / len(first):.4f} "
        f"({', '.join(sorted({o.refusal for o in refused})) or 'no refusals'})",
        f"parts solved per pass {sum(o.parts for o in first)}; oracle worlds per pass "
        f"{sum(o.worlds for o in first)}",
    ]
    return passes, metrics, notes


def measure_traced(zr, W, spec, pool, seconds: float):
    tracer = S.Tracer()
    main = threading.get_ident()
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    busy = wall = 0.0
    passes = []
    start = time.perf_counter()
    while not passes or keep_going(start, seconds, len(passes), 2):
        if len(passes) % 2 == 0:
            outcomes = run_pass(zr, W, spec, pool)
        else:
            outcomes, traced = run_traced_pass(zr, W, spec, pool, tracer)
            per_name = S.self_times(tracer.spans)
            for name in traced:
                n_calls, secs = per_name.get(name, (0, 0.0))
                calls.setdefault(name, n_calls)
                self_s[name] = self_s.get(name, 0.0) + secs
            for name in S.COUNTED.values():
                counts.setdefault(name, tracer.counts.get(name, 0))
            b, w = S.pool_overlap(tracer.spans, main)
            busy, wall = busy + b, wall + w
        passes.append(outcomes)
    traced_passes = len(passes) // 2
    metrics = {}
    for module, attr in S.TARGETS:
        name = S.span_name(module, attr)
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / traced_passes, "s")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["learning.split.pool_overlap"] = (busy / wall if wall else 0.0, "ratio")
    # Summed problem times of the traced passes over the untraced ones, each
    # scaled by the host's pace as for the end-to-end latencies.
    metrics["trace.overhead"] = (
        sum(per_problem(passes[1 : 2 * traced_passes : 2], "total_s"))
        / sum(per_problem(passes[0 : 2 * traced_passes : 2], "total_s")),
        "ratio",
    )
    notes = [
        f"passes {len(passes)} over {len(pool)} problems, {traced_passes} traced; "
        "calls and counts are per pass, self times are means per pass",
    ]
    return passes, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    zr = import_library()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    spec = W.WORKLOADS[args.workload]
    pool = W.make_pool(spec, args.seed)
    if args.probe:
        return 0

    try:
        if args.trace:
            passes, metrics, notes = measure_traced(zr, W, spec, pool, args.seconds)
        else:
            passes, metrics, notes = measure(zr, W, spec, pool, args.seconds, args.seed)
    except W.SoundnessError as exc:
        print(f"SOUNDNESS FAILURE: {exc}", file=sys.stderr)
        return 1

    print(f"workload {spec.name} seed {args.seed}: {spec.why}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(1 for outcomes in passes for o in outcomes if o.refusal)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
