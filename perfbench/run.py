"""Benchmark of the junction_riemann package: one workload, one seed, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_2x2 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the timed rounds alternate between plain and
traced (the package's public functions wrapped, see tracer.py), and the metrics
are per-layer calls and self time per item and the tracing overhead. See
README.md.
"""

from __future__ import annotations

import os

# one thread everywhere: set before numpy (and its BLAS) is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups before the timed phase and again after the checks; setup_s is the
#: median of both groups, so that one slower or faster spell of a shared machine
#: (they last seconds to minutes) does not decide it alone.
SETUPS = 3
#: item time per window of the latency percentiles (see windowed_percentile).
WINDOW_NS = 1e9
#: every run completes at least this many items.
MIN_ITEMS = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep_2x2", "sweep_wide", "godunov_fine", "simulate_cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import junction_riemann (and its cli) anew from this checkout's src/.

    Modules of the package already loaded are dropped first, so the import runs
    every module body again and starts with empty caches; its dependencies
    (numpy, scipy) stay loaded.
    """
    for name in [n for n in sys.modules
                 if n == "junction_riemann" or n.startswith("junction_riemann.")]:
        del sys.modules[name]
    import junction_riemann
    import junction_riemann.cli  # noqa: F401  (the package does not import it)
    src = ROOT / "src"
    if Path(junction_riemann.__file__).resolve().parent.parent != src:
        raise ImportError(f"junction_riemann was imported from "
                          f"{junction_riemann.__file__}, not from {src}")
    return junction_riemann


def setup(wl, seed: int, after_import=None) -> float:
    """One full, timed set-up: a fresh import of the package, then the workload's
    inputs, solvers and warm-up. ``after_import`` runs between the two."""
    t0 = time.perf_counter()
    wl.jr = fresh_import()
    if after_import:
        after_import()
    wl.setup(seed)
    return time.perf_counter() - t0


def timed_phase(wl, seconds: float, before_round=None):
    """Run whole rounds until ``seconds`` have passed and MIN_ITEMS are done.

    ``before_round(k)`` is called ahead of round k, and with None after the last.
    Returns (per-round lists of item durations in ns, items per second over the
    phase, attempted, failed). The rate is taken over the whole phase, not as a
    median of shorter windows: on a shared machine speed switches between slower
    and faster spells of a few seconds, and a median of windows jumps between them
    while the whole-phase rate averages them.
    """
    wl.begin_phase()
    rounds: list[list[float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if before_round:
            before_round(len(rounds))
        times, bad = wl.round()
        rounds.append(times)
        attempted += len(times)
        failed += bad
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and attempted >= MIN_ITEMS:
            if before_round:
                before_round(None)
            return rounds, attempted / elapsed, attempted, failed


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def windowed_percentile(rounds, q: float) -> float:
    """Mean over consecutive windows of about WINDOW_NS of item time of the q-th
    percentile of item time inside each window.

    A shared machine runs this process in slower and faster spells of a few
    seconds. Within one window the speed is about constant, so its percentile is
    that of one speed; the mean over windows then weighs the spells by their
    length, where a percentile over the whole run jumps from one spell's value to
    the other's as their shares cross.
    """
    windows, current, filled = [], [], 0.0
    for times in rounds:
        current.extend(times)
        filled += sum(times)
        if filled >= WINDOW_NS:
            windows.append(current)
            current, filled = [], 0.0
    if current and (not windows or filled >= WINDOW_NS / 2):
        windows.append(current)
    elif current:
        windows[-1].extend(current)
    return statistics.fmean(percentile(w, q) for w in windows)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        jr = fresh_import()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](jr, str(OUT))
    try:
        setups = [setup(wl, args.seed) for _ in range(SETUPS)]
        set_up = time.perf_counter()
        if args.trace:
            metrics, attempted, failed = traced_run(wl, args)
        else:
            rounds, rate, attempted, failed = timed_phase(wl, args.seconds)
            metrics = {
                "items_per_s": (rate, "1/s"),
                "item_p50_us": (windowed_percentile(rounds, 0.5) / 1e3, "us"),
                "item_p90_us": (windowed_percentile(rounds, 0.9) / 1e3, "us"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        measured = time.perf_counter()
        problems = wl.check()
        problems += wl.selfcheck()
        checked = time.perf_counter()
        if not args.trace:
            setups += [setup(wl, args.seed) for _ in range(SETUPS)]
            metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    finally:
        wl.close()
    print(f"{args.workload}: set-ups {sum(setups):.2f} s, timed phase"
          f" {measured - set_up:.2f} s, checks {checked - measured:.2f} s",
          file=sys.stderr)
    for line in problems[:40]:
        print(f"check failed: {line}", file=sys.stderr)
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out))
    return 0


def traced_run(wl, args):
    """A traced set-up, then a phase whose rounds alternate untraced and traced.

    Alternating puts both sides under the same machine load, so the difference of
    their mean item times is the tracing overhead. Per-layer numbers are per item
    of the traced rounds.
    """
    from tracer import SPANS, Tracer

    tracer = Tracer()
    first = tracer.mark()
    try:
        setup(wl, args.seed, after_import=tracer.install)
    finally:
        tracer.remove()
    ready = tracer.mark()
    handles = None
    if hasattr(wl, "use_solver"):
        handles = (wl.handle, tracer.wrap("netsim.node_solve", wl.handle))

    def before_round(k):
        tracer.remove()
        traced = k is not None and k % 2 == 1
        if traced:
            tracer.install()
        if handles:
            wl.use_solver(handles[traced])

    try:
        rounds, _, attempted, failed = timed_phase(wl, args.seconds, before_round)
    finally:
        tracer.remove()
    done = tracer.mark()
    plain, traced = rounds[0::2], rounds[1::2]
    items = sum(len(r) for r in traced)
    mean_plain = sum(map(sum, plain)) / sum(len(r) for r in plain)
    mean_traced = sum(map(sum, traced)) / items

    in_setup = tracer.totals(first, ready)
    timed = tracer.totals(ready, done)
    metrics = {}
    for span in SPANS:
        if span == "sampling.random_state":
            continue
        calls, self_us = timed[span]
        metrics[f"{span}.calls"] = (calls / items, "count/item")
        metrics[f"{span}.self_us"] = (self_us / items, "us/item")
    # set-up only: the seeded samplers and the matrix certificates
    calls, self_us = in_setup["sampling.random_state"]
    metrics["sampling.random_state.calls"] = (calls, "count/setup")
    metrics["sampling.random_state.self_us"] = (self_us, "us/setup")
    metrics["solvers.matrix_in_n.setup_us"] = (in_setup["solvers.matrix_in_n"][1],
                                               "us/setup")
    counters = {"solvers.degeneracy_errors": 0, "cli.bytes_written": 0}
    counters.update(wl.counters())
    metrics["solvers.degeneracy_errors"] = (
        counters["solvers.degeneracy_errors"] / attempted, "count/item")
    metrics["cli.bytes_written"] = (counters["cli.bytes_written"] / attempted, "B/item")
    metrics["trace.spans_per_item"] = ((done - ready) / items, "count/item")
    metrics["trace.overhead_pct"] = ((mean_traced / mean_plain - 1.0) * 100.0, "%")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.npz")
    return metrics, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
