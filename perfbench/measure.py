"""One measurement process of the benchmark: the gate, then the timed sweeps.

Run it in a fresh interpreter with the BLAS thread limit already in the
environment (``run.py`` does both). It prints one JSON object: the gate's
checks, the provenance and either the end-to-end figures (``--trace 0``) or
the per-layer figures (``--trace 1``).

The timed loop is closed: it calls ``harness.run_sweep`` for each sweep of
the workload back to back, each pass with a fresh seed drawn from
``--seed``, until ``--seconds`` have passed. With ``--trace 1`` each pass
runs twice, untraced and with every traced function wrapped, in alternating
order; the ratio of the two sides' wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from stimsim.harness import run_sweep

import gate
import spans
from workloads import WORKLOADS, sweep_seeds

END_TO_END_UNITS = {"frames_per_s": "frames/s", "cpu_ms_per_frame": "ms/frame", "peak_rss_mb": "MB"}


def _cpu_s() -> float:
    """CPU time of this process and of every worker it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's peak
    (pool workers are alive at the same time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_pass(workload, seed: int, frames: int) -> tuple[int, list[gate.Check]]:
    """One pass over the workload's sweeps; returns (frames run, checks)."""
    done, checks = 0, []
    for spec in workload.specs(seed, frames):
        records = run_sweep(spec, workers=workload.workers)
        done += sum(r.frames for r in records)
        checks += gate.check_timed(spec, records)
    return done, checks


def timed_passes(workload, seeds, frames: int, seconds: float = math.inf):
    """One pass per seed until the seeds run out or ``seconds`` have passed.

    Returns per-pass (frames, wall s, cpu s) and the checks.
    """
    passes, checks = [], []
    start = time.perf_counter()
    for seed in seeds:
        if time.perf_counter() - start >= seconds:
            break
        c0, t0 = _cpu_s(), time.perf_counter()
        n, pass_checks = run_pass(workload, seed, frames)
        passes.append((n, time.perf_counter() - t0, _cpu_s() - c0))
        checks += pass_checks
    return passes, checks


def paired_passes(workload, seeds, frames: int, seconds: float, tr: spans.Tracer):
    """Each seed's pass once untraced and once traced, in alternating order so
    that both sides see the same machine state, until ``seconds`` have passed.

    Returns the untraced and the traced (frames, wall s, cpu s) and the checks.
    """
    untraced, traced, checks = [], [], []
    start = time.perf_counter()
    for i, seed in enumerate(seeds):
        if time.perf_counter() - start >= seconds:
            break
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            with spans.tracing(tr) if traced_side else contextlib.nullcontext():
                passes, pass_checks = timed_passes(workload, [seed], frames)
            (traced if traced_side else untraced).extend(passes)
            checks += pass_checks
    return untraced, traced, checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--frames", type=int, help="frame budget per SNR point (default: the workload's)")
    p.add_argument("--reference", type=Path, default=gate.REFERENCE)
    p.add_argument("--spans-out", type=Path, required=True, help="where --trace 1 writes its spans")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    frames = args.frames or workload.frames
    checks = gate.run_gate(workload, args.seed, frames, gate.load_reference(args.reference))

    seeds = sweep_seeds(args.seed)
    result = {"provenance": provenance(args.seed)}
    if args.trace == 0:
        passes, timed_checks = timed_passes(workload, seeds, frames, args.seconds)
        values = {
            "frames_per_s": statistics.median(n / w for n, w, _ in passes),
            "cpu_ms_per_frame": statistics.median(1e3 * c / n for n, _, c in passes),
            "peak_rss_mb": _peak_rss_mb(workload.workers),
        }
        units = END_TO_END_UNITS
    else:
        tr = spans.Tracer(workload.specs(0)[0].mp.max_iterations)
        passes, traced, timed_checks = paired_passes(workload, seeds, frames, args.seconds, tr)
        untraced_ns, traced_ns = (int(1e9 * sum(w for _, w, _ in p)) for p in (passes, traced))
        values = spans.summarize(tr, workload.workers, traced_ns, untraced_ns)
        units = spans.PER_LAYER_UNITS
        spans.write_spans(tr, args.spans_out)
    result["checks"] = [c.__dict__ for c in checks + timed_checks]
    result["frames"] = sum(n for n, _, _ in passes)
    result["passes"] = len(passes)
    result["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
