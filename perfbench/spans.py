"""Call spans around the simulator's public functions, kept in memory.

``tracing`` replaces each traced function at every module attribute through
which the BER pipeline looks it up: ``harness.build_block_circulant`` and
``channel.build_block_circulant`` both get the wrapper, and so do
``detectors.repair_sap`` and ``codec.repair_sap``. No source file changes.

A span records its name, start, end, self time (its duration minus that of
its child spans), the span that called it and the frame it belongs to. A
frame starts at each ``harness.trial_rng`` call. Pool workers (forked, so
they inherit the wrappers) send their spans home with their error counts.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

from stimsim import channel, codec, detectors, harness, ofdm

MODULES = (harness, channel, codec, detectors, ofdm)

FUNCTIONS = (
    (harness, "trial_rng"),
    (channel, "draw_channel"),
    (channel, "transmit"),
    (channel, "build_block_circulant"),
    (codec, "encode_frame"),
    (codec, "decode_frame"),
    (codec, "repair_sap"),
    (detectors, "mmse_stage"),
    (detectors, "mmse_detect"),
    (detectors, "ssd2_detect"),
    (detectors, "ssd3_detect"),
    (detectors, "ml_detect"),
    (ofdm, "ofdm_modulate"),
    (ofdm, "ofdm_transmit"),
    (ofdm, "ofdm_detect"),
    (harness, "run_ber_point"),
)
SPAN_NAMES = tuple(f"{m.__name__.rsplit('.', 1)[-1]}.{f}" for m, f in FUNCTIONS)
MP_DETECTORS = ("detectors.ssd2_detect", "detectors.ssd3_detect")
# root span of one pool task; its self time is the harness's per-trial glue
TASK = "harness._run_trial_range"

SPAN_STATS = {"self_us_per_frame": "us/frame", "p99_us": "us", "calls_per_frame": "calls/frame"}
COUNT_METRICS = {
    "detectors.ssd2.iterations_mean": "count",
    "detectors.ssd3.iterations_mean": "count",
    "detectors.mp_capped_frac": "frac",
    "codec.sap_repaired_frac": "frac",
    "detectors.ml.candidates_per_frame": "count/frame",
    "harness.worker_busy_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.covered_frac": "frac",
}
PER_LAYER_UNITS = {
    **{f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in SPAN_STATS.items()},
    **COUNT_METRICS,
}


FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "self_ns", "frame")
NAMES = SPAN_NAMES + (TASK,)


class Tracer:
    """Spans and per-frame counts of one process, in flat integer arrays (cheap
    to append to, invisible to the garbage collector, quick to pickle)."""

    def __init__(self, max_iterations: int):
        self.max_iterations = max_iterations
        self.pid = os.getpid()
        self.run_trial_range = None
        self.reset()

    def reset(self):
        self.spans = array("q")  # FIELDS per span; name is an index into NAMES
        self.stack: list[list] = []  # open spans: [id, child ns, name index]
        self.capped = array("b")  # per frame: the final MP result hit the cap
        self.repaired = array("b")  # per frame: -1 no repair_sap call, else 0/1
        self.iterations = {name: array("q") for name in MP_DETECTORS}
        self.ml_candidates = array("q")
        self.busy_ns = 0
        self.next_id = 0
        self.chunks: list[dict] = []  # payloads from pool workers

    def payload(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans, "capped": self.capped,
                "repaired": self.repaired, "iterations": self.iterations,
                "ml_candidates": self.ml_candidates}


def _new_frame(tr: Tracer, out, parent):
    tr.capped.append(0)
    tr.repaired.append(-1)


def _mp_result(name: str):
    def observe(tr: Tracer, out, parent):
        iters = out.diagnostics["iterations_run"]
        tr.iterations[name].append(iters)
        if parent is None or NAMES[parent[2]] not in MP_DETECTORS:  # the frame's final result
            tr.capped[-1] = iters >= tr.max_iterations

    return observe


def _ml_result(tr: Tracer, out, parent):
    tr.ml_candidates.append(out.diagnostics["candidates"])


def _repair_result(tr: Tracer, out, parent):
    tr.repaired[-1] = max(tr.repaired[-1], 0) | out[1]


# what each traced function's return value adds to the counts
OBSERVERS = {
    "harness.trial_rng": _new_frame,
    "codec.repair_sap": _repair_result,
    "detectors.ml_detect": _ml_result,
    **{name: _mp_result(name) for name in MP_DETECTORS},
}


def _wrap(tr: Tracer, name: int, fn):
    observe = OBSERVERS.get(NAMES[name])
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tr.stack
        parent = stack[-1] if stack else None
        entry = [tr.next_id, 0, name]
        tr.next_id += 1
        stack.append(entry)
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
        if parent is not None:
            parent[1] += t1 - t0
        tr.spans.extend((entry[0], parent[0] if parent else -1, name, t0, t1,
                         t1 - t0 - entry[1], len(tr.capped) - 1))
        if observe is not None:
            observe(tr, out, parent)
        return out

    return traced


# Module-level because a pool worker finds traced_trial_range by import path
# and unpickles results through _deliver; both need the installed tracer.
_ACTIVE: Tracer | None = None


class _Carrier(np.ndarray):
    """A worker's error counts that take the worker's spans along when pickled."""

    def __reduce_ex__(self, protocol):
        return _deliver, (np.asarray(self), self.payload)


def _deliver(acc, payload):
    if _ACTIVE is not None:
        _ACTIVE.chunks.append(payload)
    return acc


def traced_trial_range(args):
    """Stand-in for harness._run_trial_range, inline or in a pool worker."""
    tr = _ACTIVE
    if os.getpid() == tr.pid:
        t0 = time.perf_counter_ns()
        acc = tr.run_trial_range(args)
        tr.busy_ns += time.perf_counter_ns() - t0
        return acc
    tr.reset()  # a forked worker inherits the parent's spans; drop them
    acc = _wrap(tr, NAMES.index(TASK), tr.run_trial_range)(args)
    carrier = np.asarray(acc).view(_Carrier)
    carrier.payload = tr.payload()
    return carrier


@contextlib.contextmanager
def tracing(tr: Tracer):
    """Install the wrappers for the duration of the block."""
    global _ACTIVE
    patches = []
    for i, (mod, fname) in enumerate(FUNCTIONS):
        original = getattr(mod, fname)
        wrapped = _wrap(tr, i, original)  # NAMES[i] is this function's span name
        for m in MODULES:
            if getattr(m, fname, None) is original:
                patches.append((m, fname, original))
                setattr(m, fname, wrapped)
    tr.run_trial_range = harness._run_trial_range
    patches.append((harness, "_run_trial_range", tr.run_trial_range))
    harness._run_trial_range = traced_trial_range
    _ACTIVE = tr
    try:
        yield tr
    finally:
        for m, fname, original in reversed(patches):
            setattr(m, fname, original)
        _ACTIVE = None


def summarize(tr: Tracer, workers: int, traced_ns: int, untraced_ns: int) -> dict[str, float]:
    """Per-layer metrics from the parent's spans and the workers' chunks.

    A function's self time per frame sums its spans in every process. The
    parent's wait for its pool is taken out of ``run_ber_point``'s self time
    at the workers' busy time divided by ``workers``, and the workers'
    per-trial glue (the self time of their root spans) is put in.

    ``trace.covered_frac`` is the self time of the traced functions other than
    ``run_ber_point``, worker spans counted at 1/``workers``, over the traced
    wall time. It leaves out the harness glue (``run_ber_point``'s self time
    and the workers' root spans), so work no traced function covers lowers it.
    """
    payloads = [tr.payload()] + tr.chunks
    spans = np.concatenate([np.frombuffer(p["spans"], dtype=np.int64) for p in payloads])
    spans = spans.reshape(-1, len(FIELDS))
    name, dur, own = spans[:, 2], spans[:, 4] - spans[:, 3], spans[:, 5]
    weight = np.concatenate([np.full(len(p["spans"]) // len(FIELDS), 1.0 if i == 0 else 1.0 / workers)
                             for i, p in enumerate(payloads)])
    capped = np.concatenate([np.frombuffer(p["capped"], dtype=np.int8) for p in payloads])
    repaired = np.concatenate([np.frombuffer(p["repaired"], dtype=np.int8) for p in payloads])
    iterations = {n: np.concatenate([np.frombuffer(p["iterations"][n], dtype=np.int64)
                                     for p in payloads]) for n in MP_DETECTORS}
    candidates = np.concatenate([np.frombuffer(p["ml_candidates"], dtype=np.int64)
                                 for p in payloads])

    task = name == NAMES.index(TASK)
    busy_ns = tr.busy_ns + int(dur[task].sum())
    wait_ns = busy_ns / workers if tr.chunks else 0.0
    n = max(capped.size, 1)
    out = {}
    for i, fn in enumerate(SPAN_NAMES):
        mine = name == i
        self_ns = float(own[mine].sum())
        if fn == "harness.run_ber_point":
            self_ns += float(own[task].sum()) - wait_ns
        out[f"{fn}.self_us_per_frame"] = self_ns / n / 1e3
        out[f"{fn}.p99_us"] = float(np.percentile(dur[mine], 99)) / 1e3 if mine.any() else 0.0
        out[f"{fn}.calls_per_frame"] = int(mine.sum()) / n
    for short, fn in (("ssd2", MP_DETECTORS[0]), ("ssd3", MP_DETECTORS[1])):
        v = iterations[fn]
        out[f"detectors.{short}.iterations_mean"] = float(v.mean()) if v.size else 0.0
    mp_frames = iterations[MP_DETECTORS[0]].size  # 2SSD runs in every MP frame
    out["detectors.mp_capped_frac"] = float(capped.sum()) / mp_frames if mp_frames else 0.0
    stim = repaired[repaired >= 0]
    out["codec.sap_repaired_frac"] = float(stim.mean()) if stim.size else 0.0
    out["detectors.ml.candidates_per_frame"] = float(candidates.mean()) if candidates.size else 0.0
    out["harness.worker_busy_frac"] = busy_ns / (workers * traced_ns)
    out["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    glue = task | (name == SPAN_NAMES.index("harness.run_ber_point"))
    out["trace.covered_frac"] = float((own * weight)[~glue].sum()) / traced_ns
    return out


def write_spans(tr: Tracer, path) -> None:
    """Dump every span as a tab-separated line: pid, then FIELDS."""
    with open(path, "w") as fh:
        fh.write("\t".join(("pid",) + FIELDS) + "\n")
        for p in [tr.payload()] + tr.chunks:
            rows = np.frombuffer(p["spans"], dtype=np.int64).reshape(-1, len(FIELDS))
            for row in rows.tolist():
                row[2] = NAMES[row[2]]
                fh.write(f"{p['pid']}\t" + "\t".join(map(str, row)) + "\n")
