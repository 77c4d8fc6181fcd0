"""Correctness gate of the benchmark, run outside the timed region.

Every check is made per SNR point:

- ``reference``: at the default seed, each point's CSV row (frames, bits,
  antenna/slot/symbol bit errors, frame errors, BER) equals the row recorded
  in ``reference_counts.json``;
- ``noiseless``: at the run's seed, a 60 dB point gives 0 bit errors;
- ``workers``: on a workload that runs a pool, the rows at workers=1 and at
  the workload's worker count are identical (the any-``--workers`` byte
  identity of the harness);
- ``timed``: each point of a timed sweep ran exactly its frame budget and
  its counts are consistent.

``PYTHONPATH=src:perfbench python3 perfbench/gate.py`` rewrites the reference
rows of every workload; do that only for a change that is meant to change them.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from stimsim.harness import BerRecord, SweepSpec, run_sweep

from workloads import WORKLOADS, Workload

DEFAULT_SEED = 0
NOISELESS_DB = 60.0
REFERENCE = Path(__file__).with_name("reference_counts.json")


@dataclass(frozen=True)
class Check:
    kind: str
    point: str
    ok: bool
    detail: str


def _label(spec: SweepSpec, snr_db: float) -> str:
    return f"{spec.system}/{spec.detector}@{snr_db:g}dB"


def _rows(spec: SweepSpec, workers: int) -> list[str]:
    return [r.csv_row() for r in run_sweep(spec, workers=workers)]


def reference_rows(workload: Workload, frames: int) -> list[list[str]]:
    """Per-sweep CSV rows of the workload at the default seed."""
    return [_rows(spec, workload.workers) for spec in workload.specs(DEFAULT_SEED, frames)]


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_gate(workload: Workload, seed: int, frames: int, reference: dict) -> list[Check]:
    checks = []
    ref = reference.get(workload.name, {})
    # rows recorded at another frame budget cannot match, so every point fails
    want_rows = ref.get("rows", []) if ref.get("frames") == frames else []
    for i, spec in enumerate(workload.specs(DEFAULT_SEED, frames)):
        want = want_rows[i] if i < len(want_rows) else []
        for j, got in enumerate(_rows(spec, workload.workers)):
            expected = want[j] if j < len(want) else None
            checks.append(Check("reference", _label(spec, spec.snr_points[j]), got == expected,
                                f"got {got!r}, recorded {expected!r}"))

    for spec in workload.specs(seed, frames, snr_points=(NOISELESS_DB,)):
        (rec,) = run_sweep(spec, workers=workload.workers)
        ok = rec.frames == frames and rec.bit_errors_total == 0
        checks.append(Check("noiseless", _label(spec, NOISELESS_DB), ok, rec.csv_row()))

    if workload.workers > 1:
        for spec in workload.specs(seed, frames):
            single = _rows(spec, 1)
            pooled = _rows(spec, workload.workers)
            for snr, a, b in zip(spec.snr_points, single, pooled):
                checks.append(Check("workers", _label(spec, snr), a == b,
                                    f"workers=1 {a!r}, workers={workload.workers} {b!r}"))
    return checks


def check_timed(spec: SweepSpec, records: list[BerRecord]) -> list[Check]:
    """Consistency of the rows of one timed sweep (their values vary by seed)."""
    checks = []
    for snr, rec in zip(spec.snr_points, records):
        parts = (rec.bit_errors_antenna, rec.bit_errors_slot, rec.bit_errors_symbol)
        ok = (
            rec.snr_db == snr
            and rec.frames == spec.max_frames
            and rec.bits_total == rec.frames * spec.bits_per_frame
            and min(parts) >= 0
            and rec.bit_errors_total == sum(parts) <= rec.bits_total
            and 0 <= rec.frame_errors <= min(rec.frames, rec.bit_errors_total)
        )
        checks.append(Check("timed", _label(spec, snr), ok, rec.csv_row()))
    return checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Record the gate's reference rows.")
    p.add_argument("--frames", type=int, help="frame budget per SNR point (default: the workload's)")
    p.add_argument("--out", type=Path, default=REFERENCE)
    args = p.parse_args(argv)

    reference = {
        name: {"seed": DEFAULT_SEED, "frames": args.frames or w.frames,
               "rows": reference_rows(w, args.frames or w.frames)}
        for name, w in WORKLOADS.items()
    }
    with open(args.out, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
