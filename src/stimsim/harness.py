"""Deterministic, parallelizable Monte-Carlo BER engine.

Every trial owns a counter-based RNG substream keyed by (seed, SNR point
index, trial index), so per-trial results never depend on scheduling and
aggregate counts are identical for any worker count. Trials execute in
fixed-size batches; the stopping rule is evaluated only at batch boundaries,
which keeps the stopping decision worker-independent too. Within a batch,
each trial makes its random draws from its own substream; everything after
the draws (encode, transmit, detect, decode, count) runs on stacked chunks
of trials, one call per chunk.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelRealization, draw_channel, snr_to_sigma2, transmit
from .codec import StimConfig, bit_partition, encode_frame
from .detectors import DEFAULT_ML_CAP, DETECTORS, MpParams, detect
from .ofdm import OfdmConfig, ofdm_detect, ofdm_modulate, ofdm_transmit

BATCH_FRAMES = 256

# Philox takes a 128-bit key: the seed
SEED_LIMIT = 2**128

CSV_HEADER = (
    "snr_db,frames,bits_total,bit_errors_total,bit_errors_antenna,"
    "bit_errors_slot,bit_errors_symbol,frame_errors,ber"
)


@dataclass(frozen=True)
class SweepSpec:
    system: str  # "stim" | "ofdm"
    detector: str  # "ml" | "mmse" | "2ssd" | "3ssd"
    cfg: StimConfig | OfdmConfig
    snr_points: tuple[float, ...]
    min_frames: int = 1000
    max_frames: int = 100_000
    min_bit_errors: int = 100
    seed: int = 0
    mp: MpParams = field(default_factory=MpParams)
    ml_cap: int = DEFAULT_ML_CAP

    def __post_init__(self):
        if self.system not in ("stim", "ofdm"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.system == "ofdm" and self.detector != "ml":
            raise ValueError("the OFDM baseline supports only ML detection")
        if not self.snr_points:
            raise ValueError("snr_points must be nonempty")
        if len(set(self.snr_points)) != len(self.snr_points):
            # the point index keys the RNG substream, so a repeat would replay it
            raise ValueError(f"duplicate SNR points in {self.snr_points}")
        if not 0 < self.min_frames <= self.max_frames:
            raise ValueError("need 0 < min_frames <= max_frames")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.ml_cap < 1:
            raise ValueError(f"ml_cap must be >= 1, got {self.ml_cap}")

    @property
    def bits_per_frame(self) -> int:
        if self.system == "stim":
            return bit_partition(self.cfg).total
        return self.cfg.bits_per_frame


@dataclass
class BerRecord:
    snr_db: float
    frames: int
    bits_total: int
    bit_errors_total: int
    bit_errors_antenna: int
    bit_errors_slot: int
    bit_errors_symbol: int
    frame_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors_total / self.bits_total if self.bits_total else 0.0

    def csv_row(self) -> str:
        return (
            f"{self.snr_db:g},{self.frames},{self.bits_total},{self.bit_errors_total},"
            f"{self.bit_errors_antenna},{self.bit_errors_slot},{self.bit_errors_symbol},"
            f"{self.frame_errors},{self.ber:.10e}"
        )


# the one Philox that trial_rng resets for every trial, and its state template
_PHILOX = np.random.Philox(key=0)
_TRIAL_GENERATOR = np.random.Generator(_PHILOX)
_PHILOX_STATE = _PHILOX.state


def trial_rng(seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    """Counter-based substream: Philox keyed by seed with the (point, trial)
    pair placed in the high counter words.

    The stream is that of ``Generator(Philox(key=seed, counter=[0, 0,
    point_index, trial_index]))``, but no generator is built: the call resets
    the counter, key and buffer of one Philox per process. The returned
    generator is therefore shared, and valid only until the next call.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    state = _PHILOX_STATE["state"]
    state["counter"][2:] = point_index, trial_index
    state["key"][:] = seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64
    _PHILOX.state = _PHILOX_STATE  # also empties the output buffer
    return _TRIAL_GENERATOR


def _chunk_frames(cfg: StimConfig | OfdmConfig) -> int:
    """Frames per chunk: about 2^14 (edge, candidate) terms per detect call,
    so small configs share the numpy calls and large ones run one by one."""
    terms = cfg.n_slots * cfg.l_taps * cfg.n_r * cfg.n_t * cfg.alphabet.size
    return max(1, 2**14 // terms)


def _draw_trial(spec: SweepSpec, point_index: int, trial: int, n_bits: int):
    """One trial's draws from its own substream, in a fixed order: channel
    taps, bits, then the real and imaginary standard normals of the noise."""
    rng = trial_rng(spec.seed, point_index, trial)
    cfg = spec.cfg
    taps = draw_channel(rng, cfg).taps
    bits = rng.integers(0, 2, n_bits, dtype=np.int8)
    return taps, bits, rng.standard_normal((2, cfg.n_slots * cfg.n_r))


def _run_trial_range(args):
    """(antenna, slot, symbol, frame) error counts of trials [lo, hi).

    Each trial draws from its own substream; the arithmetic after the draws
    runs on stacked chunks of _chunk_frames trials. No arithmetic crosses
    frames, so a trial's counts do not depend on the chunk it lands in.
    """
    spec, point_index, lo, hi, sigma2 = args
    cfg = spec.cfg
    n_bits = spec.bits_per_frame
    if spec.system == "stim":
        part = bit_partition(cfg)
        bounds = [part.antenna_bits, part.antenna_bits + part.slot_bits]
    else:
        bounds = [0, 0]  # every OFDM bit is a symbol bit
    acc = np.zeros(4, dtype=np.int64)
    step = _chunk_frames(cfg)
    for start in range(lo, hi, step):
        draws = [_draw_trial(spec, point_index, t, n_bits) for t in range(start, min(start + step, hi))]
        taps, bits, normals = (np.stack(a) for a in zip(*draws))
        ch = ChannelRealization(taps)
        if spec.system == "stim":
            y = transmit(encode_frame(bits, cfg), ch, sigma2, normals)
            detected = detect(spec.detector, y, ch, sigma2, cfg, spec.mp, spec.ml_cap).bits
        else:
            y = ofdm_transmit(ofdm_modulate(bits, cfg), ch, sigma2, normals)
            detected = ofdm_detect(y, ch, cfg)
        wrong = detected != bits
        acc += [seg.sum() for seg in np.split(wrong, bounds, axis=1)] + [wrong.any(axis=1).sum()]
    return acc


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, if it exports its thread controls; None
    where numpy links another BLAS (MKL, Accelerate)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return lib
    return None


def _one_blas_thread() -> None:
    """Pool-worker initializer: one BLAS thread per worker, so that a pool of
    w workers runs w threads rather than w times the BLAS default."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def run_ber_point(spec: SweepSpec, snr_db: float, workers: int = 1) -> BerRecord:
    """Estimate BER at one SNR point of the sweep grid.

    Runs frames until min_bit_errors and min_frames are both met (checked at
    fixed batch boundaries) or max_frames is reached.
    """
    if snr_db not in spec.snr_points:
        raise ValueError(f"SNR {snr_db:g} dB is not in the sweep grid {spec.snr_points}")
    point_index = spec.snr_points.index(snr_db)
    sigma2 = snr_to_sigma2(snr_db, spec.cfg.l_taps)
    acc = np.zeros(4, dtype=np.int64)
    frames = 0
    pool = None
    if workers > 1:
        _openblas()  # resolved here, so a forked worker only makes the call
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)
    try:
        while frames < spec.max_frames:
            hi = min(frames + BATCH_FRAMES, spec.max_frames)
            if pool is None:
                acc += _run_trial_range((spec, point_index, frames, hi, sigma2))
            else:
                edges = np.linspace(frames, hi, workers + 1, dtype=int)
                tasks = [
                    (spec, point_index, int(lo), int(up), sigma2)
                    for lo, up in zip(edges[:-1], edges[1:])
                    if up > lo
                ]
                for part in pool.map(_run_trial_range, tasks):
                    acc += part
            frames = hi
            errors = int(acc[0] + acc[1] + acc[2])
            if errors >= spec.min_bit_errors and frames >= spec.min_frames:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return BerRecord(
        snr_db=snr_db,
        frames=frames,
        bits_total=frames * spec.bits_per_frame,
        bit_errors_total=int(acc[0] + acc[1] + acc[2]),
        bit_errors_antenna=int(acc[0]),
        bit_errors_slot=int(acc[1]),
        bit_errors_symbol=int(acc[2]),
        frame_errors=int(acc[3]),
    )


def _spec_echo(spec: SweepSpec) -> str:
    cfg = spec.cfg
    parts = [f"system={spec.system}", f"detector={spec.detector}", f"nt={cfg.n_t}",
             f"nr={cfg.n_r}", f"n_slots={cfg.n_slots}"]
    if spec.system == "stim":
        parts.append(f"k={cfg.k}")
    parts += [
        f"l_taps={cfg.l_taps}",
        f"alphabet={cfg.alphabet.kind}",
        f"iters={spec.mp.max_iterations}",
        f"damp={spec.mp.damping:g}",
        f"seed={spec.seed}",
        f"min_frames={spec.min_frames}",
        f"max_frames={spec.max_frames}",
        f"min_bit_errors={spec.min_bit_errors}",
        f"version={__version__}",
    ]
    return " ".join(parts)


def sweep_csv(spec: SweepSpec, records: list[BerRecord], deterministic: bool = False) -> str:
    lines = ["# stimsim ber sweep", f"# {_spec_echo(spec)}"]
    if not deterministic:
        import datetime

        lines.append(f"# generated={datetime.datetime.now().isoformat()}")
    lines.append(CSV_HEADER)
    lines += [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"


def run_sweep(
    spec: SweepSpec,
    out_path: str | None = None,
    workers: int = 1,
    deterministic: bool = False,
) -> list[BerRecord]:
    """Run every SNR point of the sweep and optionally write the CSV."""
    records = [run_ber_point(spec, snr, workers=workers) for snr in spec.snr_points]
    if out_path is not None:
        text = sweep_csv(spec, records, deterministic=deterministic)
        with open(out_path, "w") as fh:
            fh.write(text)
    return records
