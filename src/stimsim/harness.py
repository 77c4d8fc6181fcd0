"""Deterministic, parallelizable Monte-Carlo BER engine.

Every trial owns a counter-based RNG substream keyed by (seed, SNR point
index, trial index), so per-trial results never depend on scheduling and
aggregate counts are identical for any worker count. Trials execute in
fixed-size batches; the stopping rule is evaluated only at batch boundaries,
in batch order, which keeps the stopping decision worker-independent too.
Within a batch, trials run in chunks: each trial draws from its own
substream into its row of the chunk's arrays, and all that follows (channel
taps, encode, transmit, detect, decode, count) runs once per chunk.

With more than one worker, a sweep runs all of its points on one process
pool. Each batch is split into one task per worker. While the stopping rule
is not expected to fire at the end of a batch, the next batch's tasks are
submitted before this batch's counts are collected, so the workers do not
idle while the parent checks the rule. The rule is expected to fire once the
frame minimum is met and the bit errors so far, projected at their rate to
the end of the batch, reach the error minimum. A batch past the stop never
counts, and a task cannot be withdrawn once it is submitted, so a point
whose stop was not expected discards one batch of work; one whose stop was
expected discards none.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import draw_channel, snr_to_sigma2, transmit
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
        want = StimConfig if self.system == "stim" else OfdmConfig
        if not isinstance(self.cfg, want):
            raise ValueError(f"system {self.system!r} needs cfg of type {want.__name__}, "
                             f"got {type(self.cfg).__name__}")
        if not self.snr_points:
            raise ValueError("snr_points must be nonempty")
        # +inf is the noiseless point; NaN and -inf have no noise variance
        bad = [snr for snr in self.snr_points if math.isnan(snr) or snr == -math.inf]
        if bad:
            raise ValueError(f"SNR points must be finite or +inf, got {bad[0]:g}")
        bad = [snr for snr in self.snr_points if not math.isfinite(snr_to_sigma2(snr, self.cfg.l_taps))]
        if bad:
            raise ValueError(f"SNR point {bad[0]:g} dB is too low to have a finite noise variance")
        # rows are told apart by their labels (csv_row); an exact repeat would
        # also replay the first one's RNG substream, keyed by the point's index
        labels = [f"{snr:g}" for snr in self.snr_points]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate SNR points in {self.snr_points}: their CSV labels are {labels}")
        if not 0 < self.min_frames <= self.max_frames:
            raise ValueError("need 0 < min_frames <= max_frames")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.ml_cap < 1:
            raise ValueError(f"ml_cap must be >= 1, got {self.ml_cap}")
        if self.min_bit_errors < 0:
            raise ValueError(f"min_bit_errors must be >= 0, got {self.min_bit_errors}")

    @property
    def bits_per_frame(self) -> int:
        return bit_partition(self.cfg).total


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
    counter, key = _PHILOX_STATE["state"]["counter"], _PHILOX_STATE["state"]["key"]
    counter[2], counter[3] = point_index, trial_index  # scalar writes beat a slice's
    key[0], key[1] = seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64
    _PHILOX.state = _PHILOX_STATE  # also empties the output buffer
    return _TRIAL_GENERATOR


def _chunk_frames(cfg: StimConfig | OfdmConfig) -> int:
    """Frames per chunk: about 2^14 (edge, candidate) terms per detect call,
    so small configs share the numpy calls and large ones run one by one."""
    terms = cfg.n_slots * cfg.l_taps * cfg.n_r * cfg.n_t * cfg.alphabet.size
    return max(1, 2**14 // terms)


_BYTE_TOPS = np.arange(7, 64, 8, dtype=np.uint64)  # the top bit of each byte of a word


def _draw_chunk(spec: SweepSpec, point_index: int, lo: int, hi: int, n_bits: int):
    """Trials [lo, hi)'s draws: (B, 2, L, n_r, n_t) tap normals, (B, n_bits)
    bits and (B, 2, N n_r) noise normals. Each trial fills its rows from its
    own substream: tap normals, ceil(n_bits / 8) raw words, noise normals.
    The bits, the top bit of each byte of a trial's words, low byte first,
    are those of ``rng.integers(0, 2, n_bits, dtype=np.int8)``."""
    cfg = spec.cfg
    tap_draws = np.empty((hi - lo, 2, cfg.l_taps, cfg.n_r, cfg.n_t))
    words = np.empty((hi - lo, -(-n_bits // 8)), dtype=np.uint64)
    normals = np.empty((hi - lo, 2, cfg.n_slots * cfg.n_r))
    for row, trial in enumerate(range(lo, hi)):
        rng = trial_rng(spec.seed, point_index, trial)
        rng.standard_normal(out=tap_draws[row])
        words[row] = rng.bit_generator.random_raw(words.shape[1])
        rng.standard_normal(out=normals[row])
    bits = (words[..., None] >> _BYTE_TOPS & 1).astype(np.int8).reshape(hi - lo, -1)[:, :n_bits]
    return tap_draws, bits, normals


def _run_trial_range(args):
    """(antenna, slot, symbol, frame) error counts of trials [lo, hi).

    Each trial draws from its own substream into a chunk of _chunk_frames
    trials, whose arithmetic runs once per chunk. No arithmetic crosses
    frames, so a trial's counts do not depend on the chunk it lands in.
    """
    spec, point_index, lo, hi, sigma2 = args
    cfg = spec.cfg
    part = bit_partition(cfg)
    bounds = [part.antenna_bits, part.antenna_bits + part.slot_bits]
    acc = np.zeros(4, dtype=np.int64)
    step = _chunk_frames(cfg)
    for start in range(lo, hi, step):
        tap_draws, bits, normals = _draw_chunk(spec, point_index, start, min(start + step, hi), part.total)
        taps = draw_channel(tap_draws)
        if spec.system == "stim":
            y = transmit(encode_frame(bits, cfg), taps, sigma2, normals)
            detected = detect(spec.detector, y, taps, sigma2, cfg, spec.mp, spec.ml_cap).bits
        else:
            y = ofdm_transmit(ofdm_modulate(bits, cfg), taps, sigma2, normals)
            detected = ofdm_detect(y, taps, cfg)
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


@dataclass(frozen=True)
class _Pool:
    """``workers`` processes with one BLAS thread each, or, for one worker,
    no executor: the trials then run in this process."""

    workers: int
    executor: ProcessPoolExecutor | None

    def start(self, spec: SweepSpec, point_index: int, sigma2: float, lo: int, hi: int
              ) -> Callable[[], np.ndarray]:
        """Start trials [lo, hi), split into one contiguous task per worker,
        and return the call that waits for their summed counts. Without an
        executor the tasks run in that call."""
        edges = np.linspace(lo, hi, self.workers + 1, dtype=int)
        tasks = [(spec, point_index, int(a), int(b), sigma2)
                 for a, b in zip(edges[:-1], edges[1:]) if b > a]
        if self.executor is None:
            return lambda: sum(_run_trial_range(t) for t in tasks)
        futures = [self.executor.submit(_run_trial_range, t) for t in tasks]
        return lambda: sum(f.result() for f in futures)


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A _Pool of ``workers``; its processes are joined on exit."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        yield _Pool(1, None)
        return
    _openblas()  # resolved here, so a forked worker only makes the call
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as executor:
        yield _Pool(workers, executor)


def _stop_expected(spec: SweepSpec, errors: int, lo: int, hi: int) -> bool:
    """Whether the stopping rule is expected to fire at the end of batch
    [lo, hi), given the bit errors of its first lo frames: once hi meets
    min_frames, if those errors projected at their rate to hi reach
    min_bit_errors (always when they already do)."""
    return hi >= spec.min_frames and errors * hi >= spec.min_bit_errors * max(lo, 1)


def run_ber_point(spec: SweepSpec, snr_db: float, workers: int = 1, *, pool: _Pool | None = None
                  ) -> BerRecord:
    """Estimate BER at one SNR point of the sweep grid.

    Runs frames until min_bit_errors and min_frames are both met (checked at
    fixed batch boundaries) or max_frames is reached. ``pool`` is a sweep's
    open pool, which brings its own worker count; without one the point opens
    and closes a pool of ``workers``.
    """
    if snr_db not in spec.snr_points:
        raise ValueError(f"SNR {snr_db:g} dB is not in the sweep grid {spec.snr_points}")
    point_index = spec.snr_points.index(snr_db)
    sigma2 = snr_to_sigma2(snr_db, spec.cfg.l_taps)
    batches = [(lo, min(lo + BATCH_FRAMES, spec.max_frames))
               for lo in range(0, spec.max_frames, BATCH_FRAMES)]
    acc = np.zeros(4, dtype=np.int64)
    frames = 0
    with (_worker_pool(workers) if pool is None else contextlib.nullcontext(pool)) as pool:
        start = functools.partial(pool.start, spec, point_index, sigma2)
        collect = start(*batches[0])
        for i, (lo, hi) in enumerate(batches):
            following = batches[i + 1 : i + 2]
            # the next batch runs while this one is collected, unless the stop is expected
            ahead = start(*following[0]) if following and not _stop_expected(
                spec, int(acc[:3].sum()), lo, hi) else None
            acc += collect()
            frames = hi
            if acc[:3].sum() >= spec.min_bit_errors and frames >= spec.min_frames:
                # a batch sent ahead is not read: one worker would never have
                # run it, so neither its counts nor its failure may show
                break
            if following:
                collect = ahead or start(*following[0])
    return BerRecord(
        snr_db=snr_db,
        frames=frames,
        bits_total=frames * bit_partition(spec.cfg).total,
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
    """Run every SNR point of the sweep, all on one pool when workers > 1,
    and optionally write the CSV. The pool's workers are joined before this
    returns or raises."""
    with _worker_pool(workers) as pool:
        records = [run_ber_point(spec, snr, pool=pool) for snr in spec.snr_points]
    if out_path is not None:
        text = sweep_csv(spec, records, deterministic=deterministic)
        with open(out_path, "w") as fh:
            fh.write(text)
    return records
