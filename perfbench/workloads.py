"""The benchmark's workloads: fixed-frame slices of the paper's BER sweeps.

A workload is a list of sweeps that ``harness.run_sweep`` runs back to back.
Every SNR point runs exactly its frame budget: ``min_frames == max_frames``
and an error target no point can reach, so the stopping rule never fires
early and the work per sweep does not depend on the error counts.
``BENCHMARK.json`` says why each workload is in the set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stimsim.alphabet import build_alphabet
from stimsim.codec import StimConfig
from stimsim.harness import SweepSpec
from stimsim.ofdm import OfdmConfig

# larger than any frame can produce, so only max_frames ends a point
NEVER_REACHED = 2**62

QAM4 = build_alphabet("qam4")
QAM8 = build_alphabet("qam8")

FIG4_STIM = StimConfig(n_t=2, n_r=4, n_slots=6, k=5, l_taps=2, alphabet=QAM4)
FIG4_OFDM = OfdmConfig(n_r=4, n_slots=6, l_taps=2, alphabet=QAM8)
FIG5_STIM = StimConfig(n_t=2, n_r=4, n_slots=8, k=7, l_taps=2, alphabet=QAM4)
PAPER_STIM = StimConfig(n_t=2, n_r=4, n_slots=128, k=114, l_taps=4, alphabet=QAM4)


@dataclass(frozen=True)
class Sweep:
    system: str
    detector: str
    cfg: StimConfig | OfdmConfig
    snr_points: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    frames: int  # frame budget per SNR point
    sweeps: tuple[Sweep, ...]

    def specs(self, seed: int, frames: int | None = None, snr_points=None) -> list[SweepSpec]:
        """The SweepSpecs of one pass over the workload at ``seed``."""
        n = frames or self.frames
        return [
            SweepSpec(
                system=s.system,
                detector=s.detector,
                cfg=s.cfg,
                snr_points=tuple(snr_points or s.snr_points),
                min_frames=n,
                max_frames=n,
                min_bit_errors=NEVER_REACHED,
                seed=seed,
            )
            for s in self.sweeps
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig5_mp",
            workers=1,
            frames=64,
            sweeps=(Sweep("stim", "3ssd", FIG5_STIM, (6.0, 9.0)),),
        ),
        Workload(
            "fig4_ml",
            workers=1,
            frames=64,
            sweeps=(
                Sweep("stim", "ml", FIG4_STIM, (6.0, 9.0)),
                Sweep("ofdm", "ml", FIG4_OFDM, (6.0, 9.0)),
            ),
        ),
        Workload(
            "n128_mp",
            workers=1,
            frames=1,
            sweeps=(Sweep("stim", "3ssd", PAPER_STIM, (8.0, 12.0)),),
        ),
        Workload(
            "pipeline_w2",
            workers=2,
            frames=1024,
            sweeps=(Sweep("stim", "mmse", FIG5_STIM, (6.0, 9.0)),),
        ),
    )
}


def sweep_seeds(seed: int):
    """Endless seeds for the timed sweeps of one run, drawn from the run's seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)
