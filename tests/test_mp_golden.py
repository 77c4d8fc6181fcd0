"""The message-passing detectors' outputs on seeded frames, bit for bit.

``data/mp_golden.npz`` holds, for each case below, the 2SSD and 3SSD bits,
2SSD's slot posteriors and 3SSD's beliefs, as the detectors gave them when
the file was written. A change to
how the message passing is computed (layout, buffers, loop order) must
reproduce them exactly.

Regenerate the file only for a change that is meant to move these values,
and say so where the change is recorded:

    PYTHONPATH=src python tests/test_mp_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from oracles import draw_links
from stimsim.alphabet import build_alphabet
from stimsim.channel import snr_to_sigma2, transmit
from stimsim.codec import StimConfig, encode_frame
from stimsim.detectors import MpParams, ssd2_detect, ssd3_detect

GOLDEN = Path(__file__).with_name("data") / "mp_golden.npz"

QAM4 = build_alphabet("qam4")
QAM8 = build_alphabet("qam8")
QAM16 = build_alphabet("qam16")

# name: ((n_t, n_r, N, k, L), SNR dB, frames, schedule, seed[, alphabet])
CASES = {
    "fig5_chunk_6db": ((2, 4, 8, 7, 2), 6.0, 32, MpParams(), 40),
    "n32_8db": ((2, 4, 32, 28, 4), 8.0, 4, MpParams(), 41),
    "n128_8db": ((2, 4, 128, 114, 4), 8.0, 2, MpParams(), 42),
    "n128_12db": ((2, 4, 128, 114, 4), 12.0, 2, MpParams(), 43),
    # the long schedules and damping near 1 of test_detectors.MIXED_BATCHES
    "n4_36_iterations": ((2, 1, 4, 2, 2), 0.0, 12, MpParams(max_iterations=36, damping=0.3), 27),
    "n4_50_iterations": ((2, 1, 4, 2, 2), 0.0, 12, MpParams(max_iterations=50, damping=0.3), 27),
    "n16_damping_0_9": ((2, 4, 16, 13, 2), 20.0, 12, MpParams(max_iterations=8, damping=0.9), 27),
    # one rx antenna and four taps, in a chunk of several frames and of one
    "nr1_l4_qam16": ((1, 1, 16, 12, 4), 12.0, 6, MpParams(), 44, QAM16),
    "nr1_l4_qam8_one_frame": ((2, 1, 16, 12, 4), 10.0, 1, MpParams(), 45, QAM8),
    # nine rx antennas: sums over rx longer than eight terms
    "nr9_qam8": ((2, 9, 16, 13, 3), 0.0, 6, MpParams(), 46, QAM8),
}


def outputs(shape, snr, frames, mp, seed, alphabet=QAM4) -> dict[str, np.ndarray]:
    """The recorded 2SSD and 3SSD outputs of one case's seeded chunk."""
    cfg = StimConfig(*shape, alphabet)
    bits, taps, normals = draw_links(np.random.default_rng(seed), cfg, frames)
    sigma2 = snr_to_sigma2(snr, cfg.l_taps)
    y = transmit(encode_frame(bits, cfg), taps, sigma2, normals)
    res2, res3 = ssd2_detect(y, taps, sigma2, cfg, mp), ssd3_detect(y, taps, sigma2, cfg, mp)
    return {
        "ssd2_bits": res2.bits,
        "slot_posteriors": res2.diagnostics["slot_posteriors"],
        "ssd3_bits": res3.bits,
        "beliefs": res3.diagnostics["beliefs"],
    }


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("case", CASES)
def test_mp_outputs_match_golden(case, golden):
    for key, got in outputs(*CASES[case]).items():
        want = golden[f"{case}/{key}"]
        assert got.dtype == want.dtype and np.array_equal(got, want), key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **{f"{case}/{key}": value for case, args in CASES.items()
                                   for key, value in outputs(*args).items()})
    print(f"wrote {GOLDEN}")
