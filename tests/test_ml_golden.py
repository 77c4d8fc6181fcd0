"""Exact ML's decisions on seeded chunks, bit for bit.

``data/ml_golden.npz`` holds, for each case below, the bits that
``ml_detect`` decided when the file was written. The metrics move by ulps
when the way they are computed changes (how G = H^H H and c = H^H y are
formed, how the products are batched), so the decisions are what must
hold: a change to how the search is computed must reproduce them exactly.

Running this file writes the cases that the file does not hold yet and
leaves every case it holds as it is:

    PYTHONPATH=src python tests/test_ml_golden.py

To move a case's decisions on purpose, rewrite just that case; the frames
whose bits moved against the file are printed, to be listed where the
change is recorded:

    PYTHONPATH=src python tests/test_ml_golden.py --rewrite CASE [CASE ...]
"""

import argparse
from pathlib import Path

import numpy as np
import pytest

from stimsim.alphabet import build_alphabet
from stimsim.codec import StimConfig
from stimsim.detectors import ml_detect
from test_detectors import placed_links, run_links

GOLDEN = Path(__file__).with_name("data") / "ml_golden.npz"

QAM4 = build_alphabet("qam4")
FIG4 = (2, 4, 6, 5, 2)
FIG5 = (2, 4, 8, 7, 2)
# Fig. 5 has 2^24 candidates and Fig. 4 with qam16 2^27, above the default cap
CAP = 2**27

# y = 0 on the chunk's even frames: there every candidate ties with its
# negation, and the frame takes the lowest bits among its near ties
HALF_ZERO = "even frames y = 0"
# noiseless frames sent on the slot patterns the encoder never sends
# (placed_links), so that the nearest candidate is not one ML may return
PLACED = "unencodable patterns"

# name: ((n_t, n_r, N, k, L), alphabet, SNR dB (None: noiseless), frames, seed)
CASES = {
    "fig4_noiseless": (FIG4, QAM4, None, 42, 50),
    "fig4_3db": (FIG4, QAM4, 3.0, 42, 51),
    "fig4_9db": (FIG4, QAM4, 9.0, 42, 52),
    "fig4_12db": (FIG4, QAM4, 12.0, 42, 53),
    "qam4_raw_noiseless": (FIG4, build_alphabet("qam4", normalize=False), None, 42, 54),
    "qam4_raw_6db": (FIG4, build_alphabet("qam4", normalize=False), 6.0, 42, 55),
    "nt1_bpsk_noiseless": ((1, 4, 6, 5, 2), build_alphabet("bpsk"), None, 42, 56),
    "nt1_bpsk_3db": ((1, 4, 6, 5, 2), build_alphabet("bpsk"), 3.0, 42, 57),
    "k1_6db": ((2, 2, 4, 1, 2), QAM4, 6.0, 16, 58),
    "k_eq_n_6db": ((2, 2, 3, 3, 2), QAM4, 6.0, 16, 59),
    "nt4_qam8_9db": ((4, 1, 4, 2, 1), build_alphabet("qam8"), 9.0, 16, 60),
    "fig5_noiseless": (FIG5, QAM4, None, 3, 61),
    "fig5_6db": (FIG5, QAM4, 6.0, 3, 62),
    "fig4_0db": (FIG4, QAM4, 0.0, 42, 63),
    "fig5_0db": (FIG5, QAM4, 0.0, 3, 64),
    "fig5_12db": (FIG5, QAM4, 12.0, 3, 65),
    "nt4_qam8_0db": ((4, 1, 4, 2, 1), build_alphabet("qam8"), 0.0, 16, 66),
    "fig4_half_zero": (FIG4, QAM4, HALF_ZERO, 12, 67),
    "n5k2_noiseless": ((2, 4, 5, 2, 2), QAM4, None, 42, 68),
    "n5k2_0db": ((2, 4, 5, 2, 2), QAM4, 0.0, 42, 69),
    "n5k2_9db": ((2, 4, 5, 2, 2), QAM4, 9.0, 42, 70),
    "fig4_qam16_6db": (FIG4, build_alphabet("qam16"), 6.0, 16, 71),
    "fig4_qam16_12db": (FIG4, build_alphabet("qam16"), 12.0, 16, 72),
    "fig4_placed": (FIG4, QAM4, PLACED, 42, 73),
    "n5k2_placed": ((2, 4, 5, 2, 2), QAM4, PLACED, 42, 74),
}


def decisions(shape, alphabet, snr, frames, seed) -> np.ndarray:
    """ML's bits for one case's seeded chunk (run_links, or placed_links for
    PLACED: each frame draws its bits, channel taps and noise normals in
    turn)."""
    cfg, rng = StimConfig(*shape, alphabet), np.random.default_rng(seed)
    if snr == PLACED:
        _, taps, y = placed_links(rng, cfg, None, frames)
        return ml_detect(y, taps, cfg, cap=CAP).bits
    zero = snr == HALF_ZERO
    _, _, taps, y, _ = run_links(rng, cfg, None if zero else snr, frames)
    if zero:
        y[::2] = 0.0
    return ml_detect(y, taps, cfg, cap=CAP).bits


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("case", CASES)
def test_ml_decisions_match_golden(case, golden):
    got, want = decisions(*CASES[case]), golden[case]
    assert got.dtype == want.dtype and np.array_equal(got, want), np.flatnonzero((got != want).any(axis=1))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden ML cases the file lacks.")
    parser.add_argument("--rewrite", nargs="+", default=[], choices=list(CASES), metavar="CASE",
                        help="also recompute these cases, printing the frames whose bits moved")
    rewrite = parser.parse_args().rewrite
    GOLDEN.parent.mkdir(exist_ok=True)
    have = {}
    if GOLDEN.exists():
        with np.load(GOLDEN) as data:
            have = dict(data)
    new = {case: decisions(*args) for case, args in CASES.items() if case not in have or case in rewrite}
    for case in rewrite:
        if case in have:
            moved = np.flatnonzero((new[case] != have[case]).any(axis=1))
            print(f"{case}: frames {moved.tolist()} moved")
    np.savez_compressed(GOLDEN, **{**have, **new})
    print(f"wrote {', '.join(new) or 'no case'} to {GOLDEN}")
