"""Exact ML's decisions on seeded chunks, bit for bit.

``data/ml_golden.npz`` holds, for each case below, the bits that
``ml_detect`` decided when the file was written. The metrics move by ulps
when the way they are computed changes (how G = H^H H and c = H^H y are
formed, how the products are batched), so the decisions are what must
hold: a change to how the search is computed must reproduce them exactly.

Regenerate the file only for a change that is meant to move decisions, and
list the frames that moved where the change is recorded:

    PYTHONPATH=src python tests/test_ml_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from stimsim.alphabet import build_alphabet
from stimsim.codec import StimConfig
from stimsim.detectors import ml_detect
from test_detectors import run_links

GOLDEN = Path(__file__).with_name("data") / "ml_golden.npz"

QAM4 = build_alphabet("qam4")
FIG4 = (2, 4, 6, 5, 2)
FIG5 = (2, 4, 8, 7, 2)
# Fig. 5 has 2^24 candidates, above the default cap
CAP = 2**24

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
}


def decisions(shape, alphabet, snr, frames, seed) -> np.ndarray:
    """ML's bits for one case's seeded chunk (run_links: each frame draws
    its bits, channel taps and noise normals in turn)."""
    cfg = StimConfig(*shape, alphabet)
    _, _, taps, y, _ = run_links(np.random.default_rng(seed), cfg, snr, frames)
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
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **{case: decisions(*args) for case, args in CASES.items()})
    print(f"wrote {GOLDEN}")
