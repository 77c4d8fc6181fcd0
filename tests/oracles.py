"""Exact, slow reference implementations that the tests compare the
simulator's fast paths against."""

import numpy as np

from stimsim.alphabet import index_to_bits
from stimsim.channel import ChannelRealization
from stimsim.codec import StimFrame
from stimsim.ofdm import OfdmConfig


def normalize_messages(raw: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to a pmf; all-zero input becomes uniform."""
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    if total <= 0.0 or not np.isfinite(total):
        return np.full(raw.shape, 1.0 / raw.size)
    return raw / total


def circular_convolution_reference(frame: StimFrame, ch: ChannelRealization) -> np.ndarray:
    """Per-antenna circular convolution of the data columns with the taps.

    Independent oracle for the block-circulant product: entry (slot j, rx r)
    is sum_l sum_i taps[l, r, i] * B[i, (j - l) mod N].
    """
    l_taps, n_r, n_t = ch.taps.shape
    n = frame.b_mat.shape[1]
    y = np.zeros((n, n_r), dtype=np.complex128)
    for j in range(n):
        for l in range(l_taps):
            y[j] += ch.taps[l] @ frame.b_mat[:, (j - l) % n]
    return y.reshape(-1)


def joint_ml_reference(y: np.ndarray, ch: ChannelRealization, cfg: OfdmConfig) -> np.ndarray:
    """Exhaustive joint ML over all |alphabet|^N OFDM frames."""
    n, m = cfg.n_slots, cfg.alphabet.m_bits
    pts = cfg.alphabet.points
    lam = np.fft.fft(ch.taps[:, :, 0], n=n, axis=0).T
    freq_rx = np.fft.fft(y, axis=1, norm="ortho")
    best_bits, best_val = None, np.inf
    for v in range(pts.size**n):
        digits = [(v // pts.size ** (n - 1 - i)) % pts.size for i in range(n)]
        s = pts[digits]
        val = float(np.sum(np.abs(freq_rx - lam * s[None, :]) ** 2))
        if val < best_val:
            best_val = val
            best_bits = np.concatenate([index_to_bits(d, m) for d in digits])
    return best_bits
