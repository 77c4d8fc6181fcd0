"""Frequency-selective Rayleigh channel with exponential power-delay profile.

Tap l of the channel is an n_r x n_t matrix of i.i.d. circularly-symmetric
complex Gaussians with variance e^{-l}, constant over a frame. With the
cyclic prefix removed, the frame sees the equivalent block-circulant matrix
acting on the stacked data columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import ConfigError
from .codec import StimFrame


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray  # (L, n_r, n_t)

    @property
    def l_taps(self) -> int:
        return self.taps.shape[0]


def tap_powers(l_taps: int) -> np.ndarray:
    """Average power per tap, e^{-l} for l = 0..L-1 (left unnormalized)."""
    return np.exp(-np.arange(l_taps, dtype=float))


def draw_channel(rng: np.random.Generator, cfg) -> ChannelRealization:
    """Draw one quasi-static realization for any config with n_t/n_r/l_taps."""
    n_t, n_r, l_taps = cfg.n_t, cfg.n_r, cfg.l_taps
    scale = np.sqrt(tap_powers(l_taps) / 2.0)[:, None, None]
    taps = scale * (
        rng.standard_normal((l_taps, n_r, n_t)) + 1j * rng.standard_normal((l_taps, n_r, n_t))
    )
    return ChannelRealization(taps)


def build_block_circulant(ch: ChannelRealization, n_slots: int) -> np.ndarray:
    """Equivalent (N n_r) x (N n_t) matrix: block (r, c) is tap (r-c) mod N."""
    l_taps, n_r, n_t = ch.taps.shape
    if n_slots < l_taps:
        raise ConfigError(f"need N >= L, got N={n_slots}, L={l_taps}")
    h = np.zeros((n_slots * n_r, n_slots * n_t), dtype=np.complex128)
    for r in range(n_slots):
        for l in range(l_taps):
            c = (r - l) % n_slots
            h[r * n_r : (r + 1) * n_r, c * n_t : (c + 1) * n_t] = ch.taps[l]
    return h


def snr_to_sigma2(snr_db: float, l_taps: int) -> float:
    """Noise variance per received sample for a given average SNR in dB.

    SNR is defined as E_s * sum_l e^{-l} / sigma^2 with E_s = 1 (normalized
    alphabet), one convention shared by STIM and OFDM so that relative gaps
    are insensitive to it.
    """
    p_ch = float(np.sum(tap_powers(l_taps)))
    return p_ch / 10.0 ** (snr_db / 10.0)


def transmit(
    frame: StimFrame, h: np.ndarray, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Received vector y = H x + n of length N n_r.

    h is the frame's block-circulant matrix from build_block_circulant; x
    stacks the data columns of the frame (the cyclic prefix turns the linear
    channel convolution into the block-circulant product and is then
    discarded).
    """
    x = frame.b_mat.T.reshape(-1)
    if h.shape[1] != x.size:
        raise ValueError("channel matrix and frame sizes differ")
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    )
    return h @ x + noise
