"""Frequency-selective Rayleigh channel with exponential power-delay profile.

Tap l of the channel is an n_r x n_t matrix of i.i.d. circularly-symmetric
complex Gaussians with variance e^{-l}, constant over a frame. With the
cyclic prefix removed, the frame sees the equivalent block-circulant matrix
acting on the stacked data columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alphabet import ConfigError
from .codec import StimFrame


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray  # (L, n_r, n_t), or (B, L, n_r, n_t) for a batch of frames

    @property
    def l_taps(self) -> int:
        return self.taps.shape[-3]


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


@lru_cache(maxsize=None)
def band_index(n_slots: int, l_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Where H's nonzero blocks sit, as two (N, L) index arrays: block row r
    holds tap l in block column slot_of[r, l] = (r - l) mod N, and block
    column s holds tap l in block row obs_of[s, l] = (s + l) mod N.

    The maps are computed once per (N, L) and shared, so they are read-only.
    """
    rows, taps = np.arange(n_slots)[:, None], np.arange(l_taps)
    maps = (rows - taps) % n_slots, (rows + taps) % n_slots
    for m in maps:
        m.setflags(write=False)
    return maps


def build_block_circulant(ch: ChannelRealization, n_slots: int) -> np.ndarray:
    """Equivalent (N n_r) x (N n_t) matrix: block (r, c) is tap (r-c) mod N."""
    l_taps, n_r, n_t = ch.taps.shape
    if n_slots < l_taps:
        raise ConfigError(f"need N >= L, got N={n_slots}, L={l_taps}")
    h = np.zeros((n_slots * n_r, n_slots * n_t), dtype=np.complex128)
    slot_of, _ = band_index(n_slots, l_taps)
    h.reshape(n_slots, n_r, n_slots, n_t)[np.arange(n_slots)[:, None], :, slot_of, :] = ch.taps
    return h


def snr_to_sigma2(snr_db: float, l_taps: int) -> float:
    """Noise variance per received sample for a given average SNR in dB.

    SNR is defined as E_s * sum_l e^{-l} / sigma^2 with E_s = 1 (normalized
    alphabet), one convention shared by STIM and OFDM so that relative gaps
    are insensitive to it.
    """
    p_ch = float(np.sum(tap_powers(l_taps)))
    return p_ch / 10.0 ** (snr_db / 10.0)


def apply_channel(ch: ChannelRealization, x: np.ndarray) -> np.ndarray:
    """Noiseless circular convolution of the (N, n_t) slots x with the taps.

    Row r of the (N, n_r) result is sum_l taps[l] @ x[(r - l) mod N]: the
    block-circulant product, read off the band without forming H.
    """
    slot_of, _ = band_index(x.shape[0], ch.l_taps)
    return np.einsum("lat,rlt->ra", ch.taps, x[slot_of])


def transmit(
    frame: StimFrame, ch: ChannelRealization, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Received vector y = H x + n of length N n_r, x the frame's stacked data
    columns (the cyclic prefix turns the linear channel convolution into the
    block-circulant product and is then discarded)."""
    x = frame.b_mat.T
    if ch.taps.shape[2] != x.shape[1]:
        raise ValueError(f"channel has {ch.taps.shape[2]} transmit antennas, frame {x.shape[1]}")
    y = apply_channel(ch, x).reshape(-1)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
    )
    return y + noise
