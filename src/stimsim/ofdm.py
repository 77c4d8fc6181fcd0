"""Single-antenna OFDM baseline at matched spectral efficiency.

N subcarriers all carry modulation symbols; the unitary IDFT plus a length
L-1 cyclic prefix diagonalizes the multipath channel, so per-subcarrier
nearest-symbol decisions (combined across receive antennas) are exact ML.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, ConfigError, pack_bits, unpack_bits
from .channel import apply_channel, awgn


@dataclass(frozen=True)
class OfdmConfig:
    n_r: int
    n_slots: int
    l_taps: int
    alphabet: Alphabet
    # the frame of a STIM config with every slot used on one transmit antenna
    # (one RF chain), for codec.bit_partition
    n_t = 1
    antenna_bits_per_slot = 0

    def __post_init__(self):
        if self.n_slots < self.l_taps:
            raise ConfigError(f"need N >= L, got N={self.n_slots}, L={self.l_taps}")
        if self.n_r < 1 or self.l_taps < 1:
            raise ConfigError("n_r and l_taps must be >= 1")

    @property
    def k(self) -> int:
        return self.n_slots


def ofdm_modulate(bits, cfg: OfdmConfig) -> np.ndarray:
    """Map bits to N subcarrier symbols and return the N time samples; a
    (B, bits) chunk gives (B, N). The cyclic prefix is never formed: the
    channel acts on the samples as a circular convolution."""
    bits = np.asarray(bits, dtype=np.int8)
    m = cfg.alphabet.m_bits
    n = cfg.n_slots
    if bits.shape[-1] != n * m:
        raise ValueError(f"expected {n * m} bits, got {bits.shape[-1]}")
    freq = cfg.alphabet.points[pack_bits(bits, n, m)]
    return np.fft.ifft(freq, axis=-1, norm="ortho")


def ofdm_transmit(samples: np.ndarray, taps: np.ndarray, sigma2: float, normals: np.ndarray) -> np.ndarray:
    """Push N time samples through the multipath channel.

    Returns the (n_r, N) received samples after CP removal: the circular
    convolution of the samples with the taps, plus noise from ``normals`` of
    shape (2, n_r N) (see channel.awgn). A chunk of (B, N) samples with taps
    (B, L, n_r, 1) and normals (B, 2, n_r N) gives (B, n_r, N).
    """
    if taps.shape[-1] != 1:
        raise ValueError("OFDM baseline is single-transmit-antenna")
    y = apply_channel(taps, samples[..., None]).swapaxes(-1, -2)
    return y + awgn(sigma2, normals).reshape(y.shape)


def ofdm_detect(y: np.ndarray, taps: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier ML over the diagonalized channel, demapped to bits.

    Takes a batch of B frames, y of shape (B, n_r, N) with taps
    (B, L, n_r, 1), and gives (B, bits).
    """
    want_y, want_taps = (cfg.n_r, cfg.n_slots), (cfg.l_taps, cfg.n_r, 1)
    if y.shape[1:] != want_y or taps.shape[1:] != want_taps or len(y) != len(taps):
        raise ValueError(f"y {y.shape} and taps {taps.shape} do not fit the config, which needs "
                         f"a batch of B frames: y (B, {cfg.n_r}, {cfg.n_slots}) and taps "
                         f"(B, {cfg.l_taps}, {cfg.n_r}, 1)")
    freq_rx = np.fft.fft(y, axis=-1, norm="ortho")  # (B, n_r, N)
    # (B, n_r, N) frequency response
    lam = np.fft.fft(taps[..., 0], n=cfg.n_slots, axis=1).swapaxes(1, 2)
    pts = cfg.alphabet.points
    metric = np.abs(freq_rx[..., None] - lam[..., None] * pts) ** 2
    return unpack_bits(np.argmin(metric.sum(axis=1), axis=-1), cfg.alphabet.m_bits)
