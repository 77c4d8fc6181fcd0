"""Single-antenna OFDM baseline at matched spectral efficiency.

N subcarriers all carry modulation symbols; the unitary IDFT plus a length
L-1 cyclic prefix diagonalizes the multipath channel, so per-subcarrier
nearest-symbol decisions (combined across receive antennas) are exact ML.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, ConfigError, pack_bits, unpack_bits
from .channel import ChannelRealization, apply_channel


@dataclass(frozen=True)
class OfdmConfig:
    n_r: int
    n_slots: int
    l_taps: int
    alphabet: Alphabet

    def __post_init__(self):
        if self.n_slots < self.l_taps:
            raise ConfigError(f"need N >= L, got N={self.n_slots}, L={self.l_taps}")
        if self.n_r < 1 or self.l_taps < 1:
            raise ConfigError("n_r and l_taps must be >= 1")

    @property
    def n_t(self) -> int:
        # single transmit antenna, single RF chain
        return 1

    @property
    def bits_per_frame(self) -> int:
        return self.n_slots * self.alphabet.m_bits


def ofdm_modulate(bits, cfg: OfdmConfig) -> np.ndarray:
    """Map bits to N subcarrier symbols and emit the CP-extended time block."""
    bits = np.asarray(bits, dtype=np.int8)
    m = cfg.alphabet.m_bits
    n = cfg.n_slots
    if bits.size != n * m:
        raise ValueError(f"expected {n * m} bits, got {bits.size}")
    freq = cfg.alphabet.points[pack_bits(bits, n, m)]
    time = np.fft.ifft(freq, norm="ortho")
    return np.concatenate([time[n - cfg.l_taps + 1 :], time])


def ofdm_transmit(
    block: np.ndarray, ch: ChannelRealization, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Push a CP-extended block through the multipath channel.

    Returns the (n_r, N) received samples after CP removal: the circular
    convolution of the block's last N samples with the taps.
    """
    l_taps, _, n_t = ch.taps.shape
    if n_t != 1:
        raise ValueError("OFDM baseline is single-transmit-antenna")
    y = apply_channel(ch, block[l_taps - 1 :, None]).T
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    )
    return y + noise


def ofdm_detect(y: np.ndarray, ch: ChannelRealization, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier ML over the diagonalized channel, demapped to bits.

    Takes one frame, y of shape (n_r, N) with taps (L, n_r, 1), or a batch,
    y of shape (B, n_r, N) with taps (B, L, n_r, 1); a batch gives (B, bits).
    """
    single = y.ndim == 2
    taps = ch.taps[None] if single else ch.taps
    y = y[None] if single else y
    freq_rx = np.fft.fft(y, axis=-1, norm="ortho")  # (B, n_r, N)
    # (B, n_r, N) frequency response
    lam = np.fft.fft(taps[..., 0], n=cfg.n_slots, axis=1).swapaxes(1, 2)
    pts = cfg.alphabet.points
    metric = np.abs(freq_rx[..., None] - lam[..., None] * pts) ** 2
    bits = unpack_bits(np.argmin(metric.sum(axis=1), axis=-1), cfg.alphabet.m_bits)
    return bits[0] if single else bits
