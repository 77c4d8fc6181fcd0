"""Frequency-selective Rayleigh channel with exponential power-delay profile.

Tap l of the channel is an n_r x n_t matrix of i.i.d. circularly-symmetric
complex Gaussians with variance e^{-l}, constant over a frame. With the
cyclic prefix removed, the frame sees the equivalent block-circulant matrix
acting on the stacked data columns.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .alphabet import ConfigError


def tap_powers(l_taps: int) -> np.ndarray:
    """Average power per tap, e^{-l} for l = 0..L-1 (left unnormalized)."""
    return np.exp(-np.arange(l_taps, dtype=float))


@lru_cache(maxsize=None)
def _tap_scales(l_taps: int) -> np.ndarray:
    """Standard deviation of each tap's real and imaginary parts, shaped
    (L, 1, 1); shared, so read-only."""
    scale = np.sqrt(tap_powers(l_taps) / 2.0)[:, None, None]
    scale.setflags(write=False)
    return scale


def draw_channel(normals: np.ndarray) -> np.ndarray:
    """Quasi-static taps from standard normals: normals of shape (2, L, n_r, n_t)
    (the real parts, then the imaginary ones)
    give one realization's (L, n_r, n_t) taps; a chunk's stacked normals
    (B, 2, L, n_r, n_t) give its (B, L, n_r, n_t) taps in one call."""
    re, im = normals[..., 0, :, :, :], normals[..., 1, :, :, :]
    return _tap_scales(normals.shape[-3]) * (re + 1j * im)


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


def build_block_circulant(taps: np.ndarray, n_slots: int) -> np.ndarray:
    """Equivalent (N n_r) x (N n_t) matrix: block (r, c) is tap (r-c) mod N.

    No detector forms it; it is the dense reference of the tests, and
    perfbench traces it by name.
    """
    l_taps, n_r, n_t = taps.shape
    if n_slots < l_taps:
        raise ConfigError(f"need N >= L, got N={n_slots}, L={l_taps}")
    h = np.zeros((n_slots * n_r, n_slots * n_t), dtype=np.complex128)
    slot_of, _ = band_index(n_slots, l_taps)
    h.reshape(n_slots, n_r, n_slots, n_t)[np.arange(n_slots)[:, None], :, slot_of, :] = taps
    return h


def snr_to_sigma2(snr_db: float, l_taps: int) -> float:
    """Noise variance per received sample for a given average SNR in dB.

    SNR is defined as E_s * sum_l e^{-l} / sigma^2 with E_s = 1 (normalized
    alphabet), one convention shared by STIM and OFDM so that relative gaps
    are insensitive to it. An SNR whose 10^(SNR/10) overflows is noiseless,
    as +inf is; one whose 10^(SNR/10) underflows to 0 gives +inf.
    """
    p_ch = float(np.sum(tap_powers(l_taps)))
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return 0.0
    return p_ch / ratio if ratio else math.inf


def apply_channel(taps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Noiseless circular convolution of the (N, n_t) slots x with the taps;
    (B, N, n_t) slots with (B, L, n_r, n_t) taps give (B, N, n_r).

    Row r of the (N, n_r) result is sum_l taps[l] @ x[(r - l) mod N]: the
    block-circulant product, read off the band without forming H.
    """
    slot_of, _ = band_index(x.shape[-2], taps.shape[-3])
    return np.einsum("...lat,...rlt->...ra", taps, x[..., slot_of, :])


def awgn(sigma2: float, normals: np.ndarray) -> np.ndarray:
    """Circularly-symmetric complex noise of variance sigma2 from standard
    normals of shape (..., 2, n): the real parts, then the imaginary ones."""
    return np.sqrt(sigma2 / 2.0) * (normals[..., 0, :] + 1j * normals[..., 1, :])


def transmit(x: np.ndarray, taps: np.ndarray, sigma2: float, normals: np.ndarray) -> np.ndarray:
    """Received vector y = H x + n of length N n_r for the (N, n_t) transmit
    slots x (the cyclic prefix turns the linear channel convolution into the
    block-circulant product and is then discarded).

    The noise comes from ``normals``, shape (2, N n_r) (see awgn). A chunk,
    x of shape (B, N, n_t) with taps (B, L, n_r, n_t) and normals
    (B, 2, N n_r), gives (B, N n_r) from one band product.
    """
    if taps.shape[-1] != x.shape[-1]:
        raise ValueError(f"channel has {taps.shape[-1]} transmit antennas, frame {x.shape[-1]}")
    y = apply_channel(taps, x)
    return y.reshape(y.shape[:-2] + (-1,)) + awgn(sigma2, normals)
