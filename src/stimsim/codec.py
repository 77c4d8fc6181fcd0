"""Bit-to-frame encoder and frame-to-bit demapper.

A frame carries three bit segments, in transmission order: antenna index
bits (floor(log2 n_t) per used slot), slot index bits (floor(log2 C(N, k))
selecting the slot activation pattern), and symbol bits (m per used slot).
Slot activation patterns are ordered lexicographically over sorted used-slot
index lists, so the slot bits are the combinadic rank of the pattern.

Slots and antennas are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, ConfigError, bits_to_index, index_to_bits, pack_bits, unpack_bits


@dataclass(frozen=True)
class StimConfig:
    """System parameters for one STIM link (single transmit RF chain)."""

    n_t: int
    n_r: int
    n_slots: int
    k: int
    l_taps: int
    alphabet: Alphabet

    def __post_init__(self):
        if not 1 <= self.k <= self.n_slots:
            raise ConfigError(f"need 1 <= k <= N, got k={self.k}, N={self.n_slots}")
        if self.n_t < 1 or self.n_r < 1 or self.l_taps < 1:
            raise ConfigError("n_t, n_r and l_taps must be >= 1")
        if self.n_t & (self.n_t - 1):
            raise ConfigError(f"n_t must be a power of two, got {self.n_t}")
        if self.n_slots < self.l_taps:
            raise ConfigError(f"need N >= L, got N={self.n_slots}, L={self.l_taps}")

    @property
    def antenna_bits_per_slot(self) -> int:
        return self.n_t.bit_length() - 1


@dataclass(frozen=True)
class BitPartition:
    antenna_bits: int
    slot_bits: int
    symbol_bits: int

    @property
    def total(self) -> int:
        return self.antenna_bits + self.slot_bits + self.symbol_bits


def bit_partition(cfg: StimConfig) -> BitPartition:
    """Segment sizes in transmission order: antenna, slot, symbol."""
    a = cfg.antenna_bits_per_slot
    slot_bits = math.floor(math.log2(math.comb(cfg.n_slots, cfg.k)))
    return BitPartition(cfg.k * a, slot_bits, cfg.k * cfg.alphabet.m_bits)


@dataclass(frozen=True)
class StimFrame:
    """One encoded frame: activation matrix and signal matrix."""

    a_mat: np.ndarray  # (n_t, N) 0/1
    b_mat: np.ndarray  # (n_t, N) complex
    bits: np.ndarray  # the full source bit vector
    sap: np.ndarray  # sorted used-slot indices, 0-based
    antennas: np.ndarray  # active antenna per used slot, 0-based
    symbols: np.ndarray  # constellation point per used slot


def rank_to_sap(rank: int, n: int, k: int) -> np.ndarray:
    """The rank-th k-subset of {0..n-1} in lexicographic order."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    subset = np.empty(k, dtype=np.int64)
    x = 0
    for i in range(k):
        # advance x past all blocks whose remaining-subset count is exhausted
        while True:
            block = math.comb(n - x - 1, k - i - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        subset[i] = x
        x += 1
    return subset


def sap_to_rank(sap: np.ndarray, n: int) -> int:
    """Lexicographic rank of a sorted k-subset of {0..n-1}; inverse of rank_to_sap."""
    sap = np.asarray(sap)
    k = sap.size
    rank = 0
    prev = -1
    for i, c in enumerate(sap):
        for x in range(prev + 1, int(c)):
            rank += math.comb(n - x - 1, k - i - 1)
        prev = int(c)
    return rank


def repair_sap(sap: np.ndarray, cfg: StimConfig, slot_scores=None) -> tuple[np.ndarray, bool]:
    """Force a detected slot pattern into the encodable rank range.

    Detected patterns can have rank >= 2^slot_bits (such ranks are never
    transmitted). Repair swaps the least-plausible used slot for the
    most-plausible unused one, guided by per-slot activity scores, re-ranking
    after each swap; if that fails, falls back to rank mod 2^slot_bits.
    Returns (pattern, repaired_flag).
    """
    n, k = cfg.n_slots, cfg.k
    limit = 1 << bit_partition(cfg).slot_bits
    rank = sap_to_rank(sap, n)
    if rank < limit:
        return np.asarray(sap, dtype=np.int64), False
    if slot_scores is not None:
        scores = np.asarray(slot_scores, dtype=float)
        used = list(np.asarray(sap))
        unused = [s for s in range(n) if s not in set(used)]
        # ascending-score used slots paired with descending-score unused slots
        used_order = sorted(used, key=lambda s: (scores[s], s))
        unused_order = sorted(unused, key=lambda s: (-scores[s], s))
        current = set(used)
        for out_slot, in_slot in zip(used_order, unused_order):
            current.discard(out_slot)
            current.add(in_slot)
            cand = np.array(sorted(current), dtype=np.int64)
            if sap_to_rank(cand, n) < limit:
                return cand, True
    return rank_to_sap(rank % limit, n, k), True


def encode_frame(bits, cfg: StimConfig) -> StimFrame:
    """Encode a source bit vector into a STIM frame.

    Antenna bits are consumed per used slot in increasing slot order (bit
    value v activating antenna v), slot bits select the activation pattern by
    combinadic rank, and symbol bits fill the used slots in increasing slot
    order.
    """
    bits = np.asarray(bits, dtype=np.int8)
    part = bit_partition(cfg)
    if bits.size != part.total:
        raise ValueError(f"expected {part.total} bits, got {bits.size}")
    n, k, n_t = cfg.n_slots, cfg.k, cfg.n_t
    a_bits = cfg.antenna_bits_per_slot
    m = cfg.alphabet.m_bits

    ant_seg = bits[: part.antenna_bits]
    slot_seg = bits[part.antenna_bits : part.antenna_bits + part.slot_bits]
    sym_seg = bits[part.antenna_bits + part.slot_bits :]

    sap = rank_to_sap(bits_to_index(slot_seg), n, k)
    antennas = pack_bits(ant_seg, k, a_bits)
    symbols = cfg.alphabet.points[pack_bits(sym_seg, k, m)]

    a_mat = np.zeros((n_t, n), dtype=np.int8)
    b_mat = np.zeros((n_t, n), dtype=np.complex128)
    a_mat[antennas, sap] = 1
    b_mat[antennas, sap] = symbols
    return StimFrame(a_mat, b_mat, bits, sap, antennas, symbols)


def with_cyclic_prefix(b_mat: np.ndarray, l_taps: int) -> np.ndarray:
    """The transmitted (n_t, N + L - 1) matrix: the last L - 1 data columns
    of b_mat prepended as the cyclic prefix."""
    n = b_mat.shape[1]
    return np.concatenate([b_mat[:, n - l_taps + 1 :], b_mat], axis=1)


def decode_frame(sap, antennas, symbols, cfg: StimConfig) -> np.ndarray:
    """Recover the source bits from detected (pattern, antennas, symbols).

    Exact inverse of encode_frame on valid inputs. A pattern outside the
    encodable rank range is repaired first (see repair_sap); it is never an
    error.
    """
    part = bit_partition(cfg)
    a_bits = cfg.antenna_bits_per_slot
    m = cfg.alphabet.m_bits
    sap, _ = repair_sap(np.asarray(sap), cfg)

    pts = cfg.alphabet.points
    # nearest point per symbol; argmin keeps the lowest label on ties, as demap_symbol
    sym_idx = np.argmin(np.abs(pts[None, :] - np.asarray(symbols)[:, None]), axis=1)
    return np.concatenate([
        unpack_bits(np.asarray(antennas, dtype=np.int64), a_bits),
        index_to_bits(sap_to_rank(sap, cfg.n_slots), part.slot_bits),
        unpack_bits(sym_idx, m),
    ])
