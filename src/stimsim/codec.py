"""Bit-to-frame encoder and frame-to-bit demapper.

A frame carries three bit segments, in transmission order: antenna index
bits (floor(log2 n_t) per used slot), slot index bits (floor(log2 C(N, k))
selecting the slot activation pattern), and symbol bits (m per used slot).
Slot activation patterns are ordered lexicographically over sorted used-slot
index lists, so the slot bits are the combinadic rank of the pattern.

Encoding takes a chunk of frames stacked on a leading axis, one frame
being the chunk of one; decoding takes decisions of any leading shape.

Slots and antennas are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alphabet import Alphabet, ConfigError, pack_bits, unpack_bits


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


def bit_partition(cfg) -> BitPartition:
    """Segment sizes in transmission order: antenna, slot, symbol. An
    OfdmConfig is the frame with every slot used on one antenna: (0, 0, N m)."""
    a = cfg.antenna_bits_per_slot
    slot_bits = math.floor(math.log2(math.comb(cfg.n_slots, cfg.k)))
    return BitPartition(cfg.k * a, slot_bits, cfg.k * cfg.alphabet.m_bits)


def rank_to_sap(rank, n: int, k: int) -> np.ndarray:
    """The rank-th k-subset of {0..n-1} in lexicographic order, or (B, k)
    subsets for (B,) ranks; inverse of sap_to_rank. sap_to_rank's sum over
    the used slots is C(n, k) - 1 - rank, and the same sum over the n - k
    unused slots is rank. The walk unranks the shorter of the two greedily:
    each step takes one slot of every subset at once from a _rank_table row."""
    ranks = np.asarray(rank)
    w, total = min(k, n - k), math.comb(n, k)
    bad = ranks[(ranks < 0) | (ranks >= total)]
    if bad.size:
        raise ValueError(f"rank {bad[0]} out of range for C({n},{k})")
    table = _rank_table(n, w)
    rest = ranks.reshape(-1).astype(table.dtype)
    rest = total - 1 - rest if w == k else rest
    steps = np.empty((w, rest.size), dtype=np.int64)
    for row, e in zip(table[:0:-1], steps):
        e[:] = row[1:].searchsorted(rest, "right")  # the last e with row[e] <= rest
        rest -= row[e]
    slots = np.arange(n - w, n) - steps.T
    if w < k:  # the walk found the unused slots
        used = np.ones((rest.size, n), dtype=bool)
        used[np.arange(rest.size)[:, None], slots] = False
        slots = np.nonzero(used)[1].reshape(-1, k)
    return slots.reshape(ranks.shape + (k,))


@lru_cache(maxsize=None)
def _rank_table(n: int, k: int) -> np.ndarray:
    """Binomials for ranking k-subsets of {0..n-1}: table[j, e] = C(j + e - 1, j)
    for e >= 1 and 0 for e = 0, over j = 0..k and e = 0..n-k+1, so that
    table[k, n-k+1] = C(n, k) and no entry exceeds it.

    Built by Pascal's rule, C(j + e - 1, j) = C(j + e - 2, j - 1) + C(j + e - 2, j):
    each row is the running sum of the one above. The entries are int64 when
    C(n, k) < 2^63 and Python integers otherwise. Shared, so read-only.
    """
    dtype = np.int64 if math.comb(n, k) < 2**63 else object
    table = np.ones((k + 1, n - k + 2), dtype=dtype)
    table[:, 0] = 0
    for j in range(1, k + 1):
        np.cumsum(table[j - 1], out=table[j])
    table.setflags(write=False)
    return table


def sap_to_rank(sap: np.ndarray, n: int):
    """Lexicographic rank of a sorted k-subset of {0..n-1}; inverse of rank_to_sap.

    A (B, k) chunk of subsets gives (B,) ranks. With c_i the i-th used slot,
    rank = C(n, k) - 1 - sum_i C(n - 1 - c_i, k - i), read from _rank_table:
    its dtype is that of the ranks.
    """
    sap = np.asarray(sap)
    k = sap.shape[-1]
    table = _rank_table(n, k)
    i = np.arange(k)
    return table[k, -1] - 1 - table[k - i, n - k - (sap - i)].sum(axis=-1)


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
        current = set(used)
        unused = [s for s in range(n) if s not in current]
        # ascending-score used slots paired with descending-score unused slots
        used_order = sorted(used, key=lambda s: (scores[s], s))
        unused_order = sorted(unused, key=lambda s: (-scores[s], s))
        for out_slot, in_slot in zip(used_order, unused_order):
            current.discard(out_slot)
            current.add(in_slot)
            cand = np.array(sorted(current), dtype=np.int64)
            if sap_to_rank(cand, n) < limit:
                return cand, True
    return rank_to_sap(int(rank) % limit, n, k), True


def encode_frame(bits, cfg: StimConfig) -> np.ndarray:
    """Encode a (B, bits) chunk of source bit vectors into the frames'
    (B, N, n_t) transmit slots.

    Antenna bits are consumed per used slot in increasing slot order (bit
    value v activating antenna v), slot bits select the activation pattern by
    combinadic rank, and symbol bits fill the used slots in increasing slot
    order. Row s of a frame's slots is zero for an unused slot and holds the
    slot's symbol at its active antenna otherwise.
    """
    bits = np.asarray(bits, dtype=np.int8)
    part = bit_partition(cfg)
    if bits.shape[1:] != (part.total,):
        raise ValueError(f"need a chunk of bits (B, {part.total}), got shape {bits.shape}")
    n, k = cfg.n_slots, cfg.k
    ant_seg, slot_seg, sym_seg = np.split(
        bits, [part.antenna_bits, part.antenna_bits + part.slot_bits], axis=1
    )
    # place values in the rank table's dtype, so wide slot segments stay exact
    places = np.array([1 << i for i in range(part.slot_bits - 1, -1, -1)],
                      dtype=_rank_table(n, k).dtype)
    sap = rank_to_sap(slot_seg @ places, n, k)
    antennas = pack_bits(ant_seg, k, cfg.antenna_bits_per_slot)
    x = np.zeros((len(bits), n, cfg.n_t), dtype=np.complex128)
    x[np.arange(len(bits))[:, None], sap, antennas] = cfg.alphabet.points[
        pack_bits(sym_seg, k, cfg.alphabet.m_bits)
    ]
    return x


def slot_fields(x: np.ndarray, k: int):
    """(sap, antennas, symbols) that (N, n_t) transmit slots carry, or
    (B, k) arrays of each for (B, N, n_t) slots: the inverse of encode_frame's
    placement, for decode_frame."""
    used = (x != 0).any(axis=-1)
    sap = np.nonzero(used)[-1].reshape(used.shape[:-1] + (k,))
    active = np.take_along_axis(x, sap[..., None], axis=-2)
    antennas = np.argmax(active != 0, axis=-1)
    symbols = np.take_along_axis(active, antennas[..., None], axis=-1)[..., 0]
    return sap, antennas, symbols


def with_cyclic_prefix(b_mat: np.ndarray, l_taps: int) -> np.ndarray:
    """The transmitted (n_t, N + L - 1) matrix: the last L - 1 data columns
    of b_mat prepended as the cyclic prefix."""
    n = b_mat.shape[1]
    return np.concatenate([b_mat[:, n - l_taps + 1 :], b_mat], axis=1)


def decode_frame(sap, antennas, symbols, cfg: StimConfig) -> np.ndarray:
    """Recover the source bits from detected (pattern, antennas, symbols);
    (B, k) chunks of each give (B, bits).

    Exact inverse of encode_frame on valid inputs. A pattern outside the
    encodable rank range decodes as rank mod 2^slot_bits, the pattern
    repair_sap falls back to without scores; it is never an error.
    """
    part = bit_partition(cfg)
    # a trailing axis of one keeps even a single frame's rank an array
    ranks = sap_to_rank(np.asarray(sap)[..., None, :], cfg.n_slots) % (1 << part.slot_bits)
    pts = cfg.alphabet.points
    # nearest point per symbol; argmin keeps the lowest label on ties
    sym_idx = np.argmin(np.abs(np.asarray(symbols)[..., None] - pts), axis=-1)
    return np.concatenate([
        unpack_bits(np.asarray(antennas, dtype=np.int64), cfg.antenna_bits_per_slot),
        unpack_bits(ranks, part.slot_bits),
        unpack_bits(sym_idx, cfg.alphabet.m_bits),
    ], axis=-1)
