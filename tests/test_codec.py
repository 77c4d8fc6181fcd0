import math
import re
from itertools import combinations

import numpy as np
import pytest

from oracles import lex_unrank
from stimsim.alphabet import build_alphabet
from stimsim.codec import (
    StimConfig,
    bit_partition,
    decode_frame,
    encode_frame,
    rank_to_sap,
    repair_sap,
    sap_to_rank,
    slot_fields,
    with_cyclic_prefix,
)
from stimsim.ofdm import OfdmConfig

QAM4 = build_alphabet("qam4")
QAM4_RAW = build_alphabet("qam4", normalize=False)
BPSK = build_alphabet("bpsk")


def cfg(n_t=2, n_r=4, n=8, k=7, l=2, alphabet=QAM4):
    return StimConfig(n_t, n_r, n, k, l, alphabet)


# ---------------------------------------------------------------------------
# bit partition
# ---------------------------------------------------------------------------


def test_partition_worked_example():
    part = bit_partition(cfg())
    assert (part.antenna_bits, part.slot_bits, part.symbol_bits) == (7, 3, 14)
    assert part.total == 24


def test_partition_fig4():
    part = bit_partition(cfg(n=6, k=5))
    assert (part.antenna_bits, part.slot_bits, part.symbol_bits) == (5, 2, 10)
    assert part.total == 17


def test_partition_degenerate():
    part = bit_partition(cfg(n_t=1, n=4, k=4, alphabet=BPSK))
    assert (part.antenna_bits, part.slot_bits, part.symbol_bits) == (0, 0, 4)
    # OFDM is that frame: every slot used on one antenna
    assert bit_partition(OfdmConfig(4, 4, 2, BPSK)) == part


def test_equal_configs_compare_equal_and_hash_alike():
    a, b = build_alphabet("qam4"), build_alphabet("qam4")
    assert a == b and hash(a) == hash(b)
    assert a != QAM4_RAW and a != build_alphabet("qam8")
    assert cfg() == cfg(alphabet=b) and hash(cfg()) == hash(cfg(alphabet=b))
    assert cfg() != cfg(alphabet=QAM4_RAW) and cfg() != cfg(k=6)
    ofdm = OfdmConfig(4, 8, 2, a)
    assert ofdm == OfdmConfig(4, 8, 2, b) and hash(ofdm) == hash(OfdmConfig(4, 8, 2, b))
    assert ofdm != OfdmConfig(4, 8, 2, QAM4_RAW)


# ---------------------------------------------------------------------------
# combinadic ranking (oracle: exhaustive lexicographic enumeration)
# ---------------------------------------------------------------------------


def lex_subsets(n, k):
    return [np.array(s) for s in combinations(range(n), k)]


def test_rank_to_sap_first_two():
    assert np.array_equal(rank_to_sap(0, 8, 7), np.arange(7))
    # rank 1 leaves slot 6 (0-based) unused, matching the worked example
    assert np.array_equal(rank_to_sap(1, 8, 7), [0, 1, 2, 3, 4, 5, 7])


def test_sap_to_rank_inverse_of_worked_example():
    assert sap_to_rank(np.arange(7), 8) == 0
    assert sap_to_rank(np.array([0, 1, 2, 3, 4, 5, 7]), 8) == 1
    # pattern skipping the first slot has rank N - u = 7 with k = N-1
    assert sap_to_rank(np.arange(1, 8), 8) == 7


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 7), (12, 11), (9, 4), (12, 6)])
def test_rank_roundtrip_exhaustive(n, k):
    subsets = lex_subsets(n, k)
    assert len(subsets) == math.comb(n, k)
    for r, subset in enumerate(subsets):
        assert np.array_equal(rank_to_sap(r, n, k), subset)
        assert sap_to_rank(subset, n) == r


@pytest.mark.parametrize("n", range(1, 11))
def test_chunk_ranks_match_lexicographic_order(n):
    # sap_to_rank on a (B, k) chunk of every k-subset, for every k <= n <= 10
    for k in range(1, n + 1):
        ranks = sap_to_rank(np.array(lex_subsets(n, k)), n)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, np.arange(math.comb(n, k)))


@pytest.mark.parametrize("n", range(1, 11))
def test_chunk_unranking_matches_scalar_unranking(n):
    # rank_to_sap on a (B,) array of every rank, for every k <= n <= 10
    for k in range(1, n + 1):
        want = np.array(lex_subsets(n, k))
        saps = rank_to_sap(np.arange(math.comb(n, k)), n, k)
        assert saps.dtype == np.int64 and saps.shape == want.shape
        assert np.array_equal(saps, want)
        assert np.array_equal(saps, [rank_to_sap(r, n, k) for r in range(math.comb(n, k))])


@pytest.mark.parametrize("n", range(2, 11))
def test_chunk_encode_places_every_rank(n):
    # one chunk of frames whose slot bits run through every encodable rank
    for k in range(1, n + 1):
        c = cfg(n=n, k=k, l=1)
        part = bit_partition(c)
        ranks = np.arange(1 << part.slot_bits)
        bits = np.random.default_rng(n).integers(0, 2, (ranks.size, part.total), dtype=np.int8)
        shifts = np.arange(part.slot_bits - 1, -1, -1)
        bits[:, part.antenna_bits : part.antenna_bits + part.slot_bits] = (ranks[:, None] >> shifts) & 1
        fields = slot_fields(encode_frame(bits, c), k)
        assert np.array_equal(fields[0], [rank_to_sap(int(r), n, k) for r in ranks])
        assert np.array_equal(decode_frame(*fields, c), bits)


@pytest.mark.parametrize("k,dtype", [(114, np.int64), (64, object)])
def test_paper_scale_ranks_and_roundtrip(k, dtype):
    # C(128, 114) < 2^63 ranks in int64; C(128, 64) >= 2^63 in Python integers
    c = cfg(n=128, k=k, l=4)
    part = bit_partition(c)
    rng = np.random.default_rng(k)
    want = [int.from_bytes(rng.bytes(16), "big") >> (128 - part.slot_bits) for _ in range(20)]
    saps = rank_to_sap(np.array(want, dtype=dtype), 128, k)
    assert saps.shape == (20, k)
    assert np.array_equal(saps, [lex_unrank(r, 128, k) for r in want])
    assert np.array_equal(saps, [rank_to_sap(r, 128, k) for r in want])
    ranks = sap_to_rank(saps, 128)
    assert ranks.dtype == dtype
    assert ranks.tolist() == want
    bits = rng.integers(0, 2, (20, part.total), dtype=np.int8)
    slots = encode_frame(bits, c)
    assert slots.shape == (20, 128, 2)
    assert np.array_equal(decode_frame(*slot_fields(slots, k), c), bits)
    for i in range(3):
        assert np.array_equal(encode_frame(bits[i : i + 1], c), slots[i : i + 1])
        assert np.array_equal(decode_frame(*slot_fields(slots[i], k), c), bits[i])


def test_first_element_excluded_rank_bound():
    # subsets not containing slot 0 rank at or above C(n-1, k-1)
    for n, k in [(8, 3), (10, 4)]:
        for subset in lex_subsets(n, k):
            if subset[0] != 0:
                assert sap_to_rank(subset, n) >= math.comb(n - 1, k - 1)


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        rank_to_sap(math.comb(8, 7), 8, 7)
    for bad in (math.comb(8, 7), -1):
        with pytest.raises(ValueError, match=f"rank {bad} out of range"):
            rank_to_sap(np.array([0, 3, bad, 1]), 8, 7)
    with pytest.raises(ValueError, match=r"out of range for C\(128,64\)"):
        rank_to_sap(np.array([0, math.comb(128, 64)], dtype=object), 128, 64)


# ---------------------------------------------------------------------------
# frame encoding
# ---------------------------------------------------------------------------


def test_all_zero_bits():
    c = cfg()
    sap, antennas, symbols = slot_fields(encode_frame(np.zeros((1, 24), dtype=np.int8), c)[0], c.k)
    assert np.array_equal(sap, np.arange(7))
    assert np.array_equal(antennas, np.zeros(7))
    assert np.all(symbols == QAM4.points[0])


def test_activation_matrix_weights():
    c = cfg()
    rng = np.random.default_rng(3)
    slots = encode_frame(np.stack([rng.integers(0, 2, 24, dtype=np.int8) for _ in range(50)]), c)
    assert slots.shape == (50, c.n_slots, c.n_t)
    weights = (slots != 0).sum(axis=-1)
    assert np.all((weights == 0) | (weights == 1))
    assert np.all(weights.sum(axis=-1) == c.k)


def test_cyclic_prefix_property():
    c = cfg(l=3)
    rng = np.random.default_rng(4)
    slots = encode_frame(np.stack([rng.integers(0, 2, 24, dtype=np.int8) for _ in range(20)]), c)
    for b_mat in slots.swapaxes(1, 2):
        x_mat = with_cyclic_prefix(b_mat, c.l_taps)
        assert np.array_equal(x_mat[:, : c.l_taps - 1], b_mat[:, -(c.l_taps - 1) :])
        assert np.array_equal(x_mat[:, c.l_taps - 1 :], b_mat)


def test_encode_wrong_length():
    with pytest.raises(ValueError, match=re.escape("(B, 24), got shape (1, 23)")):
        encode_frame(np.zeros((1, 23), dtype=np.int8), cfg())


def test_encode_rejects_unbatched_bits():
    with pytest.raises(ValueError, match=re.escape("(B, 24), got shape (24,)")):
        encode_frame(np.zeros(24, dtype=np.int8), cfg())


@pytest.mark.parametrize(
    "c",
    [
        cfg(),
        cfg(n=6, k=5),
        cfg(n_t=4, n=6, k=3, alphabet=BPSK),
        cfg(n_t=1, n=5, k=2, alphabet=build_alphabet("qam16")),
        cfg(n_t=1, n=4, k=4, alphabet=BPSK),
    ],
)
def test_encode_decode_roundtrip(c):
    rng = np.random.default_rng(5)
    part = bit_partition(c)
    bits = np.stack([rng.integers(0, 2, part.total, dtype=np.int8) for _ in range(400)])
    fields = slot_fields(encode_frame(bits, c), c.k)
    assert np.array_equal(decode_frame(*fields, c), bits)


def test_encodable_frame_count_small():
    # every distinct bit string gives a distinct (sap, antennas, symbols) triple
    c = cfg(n=4, k=2, l=2)
    part = bit_partition(c)
    bits = np.array([[(v >> (part.total - 1 - i)) & 1 for i in range(part.total)]
                     for v in range(2**part.total)], dtype=np.int8)
    seen = set()
    for sap, antennas, symbols in zip(*slot_fields(encode_frame(bits, c), c.k)):
        seen.add((tuple(sap), tuple(antennas), tuple(np.round(symbols, 9))))
    assert len(seen) == 2**part.total


# ---------------------------------------------------------------------------
# invalid-pattern repair
# ---------------------------------------------------------------------------


def test_repair_valid_pattern_untouched():
    c = cfg(n=6, k=5)
    sap, repaired = repair_sap(np.array([0, 1, 2, 3, 4]), c)
    assert not repaired
    assert np.array_equal(sap, [0, 1, 2, 3, 4])


def test_repair_uses_scores():
    # N=6, k=5: valid ranks 0..3 leave one of slots 2..5 unused. A detected
    # pattern leaving slot 0 unused (rank 6-0=... >= 4) must be repaired by
    # dropping the weakest used slot.
    c = cfg(n=6, k=5)
    bad = np.array([1, 2, 3, 4, 5])
    scores = np.array([0.9, 0.8, 0.1, 0.7, 0.6, 0.5])
    sap, repaired = repair_sap(bad, c, scores)
    assert repaired
    assert sap_to_rank(sap, 6) < 4
    assert 0 in sap and 2 not in sap


def test_repair_fallback_without_scores():
    c = cfg(n=6, k=5)
    bad = np.array([1, 2, 3, 4, 5])  # rank 5 >= 4
    sap, repaired = repair_sap(bad, c)
    assert repaired
    assert sap_to_rank(sap, 6) == sap_to_rank(bad, 6) % 4


def test_chunk_decode_repairs_like_single_frames():
    c = cfg(n=6, k=5)
    saps = np.array(lex_subsets(6, 5))  # ranks 0..5, of which 4 and 5 are not encodable
    antennas = np.zeros((6, 5), dtype=int)
    symbols = QAM4.points[np.arange(30).reshape(6, 5) % 4]
    chunk = decode_frame(saps, antennas, symbols, c)
    for i in range(6):
        fixed, _ = repair_sap(saps[i], c)
        assert np.array_equal(chunk[i], decode_frame(saps[i], antennas[i], symbols[i], c))
        assert np.array_equal(chunk[i], decode_frame(fixed, antennas[i], symbols[i], c))


def test_decode_repairs_invalid_pattern():
    c = cfg(n=6, k=5)
    bad = np.array([1, 2, 3, 4, 5])
    sym = QAM4.points[np.zeros(5, dtype=int)]
    bits = decode_frame(bad, np.zeros(5, dtype=int), sym, c)
    part = bit_partition(c)
    slot_bits = bits[part.antenna_bits : part.antenna_bits + part.slot_bits]
    assert int("".join(map(str, slot_bits)), 2) < 4
