import math
from itertools import combinations

import numpy as np
import pytest

from stimsim.alphabet import build_alphabet
from stimsim.codec import (
    StimConfig,
    bit_partition,
    decode_frame,
    encode_frame,
    rank_to_sap,
    repair_sap,
    sap_to_rank,
    with_cyclic_prefix,
)

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


def test_first_element_excluded_rank_bound():
    # subsets not containing slot 0 rank at or above C(n-1, k-1)
    for n, k in [(8, 3), (10, 4)]:
        for subset in lex_subsets(n, k):
            if subset[0] != 0:
                assert sap_to_rank(subset, n) >= math.comb(n - 1, k - 1)


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        rank_to_sap(math.comb(8, 7), 8, 7)


# ---------------------------------------------------------------------------
# frame encoding
# ---------------------------------------------------------------------------


def test_all_zero_bits():
    c = cfg()
    frame = encode_frame(np.zeros(24, dtype=np.int8), c)
    assert np.array_equal(frame.sap, np.arange(7))
    assert np.array_equal(frame.antennas, np.zeros(7))
    assert np.all(frame.symbols == QAM4.points[0])


def test_activation_matrix_weights():
    c = cfg()
    rng = np.random.default_rng(3)
    for _ in range(50):
        frame = encode_frame(rng.integers(0, 2, 24, dtype=np.int8), c)
        weights = frame.a_mat.sum(axis=0)
        assert np.all((weights == 0) | (weights == 1))
        assert weights.sum() == c.k
        assert np.array_equal(frame.b_mat != 0, frame.a_mat.astype(bool))


def test_cyclic_prefix_property():
    c = cfg(l=3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        frame = encode_frame(rng.integers(0, 2, 24, dtype=np.int8), c)
        x_mat = with_cyclic_prefix(frame.b_mat, c.l_taps)
        assert np.array_equal(x_mat[:, : c.l_taps - 1], frame.b_mat[:, -(c.l_taps - 1) :])
        assert np.array_equal(x_mat[:, c.l_taps - 1 :], frame.b_mat)


def test_encode_wrong_length():
    with pytest.raises(ValueError):
        encode_frame(np.zeros(23, dtype=np.int8), cfg())


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
    for _ in range(400):
        bits = rng.integers(0, 2, part.total, dtype=np.int8)
        frame = encode_frame(bits, c)
        assert np.array_equal(decode_frame(frame.sap, frame.antennas, frame.symbols, c), bits)


def test_encodable_frame_count_small():
    # every distinct bit string gives a distinct (sap, antennas, symbols) triple
    c = cfg(n=4, k=2, l=2)
    part = bit_partition(c)
    seen = set()
    for v in range(2**part.total):
        bits = np.array([(v >> (part.total - 1 - i)) & 1 for i in range(part.total)], dtype=np.int8)
        frame = encode_frame(bits, c)
        seen.add((tuple(frame.sap), tuple(frame.antennas), tuple(np.round(frame.symbols, 9))))
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


def test_decode_repairs_invalid_pattern():
    c = cfg(n=6, k=5)
    bad = np.array([1, 2, 3, 4, 5])
    sym = QAM4.points[np.zeros(5, dtype=int)]
    bits = decode_frame(bad, np.zeros(5, dtype=int), sym, c)
    part = bit_partition(c)
    slot_bits = bits[part.antenna_bits : part.antenna_bits + part.slot_bits]
    assert int("".join(map(str, slot_bits)), 2) < 4
