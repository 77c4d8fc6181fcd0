import numpy as np
import pytest

from oracles import demap_symbol, index_to_bits, map_bits
from stimsim.alphabet import ConfigError, build_alphabet


def test_qam4_worked_example_labeling():
    a = build_alphabet("qam4", normalize=False)
    assert map_bits([0, 1], a) == 1 - 1j
    assert map_bits([0, 0], a) == 1 + 1j
    assert map_bits([1, 1], a) == -1 - 1j
    assert map_bits([1, 0], a) == -1 + 1j


def test_bpsk_labeling():
    a = build_alphabet("bpsk", normalize=False)
    assert map_bits([0], a) == 1
    assert map_bits([1], a) == -1


def test_qam2_is_bpsk_alias():
    assert build_alphabet("qam2").kind == "bpsk"


@pytest.mark.parametrize("kind,m", [("bpsk", 1), ("qam4", 2), ("qam8", 3), ("qam16", 4)])
def test_sizes_and_normalization(kind, m):
    a = build_alphabet(kind, normalize=True)
    assert a.m_bits == m
    assert a.size == 2**m
    assert abs(np.mean(np.abs(a.points) ** 2) - 1.0) < 1e-12
    assert len(set(np.round(a.points, 12))) == a.size


@pytest.mark.parametrize("kind", ["bpsk", "qam4", "qam8", "qam16"])
@pytest.mark.parametrize("normalize", [False, True])
def test_map_demap_bijection(kind, normalize):
    a = build_alphabet(kind, normalize=normalize)
    for v in range(a.size):
        bits = index_to_bits(v, a.m_bits)
        assert np.array_equal(demap_symbol(map_bits(bits, a), a), bits)


def test_demap_nearest_neighbor():
    a = build_alphabet("qam4", normalize=False)
    assert np.array_equal(demap_symbol(0.9 - 1.1j, a), [0, 1])
    assert np.array_equal(demap_symbol(1 - 1j, a), [0, 1])


def test_qam4_gray_adjacency():
    # unnormalized points at distance 2 differ in exactly one label bit
    a = build_alphabet("qam4", normalize=False)
    for i in range(4):
        for j in range(4):
            if abs(a.points[i] - a.points[j]) == 2.0:
                assert bin(i ^ j).count("1") == 1


def test_normalize_scales_points_only():
    raw = build_alphabet("qam16", normalize=False)
    nrm = build_alphabet("qam16", normalize=True)
    scale = 1.0 / np.sqrt(np.mean(np.abs(raw.points) ** 2))
    assert np.allclose(nrm.points, raw.points * scale)


def test_unsupported_kind():
    with pytest.raises(ConfigError):
        build_alphabet("psk8")


def test_map_bits_wrong_length():
    a = build_alphabet("qam4")
    with pytest.raises(ValueError):
        map_bits([0, 1, 1], a)
