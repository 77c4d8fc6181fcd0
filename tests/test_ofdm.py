import re

import numpy as np
import pytest

from oracles import draw_links, joint_ml_reference, linear_convolution_ofdm_reference, tap_normals
from stimsim.alphabet import build_alphabet
from stimsim.channel import draw_channel, snr_to_sigma2
from stimsim.codec import bit_partition, with_cyclic_prefix
from stimsim.ofdm import (
    OfdmConfig,
    ofdm_detect,
    ofdm_modulate,
    ofdm_transmit,
)

QAM4 = build_alphabet("qam4")
QAM8 = build_alphabet("qam8")


def normals(rng, cfg):
    return rng.standard_normal((2, cfg.n_r * cfg.n_slots))


def links(rng, cfg, sigma2, frames):
    """(bits, taps, y) of frames links stacked on a leading axis (draw_links)."""
    bits, taps, noise = draw_links(rng, cfg, frames)
    return bits, taps, ofdm_transmit(ofdm_modulate(bits, cfg), taps, sigma2, noise)


def test_single_carrier_passthrough():
    cfg = OfdmConfig(1, 1, 1, QAM4)
    block = ofdm_modulate(np.array([0, 1], dtype=np.int8), cfg)
    assert block.size == 1
    assert np.allclose(block[0], QAM4.points[1])


def test_parseval():
    rng = np.random.default_rng(0)
    cfg = OfdmConfig(1, 8, 1, QAM4)
    bits = rng.integers(0, 2, 16, dtype=np.int8)
    block = ofdm_modulate(bits, cfg)
    # no CP at L=1: unitary transform preserves energy
    assert np.sum(np.abs(block) ** 2) == pytest.approx(8.0)


def test_wrong_bit_count():
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros(5, dtype=np.int8), OfdmConfig(1, 4, 2, QAM4))


def test_modulate_demodulate_identity_channel():
    rng = np.random.default_rng(1)
    cfg = OfdmConfig(1, 8, 1, QAM8)
    draws = [(rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8), normals(rng, cfg)) for _ in range(20)]
    bits, noise = (np.stack(a) for a in zip(*draws))
    taps = np.ones((20, 1, 1, 1), dtype=complex)
    y = ofdm_transmit(ofdm_modulate(bits, cfg), taps, 0.0, noise)
    assert np.array_equal(ofdm_detect(y, taps, cfg), bits)


def test_noiseless_recovery_multipath():
    rng = np.random.default_rng(2)
    cfg = OfdmConfig(4, 8, 3, QAM8)
    bits, taps, y = links(rng, cfg, 0.0, 20)
    assert np.array_equal(ofdm_detect(y, taps, cfg), bits)


def test_cp_diagonalization():
    # after CP removal the channel is diagonal in frequency, exactly
    rng = np.random.default_rng(3)
    cfg = OfdmConfig(2, 8, 3, QAM4)
    for _ in range(10):
        bits = rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8)
        samples = ofdm_modulate(bits, cfg)
        taps = draw_channel(tap_normals(rng, cfg))
        y = ofdm_transmit(samples, taps, 0.0, normals(rng, cfg))
        lam = np.fft.fft(taps[:, :, 0], n=cfg.n_slots, axis=0).T
        lhs = np.fft.fft(y, axis=1, norm="ortho")
        rhs = lam * np.fft.fft(samples, norm="ortho")[None, :]
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("n,l,n_r", [(8, 3, 2), (6, 2, 4), (4, 4, 1), (5, 1, 3)])
def test_transmit_matches_linear_convolution(n, l, n_r):
    # CP removal leaves the circular convolution that transmit computes directly
    rng = np.random.default_rng(5)
    cfg = OfdmConfig(n_r, n, l, QAM8)
    for _ in range(10):
        samples = ofdm_modulate(rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8), cfg)
        block = with_cyclic_prefix(samples[None], l)[0]
        taps = draw_channel(tap_normals(rng, cfg))
        y = ofdm_transmit(samples, taps, 0.0, normals(rng, cfg))
        assert np.abs(y - linear_convolution_ofdm_reference(block, taps)).max() < 1e-12


@pytest.mark.parametrize("n,alphabet", [(3, QAM4), (4, build_alphabet("bpsk"))])
def test_per_subcarrier_equals_joint_ml(n, alphabet):
    rng = np.random.default_rng(4)
    cfg = OfdmConfig(2, n, 2, alphabet)
    _, taps, y = links(rng, cfg, snr_to_sigma2(6.0, cfg.l_taps), 10)
    detected = ofdm_detect(y, taps, cfg)
    for i in range(10):
        assert np.array_equal(detected[i], joint_ml_reference(y[i], taps[i], cfg))


def test_batch_matches_single_frames():
    rng = np.random.default_rng(5)
    cfg = OfdmConfig(4, 6, 2, build_alphabet("qam8"))
    _, taps, y = links(rng, cfg, snr_to_sigma2(4.0, cfg.l_taps), 12)
    batch = ofdm_detect(y, taps, cfg)
    assert batch.shape == (12, bit_partition(cfg).total)
    for i in range(12):
        assert np.array_equal(batch[i : i + 1], ofdm_detect(y[i : i + 1], taps[i : i + 1], cfg))


def test_detect_rejects_an_unbatched_frame():
    rng = np.random.default_rng(7)
    cfg = OfdmConfig(4, 6, 2, QAM8)
    _, taps, y = links(rng, cfg, 0.0, 1)
    with pytest.raises(ValueError, match=re.escape("y (B, 4, 6) and taps (B, 2, 4, 1)")):
        ofdm_detect(y[0], taps[0], cfg)


def test_chunk_modulate_and_transmit_equal_per_frame():
    rng = np.random.default_rng(6)
    cfg = OfdmConfig(4, 6, 2, QAM8)
    bits = rng.integers(0, 2, (11, bit_partition(cfg).total), dtype=np.int8)
    taps = np.stack([draw_channel(tap_normals(rng, cfg)) for _ in bits])
    noise = rng.standard_normal((11, 2, cfg.n_r * cfg.n_slots))
    s2 = snr_to_sigma2(4.0, cfg.l_taps)
    blocks = ofdm_modulate(bits, cfg)
    y = ofdm_transmit(blocks, taps, s2, noise)
    assert blocks.shape == (11, cfg.n_slots)
    assert y.shape == (11, cfg.n_r, cfg.n_slots)
    for i in range(11):
        block = ofdm_modulate(bits[i], cfg)
        assert np.array_equal(blocks[i], block)
        assert np.array_equal(y[i], ofdm_transmit(block, taps[i], s2, noise[i]))
