import numpy as np
import pytest

from oracles import joint_ml_reference, linear_convolution_ofdm_reference
from stimsim.alphabet import build_alphabet
from stimsim.channel import ChannelRealization, draw_channel, snr_to_sigma2
from stimsim.ofdm import (
    OfdmConfig,
    ofdm_detect,
    ofdm_modulate,
    ofdm_transmit,
)

QAM4 = build_alphabet("qam4")
QAM8 = build_alphabet("qam8")


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
    ch = ChannelRealization(np.ones((1, 1, 1), dtype=complex))
    for _ in range(20):
        bits = rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8)
        y = ofdm_transmit(ofdm_modulate(bits, cfg), ch, 0.0, rng)
        assert np.array_equal(ofdm_detect(y, ch, cfg), bits)


def test_noiseless_recovery_multipath():
    rng = np.random.default_rng(2)
    cfg = OfdmConfig(4, 8, 3, QAM8)
    for _ in range(20):
        bits = rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8)
        ch = draw_channel(rng, cfg)
        y = ofdm_transmit(ofdm_modulate(bits, cfg), ch, 0.0, rng)
        assert np.array_equal(ofdm_detect(y, ch, cfg), bits)


def test_cp_diagonalization():
    # after CP removal the channel is diagonal in frequency, exactly
    rng = np.random.default_rng(3)
    cfg = OfdmConfig(2, 8, 3, QAM4)
    for _ in range(10):
        bits = rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8)
        block = ofdm_modulate(bits, cfg)
        data = block[cfg.l_taps - 1 :]
        ch = draw_channel(rng, cfg)
        y = ofdm_transmit(block, ch, 0.0, rng)
        lam = np.fft.fft(ch.taps[:, :, 0], n=cfg.n_slots, axis=0).T
        lhs = np.fft.fft(y, axis=1, norm="ortho")
        rhs = lam * np.fft.fft(data, norm="ortho")[None, :]
        assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("n,l,n_r", [(8, 3, 2), (6, 2, 4), (4, 4, 1), (5, 1, 3)])
def test_transmit_matches_linear_convolution(n, l, n_r):
    # CP removal leaves the circular convolution that transmit computes directly
    rng = np.random.default_rng(5)
    cfg = OfdmConfig(n_r, n, l, QAM8)
    for _ in range(10):
        block = ofdm_modulate(rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8), cfg)
        ch = draw_channel(rng, cfg)
        y = ofdm_transmit(block, ch, 0.0, rng)
        assert np.abs(y - linear_convolution_ofdm_reference(block, ch)).max() < 1e-12


@pytest.mark.parametrize("n,alphabet", [(3, QAM4), (4, build_alphabet("bpsk"))])
def test_per_subcarrier_equals_joint_ml(n, alphabet):
    rng = np.random.default_rng(4)
    cfg = OfdmConfig(2, n, 2, alphabet)
    s2 = snr_to_sigma2(6.0, cfg.l_taps)
    for _ in range(10):
        bits = rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8)
        ch = draw_channel(rng, cfg)
        y = ofdm_transmit(ofdm_modulate(bits, cfg), ch, s2, rng)
        assert np.array_equal(ofdm_detect(y, ch, cfg), joint_ml_reference(y, ch, cfg))


def test_batch_matches_single_frames():
    rng = np.random.default_rng(5)
    cfg = OfdmConfig(4, 6, 2, build_alphabet("qam8"))
    s2 = snr_to_sigma2(4.0, cfg.l_taps)
    ys, chs = [], []
    for _ in range(12):
        ch = draw_channel(rng, cfg)
        bits = rng.integers(0, 2, cfg.bits_per_frame, dtype=np.int8)
        ys.append(ofdm_transmit(ofdm_modulate(bits, cfg), ch, s2, rng))
        chs.append(ch)
    batch = ofdm_detect(np.stack(ys), ChannelRealization(np.stack([c.taps for c in chs])), cfg)
    assert batch.shape == (12, cfg.bits_per_frame)
    for i, (y, ch) in enumerate(zip(ys, chs)):
        assert np.array_equal(batch[i], ofdm_detect(y, ch, cfg))
