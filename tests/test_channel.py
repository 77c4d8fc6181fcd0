import numpy as np
import pytest

from oracles import circular_convolution_reference
from stimsim.alphabet import ConfigError, build_alphabet
from stimsim.channel import (
    ChannelRealization,
    band_index,
    build_block_circulant,
    draw_channel,
    snr_to_sigma2,
    transmit,
)
from stimsim.codec import StimConfig, bit_partition, encode_frame

QAM4 = build_alphabet("qam4")


def make_cfg(n_t=2, n_r=4, n=8, k=7, l=2):
    return StimConfig(n_t, n_r, n, k, l, QAM4)


def random_frame(rng, cfg):
    return encode_frame(rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8), cfg)


def test_tap_variances_follow_pdp():
    rng = np.random.default_rng(0)
    cfg = make_cfg(n_t=2, n_r=2, l=3)
    samples = np.stack([draw_channel(rng, cfg).taps for _ in range(50_000)])
    var = np.mean(np.abs(samples) ** 2, axis=(0, 2, 3))
    # 50k draws x 4 entries: standard error of the variance ~ e^-l / sqrt(2e5)
    for l in range(3):
        se = np.exp(-l) / np.sqrt(2 * 10**5)
        assert abs(var[l] - np.exp(-l)) < 3.5 * se


def test_draw_deterministic_given_seed():
    cfg = make_cfg()
    a = draw_channel(np.random.default_rng(42), cfg)
    b = draw_channel(np.random.default_rng(42), cfg)
    assert np.array_equal(a.taps, b.taps)


def test_single_tap_block_diagonal():
    rng = np.random.default_rng(1)
    cfg = make_cfg(n_r=2, l=1)
    ch = draw_channel(rng, cfg)
    h = build_block_circulant(ch, 4)
    for r in range(4):
        for c in range(4):
            block = h[r * 2 : (r + 1) * 2, c * 2 : (c + 1) * 2]
            if r == c:
                assert np.array_equal(block, ch.taps[0])
            else:
                assert np.all(block == 0)


def test_scalar_circulant_structure():
    taps = np.array([[[2.0 + 0j]], [[5.0 + 0j]]])  # h0=2, h1=5
    h = build_block_circulant(ChannelRealization(taps), 3)
    expected = np.array([[2, 0, 5], [5, 2, 0], [0, 5, 2]], dtype=complex)
    assert np.array_equal(h, expected)


def test_band_index_is_shared_and_read_only():
    slot_of, obs_of = band_index(8, 2)
    assert band_index(8, 2)[0] is slot_of
    for m in (slot_of, obs_of):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5
    assert np.array_equal(slot_of[:, 1], (np.arange(8) - 1) % 8)


def test_block_circulant_requires_n_ge_l():
    rng = np.random.default_rng(2)
    ch = draw_channel(rng, make_cfg(l=2))
    with pytest.raises(ConfigError):
        build_block_circulant(ch, 1)


@pytest.mark.parametrize("n,l,n_t,n_r", [
    (4, 2, 2, 2), (8, 3, 2, 4), (16, 4, 4, 2), (5, 1, 1, 1),
    (6, 3, 1, 2), (4, 4, 2, 2), (128, 4, 2, 4),
])
def test_block_circulant_matches_convolution_oracle(n, l, n_t, n_r):
    rng = np.random.default_rng(3)
    cfg = StimConfig(n_t, n_r, n, max(1, n - 1), l, QAM4)
    for _ in range(25):
        frame = random_frame(rng, cfg)
        ch = draw_channel(rng, cfg)
        h = build_block_circulant(ch, n)
        x = frame.b_mat.T.reshape(-1)
        ref = circular_convolution_reference(frame, ch)
        assert np.abs(h @ x - ref).max() < 1e-10
        # the band product that transmit uses agrees with both
        y = transmit(frame, ch, 0.0, rng)
        assert np.abs(y - h @ x).max() < 1e-12
        assert np.abs(y - ref).max() < 1e-12


def test_transmit_identity_channel():
    cfg = StimConfig(1, 1, 4, 4, 1, QAM4)
    rng = np.random.default_rng(4)
    frame = random_frame(rng, cfg)
    ch = ChannelRealization(np.ones((1, 1, 1), dtype=complex))
    y = transmit(frame, ch, 0.0, rng)
    assert np.allclose(y, frame.b_mat[0])


def test_transmit_noiseless_equals_hx():
    rng = np.random.default_rng(5)
    cfg = make_cfg()
    for _ in range(20):
        frame = random_frame(rng, cfg)
        ch = draw_channel(rng, cfg)
        y = transmit(frame, ch, 0.0, rng)
        assert np.abs(y - circular_convolution_reference(frame, ch)).max() < 1e-10


def test_noise_energy():
    rng = np.random.default_rng(6)
    cfg = make_cfg(n_t=1, n_r=2, n=8, k=8, l=1)
    sigma2 = 0.7
    frame = random_frame(rng, cfg)
    ch = ChannelRealization(np.zeros((1, 2, 1), dtype=complex))  # noise only
    total = 0.0
    trials = 4000
    for _ in range(trials):
        y = transmit(frame, ch, sigma2, rng)
        total += np.sum(np.abs(y) ** 2)
    mean_energy = total / trials
    expected = 8 * 2 * sigma2
    assert abs(mean_energy - expected) / expected < 0.01


def test_snr_to_sigma2():
    assert snr_to_sigma2(0.0, 1) == pytest.approx(1.0)
    assert snr_to_sigma2(10.0, 2) == pytest.approx((1 + np.exp(-1)) / 10)
    assert snr_to_sigma2(300.0, 2) < 1e-29


def test_transmit_dimension_mismatch():
    rng = np.random.default_rng(7)
    frame = random_frame(rng, make_cfg(n_t=2))
    ch = draw_channel(rng, StimConfig(1, 4, 8, 7, 2, QAM4))
    with pytest.raises(ValueError):
        transmit(frame, ch, 0.0, rng)
