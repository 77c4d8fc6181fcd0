import math

import numpy as np
import pytest

from oracles import circular_convolution_reference, tap_normals
from stimsim.alphabet import ConfigError, build_alphabet
from stimsim.channel import (
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
    return encode_frame(rng.integers(0, 2, (1, bit_partition(cfg).total), dtype=np.int8), cfg)[0]


def normals(rng, cfg):
    return rng.standard_normal((2, cfg.n_slots * cfg.n_r))


def test_tap_variances_follow_pdp():
    rng = np.random.default_rng(0)
    cfg = make_cfg(n_t=2, n_r=2, l=3)
    samples = draw_channel(np.stack([tap_normals(rng, cfg) for _ in range(50_000)]))
    var = np.mean(np.abs(samples) ** 2, axis=(0, 2, 3))
    # 50k draws x 4 entries: standard error of the variance ~ e^-l / sqrt(2e5)
    for l in range(3):
        se = np.exp(-l) / np.sqrt(2 * 10**5)
        assert abs(var[l] - np.exp(-l)) < 3.5 * se


def test_chunk_taps_equal_each_realization_drawn_alone():
    cfg = make_cfg(n_t=2, n_r=4, l=3)
    chunk = draw_channel(np.stack([tap_normals(np.random.default_rng(9), cfg)] * 2
                                  + [tap_normals(np.random.default_rng(10), cfg)]))
    shape = (cfg.l_taps, cfg.n_r, cfg.n_t)
    scale = np.sqrt(np.exp(-np.arange(cfg.l_taps)) / 2)[:, None, None]
    for taps, seed in zip(chunk, (9, 9, 10)):
        rng = np.random.default_rng(seed)
        # a realization draws all of its real parts, then all of its imaginary ones
        assert np.array_equal(taps, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        assert np.array_equal(taps, draw_channel(tap_normals(np.random.default_rng(seed), cfg)))


def test_draw_deterministic_given_seed():
    cfg = make_cfg()
    a = draw_channel(tap_normals(np.random.default_rng(42), cfg))
    b = draw_channel(tap_normals(np.random.default_rng(42), cfg))
    assert np.array_equal(a, b)


def test_single_tap_block_diagonal():
    rng = np.random.default_rng(1)
    cfg = make_cfg(n_r=2, l=1)
    taps = draw_channel(tap_normals(rng, cfg))
    h = build_block_circulant(taps, 4)
    for r in range(4):
        for c in range(4):
            block = h[r * 2 : (r + 1) * 2, c * 2 : (c + 1) * 2]
            if r == c:
                assert np.array_equal(block, taps[0])
            else:
                assert np.all(block == 0)


def test_scalar_circulant_structure():
    taps = np.array([[[2.0 + 0j]], [[5.0 + 0j]]])  # h0=2, h1=5
    h = build_block_circulant(taps, 3)
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
    taps = draw_channel(tap_normals(rng, make_cfg(l=2)))
    with pytest.raises(ConfigError):
        build_block_circulant(taps, 1)


@pytest.mark.parametrize("n,l,n_t,n_r", [
    (4, 2, 2, 2), (8, 3, 2, 4), (16, 4, 4, 2), (5, 1, 1, 1),
    (6, 3, 1, 2), (4, 4, 2, 2), (128, 4, 2, 4),
])
def test_block_circulant_matches_convolution_oracle(n, l, n_t, n_r):
    rng = np.random.default_rng(3)
    cfg = StimConfig(n_t, n_r, n, max(1, n - 1), l, QAM4)
    for _ in range(25):
        slots = random_frame(rng, cfg)
        taps = draw_channel(tap_normals(rng, cfg))
        h = build_block_circulant(taps, n)
        x = slots.reshape(-1)
        ref = circular_convolution_reference(slots, taps)
        assert np.abs(h @ x - ref).max() < 1e-10
        # the band product that transmit uses agrees with both
        y = transmit(slots, taps, 0.0, normals(rng, cfg))
        assert np.abs(y - h @ x).max() < 1e-12
        assert np.abs(y - ref).max() < 1e-12


def test_transmit_identity_channel():
    cfg = StimConfig(1, 1, 4, 4, 1, QAM4)
    rng = np.random.default_rng(4)
    slots = random_frame(rng, cfg)
    taps = np.ones((1, 1, 1), dtype=complex)
    y = transmit(slots, taps, 0.0, normals(rng, cfg))
    assert np.allclose(y, slots[:, 0])


def test_transmit_noiseless_equals_hx():
    rng = np.random.default_rng(5)
    cfg = make_cfg()
    for _ in range(20):
        slots = random_frame(rng, cfg)
        taps = draw_channel(tap_normals(rng, cfg))
        y = transmit(slots, taps, 0.0, normals(rng, cfg))
        assert np.abs(y - circular_convolution_reference(slots, taps)).max() < 1e-10


def test_noise_energy():
    rng = np.random.default_rng(6)
    cfg = make_cfg(n_t=1, n_r=2, n=8, k=8, l=1)
    sigma2 = 0.7
    slots = random_frame(rng, cfg)
    taps = np.zeros((1, 2, 1), dtype=complex)  # noise only
    total = 0.0
    trials = 4000
    for _ in range(trials):
        y = transmit(slots, taps, sigma2, normals(rng, cfg))
        total += np.sum(np.abs(y) ** 2)
    mean_energy = total / trials
    expected = 8 * 2 * sigma2
    assert abs(mean_energy - expected) / expected < 0.01


def test_snr_to_sigma2():
    assert snr_to_sigma2(0.0, 1) == pytest.approx(1.0)
    assert snr_to_sigma2(10.0, 2) == pytest.approx((1 + np.exp(-1)) / 10)
    assert snr_to_sigma2(300.0, 2) < 1e-29


def test_snr_to_sigma2_beyond_the_float_range():
    p_ch = 1 + np.exp(-1)
    # every SNR with a finite noise variance keeps the one formula
    for snr in (-3000.0, -30.0, 0.0, 6.0, 9.5, 300.0, 3000.0):
        assert snr_to_sigma2(snr, 2) == p_ch / 10.0 ** (snr / 10.0)
    # 10^(SNR/10) overflows: noiseless, as at +inf; it underflows to 0: no finite variance
    assert snr_to_sigma2(4000.0, 2) == snr_to_sigma2(1e308, 2) == snr_to_sigma2(math.inf, 2) == 0.0
    assert snr_to_sigma2(-4000.0, 2) == snr_to_sigma2(-3085.0, 2) == math.inf


def test_transmit_dimension_mismatch():
    rng = np.random.default_rng(7)
    slots = random_frame(rng, make_cfg(n_t=2))
    taps = draw_channel(tap_normals(rng, StimConfig(1, 4, 8, 7, 2, QAM4)))
    with pytest.raises(ValueError):
        transmit(slots, taps, 0.0, normals(rng, make_cfg()))


@pytest.mark.parametrize("n,l,n_t,n_r", [(8, 2, 2, 4), (6, 2, 2, 4), (32, 4, 2, 4), (5, 3, 4, 1)])
def test_chunk_transmit_equals_per_frame(n, l, n_t, n_r):
    rng = np.random.default_rng(8)
    cfg = StimConfig(n_t, n_r, n, n - 1, l, QAM4)
    bits = rng.integers(0, 2, (9, bit_partition(cfg).total), dtype=np.int8)
    taps = np.stack([draw_channel(tap_normals(rng, cfg)) for _ in bits])
    noise = rng.standard_normal((9, 2, n * n_r))
    sigma2 = snr_to_sigma2(6.0, l)
    chunk = transmit(encode_frame(bits, cfg), taps, sigma2, noise)
    assert chunk.shape == (9, n * n_r)
    for i in range(9):
        one = transmit(encode_frame(bits[i : i + 1], cfg)[0], taps[i], sigma2, noise[i])
        assert np.array_equal(chunk[i], one)
