"""Acceptance suite: one test per criterion, each printing a PASS line.

The BER-gap criteria (7 and 8) walk a fixed 1 dB grid from low SNR upward,
stop after the first point below the target BER, and interpolate the
crossing in log-BER. Every interpolation point carries at least 200 bit
errors. Expect several minutes of runtime for criteria 6-8.
"""

import math
from itertools import product

import numpy as np

from oracles import circular_convolution_reference
from stimsim.alphabet import build_alphabet
from stimsim.channel import build_block_circulant, draw_channel, snr_to_sigma2, transmit
from stimsim.cli import main
from stimsim.codec import StimConfig, bit_partition, encode_frame
from stimsim.detectors import MpParams, ssd2_detect
from stimsim.harness import SweepSpec, run_ber_point, run_sweep, sweep_csv
from stimsim.ofdm import OfdmConfig
from stimsim.rates import (
    RateParams,
    brute_force_optimal_n,
    k_bounds,
    ofdm_rate,
    optimal_n,
    stim_rate,
)

QAM4 = build_alphabet("qam4")
QAM8 = build_alphabet("qam8")
BPSK = build_alphabet("bpsk")

FIG4_STIM = StimConfig(2, 4, 6, 5, 2, QAM4)
FIG5_STIM = StimConfig(2, 4, 8, 7, 2, QAM4)

WORKERS = 2


def report(num, name, detail):
    print(f"\n[criterion {num:2d}] {name}: PASS ({detail})")


def walk_to_crossing(spec: SweepSpec, target=1e-3):
    """Run grid points in ascending SNR until the BER falls below target."""
    points = []
    for snr in spec.snr_points:
        rec = run_ber_point(spec, snr, workers=WORKERS)
        points.append((snr, rec.ber, rec.bit_errors_total))
        if rec.ber < target:
            break
    return points


def snr_at_ber(points, target=1e-3, min_errors=200):
    """Log-linear interpolation of the target crossing on a 1 dB grid."""
    for (s1, b1, e1), (s2, b2, e2) in zip(points, points[1:]):
        if b1 >= target > b2 and b2 > 0:
            assert e1 >= min_errors and e2 >= min_errors, (
                f"interpolation points need >= {min_errors} errors, got {e1}/{e2}"
            )
            t = (math.log10(b1) - math.log10(target)) / (
                math.log10(b1) - math.log10(b2)
            )
            return s1 + t * (s2 - s1)
    raise AssertionError(f"BER {target} crossing not bracketed by {points}")


def test_c01_golden_worked_example(capsys):
    assert main(["roundtrip", "--golden"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report(1, "golden worked example", "A, B, X reproduced bit-exactly")


def test_c02_rate_table():
    cases = [
        (stim_rate(RateParams(6, 2, 2, 4), 5), "2.428"),
        (ofdm_rate(6, 2, 8), "2.57"),
        (ofdm_rate(6, 2, 4), "1.71"),
        (stim_rate(RateParams(8, 2, 2, 4), 7), "2.66"),
        (ofdm_rate(8, 2, 8), "2.66"),
        (stim_rate(RateParams(12, 2, 2, 4), 11), "2.769"),
        (ofdm_rate(12, 2, 8), "2.769"),
    ]
    for value, caption in cases:
        decimals = len(caption.split(".")[1])
        shown = math.floor(value * 10**decimals + 1e-9) / 10**decimals
        assert f"{shown:.{decimals}f}" == caption, (value, caption)
    report(2, "rate table", "all seven caption values reproduced")


def test_c03_optimal_k():
    expected = {2: 103, 4: 114, 8: 121, 16: 125}
    for alpha, want in expected.items():
        params = RateParams(128, 4, 2, alpha)
        kb = k_bounds(params)
        assert kb.k_star == want, (alpha, kb)
        sweep = [stim_rate(params, k, analytic=True) for k in range(1, 129)]
        assert int(np.argmax(sweep)) + 1 == want
    report(3, "optimal k", "k* = 103/114/121/125, confirmed by exhaustive sweep")


def test_c04_optimal_n():
    cases = [(2, 2), (2, 4), (2, 16), (4, 4)]
    results = []
    for n_t, alpha in cases:
        params = RateParams(2, 2, n_t, alpha)
        formula = optimal_n(params)
        brute = brute_force_optimal_n(params, n_max=512)
        assert abs(brute - formula) <= 1, (n_t, alpha, brute, formula)
        results.append(f"{brute}~{formula}")
    report(4, "optimal N", "brute force vs formula: " + " ".join(results))


def test_c05_channel_oracle():
    rng = np.random.default_rng(0)
    shapes = [(4, 2, 2, 2), (8, 3, 2, 4), (16, 4, 4, 2), (6, 2, 1, 1), (12, 2, 2, 4)]
    worst = 0.0
    for i in range(100):
        n, l, n_t, n_r = shapes[i % len(shapes)]
        cfg = StimConfig(n_t, n_r, n, n - 1 if n > 1 else 1, l, QAM4)
        frame = encode_frame(
            rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8), cfg
        )
        ch = draw_channel(rng, cfg)
        h = build_block_circulant(ch, n)
        err = np.abs(h @ frame.b_mat.T.reshape(-1) - circular_convolution_reference(frame, ch)).max()
        worst = max(worst, err)
    assert worst < 1e-10
    report(5, "channel oracle", f"max |Hx - circconv| = {worst:.2e} over 100 pairs")


def test_c06_noiseless_consistency():
    results = []
    for detector, cap in [("ml", 2**24), ("2ssd", 2**22), ("3ssd", 2**22)]:
        spec = SweepSpec(
            system="stim",
            detector=detector,
            cfg=FIG5_STIM,
            snr_points=(60.0,),
            min_frames=100,
            max_frames=100,
            min_bit_errors=10**9,
            seed=0,
            ml_cap=cap,
        )
        rec = run_ber_point(spec, 60.0, workers=WORKERS)
        assert rec.frames == 100
        assert rec.bit_errors_total == 0, (detector, rec)
        results.append(detector)
    report(6, "noiseless consistency", "0 bit errors x 100 frames for " + "/".join(results))


def test_c07_fig4_ml_gap():
    stim_spec = SweepSpec(
        system="stim",
        detector="ml",
        cfg=FIG4_STIM,
        snr_points=tuple(float(s) for s in range(3, 13)),
        min_frames=1000,
        max_frames=40_000,
        min_bit_errors=200,
        seed=0,
    )
    ofdm_spec = SweepSpec(
        system="ofdm",
        detector="ml",
        cfg=OfdmConfig(4, 6, 2, QAM8),
        snr_points=tuple(float(s) for s in range(6, 17)),
        min_frames=1000,
        max_frames=200_000,
        min_bit_errors=200,
        seed=0,
    )
    snr_stim = snr_at_ber(walk_to_crossing(stim_spec))
    snr_ofdm = snr_at_ber(walk_to_crossing(ofdm_spec))
    gap = snr_ofdm - snr_stim
    assert 4.0 <= gap <= 8.0, (snr_stim, snr_ofdm, gap)
    report(
        7,
        "ML gap at BER 1e-3",
        f"STIM {snr_stim:.2f} dB vs OFDM {snr_ofdm:.2f} dB, gap {gap:.2f} dB in [4, 8]",
    )


def test_c08_fig5_orderings():
    grids = {
        "2ssd": tuple(float(s) for s in range(5, 14)),
        "3ssd": tuple(float(s) for s in range(5, 14)),
    }
    crossings = {}
    for det, grid in grids.items():
        spec = SweepSpec(
            system="stim",
            detector=det,
            cfg=FIG5_STIM,
            snr_points=grid,
            min_frames=1000,
            max_frames=40_000,
            min_bit_errors=200,
            seed=0,
            mp=MpParams(max_iterations=10, damping=0.3),
        )
        crossings[det] = snr_at_ber(walk_to_crossing(spec))
    ofdm_spec = SweepSpec(
        system="ofdm",
        detector="ml",
        cfg=OfdmConfig(4, 8, 2, QAM8),
        snr_points=tuple(float(s) for s in range(7, 16)),
        min_frames=1000,
        max_frames=200_000,
        min_bit_errors=200,
        seed=0,
    )
    crossings["ofdm"] = snr_at_ber(walk_to_crossing(ofdm_spec))

    stage_gap = crossings["2ssd"] - crossings["3ssd"]
    gap2 = crossings["ofdm"] - crossings["2ssd"]
    gap3 = crossings["ofdm"] - crossings["3ssd"]
    assert 0.5 <= stage_gap <= 2.0, crossings
    assert gap2 >= 2.0, crossings
    assert gap3 >= 2.0, crossings
    report(
        8,
        "Fig-5 orderings at BER 1e-3",
        f"3SSD {crossings['3ssd']:.2f} / 2SSD {crossings['2ssd']:.2f} / "
        f"OFDM {crossings['ofdm']:.2f} dB; 3SSD-2SSD gap {stage_gap:.2f}, "
        f"OFDM gaps {gap2:.2f}/{gap3:.2f} dB",
    )


def test_c09_exact_posterior_oracle():
    cfg = StimConfig(1, 2, 2, 1, 1, BPSK)
    part = bit_partition(cfg)
    sigma2 = snr_to_sigma2(10.0, 1)
    rng = np.random.default_rng(0)

    def exact_posterior(y, h):
        logps, saps = [], []
        for bits in product((0, 1), repeat=part.total):
            frame = encode_frame(np.array(bits, dtype=np.int8), cfg)
            x = frame.b_mat.T.reshape(-1)
            logps.append(-np.sum(np.abs(y - h @ x) ** 2) / sigma2)
            saps.append(set(frame.sap))
        logps = np.array(logps)
        p = np.exp(logps - logps.max())
        p /= p.sum()
        q = np.zeros((cfg.n_slots, 2))
        for pi, sap in zip(p, saps):
            for l in range(cfg.n_slots):
                q[l, 1 if l in sap else 0] += pi
        return q

    tv_sum = 0.0
    trials = 1000
    for _ in range(trials):
        bits = rng.integers(0, 2, part.total, dtype=np.int8)
        frame = encode_frame(bits, cfg)
        ch = draw_channel(rng, cfg)
        h = build_block_circulant(ch, cfg.n_slots)
        y = transmit(frame, ch, sigma2, rng)
        res = ssd2_detect(y, ch, sigma2, cfg)
        q_mp = res.diagnostics["slot_posteriors"]
        tv_sum += 0.5 * np.abs(q_mp - exact_posterior(y, h)).sum(axis=1).mean()
    mean_tv = tv_sum / trials
    assert mean_tv <= 0.05, mean_tv
    report(9, "exact-posterior oracle", f"mean TV {mean_tv:.4f} <= 0.05 over 1000 trials")


def test_c10_rayleigh_bpsk_oracle():
    cfg = StimConfig(1, 1, 4, 4, 1, BPSK)
    details = []
    for snr_db, frames in [(5.0, 12_500), (10.0, 25_000), (15.0, 50_000)]:
        spec = SweepSpec(
            system="stim",
            detector="ml",
            cfg=cfg,
            snr_points=(snr_db,),
            min_frames=frames,
            max_frames=frames,
            min_bit_errors=10**9,
            seed=0,
        )
        rec = run_ber_point(spec, snr_db, workers=WORKERS)
        gamma = 10.0 ** (snr_db / 10.0)
        theory = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
        se = math.sqrt(theory * (1.0 - theory) / rec.bits_total)
        assert abs(rec.ber - theory) < 3.0 * se, (snr_db, rec.ber, theory, se)
        details.append(f"{snr_db:g}dB:{(rec.ber - theory) / se:+.2f}se")
    report(10, "flat-Rayleigh BPSK oracle", " ".join(details))


def test_c11_determinism_across_workers():
    spec = SweepSpec(
        system="stim",
        detector="2ssd",
        cfg=FIG5_STIM,
        snr_points=(6.0, 8.0),
        min_frames=256,
        max_frames=512,
        min_bit_errors=50,
        seed=0,
    )
    texts = []
    for workers in (1, 3):
        records = run_sweep(spec, workers=workers)
        texts.append(sweep_csv(spec, records, deterministic=True))
    assert texts[0] == texts[1]
    assert texts[0].encode() == texts[1].encode()
    report(11, "determinism", "byte-identical CSV for 1 and 3 workers")
