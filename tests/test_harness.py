import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

from oracles import tap_normals
from stimsim import channel, harness
from stimsim.alphabet import build_alphabet
from stimsim.codec import StimConfig, bit_partition
from stimsim.harness import (
    CSV_HEADER,
    BerRecord,
    SweepSpec,
    run_ber_point,
    run_sweep,
    sweep_csv,
    trial_rng,
)
from stimsim.ofdm import OfdmConfig

QAM4 = build_alphabet("qam4")
FIG5 = StimConfig(2, 4, 8, 7, 2, QAM4)


def small_spec(**kw):
    base = dict(
        system="stim",
        detector="2ssd",
        cfg=FIG5,
        snr_points=(8.0,),
        min_frames=128,
        max_frames=512,
        min_bit_errors=40,
        seed=0,
    )
    base.update(kw)
    return SweepSpec(**base)


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(1, 0, 5).standard_normal(4)
    b = trial_rng(1, 0, 5).standard_normal(4)
    c = trial_rng(1, 0, 6).standard_normal(4)
    d = trial_rng(1, 1, 5).standard_normal(4)
    e = trial_rng(2, 0, 5).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_trial_rng_is_the_philox_substream():
    # interleaved calls: each one resets the shared generator to its own stream
    streams = [(s, p, t) for s in (0, 2**32 - 1, 2**64 + 5) for p, t in ((0, 0), (1, 7), (3, 2**40))]
    for s, p, t in streams + streams[::-1]:
        trial_rng(2**64 + 5, 9, 9).standard_normal(3)
        rng = trial_rng(s, p, t)
        ref = np.random.Generator(np.random.Philox(key=s, counter=[0, 0, p, t]))
        # an odd-length integer draw leaves half a word buffered, then normals
        assert np.array_equal(rng.integers(0, 2, 5, dtype=np.int8),
                              ref.integers(0, 2, 5, dtype=np.int8))
        assert np.array_equal(rng.standard_normal((2, 9)), ref.standard_normal((2, 9)))
        assert np.array_equal(rng.integers(0, 2, 3, dtype=np.int8),
                              ref.integers(0, 2, 3, dtype=np.int8))


def test_trial_draws_match_the_generator_calls():
    # each row of a chunk's draws is its own trial's generator calls: the
    # bits from raw words equal Generator.integers' bits, and the noise
    # normals after them are the same, for odd and even word counts
    ofdm = SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 6, 2, build_alphabet("qam8")),
                     snr_points=(8.0,))
    for spec in (small_spec(), ofdm):
        cfg = spec.cfg
        for seed in (0, 3, 2**64 + 5):
            seeded = dataclasses.replace(spec, seed=seed)
            for n_bits in (1, 7, 8, 9, 16, 17, 24, 25, 40, 63, 64, 65, 129):
                for lo, hi in ((0, 1), (0, 5), (n_bits, n_bits + 1), (n_bits, n_bits + 5)):
                    taps, bits, normals = harness._draw_chunk(seeded, 2, lo, hi, n_bits)
                    assert taps.shape == (hi - lo, 2, cfg.l_taps, cfg.n_r, cfg.n_t)
                    assert bits.shape == (hi - lo, n_bits) and bits.dtype == np.int8
                    assert normals.shape == (hi - lo, 2, cfg.n_slots * cfg.n_r)
                    for row, trial in enumerate(range(lo, hi)):
                        ref = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 2, trial]))
                        assert np.array_equal(taps[row], tap_normals(ref, cfg))
                        assert np.array_equal(bits[row], ref.integers(0, 2, n_bits, dtype=np.int8)), \
                            (seed, n_bits, lo, row)
                        assert np.array_equal(normals[row], ref.standard_normal((2, cfg.n_slots * cfg.n_r)))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_the_philox_key_range_rejected(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        small_spec(seed=seed)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        trial_rng(seed, 0, 0)
    assert small_spec(seed=2**128 - 1).seed == 2**128 - 1


def _report_blas_threads(args):
    """Stand-in for a pool task: the worker's BLAS thread count as its counts."""
    return np.array([harness._openblas().scipy_openblas_get_num_threads64_(), 0, 0, 0])


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if harness._openblas() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
    monkeypatch.setattr(harness, "_run_trial_range", _report_blas_threads)
    rec = run_ber_point(small_spec(min_frames=2, max_frames=2), 8.0, workers=2)
    assert rec.bit_errors_antenna == 2  # two tasks, one BLAS thread each


def test_one_pool_per_sweep(monkeypatch):
    built = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    spec = small_spec(detector="mmse", snr_points=(4.0, 8.0, 12.0), min_frames=300, max_frames=300)
    run_sweep(spec, workers=2)
    assert built == [2]  # three points, one pool
    run_sweep(spec, workers=1)
    run_ber_point(spec, 8.0)
    assert built == [2]  # one worker never builds a pool
    run_ber_point(spec, 8.0, workers=3)
    assert built == [2, 3]  # a point run alone opens its own


def _fail_in_worker(args):
    raise RuntimeError(f"trials {args[2]}-{args[3]} failed")


def test_no_worker_outlives_a_sweep(monkeypatch):
    spec = small_spec(detector="mmse", snr_points=(4.0, 8.0), min_frames=300, max_frames=600)
    run_sweep(spec, workers=2)
    assert multiprocessing.active_children() == []
    run_ber_point(spec, 8.0, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "_run_trial_range", _fail_in_worker)
    with pytest.raises(RuntimeError, match="trials 0-128 failed"):
        run_sweep(spec, workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="trials 0-85 failed"):
        run_ber_point(spec, 4.0, workers=3)
    assert multiprocessing.active_children() == []


def test_early_stopping_rows_do_not_depend_on_the_worker_count():
    # 1000 frames is not a whole number of batches; the points stop after one
    # batch, after three, and not at all (the last batch has 232 frames)
    spec = small_spec(detector="mmse", snr_points=(4.0, 6.0, 10.0), min_frames=100,
                      max_frames=1000, min_bit_errors=300)
    serial = run_sweep(spec, workers=1)
    assert [r.frames for r in serial] == [256, 768, 1000]
    for workers in (2, 3):
        assert run_sweep(spec, workers=workers) == serial


def test_work_past_a_stop_only_where_the_stop_was_not_expected(monkeypatch):
    ran = {}

    class RecordingPool(harness.ProcessPoolExecutor):
        def submit(self, fn, args):
            future = super().submit(fn, args)
            ran.setdefault(args[1], []).append((args[3], future))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    # no errors are known before the first batch, so the 4 dB point runs one
    # batch past its stop at 256; at 6 dB the errors of the first 512 frames
    # project past 300 at 768, so nothing runs past that stop
    spec = small_spec(detector="mmse", snr_points=(4.0, 6.0, 10.0), min_frames=100,
                      max_frames=1000, min_bit_errors=300)
    assert [r.frames for r in run_sweep(spec, workers=2)] == [256, 768, 1000]
    # every submitted task ran to its end: none is withdrawn
    assert all(f.done() and not f.cancelled() for tasks in ran.values() for _, f in tasks)
    assert [max(hi for hi, _ in ran[p]) for p in range(3)] == [512, 768, 1000]
    # the errors pass the minimum long before min_frames: the stop is expected
    ran.clear()
    spec = small_spec(detector="mmse", snr_points=(4.0,), min_frames=600, max_frames=1000,
                      min_bit_errors=50)
    assert run_ber_point(spec, 4.0, workers=2).frames == 768
    assert max(hi for hi, _ in ran[0]) == 768


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(workers):
    spec = small_spec(min_frames=8, max_frames=8)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_sweep(spec, workers=workers)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_ber_point(spec, 8.0, workers=workers)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(system="lte")
    with pytest.raises(ValueError):
        small_spec(detector="sphere")
    with pytest.raises(ValueError):
        small_spec(system="ofdm", cfg=OfdmConfig(4, 8, 2, QAM4), detector="2ssd")
    with pytest.raises(ValueError):
        small_spec(snr_points=())
    with pytest.raises(ValueError, match="duplicate"):
        small_spec(snr_points=(6.0, 6.0))
    with pytest.raises(ValueError, match="duplicate"):  # both are labelled 6 in the CSV
        small_spec(snr_points=(6.0, 6.0000001))
    with pytest.raises(ValueError):
        small_spec(min_frames=600, max_frames=500)


@pytest.mark.parametrize("snr", [float("nan"), -float("inf")])
def test_non_finite_snr_points_rejected(snr):
    # NaN and -inf have no noise variance; +inf is the noiseless point
    with pytest.raises(ValueError, match=f"got {snr}"):
        small_spec(snr_points=(8.0, snr))
    assert small_spec(snr_points=(8.0, float("inf"))).snr_points[1] == float("inf")


@pytest.mark.parametrize("snr", [-4000.0, -3085.0])
def test_snr_points_without_a_finite_noise_variance_rejected(snr):
    # 10^(SNR/10) underflows to 0 (-4000) or sigma2 overflows (-3085)
    with pytest.raises(ValueError, match=f"SNR point {snr:g} dB is too low"):
        small_spec(snr_points=(8.0, snr))


def test_snr_points_beyond_the_float_range_are_noiseless():
    # 10^(SNR/10) overflows: the point runs as +inf does, on the same draws
    def point(snr):
        return run_ber_point(small_spec(snr_points=(snr,), min_frames=64, max_frames=64), snr)

    assert dataclasses.replace(point(4000.0), snr_db=math.inf) == point(math.inf)


@pytest.mark.parametrize("system,cfg,detector", [("ofdm", FIG5, "ml"),
                                                 ("stim", OfdmConfig(4, 8, 2, QAM4), "2ssd")])
def test_system_that_does_not_match_the_config_rejected(system, cfg, detector):
    with pytest.raises(ValueError, match=f"system {system!r} needs cfg of type"):
        small_spec(system=system, cfg=cfg, detector=detector)


@pytest.mark.parametrize("cap", [0, -1])
def test_ml_cap_below_one_rejected(cap):
    with pytest.raises(ValueError, match=f"ml_cap must be >= 1, got {cap}"):
        small_spec(detector="ml", ml_cap=cap)
    assert small_spec(detector="ml", ml_cap=1).ml_cap == 1


def test_negative_min_bit_errors_rejected():
    # 0 is a valid minimum: the point stops at min_frames
    with pytest.raises(ValueError, match="min_bit_errors must be >= 0, got -1"):
        small_spec(min_bit_errors=-1)
    assert small_spec(min_bit_errors=0).min_bit_errors == 0


def test_snr_outside_grid_rejected():
    with pytest.raises(ValueError, match=r"SNR 7 dB is not in the sweep grid \(8.0,\)"):
        run_ber_point(small_spec(), 7.0)


def test_high_snr_point_is_error_free():
    spec = small_spec(snr_points=(100.0,), min_frames=64, max_frames=64, min_bit_errors=1)
    rec = run_ber_point(spec, 100.0)
    assert rec.bit_errors_total == 0
    assert rec.ber == 0.0
    assert rec.frames == 64


def test_repeat_runs_identical():
    spec = small_spec()
    a = run_ber_point(spec, 8.0)
    b = run_ber_point(spec, 8.0)
    assert a == b


def test_worker_count_independence():
    spec = small_spec(max_frames=256)
    serial = run_ber_point(spec, 8.0, workers=1)
    parallel = run_ber_point(spec, 8.0, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("system,detector,cfg,frames,row", [
    ("stim", "ml", StimConfig(2, 4, 6, 5, 2, QAM4), 100,
     "4,100,1700,20,7,2,11,9,1.1764705882e-02"),
    ("ofdm", "ml", OfdmConfig(4, 6, 2, build_alphabet("qam8")), 100,
     "4,100,1800,70,0,0,70,43,3.8888888889e-02"),
    ("stim", "mmse", FIG5, 100, "4,100,2400,134,37,28,69,34,5.5833333333e-02"),
    ("stim", "3ssd", StimConfig(2, 4, 128, 114, 4, QAM4), 2,
     "4,2,804,110,33,21,56,2,1.3681592040e-01"),
])
def test_seed_zero_rows_are_pinned(system, detector, cfg, frames, row):
    # absolute rows at seed 0: the draws, encode, channel, detection and
    # counts together must reproduce these committed values exactly
    spec = SweepSpec(system=system, detector=detector, cfg=cfg, snr_points=(4.0,),
                     min_frames=frames, max_frames=frames, min_bit_errors=10**9, seed=0)
    assert run_ber_point(spec, 4.0).csv_row() == row


@pytest.mark.parametrize("chunk", [1, 5])
def test_rows_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    specs = [
        small_spec(detector="3ssd", snr_points=(4.0, 8.0), min_frames=70, max_frames=70),
        small_spec(detector="mmse", snr_points=(6.0,), min_frames=300, max_frames=300),
        SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 6, 2, build_alphabet("qam8")),
                  snr_points=(4.0,), min_frames=90, max_frames=90),
        # Fig. 4 STIM ML: a slot pattern's half terms are one product over the chunk
        small_spec(detector="ml", cfg=StimConfig(2, 4, 6, 5, 2, QAM4), snr_points=(4.0, 8.0),
                   min_frames=90, max_frames=90),
    ]
    default = [run_sweep(spec) for spec in specs]
    monkeypatch.setattr(harness, "_chunk_frames", lambda cfg: chunk)
    assert [run_sweep(spec) for spec in specs] == default


def test_category_accounting():
    spec = small_spec(snr_points=(2.0,), min_frames=64, max_frames=64, min_bit_errors=1)
    rec = run_ber_point(spec, 2.0)
    assert rec.bit_errors_total == (
        rec.bit_errors_antenna + rec.bit_errors_slot + rec.bit_errors_symbol
    )
    assert rec.bits_total == rec.frames * 24
    assert rec.bit_errors_total > 0
    assert rec.frame_errors <= rec.frames


def test_seed_changes_results():
    a = run_ber_point(small_spec(seed=3), 8.0)
    b = run_ber_point(small_spec(seed=4), 8.0)
    assert a != b


def test_stopping_rule():
    # low SNR: plenty of errors, stops at min_frames batch boundary
    spec = small_spec(snr_points=(0.0,), min_frames=100, max_frames=5000, min_bit_errors=10)
    rec = run_ber_point(spec, 0.0)
    assert rec.frames == 256  # first batch boundary past min_frames
    # error-free point runs to max_frames
    spec = small_spec(snr_points=(100.0,), min_frames=100, max_frames=300, min_bit_errors=10)
    rec = run_ber_point(spec, 100.0)
    assert rec.frames == 300


def test_ofdm_system_runs():
    spec = SweepSpec(
        system="ofdm",
        detector="ml",
        cfg=OfdmConfig(4, 8, 2, build_alphabet("qam8")),
        snr_points=(10.0,),
        min_frames=128,
        max_frames=128,
        min_bit_errors=1,
    )
    rec = run_ber_point(spec, 10.0)
    assert rec.bit_errors_antenna == 0
    assert rec.bit_errors_slot == 0
    assert rec.bit_errors_symbol == rec.bit_errors_total > 0
    assert rec.bits_total == 128 * 24


def test_no_detector_forms_the_dense_channel_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense H formed")

    monkeypatch.setattr(channel, "build_block_circulant", refuse)
    for detector in ("mmse", "2ssd", "3ssd"):
        spec = small_spec(detector=detector, min_frames=8, max_frames=8)
        assert run_ber_point(spec, 8.0).frames == 8
    spec = small_spec(detector="ml", cfg=StimConfig(2, 4, 6, 5, 2, QAM4), min_frames=8, max_frames=8)
    assert run_ber_point(spec, 8.0).frames == 8
    spec = SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 8, 2, build_alphabet("qam8")),
                     snr_points=(8.0,), min_frames=8, max_frames=8)
    assert run_ber_point(spec, 8.0).frames == 8


def test_stages_are_looked_up_at_each_call(monkeypatch):
    # perfbench's tracer times a stage by patching the harness attribute it
    # is called through; a name bound early would escape it and read zero
    stages = ("trial_rng", "draw_channel", "encode_frame", "transmit",
              "ofdm_modulate", "ofdm_transmit", "ofdm_detect")
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in stages:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    ofdm = SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 8, 2, build_alphabet("qam8")),
                     snr_points=(8.0,), min_frames=8, max_frames=8)
    for spec, used in ((small_spec(min_frames=8, max_frames=8), ("encode_frame", "transmit")),
                       (ofdm, ("ofdm_modulate", "ofdm_transmit", "ofdm_detect"))):
        assert harness._chunk_frames(spec.cfg) >= 8  # one chunk
        calls.update(dict.fromkeys(stages, 0))
        assert run_ber_point(spec, 8.0).frames == 8
        assert calls == {name: 8 if name == "trial_rng" else int(name in ("draw_channel",) + used)
                         for name in stages}


def test_equal_specs_compare_equal_and_hash_alike():
    twin = small_spec(cfg=StimConfig(2, 4, 8, 7, 2, build_alphabet("qam4")))
    assert twin == small_spec() and hash(twin) == hash(small_spec())
    assert twin != small_spec(seed=1)


def test_csv_format(tmp_path):
    spec = small_spec(min_frames=64, max_frames=64, min_bit_errors=1)
    out = tmp_path / "sweep.csv"
    records = run_sweep(spec, out_path=str(out), deterministic=True)
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# stimsim ber sweep"
    assert lines[1].startswith("# system=stim detector=2ssd nt=2 nr=4 n_slots=8 k=7")
    assert "seed=0" in lines[1]
    assert lines[2] == CSV_HEADER
    assert len(lines) == 4
    row = lines[3].split(",")
    assert float(row[0]) == 8.0
    assert int(row[1]) == 64
    # timestamp appears only without deterministic
    stamped = sweep_csv(spec, records, deterministic=False)
    assert "generated=" in stamped
    assert "generated=" not in text
    # OFDM has no k to echo
    spec = SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 8, 2, build_alphabet("qam8")),
                     snr_points=(8.0,), min_frames=8, max_frames=8)
    echo = sweep_csv(spec, run_sweep(spec), deterministic=True).split("\n")[1]
    assert echo.startswith("# system=ofdm detector=ml nt=1 nr=4 n_slots=8 l_taps=2 alphabet=qam8 ")
    assert " k=" not in echo


def test_ber_record_fields():
    rec = BerRecord(5.0, 10, 240, 12, 3, 4, 5, 8)
    assert rec.ber == pytest.approx(0.05)
    assert rec.csv_row().startswith("5,10,240,12,3,4,5,8,")


def test_bits_per_frame_matches_rate_formulas():
    from stimsim.rates import RateParams, ofdm_rate, stim_rate

    spec = small_spec()
    uses = FIG5.n_slots + FIG5.l_taps - 1
    assert spec.bits_per_frame / uses == pytest.approx(stim_rate(RateParams(8, 2, 2, 4), 7))
    ocfg = OfdmConfig(4, 8, 2, build_alphabet("qam8"))
    ospec = small_spec(system="ofdm", detector="ml", cfg=ocfg)
    assert ospec.bits_per_frame / uses == pytest.approx(ofdm_rate(8, 2, 8))
    # OFDM is the STIM frame with every slot used on one antenna
    assert bit_partition(ocfg).total / uses == ofdm_rate(8, 2, 8) == stim_rate(RateParams(8, 2, 1, 8), 8)
