import numpy as np
import pytest

from stimsim import channel, detectors, harness
from stimsim.alphabet import build_alphabet
from stimsim.codec import StimConfig
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
    with pytest.raises(ValueError):
        small_spec(min_frames=600, max_frames=500)


@pytest.mark.parametrize("cap", [0, -1])
def test_ml_cap_below_one_rejected(cap):
    with pytest.raises(ValueError, match=f"ml_cap must be >= 1, got {cap}"):
        small_spec(detector="ml", ml_cap=cap)
    assert small_spec(detector="ml", ml_cap=1).ml_cap == 1


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


@pytest.mark.parametrize("chunk", [1, 5])
def test_rows_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    specs = [
        small_spec(detector="3ssd", snr_points=(4.0, 8.0), min_frames=70, max_frames=70),
        small_spec(detector="mmse", snr_points=(6.0,), min_frames=300, max_frames=300),
        SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 6, 2, build_alphabet("qam8")),
                  snr_points=(4.0,), min_frames=90, max_frames=90),
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
    assert rec.bits_total == 128 * 24


def test_only_ml_forms_the_dense_channel_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense H formed")

    monkeypatch.setattr(channel, "build_block_circulant", refuse)
    monkeypatch.setattr(detectors, "build_block_circulant", refuse)
    for detector in ("mmse", "2ssd", "3ssd"):
        spec = small_spec(detector=detector, min_frames=8, max_frames=8)
        assert run_ber_point(spec, 8.0).frames == 8
    spec = SweepSpec(system="ofdm", detector="ml", cfg=OfdmConfig(4, 8, 2, build_alphabet("qam8")),
                     snr_points=(8.0,), min_frames=8, max_frames=8)
    assert run_ber_point(spec, 8.0).frames == 8
    with pytest.raises(AssertionError, match="dense H"):
        run_ber_point(small_spec(detector="ml", cfg=StimConfig(2, 4, 6, 5, 2, QAM4)), 8.0)


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
