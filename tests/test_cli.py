import numpy as np
import pytest

from stimsim.alphabet import ConfigError, build_alphabet
from stimsim.cli import _sweep_spec, load_config_file, main
from stimsim.codec import StimConfig
from stimsim.harness import SweepSpec, run_ber_point


def test_golden_roundtrip(capsys):
    assert main(["roundtrip", "--golden"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "X =" in out


def test_rate_sweep_k(capsys):
    assert main(["rate", "--nt", "2", "--n", "128", "--l", "4", "--alphabet", "qam2",
                 "--sweep", "k"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# nt=2 n_slots=128")
    assert lines[1] == "k,bpcu"
    assert len(lines) == 130
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert table[103] == max(table.values())


def test_rate_sweep_n(capsys):
    assert main(["rate", "--nt", "2", "--alphabet", "qam2", "--sweep", "n",
                 "--n-max", "40"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "N,R_I_percent"
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert max(table, key=table.get) == 11


def test_optimal_k(capsys):
    assert main(["optimal-k", "--nt", "2", "--n", "128", "--alphabet", "qam4"]) == 0
    assert "k_star=114" in capsys.readouterr().out


def test_optimal_k_degenerate(capsys):
    assert main(["optimal-k", "--nt", "1", "--n", "4", "--alphabet", "bpsk"]) == 0
    out = capsys.readouterr().out
    assert "k_star=" in out


def test_optimal_n(capsys):
    assert main(["optimal-n", "--nt", "4", "--alphabet", "qam4"]) == 0
    assert capsys.readouterr().out.strip() == "44"


def test_roundtrip_noiseless(capsys):
    rc = main(["roundtrip", "--n-slots", "8", "--k", "7", "--nt", "2", "--nr", "4",
               "--frames", "20", "--detector", "2ssd"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total=0/480" in out


def test_roundtrip_noisy_reports_categories(capsys):
    rc = main(["roundtrip", "--n-slots", "8", "--k", "7", "--frames", "60",
               "--snr", "4", "--detector", "mmse"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bit_errors antenna=" in out


def test_roundtrip_matches_harness(capsys):
    rc = main(["roundtrip", "--n-slots", "8", "--k", "7", "--snr", "6", "--frames", "64",
               "--detector", "mmse"])
    assert rc == 0
    spec = SweepSpec(system="stim", detector="mmse",
                     cfg=StimConfig(2, 4, 8, 7, 2, build_alphabet("qam4")),
                     snr_points=(6.0,), min_frames=64, max_frames=64, seed=0)
    rec = run_ber_point(spec, 6.0)
    assert rec.bit_errors_total > 0
    assert (
        f"bit_errors antenna={rec.bit_errors_antenna} slot={rec.bit_errors_slot} "
        f"symbol={rec.bit_errors_symbol} total={rec.bit_errors_total}/{rec.bits_total} "
        f"frame_errors={rec.frame_errors}"
    ) in capsys.readouterr().out


def test_ber_smoke(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    rc = main(["ber", "--n-slots", "8", "--k", "7", "--detector", "2ssd",
               "--snr-db", "8", "--min-frames", "64", "--max-frames", "64",
               "--min-bit-errors", "1", "--out", str(out), "--deterministic"])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[2].startswith("snr_db,frames,")
    assert "generated=" not in text


def test_ber_snr_alias_smoke(capsys):
    rc = main(["ber", "--n-slots", "8", "--k", "7", "--detector", "mmse",
               "--snr", "10", "--min-frames", "1", "--max-frames", "10",
               "--min-bit-errors", "1", "--deterministic"])
    assert rc == 0
    assert "snr_db,frames" in capsys.readouterr().out


def test_ber_deterministic_reruns_byte_identical(tmp_path):
    args = ["ber", "--n-slots", "8", "--k", "7", "--detector", "mmse",
            "--snr-db", "6,8", "--min-frames", "64", "--max-frames", "64",
            "--min-bit-errors", "1", "--deterministic"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# fig5 setup\n"
        "system = stim\n"
        "detector = 2ssd\n"
        "nt = 2\n"
        "nr = 4\n"
        "n_slots = 8\n"
        "k = 7\n"
        "l_taps = 2\n"
        "alphabet = qam4\n"
        "snr_db = 8\n"
        "min_frames = 64\n"
        "max_frames = 64\n"
        "min_bit_errors = 1\n"
        "seed = 5\n"
    )
    out = tmp_path / "o.csv"
    rc = main(["ber", "--config", str(cfg), "--detector", "mmse", "--out", str(out),
               "--deterministic"])
    assert rc == 0
    header = out.read_text().splitlines()[1]
    assert "detector=mmse" in header  # flag wins over file
    assert "seed=5" in header


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_slots = 8\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(str(cfg))
    assert main(["ber", "--config", str(cfg), "--snr-db", "8"]) == 1


def test_invalid_params_nonzero_exit(capsys):
    rc = main(["ber", "--n-slots", "8", "--k", "9", "--snr-db", "8"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_ml_cap_guidance(capsys):
    rc = main(["roundtrip", "--n-slots", "8", "--k", "7", "--frames", "1",
               "--detector", "ml"])
    assert rc == 1
    assert "2ssd" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_ml_cap_below_one_names_the_flag(cap, capsys):
    argv = ["ber", "--n-slots", "6", "--k", "5", "--snr-db", "8", "--detector", "ml", "--ml-cap", cap]
    assert main(argv) == 1
    assert f"--ml-cap must be >= 1, got {cap}" in capsys.readouterr().err


def test_ml_cap_is_reported_as_given(capsys):
    rc = main(["roundtrip", "--n-slots", "8", "--k", "7", "--frames", "1",
               "--detector", "ml", "--ml-cap", "100000"])
    assert rc == 1
    assert "(cap 100000)" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flags", [
    (["roundtrip", "--n-slots", "8", "--k", "7", "--frames", "0"], "--frames"),
    (["ber", "--n-slots", "8", "--k", "7", "--snr-db", "8",
      "--min-frames", "0", "--max-frames", "0"], "--min-frames <= --max-frames"),
    (["ber", "--n-slots", "8", "--k", "7", "--snr-db", "8",
      "--min-frames", "64", "--max-frames", "32"], "--min-frames <= --max-frames"),
])
def test_frame_budget_errors_name_flags(argv, flags, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flags in err
    assert "min_frames" not in err


@pytest.mark.parametrize("given,bounds", [
    ({"max_frames": 500}, (500, 500)),
    ({"min_frames": 200_000}, (200_000, 200_000)),
    ({"max_frames": 5000}, (1000, 5000)),
    ({}, (1000, 100_000)),
])
def test_an_unset_frame_bound_does_not_conflict_with_the_given_one(given, bounds):
    spec = _sweep_spec({"n_slots": 8, "k": 7, "snr_db": (8.0,), **given})
    assert (spec.min_frames, spec.max_frames) == bounds


def test_ber_with_only_max_frames_runs(capsys):
    rc = main(["ber", "--n-slots", "8", "--k", "7", "--detector", "mmse", "--snr-db", "8",
               "--max-frames", "20", "--deterministic"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min_frames=20 max_frames=20" in out
    assert out.splitlines()[-1].startswith("8,20,")


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("command", [["roundtrip", "--frames", "4"], ["ber", "--snr-db", "8"]])
def test_seed_out_of_range_names_the_flag(command, seed, capsys):
    assert main(command + ["--n-slots", "8", "--k", "7", "--seed", seed]) == 1
    assert f"--seed must be in [0, 2**128), got {seed}" in capsys.readouterr().err
