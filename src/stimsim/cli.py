"""Command-line entry point: rate tables, encode/decode roundtrips, BER sweeps.

Configuration comes from an optional flat key-value file (one ``key = value``
per line, lists comma-separated) plus flag overrides; flags win. The resolved
configuration is validated as a whole before any work starts.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .alphabet import ConfigError, build_alphabet
from .codec import StimConfig, decode_frame, encode_frame, slot_fields, with_cyclic_prefix
from .detectors import DEFAULT_ML_CAP, MpParams
from .harness import SweepSpec, run_ber_point, run_sweep, sweep_csv
from .ofdm import OfdmConfig
from .rates import RateParams, improvement_curve, k_bounds, optimal_n, rate_curve

_CONFIG_KEYS = {
    "system", "detector", "nt", "nr", "n_slots", "k", "l_taps", "alphabet",
    "snr_db", "seed", "iters", "damp", "out", "min_frames", "max_frames",
    "min_bit_errors", "workers", "ml_cap",
}

_INT_KEYS = {"nt", "nr", "n_slots", "k", "l_taps", "seed", "iters",
             "min_frames", "max_frames", "min_bit_errors", "workers", "ml_cap"}


def _parse_value(key: str, val: str):
    """A config-file value as the type of its key."""
    if key == "snr_db":
        return tuple(float(v) for v in val.split(","))
    if key in _INT_KEYS:
        return int(val)
    if key == "damp":
        return float(val)
    return val


def load_config_file(path: str) -> dict:
    """Parse a flat key = value config file; unknown keys and values that do
    not parse are rejected with their line."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse {key} = {val!r}") from None
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Config-file values overridden by any explicitly given flags."""
    merged = dict(load_config_file(args.config)) if getattr(args, "config", None) else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


# ---------------------------------------------------------------------------
# rate commands
# ---------------------------------------------------------------------------


def _emit_csv(rows: list[str], out: str | None):
    text = "\n".join(rows) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rate(args) -> int:
    params = RateParams(args.n, args.l, args.nt, _alpha_size(args.alphabet))
    echo = (
        f"# nt={args.nt} n_slots={args.n} l_taps={args.l} "
        f"alphabet={args.alphabet} sweep={args.sweep}"
    )
    if args.sweep == "k":
        rows = [echo, "k,bpcu"] + [f"{k},{r:.6f}" for k, r in rate_curve(params)]
    else:
        n_range = range(2, args.n_max + 1)
        rows = [echo, "N,R_I_percent"] + [
            f"{n},{ri:.6f}" for n, ri in improvement_curve(params, n_range)
        ]
    _emit_csv(rows, args.out)
    return 0


def _alpha_size(kind: str) -> int:
    return build_alphabet(kind).size


def cmd_optimal_k(args) -> int:
    params = RateParams(args.n, args.l, args.nt, _alpha_size(args.alphabet))
    kb = k_bounds(params)
    print(f"k_star={kb.k_star} k_l={kb.k_l:.4f} k_u={kb.k_u:.4f} k_m={kb.k_m:.4f}")
    return 0


def cmd_optimal_n(args) -> int:
    params = RateParams(2, args.l, args.nt, _alpha_size(args.alphabet))
    print(optimal_n(params))
    return 0


# ---------------------------------------------------------------------------
# roundtrip command
# ---------------------------------------------------------------------------

GOLDEN_BITS = np.array(
    [0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0],
    dtype=np.int8,
)

GOLDEN_A = np.array(
    [[1, 0, 0, 1, 0, 1, 0, 0],
     [0, 1, 1, 0, 1, 0, 0, 1]], dtype=np.int8)

GOLDEN_B = np.array(
    [[1 - 1j, 0, 0, -1 - 1j, 0, 1 - 1j, 0, 0],
     [0, 1 + 1j, -1 - 1j, 0, 1 + 1j, 0, 0, -1 + 1j]])

GOLDEN_X = np.array(
    [[0, 1 - 1j, 0, 0, -1 - 1j, 0, 1 - 1j, 0, 0],
     [-1 + 1j, 0, 1 + 1j, -1 - 1j, 0, 1 + 1j, 0, 0, -1 + 1j]])


def _fmt_matrix(mat: np.ndarray) -> str:
    def fmt(v):
        if v == 0:
            return "0"
        re, im = int(v.real), int(v.imag)
        return f"{re:+d}{im:+d}j".lstrip("+")

    width = max(len(fmt(v)) for v in mat.ravel())
    return "\n".join(
        "[ " + "  ".join(fmt(v).rjust(width) for v in row) + " ]" for row in mat
    )


def _golden_check() -> int:
    cfg = StimConfig(
        n_t=2, n_r=4, n_slots=8, k=7, l_taps=2,
        alphabet=build_alphabet("qam4", normalize=False),
    )
    slots = encode_frame(GOLDEN_BITS[None], cfg)[0]
    a_mat = (slots.T != 0).astype(np.int8)
    x_mat = with_cyclic_prefix(slots.T, cfg.l_taps)
    ok = (
        np.array_equal(a_mat, GOLDEN_A)
        and np.array_equal(slots.T, GOLDEN_B)
        and np.array_equal(x_mat, GOLDEN_X)
        and np.array_equal(decode_frame(*slot_fields(slots, cfg.k), cfg), GOLDEN_BITS)
    )
    print("A =")
    print(_fmt_matrix(a_mat))
    print("B =")
    print(_fmt_matrix(slots.T))
    print("X =")
    print(_fmt_matrix(x_mat))
    print("golden worked example:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_roundtrip(args) -> int:
    if args.golden:
        return _golden_check()
    if args.frames < 1:
        raise ConfigError(f"--frames must be >= 1, got {args.frames}")
    values = _merge(args)
    snr = math.inf if args.snr is None else args.snr
    values.update(system="stim", snr_db=(snr,), min_frames=args.frames, max_frames=args.frames)
    spec = _sweep_spec(values)
    rec = run_ber_point(spec, snr, workers=_workers(values))
    cfg = spec.cfg
    print(
        f"nt={cfg.n_t} nr={cfg.n_r} n_slots={cfg.n_slots} k={cfg.k} "
        f"l_taps={cfg.l_taps} alphabet={cfg.alphabet.kind} seed={spec.seed}"
    )
    print(f"frames={rec.frames} detector={spec.detector} snr_db={snr}")
    print(
        f"bit_errors antenna={rec.bit_errors_antenna} slot={rec.bit_errors_slot} "
        f"symbol={rec.bit_errors_symbol} total={rec.bit_errors_total}/{rec.bits_total} "
        f"frame_errors={rec.frame_errors}"
    )
    return 0


# ---------------------------------------------------------------------------
# ber command
# ---------------------------------------------------------------------------


# the flags of the SweepSpec and MpParams fields that their errors name
_FIELD_FLAGS = {
    "seed": "--seed", "ml_cap": "--ml-cap", "min_frames": "--min-frames",
    "max_frames": "--max-frames", "min_bit_errors": "--min-bit-errors",
    "max_iterations": "--iters", "damping": "--damp",
}
_FIELD_NAMES = re.compile(r"(?<![\w'])(" + "|".join(_FIELD_FLAGS) + r")(?![\w'])")


def _sweep_spec(values: dict) -> SweepSpec:
    system = values.get("system", "stim")
    alphabet = build_alphabet(values.get("alphabet", "qam4"))
    try:
        common = dict(n_r=values.get("nr", 4), n_slots=values["n_slots"],
                      l_taps=values.get("l_taps", 2), alphabet=alphabet)
        if system == "stim":
            cfg = StimConfig(n_t=values.get("nt", 2), k=values["k"], **common)
        else:
            cfg = OfdmConfig(**common)
    except KeyError as exc:
        raise ConfigError(f"missing required parameter: {exc.args[0]}") from None
    snr_points = values.get("snr_db")
    if not snr_points:
        raise ConfigError("snr_db is required")
    # an unset frame bound defaults to a value that cannot conflict with the other
    hi = values.get("max_frames")
    lo = values.get("min_frames", 1000 if hi is None else min(1000, hi))
    hi = max(100_000, lo) if hi is None else hi
    try:
        return SweepSpec(
            system=system,
            detector=values.get("detector", "2ssd" if system == "stim" else "ml"),
            cfg=cfg,
            snr_points=tuple(snr_points),
            min_frames=lo,
            max_frames=hi,
            min_bit_errors=values.get("min_bit_errors", 100),
            seed=values.get("seed", 0),
            mp=MpParams(max_iterations=values.get("iters", 10), damping=values.get("damp", 0.3)),
            ml_cap=values.get("ml_cap", DEFAULT_ML_CAP),
        )
    except ValueError as exc:  # the fields' own checks, told in the flags' names
        raise ConfigError(_FIELD_NAMES.sub(lambda m: _FIELD_FLAGS[m[1]], str(exc))) from None


def _workers(values: dict) -> int:
    workers = values.get("workers", 1)
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return workers


def cmd_ber(args) -> int:
    values = _merge(args)
    spec = _sweep_spec(values)
    records = run_sweep(
        spec,
        out_path=values.get("out"),
        workers=_workers(values),
        deterministic=args.deterministic,
    )
    if not values.get("out"):
        sys.stdout.write(sweep_csv(spec, records, deterministic=args.deterministic))
    else:
        for rec in records:
            print(f"snr_db={rec.snr_db:g} frames={rec.frames} ber={rec.ber:.3e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_rate_params(p: argparse.ArgumentParser):
    p.add_argument("--nt", type=int, default=2, help="transmit antennas")
    p.add_argument("--n", type=int, default=128, help="data slots per frame")
    p.add_argument("--l", type=int, default=2, help="channel taps")
    p.add_argument("--alphabet", default="qam4",
                   help="bpsk|qam2|qam4|qam8|qam16")


def _add_system_flags(p: argparse.ArgumentParser):
    for flag, typ in [
        ("--nt", int), ("--nr", int), ("--n-slots", int), ("--k", int),
        ("--l-taps", int), ("--seed", int),
        ("--min-frames", int), ("--max-frames", int), ("--min-bit-errors", int),
        ("--ml-cap", int),
    ]:
        p.add_argument(flag, type=typ, default=None)
    p.add_argument("--iters", type=int, help="message-passing iterations, all run on every frame (default 10)")
    p.add_argument("--damp", type=float, help="message-passing damping in (0, 1], an update's weight (default 0.3)")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that run trials, this one included (default 1)")
    p.add_argument("--alphabet", default=None)
    p.add_argument("--config", default=None, help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stimsim",
        description="STIM link-level simulator: rate analysis and BER sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="rate tables as CSV")
    _add_rate_params(p)
    p.add_argument("--sweep", choices=["k", "n"], default="k")
    p.add_argument("--n-max", type=int, default=512, help="N range for --sweep n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("optimal-k", help="rate-maximizing used-slot count")
    _add_rate_params(p)
    p.set_defaults(func=cmd_optimal_k)

    p = sub.add_parser("optimal-n", help="improvement-maximizing slot count")
    _add_rate_params(p)
    p.set_defaults(func=cmd_optimal_n)

    p = sub.add_parser("roundtrip", help="encode/detect/decode cycles")
    _add_system_flags(p)
    p.add_argument("--golden", action="store_true",
                   help="check the fixed worked example and exit")
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--snr", type=float, default=None,
                   help="SNR in dB; omit for a noiseless channel")
    p.add_argument("--detector", default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("ber", help="Monte-Carlo BER sweep to CSV")
    _add_system_flags(p)
    p.add_argument("--system", default=None, choices=["stim", "ofdm"])
    p.add_argument("--detector", default=None)
    p.add_argument("--snr-db", "--snr", dest="snr_db", default=None,
                   type=lambda s: tuple(float(v) for v in s.split(",")),
                   help="comma-separated SNR grid in dB")
    p.add_argument("--out", default=None)
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp comment in the CSV")
    p.set_defaults(func=cmd_ber)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
