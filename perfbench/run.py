"""Benchmark of the stimsim link simulator.

    python3 perfbench/run.py --workload fig5_mp --seed 1 --seconds 25 --trace 0

Run it from the repository root; it needs only ``src/`` and this directory.
Each workload is measured in a fresh process (``measure.py``: correctness
gate, then the timed sweeps) and, with ``--trace 0``, set-up time is the
median over seven fresh processes that run one frame (``first_frame.py``).

The output is one line per metric, ``<workload> <metric> <value> <unit>``,
then the gate's ``failed_frac``, a provenance line and, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones. ``--workload all`` runs every workload of
``BENCHMARK.json`` in turn and keys the metrics ``<workload>.<metric>``.
Result files and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 10
# one BLAS thread per process, so a pool of w workers runs w threads, not 2w
THREAD_LIMITS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, **THREAD_LIMITS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _run(cmd: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{cmd[1]} took longer than {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its first completed frame."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = float(_run([sys.executable, str(HERE / "first_frame.py"), workload, str(seed)],
                          PROBE_TIMEOUT_S))
        times.append(done - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload: str, args) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(args.reference), "--spans-out", str(OUT / f"spans-{stem}.tsv")]
    if args.frames:
        cmd += ["--frames", str(args.frames)]
    # the gate, then --seconds of passes; a traced run may overrun by one pair of passes
    result = json.loads(_run(cmd, 80 + 2 * args.seconds))
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_seconds(workload, args.seed), "unit": "s"}
    result["provenance"]["git_sha"] = git_sha()
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, help="frame budget per SNR point (default: the workload's)")
    p.add_argument("--reference", type=Path, default=HERE / "reference_counts.json",
                   help="the gate's recorded rows")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "stimsim" / "__init__.py").is_file():
        print(f"no stimsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        with open(ROOT / "BENCHMARK.json") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    else:
        names = [args.workload]

    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = measure(name, args)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        checks = result["checks"]
        bad = [c for c in checks if not c["ok"]]
        for c in bad:
            print(f"FAILED {name} {c['kind']} {c['point']}: {c['detail']}", file=sys.stderr)
        attempted += len(checks)
        failed += len(bad)
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
        print(f"{name} failed_frac {len(bad) / len(checks):.6g} frac "
              f"({len(bad)} of {len(checks)} checked SNR points)")
        print(f"{name} provenance {json.dumps(result['provenance'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
