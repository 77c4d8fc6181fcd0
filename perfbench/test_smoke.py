"""Smoke test of the benchmark at a tiny size (2 frames per SNR point).

    python3 -m pytest perfbench/test_smoke.py

Checks that ``run.py`` prints every metric ``BENCHMARK.json`` names, with its
unit, in both trace modes and for every workload, and that the correctness
gate can fail: a tampered reference row makes ``failed_frac`` > 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "0.2", "--frames", "2"]


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), proc.stderr


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """Reference rows of every workload at the tiny frame budget."""
    path = tmp_path_factory.mktemp("ref") / "reference_counts.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    subprocess.run([sys.executable, str(HERE / "gate.py"), "--frames", "2",
                    "--out", str(path)], cwd=ROOT, env=env, check=True, timeout=170)
    return path


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(tiny_reference, trace, section):
    spec = _spec()
    lines, result, _ = _bench("--workload", "all", "--seed", "3", "--trace", str(trace),
                              "--reference", str(tiny_reference), *TINY)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [w["name"] for w in spec["workloads"]]
    expected = {f"{w}.{m['name']}": m["unit"] for w in names for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for w in names:
        for m in spec[section]:
            value = result["metrics"][f"{w}.{m['name']}"]["value"]
            assert isinstance(value, float)
            assert any(line.startswith(f"{w} {m['name']} ") and line.endswith(f" {m['unit']}")
                       for line in lines)
        assert any(line.startswith(f"{w} failed_frac 0 frac") for line in lines)


def test_benchmark_json_names_every_workload():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_tampered_reference_count_fails_the_gate(tiny_reference, tmp_path):
    reference = json.loads(tiny_reference.read_text())
    row = reference["fig5_mp"]["rows"][0][0].split(",")
    row[3] = str(int(row[3]) + 1)  # one more bit error than recorded
    reference["fig5_mp"]["rows"][0][0] = ",".join(row)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(reference))

    lines, result, stderr = _bench("--workload", "fig5_mp", "--seed", "3", "--trace", "0",
                                   "--reference", str(tampered), *TINY)
    assert result["correct"] is False
    assert result["failed"] == 1
    failed_frac = next(line for line in lines if line.startswith("fig5_mp failed_frac "))
    assert float(failed_frac.split()[2]) > 0
    assert "FAILED fig5_mp reference stim/3ssd@6dB" in stderr
