"""The benchmark's own test: every workload at minimal size, in both modes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402  (needs the path set above)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd, check=False)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert "provenance" in proc.stdout and '"absent": []' in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_worker_thread_spans_are_parented():
    """eigvalsh runs in energy_separation's pool threads; kernel spans are
    only kept under a parent, so they appear only if parenting works."""
    proc = bench("--workload", "separation-sweep", "--seed", "2", "--seconds", "1",
                 "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["numpy.linalg.eigvalsh.calls"]["value"] == 2 * 64
    assert metrics["spectra.sectors"]["value"] == 2 * 64
    energy = metrics["spectra.energy_separation.total_s"]["value"]
    assert 0 < metrics["spectra.energy_separation.self_s"]["value"] < energy


def test_self_time_subtracts_union_of_children():
    assert tracer._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer._union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1

    t = tracer.Tracer()
    t.layer_of["spectra.parent"] = "spectra"
    t._spans = [(1, None, "spectra.parent", 0.0, 4.0),
                (2, 1, "numpy.linalg.eigvalsh", 0.5, 2.5),   # two overlapping
                (3, 1, "numpy.linalg.eigvalsh", 1.5, 3.0)]   # worker threads
    t.end_job(5.0)
    assert t.self_s["spectra.parent"] == pytest.approx(1.5)
    assert t.self_s["numpy.linalg.eigvalsh"] == pytest.approx(3.5)
    assert t.layer_s["spectra"] == pytest.approx(5.0)
    assert t.layer_s["other"] == pytest.approx(1.0)


def test_per_layer_figures_are_per_pass():
    t = tracer.Tracer()
    t.layer_of["spectra.energy_separation"] = "spectra"
    for _ in range(2):
        t._spans = [(1, None, "spectra.energy_separation", 0.0, 4.0)]
        t.counts["spectra.sectors"] += 64
        t.counts["spectra.sector_dim"] = 256
        t.end_job(4.0)
    metrics = t.metrics(passes=2)
    assert metrics["spectra.energy_separation.calls"] == (1, "count")
    assert metrics["spectra.energy_separation.total_s"] == (4.0, "s")
    assert metrics["spectra.sectors"] == (64, "count")
    assert metrics["spectra.sector_dim"] == (256, "count")


def test_tail_reads_a_fixed_rule_per_workload():
    import run
    lat = [float(i) for i in range(1, 201)]
    assert run.tail("construct", lat[:100], 100)[0] == 90.0
    assert run.tail("construct", lat, 100)[0] == 180.0
    # slowest of each pass of 3, median over the passes
    assert run.tail("cli", [1.0, 5.0, 2.0, 7.0, 1.0, 1.0, 3.0, 6.0, 2.0], 3)[0] == 6.0


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS + [
        ("gaugeforge.opensys", "rk4_removed", "opensys"),
        ("gaugeforge.gone", "anything", "codes")])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["opensys.rk4_removed", "codes.anything"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(abs, [-1, -2])) == [1, 2]
    finally:
        t.uninstall()
    import gaugeforge
    assert gaugeforge.build_code.__module__ == "gaugeforge.codes"
    assert not hasattr(gaugeforge.build_code, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
