"""Checks of the benchmark itself: span accounting, count fingerprints, refusal.

Run with `python -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]

FINGERPRINT = ("evolve.stab_time_calls", "channels.fixed_point_fallbacks",
               "evolve.tau_sum", "channels.apply_calls", "channels.kraus_ops")


def test_self_times_and_other_add_up_to_wall():
    tracer = Tracer()
    inner = tracer._wrap("fock.inner", lambda: time.sleep(0.002))

    def body():
        inner()
        time.sleep(0.003)
        inner()

    outer = tracer._wrap("lift.outer", body)
    since = tracer.start_pass()
    t0 = time.perf_counter()
    outer()
    time.sleep(0.001)
    outer()
    wall = time.perf_counter() - t0
    summary = tracer.summary(wall, since)
    m = summary["metrics"]
    assert summary["accounting_ok"]
    assert m["trace.spans"] == 6
    assert m["fock.self_s"] >= 4 * 0.002
    assert m["lift.self_s"] >= 2 * 0.003
    assert m["other.self_s"] >= 0.001
    layers = [k for k in m if k.endswith(".self_s")]
    assert abs(sum(m[k] for k in layers) - wall) < 1e-9


def _traced_run(seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        RUN + ["--workload", "stab_mc", "--seed", str(seed), "--seconds", "1",
               "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_stab_mc_counts_repeat_exactly_across_traced_runs():
    procs = [_traced_run(5), _traced_run(5)]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        results.append(json.loads(out.strip().splitlines()[-1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    first, second = (r["metrics"] for r in results)
    for name in FINGERPRINT:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stab_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
