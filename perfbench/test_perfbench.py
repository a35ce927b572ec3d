"""Tests of the benchmark itself, at the tiny configuration of tests/conftest.py."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hoitg import model, scenegen

import bench
import report
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONE_CALL = 0.01  # seconds: every phase makes exactly one entry call
EXACT_COUNTS = ("diffcore.tape_nodes", "diffcore.grad_bytes", "kernels.nn_pairs", "scenegen.build_assets_calls")


def mini_setting():
    return bench.Setting(
        scene=scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini"),
        encoder=model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=2),
        sizes=bench.Sizes(train_steps=2, eval_scenes=2, gen_scenes=3),
    )


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of every workload with the same seed."""
    root = str(tmp_path_factory.mktemp("bench"))
    return {
        name: [report.run(root, name, 5, ONE_CALL, True, mini_setting()) for _ in range(2)]
        for name in bench.WORKLOADS
    }


def test_spec_matches_the_metrics_the_code_defines():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(report.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_named_metric_is_emitted(traced_runs, name):
    spec = load_spec()
    (untraced, traced), layers, _ = traced_runs[name][0]
    e2e = untraced.end_to_end()
    for m in spec["end_to_end"]:
        value, unit, note = e2e[m["name"]]
        assert unit == m["unit"] and math.isfinite(value) and value > 0 and note
    assert e2e["error_rate"][0] == 0
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(math.isfinite(v) for v, _ in layers.values())
    assert 0.5 < layers["trace.unit_coverage"][0] <= 1.0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_and_untraced_runs_count_the_same_units(traced_runs, name):
    (untraced, traced), _, _ = traced_runs[name][0]
    per_call = untraced.workload.units_per_call()
    assert len(untraced.calls) == len(traced.calls) == 1
    assert len(untraced.windows) == len(traced.windows) == per_call
    for phase in (untraced, traced):
        assert phase.errors == []
        assert phase.accounting() == (per_call, 0)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_exact_counts_repeat_exactly(traced_runs, name):
    (_, layers_a, _), (_, layers_b, _) = traced_runs[name]
    keys = [k for k in layers_a if k.startswith("diffcore.calls.") or k.endswith("_calls") or k in EXACT_COUNTS]
    assert {k: layers_a[k] for k in keys} == {k: layers_b[k] for k in keys}


def test_counts_land_on_the_workloads_that_exercise_them(traced_runs):
    layers = {name: runs[0][1] for name, runs in traced_runs.items()}
    assert layers["train"]["diffcore.tape_nodes"][0] > 0
    assert 0 < layers["train"]["diffcore.useful_grad_fraction"][0] < 1
    assert layers["train"]["harness.epoch_end_ms"][0] > 0
    assert layers["eval"]["diffcore.tape_nodes"][0] == 0
    assert layers["eval"]["scenegen.build_assets_calls"][0] == 2
    assert layers["eval"]["metrics.chamfer_calls"][0] == 4
    assert layers["gen"]["diffcore.calls.matmul"][0] == 0
    assert layers["gen"]["kernels.splat_calls"][0] == 3
    assert layers["gen"]["scenegen.bytes_written"][0] > 0


def _corrupt_train(w, results):
    with open(results[0].log_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    with open(results[0].log_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupt_eval(w, results):
    results[0].cd_human_cm += 0.5


def _corrupt_gen(w, results):
    for i in range(results[0]["num"]):
        path = w.path("out", f"sample_{i:05d}.bin")
        raw = np.fromfile(path, dtype="<f4")
        raw[0] += 1.0
        raw.tofile(path)


@pytest.mark.parametrize("name, corrupt", [("train", _corrupt_train), ("eval", _corrupt_eval), ("gen", _corrupt_gen)])
def test_corrupted_output_fails_the_check(tmp_path, name, corrupt):
    w = bench.WORKLOADS[name](mini_setting(), str(tmp_path), 3)
    w.prepare()
    results = [w.call(0)]
    assert w.check(results) == []
    corrupt(w, results)
    errors = w.check(results)
    assert errors
    calls = [bench.Call(0.0, 1.0, [(0.1, 0.2)] * w.units_per_call(), r) for r in results]
    attempted, failed = bench.Phase(w, calls, errors, 0.0).accounting()
    assert failed == attempted == w.units_per_call()


def test_an_aborted_call_counts_its_units_as_failed(tmp_path):
    class Aborting(bench.Gen):
        def call(self, k):
            assets = scenegen.build_assets(self.setting.scene)
            scenegen.sample_scene(1, "box", assets)  # one unit starts, none finishes
            raise RuntimeError("disk full")

    phase = bench.run_phase(Aborting(mini_setting(), str(tmp_path), 3), ONE_CALL)
    assert len(phase.calls) == 1 and phase.calls[0].windows == []
    assert phase.accounting() == (3, 3)
    assert phase.end_to_end()["error_rate"][0] == 1.0


def test_tail_is_the_highest_percentile_with_ten_units_beyond():
    assert bench.tail(list(range(100))) == (89, 90.0, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
