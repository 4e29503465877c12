"""Tests of the benchmark itself: smoke names/units, seam honesty, and the
trace's sensitivity to a small op-level slowdown."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from protoseg import scenes, training  # noqa: E402
from protoseg import tensor as T  # noqa: E402
from seams import Patcher, Tracer, trace_package  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ISSUE_END_TO_END = {
    "setup_s", "peak_rss_mb", "train_step_ms_p50", "train_step_ms_p90", "gfs_eval_s",
    "fs_episode_ms_p50", "fs_episode_ms_p90", "register_ms_p50", "predict_image_ms_p50",
    "predict_image_ms_p90", "gfs_total_miou", "fs_class_miou", "synth_scene_ms_p50",
    "load_pair_ms_p50", "ckpt_save_ms_p50", "ckpt_load_ms_p50",
}


def _bindings():
    """Identity snapshot of every protoseg module global and class attribute."""
    snap = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("protoseg") and m]:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    snap["_OPS"] = dict(T._OPS)
    return snap


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_metrics_match_benchmark_json(workload):
    before = _bindings()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, seed=0, seconds=0, trace=trace, smoke=True)
        printed = [(name, unit) for name, (_, unit, _) in result["metrics"].items()]
        if not trace:
            assert {n for n, _ in printed} == ISSUE_END_TO_END
            printed = [(n, u) for n, u in printed if n not in workloads.REPORTED_ONLY]
        assert printed == [(m["name"], m["unit"]) for m in SPEC[key]]
        assert result["attempted"] > 0 and result["failures"] == []
        for name, (value, _, samples) in result["metrics"].items():
            assert isinstance(value, float) and value == value, name
            if not trace:
                assert value > 0 and samples >= 1, name
    after = _bindings()  # may gain caches such as __slotnames__, never lose a binding
    assert all(after[k] is before[k] for k in before if k != "_OPS")
    assert all(after["_OPS"][k] is v for k, v in before["_OPS"].items())


def test_eval_traced_loop_never_runs_backward():
    result = run.measure("eval_fewshot", seed=1, seconds=0, trace=True, smoke=True)
    values = {name: value for name, (value, _, _) in result["metrics"].items()}
    assert all(values[n] == 0.0 for n in values if n.endswith(".bwd_ms"))
    assert values["tensor.backward_ms"] == 0.0
    assert values["protocols.fs_shot_extractions"] > 0


def test_layer_map_covers_every_metric():
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    assert layer_map["workloads"] == {w["name"]: w["why"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | set(workloads.REPORTED_ONLY)
    assert end_to_end == ISSUE_END_TO_END
    assert layer_map["reported_only"].keys() == set(workloads.REPORTED_ONLY)
    covered = set()
    for row in layer_map["layers"]:
        covered.update(row["metrics"])
        for workload, names in row["moves"].items():
            assert workload in layer_map["workloads"]
            assert set(names) <= end_to_end, row
    assert covered == {m["name"] for m in SPEC["per_layer"]}


def test_every_op_kind_is_wrapped_and_restored():
    originals = {kind: T._OPS[kind] for kind in T.op_kinds()}
    with Patcher() as patcher:
        trace_package(Tracer(), patcher)
        for kind in T.op_kinds():
            assert getattr(T._OPS[kind], "__bench_seam__", False), kind
            assert T._OPS[kind] is getattr(T, kind), kind
    for kind, fn in originals.items():
        assert T._OPS[kind] is fn and getattr(T, kind) is fn
    Patcher.check_clean()


def test_command_prints_result_last_and_fails_without_program(tmp_path):
    cmd = [sys.executable, "benchmark/run.py", "--workload", "data_io", "--seed", "2",
           "--seconds", "0", "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0

    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_trace_shows_a_five_percent_conv2d_slowdown(tmp_path):
    """A delay of ~5% of conv2d's forward, injected on every other train
    step, shows in tensor.conv2d.fwd_ms although it is about 1% of a step,
    well inside step-level noise."""
    sizes = workloads.Sizes(
        scene=dict(height=32, width=32, train_scenes=16, support_per_class=6, test_scenes=8),
        train=dict(batch_size=4, steps=1000, lr=0.1, embed_dim=8, backbone_layers=3),
    )
    inputs = workloads.make_inputs(5, sizes)
    manifest = scenes.build_dataset(inputs.scene, workloads.SPLIT, str(tmp_path))
    data = training.load_train_data(manifest)
    state = training.init_state(inputs.train, data, training.make_variant("capl"))
    delay = [0.0]

    def slow(fn):
        def delayed(*args, **kwargs):
            if delay[0]:
                _busy_wait(delay[0])
            return fn(*args, **kwargs)

        delayed.__bench_seam__ = True
        return delayed

    def step():
        training.run_training_loop(state, data, until=state.step + 1)
        spans = tracer.take()
        return (
            layers.per_layer(spans, "train_capl", 1.0, 1.0)["tensor.conv2d.fwd_ms"],
            layers.durations(spans, "training.train_step")[0] * 1e3,
        )

    tracer = Tracer()
    with Patcher() as patcher:
        patcher.function(T.conv2d, slow)
        trace_package(tracer, patcher)
        conv_ms = statistics.median(step()[0] for _ in range(6))
        calls = 3 * sizes.train["batch_size"]
        runs = {0: [], 1: []}
        for i in range(40):
            delay[0] = 0.05 * conv_ms / calls / 1e3 if i % 2 else 0.0
            runs[i % 2].append(step())
    expected = 0.05 * conv_ms
    shift = statistics.median(c for c, _ in runs[1]) - statistics.median(c for c, _ in runs[0])
    steps = [t for pair in runs.values() for _, t in pair]
    q1, step_ms, q3 = statistics.quantiles(steps, n=4)
    assert shift > 0.5 * expected, (
        f"conv2d fwd moved {shift:.4f} ms/step for {expected:.4f} ms/step injected; that is "
        f"{100 * expected / step_ms:.2f}% of a {step_ms:.2f} ms step with IQR {q3 - q1:.2f} ms"
    )
