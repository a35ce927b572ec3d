"""Run a workload's phases and print the result (text lines, then one JSON line)."""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import bench
import tracing

E2E = ("samples_per_s", "unit_ms_p50", "unit_ms_tail", "setup_s", "peak_rss_mb")


def run(root, workload_name, seed, seconds, trace, setting=None):
    """Measure one workload; returns (phases, per-layer metrics or None, tracer or None).

    Inputs and outputs live in a scratch directory under ``root/.perfbench``
    that is removed afterwards.
    """
    setting = setting if setting is not None else bench.Setting()
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=base)
    try:
        workload = bench.WORKLOADS[workload_name](setting, work, seed)
        bench.prepare(workload)
        if not trace:
            return [bench.run_phase(workload, seconds)], None, None
        # a traced run splits its time between an untraced and a traced phase
        untraced = bench.run_phase(workload, seconds / 2)
        tracer = tracing.Tracer()
        traced = bench.run_phase(workload, seconds / 2, tracer)
        p50_off = bench.median(untraced.unit_ms)
        p50_on = bench.median(traced.unit_ms)
        layers = tracing.layer_metrics(
            tracer,
            traced.windows,
            calls=len(traced.calls),
            epoch_end_s=traced.epoch_end_s(),
            overhead_ms=p50_on - p50_off,
            overhead_share=(p50_on - p50_off) / p50_off if p50_off else 0.0,
        )
        return [untraced, traced], layers, tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_and_print(root, workload_name, seed, seconds, trace) -> int:
    phases, layers, tracer = run(root, workload_name, seed, seconds, trace)
    untraced = phases[0]
    env = bench.environment()
    print(f"perfbench workload={workload_name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    e2e = untraced.end_to_end()
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<14s} {value:14.6g} {unit:<6s} ({note})")
    if layers is not None:
        print(f"  tracing overhead: {layers['trace.overhead_ms'][0]:+.3f} ms/unit "
              f"({100 * layers['trace.overhead_share'][0]:+.2f} % of the untraced median unit)")
        for name, (value, unit) in layers.items():
            print(f"  {name:<40s} {value:14.6g} {unit}")
        spans = os.path.join(root, ".perfbench", f"spans-{workload_name}-seed{seed}.json")
        tracer.dump(spans)
        print(f"  spans written to {os.path.relpath(spans, root)}")
    attempted = failed = 0
    for phase in phases:
        a, f = phase.accounting()
        attempted += a
        failed += f
        for call, message in phase.errors:
            where = "every call" if call is None else f"call {call}"
            print(f"CHECK FAILED ({where}): {message}")
    correct = failed == 0 and not any(p.errors for p in phases)
    print("checks: " + ("all passed" if correct else "FAILED"))
    if layers is None:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in E2E}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
