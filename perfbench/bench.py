"""The three benchmark workloads, their measurement loop and their checks.

Each workload drives one public entry point in a closed loop: one client
calls it, waits for it to return, and calls it again until the run's time is
up. Inputs are generated from the seed in an untimed preparation step that
runs in a child process, so the measured process's peak RSS is its own.

Unit boundaries come from timestamps taken by thin hooks on one or two
functions per workload; that is the only instrumentation of an untraced run.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from hoitg import diffcore, harness, kernels, losses, model, scenegen
from hoitg.errors import DataError

import tracing

BATCH = 4
# Two training scenes: the first batch then holds each scene twice whatever
# the sampler's order, and the epoch-end snapshot (which evaluates up to 8
# training scenes) costs about the share of an epoch it has in a default
# `hoitg train` (64 steps, 8 snapshot scenes).
TRAIN_SCENES = 2
PREPARE_TIMEOUT_S = 120
TAIL_BEYOND = 10


@dataclass
class Sizes:
    """Work done by one entry call of each workload."""

    train_steps: int = 16   # one epoch of optimizer steps, then the epoch-end snapshot
    eval_scenes: int = 4    # held-out scenes per evaluate call
    gen_scenes: int = 32    # scenes per generate_dataset call


@dataclass
class Setting:
    """Model and data settings of a run; the defaults are `hoitg train`'s."""

    scene: scenegen.SceneConfig = field(default_factory=scenegen.SceneConfig)
    encoder: model.EncoderConfig = field(default_factory=model.EncoderConfig)
    sizes: Sizes = field(default_factory=Sizes)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One entry point, its inputs, its unit boundaries and its checks."""

    name = ""
    samples_per_unit = 1
    units_per_epoch = 0  # 0: the workload has no epochs

    def __init__(self, setting: Setting, work_dir: str, seed: int):
        self.setting = setting
        self.work = work_dir
        self.seed = seed

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def prepare(self):
        """Write the inputs; runs once, untimed, in a child process."""

    def units_per_call(self) -> int:
        raise NotImplementedError

    def hook_units(self, patches: tracing.Patches, marks: "Marks"):
        """Record unit starts (and ends, where a unit ends before the next starts)."""
        raise NotImplementedError

    def call(self, k: int):
        """Call ``k`` (0, 1, ... within a phase) of the public entry point; returns its result."""
        raise NotImplementedError

    def check(self, results) -> list:
        """Errors as (call index or None for every call, message)."""
        raise NotImplementedError


class Train(Workload):
    """`harness.train`: forward, loss, backward and Adam on every step.

    One unit is one optimizer step of BATCH samples, from ``zero_grads``
    entry to ``adam_step`` return; the epoch-end snapshot and checkpoint
    write fall between units and are only in ``samples_per_s``.
    """

    name = "train"
    samples_per_unit = BATCH

    @property
    def units_per_epoch(self):
        return self.setting.sizes.train_steps

    def config(self):
        return harness.TrainConfig(
            epochs=1,
            steps_per_epoch=self.setting.sizes.train_steps,
            batch_size=BATCH,
            seed=self.seed,
            data_dir=self.path("data"),
            checkpoint_path=self.path("model.ckpt"),
            encoder=self.setting.encoder,
        )

    def prepare(self):
        scenegen.generate_dataset(self.path("data"), TRAIN_SCENES, self.seed, self.setting.scene)

    def units_per_call(self):
        return self.setting.sizes.train_steps

    def hook_units(self, patches, marks):
        patches.set(diffcore, "zero_grads", marks.on_entry(diffcore.zero_grads))
        patches.set(diffcore, "adam_step", marks.on_return(diffcore.adam_step))

    def call(self, k):
        return harness.train(self.config(), quiet=True)

    def check(self, results):
        errors = []
        steps = self.setting.sizes.train_steps
        for i, r in enumerate(results):
            with open(r.log_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            totals = [float(row[-1]) for row in rows]
            if len(rows) != steps or not all(math.isfinite(float(x)) for row in rows for x in row):
                errors.append((i, f"loss log has {len(rows)} rows for {steps} steps or a non-finite value"))
            if r.steps != steps:
                errors.append((i, f"{r.steps} steps run, {steps} asked"))
            if not r.snapshot["mean_last_epoch_loss"] < r.first_loss:
                errors.append((i, f"last-epoch mean loss {r.snapshot['mean_last_epoch_loss']} "
                                  f"is not below the first-step loss {r.first_loss}"))
            if totals and totals[0] != r.first_loss:
                errors.append((i, f"loss log starts at {totals[0]}, result says {r.first_loss}"))
            if (r.first_loss, r.final_loss) != (results[0].first_loss, results[0].final_loss):
                errors.append((i, "losses differ from the first call's: the run is not deterministic"))
        if not results:
            return errors
        expected = self.first_step_loss()
        if not math.isclose(results[0].first_loss, expected, rel_tol=1e-5):
            errors.append((None, f"first-step loss {results[0].first_loss} != fresh forward+loss {expected}"))
        net, manifest = harness.load_checkpoint(self.path("model.ckpt"))
        fresh = model.HoiReconstructor(net.assets, self.setting.encoder, seed=self.seed).params
        if manifest.get("step") != steps or sorted(net.params) != sorted(fresh) or any(
            net.params[k].data.shape != fresh[k].data.shape for k in fresh
        ):
            errors.append((None, "checkpoint does not reload to the trained model"))
        return errors

    def first_step_loss(self):
        """Mean scene loss of the first batch (every scene, equally often) under a fresh seeded model."""
        _, assets, loader = scenegen.load_dataset(self.path("data"))
        net = model.HoiReconstructor(assets, self.setting.encoder, seed=self.seed)
        totals = []
        for i in range(TRAIN_SCENES):
            s = loader(i)
            total, _ = losses.scene_loss(net.forward(s.channels, s.template_id), s, assets, losses.LossWeights())
            totals.append(float(total.data.reshape(())))
        return float(np.mean(totals))


class Eval(Workload):
    """`harness.evaluate` of a checkpoint written by `harness.train`.

    Forward-only; Chamfer and contact metrics dominate. One unit is one
    sample, from one ``HoiReconstructor.forward`` entry to the next (the last
    ends when ``evaluate`` returns).
    """

    name = "eval"

    def prepare(self):
        scene = self.setting.scene
        scenegen.generate_dataset(self.path("train"), 1, self.seed * 3 + 1, scene)
        cfg = harness.TrainConfig(
            epochs=1, steps_per_epoch=1, batch_size=BATCH, seed=self.seed,
            data_dir=self.path("train"), checkpoint_path=self.path("model.ckpt"),
            encoder=self.setting.encoder,
        )
        harness.train(cfg, quiet=True)
        scenegen.generate_dataset(self.path("heldout"), self.setting.sizes.eval_scenes, self.seed * 3 + 2, scene)

    def units_per_call(self):
        return self.setting.sizes.eval_scenes

    def hook_units(self, patches, marks):
        cls = model.HoiReconstructor
        patches.set(cls, "forward", marks.on_entry(vars(cls)["forward"]))

    def call(self, k):
        return harness.evaluate(self.path("model.ckpt"), self.path("heldout"))

    def check(self, results):
        errors = []
        n = self.setting.sizes.eval_scenes
        for i, report in enumerate(results):
            fields = asdict(report)
            if report.sample_count != n:
                errors.append((i, f"sample_count {report.sample_count}, expected {n}"))
            bad = [k for k, v in fields.items() if v is None or not math.isfinite(v)]
            if bad:
                errors.append((i, f"non-finite report fields {bad}"))
            if fields != asdict(results[0]):
                errors.append((i, "report differs from the first call's: the run is not deterministic"))
        if results:
            errors += [(None, msg) for msg in self.check_chamfer(results[0])]
        return errors

    def check_chamfer(self, report):
        """Recompute every Chamfer field of the report with a brute-force oracle."""
        net, _ = harness.load_checkpoint(self.path("model.ckpt"))
        manifest, assets, loader = scenegen.load_dataset(self.path("heldout"))
        per = {"cd_human_cm": [], "cd_object_cm": [], "init_cd_human_cm": [], "init_cd_object_cm": []}
        for i in range(manifest["num"]):
            s = loader(i)
            rec = net.forward(s.channels, s.template_id)
            tmpl = assets.objects[s.template_id].mesh.vertices.astype(np.float64)
            per["cd_human_cm"].append(oracle_chamfer(rec.human_full.data, s.gt_mesh_full))
            per["cd_object_cm"].append(oracle_chamfer(rec.pose.apply(tmpl), s.gt_object_vertices))
            per["init_cd_human_cm"].append(oracle_chamfer(rec.init.mesh_full.data, s.gt_mesh_full))
            per["init_cd_object_cm"].append(oracle_chamfer(rec.init.object_vertices.data, s.gt_object_vertices))
        errors = []
        for key, values in per.items():
            want = float(np.mean(values))
            got = getattr(report, key)
            if not abs(got - want) <= 1e-6:
                errors.append(f"{key} {got} != brute-force oracle {want}")
        return errors


class Gen(Workload):
    """`scenegen.generate_dataset`, as `hoitg gen` calls it (assets built per call).

    Scene sampling, the body model, splat rendering, contact maps and record
    writes; no autodiff, model or metrics. One unit is one scene, from one
    ``sample_scene`` entry to the next (the last ends when the call returns).
    """

    name = "gen"
    spot_checks = 2

    def units_per_call(self):
        return self.setting.sizes.gen_scenes

    def hook_units(self, patches, marks):
        patches.set(scenegen, "sample_scene", marks.on_entry(scenegen.sample_scene))

    def call(self, k):
        # every call draws new scenes: their cost varies (contact-free scenes
        # are placed by rejection), so a run averages over many distinct ones
        return scenegen.generate_dataset(self.path("out"), self.setting.sizes.gen_scenes,
                                         scenegen.mix_seed(self.seed, k), self.setting.scene)

    def check(self, results):
        errors = []
        n = self.setting.sizes.gen_scenes
        for i, manifest in enumerate(results):
            if manifest["num"] != n:
                errors.append((i, f"manifest lists {manifest['num']} scenes, expected {n}"))
        if results:
            # the output directory holds the last call's scenes
            errors += [(None, msg) for msg in self.check_records(results[-1])]
        return errors

    def check_records(self, manifest):
        """Round-trip spot records, check their contact maps and regenerate one in isolation."""
        errors = []
        out = self.path("out")
        assets = scenegen.build_assets(self.setting.scene)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(manifest["num"], size=min(self.spot_checks, manifest["num"]), replace=False)
        for i in sorted(int(p) for p in picks):
            try:
                loaded = scenegen.load_sample(out, i, manifest, assets)
            except DataError as exc:
                errors.append(f"record {i} does not load: {exc}")
                continue
            fresh = scenegen.sample_scene(manifest["sample_seeds"][i], manifest["sample_templates"][i], assets)
            for key in ("channels", "theta", "beta", "gt_mesh_full", "gt_joints", "gt_rotation",
                        "gt_axis_angle", "gt_translation", "contact"):
                if not np.array_equal(getattr(loaded, key), getattr(fresh, key)):
                    errors.append(f"record {i}: {key} does not round-trip")
            cam = (loaded.camera.scale, *loaded.camera.translation)
            if not np.array_equal(np.float32(cam), np.float32((fresh.camera.scale, *fresh.camera.translation))):
                errors.append(f"record {i}: camera does not round-trip")
            errors += [f"record {i}: {m}" for m in oracle_contact_errors(fresh, self.setting.scene.contact_threshold)]
        iso = self.path("isolated")
        scenegen.generate_dataset(iso, 1, manifest["seed"], self.setting.scene)
        name = "sample_00000.bin"
        with open(os.path.join(iso, name), "rb") as a, open(os.path.join(out, name), "rb") as b:
            if a.read() != b.read():
                errors.append("scene 0 regenerated in isolation is not byte-identical")
        return errors


WORKLOADS = {w.name: w for w in (Train, Eval, Gen)}


# ---------------------------------------------------------------------------
# oracles (no hoitg.kernels)
# ---------------------------------------------------------------------------

def brute_min_distances(a, b, chunk=256):
    """Distance from each point of a to its nearest point of b, by exhaustive search."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(len(a))
    for i in range(0, len(a), chunk):
        d = a[i:i + chunk, None, :] - b[None, :, :]
        out[i:i + chunk] = np.sqrt((d * d).sum(axis=2)).min(axis=1)
    return out


def oracle_chamfer(a, b):
    return float(50.0 * (brute_min_distances(a, b).mean() + brute_min_distances(b, a).mean()))


def oracle_contact_errors(sample, threshold):
    """Contact flags against exhaustive distances; vertices within 1e-5 m of the
    threshold are skipped because the stored vertices are float32-rounded."""
    d = brute_min_distances(sample.gt_mesh_full, sample.gt_object_vertices)
    decided = np.abs(d - threshold) > 1e-5
    wrong = int(np.sum((d <= threshold)[decided] != sample.contact[decided]))
    return [f"{wrong} contact flags disagree with the 5 cm oracle"] if wrong else []


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Marks:
    """Unit timestamps recorded by the workload's hooks."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def on_entry(self, fn):
        starts, clock = self.starts, time.perf_counter

        def hooked(*args, **kwargs):
            starts.append(clock())
            return fn(*args, **kwargs)

        return hooked

    def on_return(self, fn):
        ends, clock = self.ends, time.perf_counter

        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.append(clock())
            return out

        return hooked


@dataclass
class Call:
    start: float
    end: float
    windows: list          # (start, end) of every completed unit
    result: object = None
    error: str | None = None

    @property
    def setup_s(self):
        return self.windows[0][0] - self.start if self.windows else None


def _windows(marks: Marks, call_end: float, failed: bool):
    if marks.ends:
        return list(zip(marks.starts, marks.ends))
    bounds = marks.starts + [call_end]
    windows = list(zip(bounds, bounds[1:]))
    # an aborted call's last unit never finished
    return windows[:-1] if failed and windows else windows


def measure(workload: Workload, seconds: float, tracer: tracing.Tracer | None = None):
    """Call the entry point for about ``seconds`` (at least once); returns the calls."""
    calls = []
    patches = tracing.Patches()
    marks = Marks()
    try:
        if tracer is not None:
            tracer.install(patches)
        # hooks go outside the tracer's wrappers so every span lies inside its unit
        workload.hook_units(patches, marks)
        deadline = time.perf_counter() + seconds
        while True:
            marks.starts.clear()
            marks.ends.clear()
            error = result = None
            t0 = time.perf_counter()
            try:
                result = workload.call(len(calls))
            except Exception:  # the run goes on to report the failure
                error = traceback.format_exc()
            t1 = time.perf_counter()
            calls.append(Call(t0, t1, _windows(marks, t1, error is not None), result, error))
            # stop at the whole number of calls that ends nearest the deadline
            mean_call = sum(c.end - c.start for c in calls) / len(calls)
            if error is not None or t1 >= deadline - mean_call / 2:
                return calls
    finally:
        patches.restore()


def median(values):
    """The median, or 0 for a run that aborted before finishing anything."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile, units beyond): the highest percentile with TAIL_BEYOND units beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return (v[-1] if v else 0.0), 100.0, 0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


@dataclass
class Phase:
    """Measured calls of one phase plus what their outputs' checks found."""

    workload: Workload
    calls: list
    errors: list  # (call index or None, message)
    peak_rss_mib: float

    @property
    def windows(self):
        return [w for c in self.calls for w in c.windows]

    @property
    def unit_ms(self):
        return [1e3 * (e - s) for s, e in self.windows]

    def accounting(self):
        """(units attempted, units failed)."""
        per_call = self.workload.units_per_call()
        attempted = per_call * len(self.calls)
        bad = {i for i, _ in self.errors}
        failed = 0
        for i, c in enumerate(self.calls):
            if None in bad or i in bad:
                failed += per_call
            else:
                failed += per_call - len(c.windows)
        return attempted, failed

    def epoch_end_s(self):
        """Gaps from each epoch's last step return to the next step (or the call's return)."""
        k = self.workload.units_per_epoch
        gaps = []
        if not k:
            return gaps
        for c in self.calls:
            ws = c.windows
            for j in range(k - 1, len(ws), k):
                nxt = ws[j + 1][0] if j + 1 < len(ws) else c.end
                gaps.append(nxt - ws[j][1])
        return gaps

    def end_to_end(self):
        """{name: (value, unit, note)} of the end-to-end metrics."""
        ms = self.unit_ms
        units = len(ms)
        wall = sum(c.end - c.start for c in self.calls)
        setups = [c.setup_s for c in self.calls if c.setup_s is not None]
        t_value, t_pct, t_beyond = tail(ms)
        attempted, failed = self.accounting()
        samples = units * self.workload.samples_per_unit
        # the median over calls keeps a burst of load on a shared machine
        # from moving the whole run's figure
        rates = [len(c.windows) * self.workload.samples_per_unit / (c.end - c.start) for c in self.calls]
        return {
            "samples_per_s": (median(rates), "1/s",
                              f"median of {len(rates)} calls; {samples} samples in {wall:.2f} s"),
            "unit_ms_p50": (median(ms), "ms", f"median of {units} units"),
            "unit_ms_tail": (t_value, "ms", f"p{t_pct:.1f}: {t_beyond} of {units} units beyond"),
            "setup_s": (median(setups), "s", f"median of {len(setups)} calls"),
            "peak_rss_mb": (self.peak_rss_mib, "MiB", "peak RSS of the measuring process before its checks"),
            "error_rate": (failed / attempted, "share", f"{failed} of {attempted} units failed"),
        }


def run_phase(workload: Workload, seconds: float, tracer=None) -> Phase:
    calls = measure(workload, seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # checks run after timing, untraced
    errors = [(i, "entry call raised:\n" + c.error) for i, c in enumerate(calls) if c.error]
    done = [c.result for c in calls if c.error is None]
    try:
        errors += workload.check(done)
    except Exception:  # a check that cannot run has failed
        errors.append((None, "check raised:\n" + traceback.format_exc()))
    return Phase(workload, calls, errors, peak_rss_mib)


def prepare(workload: Workload):
    """Run ``workload.prepare`` in a child process (``prepare.py``) and wait for it to end.

    ``subprocess.run`` kills and reaps the child on a timeout and on any
    exception, ``SystemExit`` from a signal included, so no child outlives
    this call.
    """
    job = pickle.dumps((workload.name, workload.setting, workload.work, workload.seed))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prepare.py")
    try:
        proc = subprocess.run([sys.executable, script], input=job, timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"input preparation did not finish in {PREPARE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"input preparation failed with exit code {proc.returncode}")


def environment():
    """What the numbers depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "kernels.BACKEND": kernels.BACKEND,
    }
