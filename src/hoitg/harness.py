"""Training, evaluation, ablation, and attention export.

Everything here is a pure function of (config, seed, dataset files): batches
are drawn from a seeded permutation stream, the optimizer is deterministic,
and no timestamps enter any artifact, so re-running a command reproduces its
outputs byte for byte on the same platform.

Checkpoints reuse the parameter-file format and carry the training config,
the scene config of the dataset, the encoder config, the step count, and a
small metrics snapshot in the JSON manifest.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import losses, meshkit, metrics, model, scenegen
from .errors import (
    ConfigError, DataError, DegeneracyError, NumericAbort, ParameterError, config_from_dict, config_to_dict,
)


@dataclass
class TrainConfig:
    """Knobs of one training run; JSON config files mirror these names."""

    epochs: int = 30
    steps_per_epoch: int = 64
    batch_size: int = 4
    lr: float = 1e-4
    lr_decay: float = 0.1
    decay_at: float = 0.6
    seed: int = 0
    data_dir: str = ""
    checkpoint_path: str = ""
    log_path: str = ""
    encoder: model.EncoderConfig = field(default_factory=model.EncoderConfig)
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)
    templates: tuple[str, ...] | None = None

    def __post_init__(self):
        if min(self.epochs, self.steps_per_epoch, self.batch_size) <= 0:
            raise ConfigError("epochs, steps_per_epoch and batch_size must be positive")
        if not 0.0 < self.decay_at < 1.0:
            raise ConfigError(f"decay_at must be in (0,1), got {self.decay_at}")
        if self.lr <= 0 or self.lr_decay <= 0:
            raise ConfigError("lr and lr_decay must be positive")
        if self.seed < 0:
            raise ConfigError(f"config field 'seed' must be non-negative, got {self.seed}")

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                return config_from_dict(cls, json.load(fh), "config")
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    steps: int
    first_loss: float
    final_loss: float
    snapshot: dict


def _check_templates(cfg: TrainConfig, manifest):
    if cfg.templates is None:
        return
    have = sorted(set(manifest["sample_templates"]))
    want = sorted(set(cfg.templates))
    if have != want:
        raise ConfigError(f"dataset templates {have} do not match config templates {want}")


def train(cfg: TrainConfig, sample_indices=None, quiet=False) -> TrainResult:
    """Run the seeded training loop; writes checkpoint and loss CSV."""
    if not cfg.data_dir:
        raise ConfigError("train: data_dir not set")
    if not cfg.checkpoint_path:
        raise ConfigError("train: checkpoint_path not set")
    manifest, assets, loader = scenegen.load_dataset(cfg.data_dir)
    _check_templates(cfg, manifest)
    indices = range(manifest["num"]) if sample_indices is None else sample_indices
    samples = [loader(i) for i in indices]
    if len(samples) == 0:
        raise DataError("train: dataset is empty")

    net = model.HoiReconstructor(assets, cfg.encoder, seed=cfg.seed)
    state = dc.AdamState(lr=cfg.lr)
    rng = np.random.default_rng(np.random.PCG64(scenegen.mix_seed(cfg.seed, 0xB47C)))
    order = rng.permutation(len(samples))
    cursor = 0

    def next_batch():
        nonlocal order, cursor
        idx = []
        for _ in range(cfg.batch_size):
            if cursor >= len(order):
                order = rng.permutation(len(samples))
                cursor = 0
            idx.append(int(order[cursor]))
            cursor += 1
        return idx

    log_path = cfg.log_path or cfg.checkpoint_path + ".loss.csv"
    decay_epoch = int(round(cfg.epochs * cfg.decay_at))
    rows = []
    first_loss = None
    final_loss = None
    last_epoch_totals = []
    step = 0
    for epoch in range(cfg.epochs):
        if epoch == decay_epoch and epoch > 0:
            state.lr *= cfg.lr_decay
        if epoch == cfg.epochs - 1:
            last_epoch_totals = []
        for _ in range(cfg.steps_per_epoch):
            batch = next_batch()
            dc.zero_grads(net.params)
            term_sums = {name: 0.0 for name in losses.TERM_NAMES}
            loss_sum = None
            # one sample's tape at a time: backward releases it, and the parameter
            # gradients add up in the order one backward of the batch loss sums them
            for i in batch:
                s = samples[i]
                try:
                    rec = net.forward(s.channels, s.template_id)
                    tot, report = losses.scene_loss(rec, s, assets, cfg.weights)
                except (DegeneracyError, np.linalg.LinAlgError) as exc:
                    raise NumericAbort(f"forward pass degenerated at step {step} (batch {batch}): {exc}",
                                       batch_indices=batch) from exc
                loss_sum = tot.data if loss_sum is None else loss_sum + tot.data
                if not np.isfinite(loss_sum).all():
                    raise NumericAbort(f"non-finite loss sum {float(loss_sum.reshape(()))} after sample {i} "
                                       f"at step {step} (batch {batch})", batch_indices=batch)
                for name, val in report.terms.items():
                    term_sums[name] += val
                dc.backward(dc.scale(tot, 1.0 / len(batch)))
                del rec, tot
            total_val = float((loss_sum * (1.0 / len(batch))).reshape(()))
            dc.adam_step(net.params, state)
            term_means = {k: v / len(batch) for k, v in term_sums.items()}
            rows.append([step, state.lr] + [term_means[k] for k in losses.TERM_NAMES] + [total_val])
            if first_loss is None:
                first_loss = total_val
            final_loss = total_val
            if epoch == cfg.epochs - 1:
                last_epoch_totals.append(total_val)
            step += 1
        snapshot = _snapshot(net, samples, last_epoch_totals if last_epoch_totals else [final_loss])
        _write_checkpoint(cfg, net, manifest, step, snapshot)
        if not quiet:
            print(f"epoch {epoch + 1}/{cfg.epochs} step {step} loss {final_loss:.5f} lr {state.lr:.2e}")

    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr"] + list(losses.TERM_NAMES) + ["total"])
        writer.writerows(rows)
    return TrainResult(
        checkpoint_path=cfg.checkpoint_path,
        log_path=log_path,
        steps=step,
        first_loss=first_loss,
        final_loss=final_loss,
        snapshot=snapshot,
    )


def _snapshot(net, samples, last_totals):
    subset = samples[: min(8, len(samples))]
    per = [_sample_metrics(net, s, i) for i, s in enumerate(subset)]
    report = metrics.aggregate(per, init_stage=True)
    return {
        "mean_last_epoch_loss": float(np.mean(last_totals)),
        "cd_human_cm": report.cd_human_cm,
        "cd_object_cm": report.cd_object_cm,
        "f1": report.f1,
    }


def _write_checkpoint(cfg: TrainConfig, net, manifest, step, snapshot):
    extra = {
        "kind": "hoitg-checkpoint",
        "train_config": config_to_dict(cfg),
        "scene_config": manifest["config"],
        "step": step,
        "snapshot": snapshot,
    }
    dc.save_params(cfg.checkpoint_path, net.params, extra=extra)


def load_checkpoint(path):
    """Rebuild the model a checkpoint was trained with; returns (net, manifest)."""
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    arrays, manifest = dc.load_params(path)
    if manifest.get("kind") != "hoitg-checkpoint":
        raise ConfigError(f"{path} is not a checkpoint file: manifest field 'kind' is {manifest.get('kind')!r}")
    for key in ("train_config", "scene_config"):
        if key not in manifest:
            raise DataError(f"{path}: checkpoint manifest has no {key!r}")
    try:
        cfg = config_from_dict(TrainConfig, manifest["train_config"], "checkpoint config")
        scene_cfg = config_from_dict(scenegen.SceneConfig, manifest["scene_config"], "checkpoint scene config")
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    assets = scenegen.build_assets(scene_cfg)
    net = model.HoiReconstructor(assets, cfg.encoder, seed=cfg.seed)
    try:
        net.load_state(arrays)
    except ConfigError as exc:  # the stored names or shapes are not the ones train_config builds
        raise DataError(f"{path}: checkpoint field 'params' does not fit its train_config: {exc}") from exc
    return net, manifest


def gt_reconstruction(sample, assets):
    """Ground truth dressed as a model output (the zero-error harness)."""
    pose = meshkit.rigid_fit(
        assets.objects[sample.template_id].mesh.vertices.astype(np.float64),
        sample.gt_object_vertices.astype(np.float64),
    )
    init = model.InitEstimates(
        theta=dc.tensor(sample.theta.reshape(-1, 1)),
        beta=dc.tensor(sample.beta.reshape(-1, 1)),
        cam_scale=dc.tensor(np.asarray([[sample.camera.scale]], dtype=np.float32)),
        cam_trans=dc.tensor(sample.camera.translation.reshape(1, 2)),
        axis_angle=dc.tensor(sample.gt_axis_angle.reshape(1, 3)),
        translation=dc.tensor(sample.gt_translation.reshape(1, 3)),
        joints=dc.tensor(sample.gt_joints),
        mesh_coarse=dc.tensor(sample.gt_mesh_coarse),
        mesh_full=dc.tensor(sample.gt_mesh_full),
        object_vertices=dc.tensor(sample.gt_object_vertices),
    )
    return model.Reconstruction(
        init=init,
        joints=dc.tensor(sample.gt_joints),
        human_coarse=dc.tensor(sample.gt_mesh_coarse),
        human_mid=dc.tensor(sample.gt_mesh_mid),
        human_full=dc.tensor(sample.gt_mesh_full),
        object_vertices=dc.tensor(sample.gt_object_vertices),
        pose=pose,
    )


def _forward(net, sample, index, retain_attention=False):
    """``net.forward`` on one sample; a degenerate prediction is a numeric abort."""
    try:
        return net.forward(sample.channels, sample.template_id, retain_attention)
    except DegeneracyError as exc:
        raise NumericAbort(
            f"forward pass degenerated on sample {index}: {exc}", batch_indices=[index]
        ) from exc


def _sample_metrics(net, sample, index=None):
    """Per-sample metrics; ``index`` names the sample in a ``NumericAbort``."""
    with dc.no_grad():
        rec = _forward(net, sample, index)
    tmpl = net.assets.objects[sample.template_id].mesh.vertices.astype(np.float64)
    pred_obj = rec.pose.apply(tmpl)
    pred_human = rec.human_full.data.astype(np.float64)
    p, r, f1 = metrics.contact_pr(pred_human, pred_obj, sample.contact, net.assets.config.contact_threshold)
    init_human = rec.init.mesh_full.data.astype(np.float64)
    init_obj = rec.init.object_vertices.data.astype(np.float64)
    return {
        "cd_human_cm": metrics.chamfer(pred_human, sample.gt_mesh_full),
        "cd_object_cm": metrics.chamfer(pred_obj, sample.gt_object_vertices),
        "p": p,
        "r": r,
        "f1": f1,
        "init_cd_human_cm": metrics.chamfer(init_human, sample.gt_mesh_full),
        "init_cd_object_cm": metrics.chamfer(init_obj, sample.gt_object_vertices),
    }


def evaluate(ckpt_path, data_dir, report_path=None, sample_indices=None) -> metrics.MetricsReport:
    """Run the checkpointed model over a dataset and aggregate metrics.

    The final object mesh is the rigid readout applied to the template. The
    report also carries the init-stage Chamfer numbers for comparison.
    """
    net, ckpt_manifest = load_checkpoint(ckpt_path)
    manifest, _, loader = scenegen.load_dataset(data_dir)
    if manifest["config"] != ckpt_manifest["scene_config"]:
        raise ConfigError("checkpoint scene config does not match the dataset")
    indices = range(manifest["num"]) if sample_indices is None else sample_indices
    per = [_sample_metrics(net, loader(i), i) for i in indices]
    report = metrics.aggregate(per, init_stage=True)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        with open(report_path + ".txt", "w", encoding="utf-8") as fh:
            fh.write(report.to_text() + "\n")
    return report


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------

def _pgm_grid(vector):
    n = len(vector)
    rows = int(np.sqrt(n))
    while rows > 1 and n % rows:
        rows -= 1
    return vector.reshape(rows, n // rows)


def export_attention(ckpt_path, data_dir, sample_index, layer, block, out_prefix):
    """Write the per-human-vertex attention-to-object profile.

    Extracts the chosen layer's head-averaged attention, keeps the human-row
    by object-column sub-block, averages over object tokens, and emits
    ``<prefix>.csv`` plus an 8-bit PGM heatmap ``<prefix>.pgm`` laid out in
    coarse-vertex order.
    """
    net, ckpt_manifest = load_checkpoint(ckpt_path)
    manifest = scenegen.load_manifest(data_dir)
    if manifest["config"] != ckpt_manifest["scene_config"]:
        raise ConfigError("checkpoint scene config does not match the dataset")
    if not 0 <= sample_index < manifest["num"]:
        raise ParameterError(f"sample index {sample_index} out of range 0..{manifest['num'] - 1}")
    if not 0 <= block < 3:
        raise ParameterError(f"block {block} out of range 0..2")
    if not 0 <= layer < net.cfg.layers_per_block:
        raise ParameterError(f"layer {layer} out of range 0..{net.cfg.layers_per_block - 1}")
    sample = scenegen.load_sample(data_dir, sample_index, manifest, net.assets)
    with dc.no_grad():
        rec = _forward(net, sample, sample_index, retain_attention=True)
    attn = rec.attention[block][layer].mean(axis=0)  # (N, N), head-averaged
    j0 = net.num_joints
    h1 = j0 + net.v0
    sub = attn[j0:h1, h1:]
    vector = sub.mean(axis=1)

    with open(out_prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_index", "attention_to_object"])
        for i, v in enumerate(vector):
            writer.writerow([i, f"{v:.8f}"])

    grid = _pgm_grid(vector)
    peak = float(grid.max())
    img = np.zeros_like(grid, dtype=np.uint8) if peak <= 0 else np.round(
        255.0 * grid / peak
    ).astype(np.uint8)
    with open(out_prefix + ".pgm", "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    return vector


# ---------------------------------------------------------------------------
# ablation runner
# ---------------------------------------------------------------------------

def split_indices(n: int, seed: int, ratio: int = 8):
    """Seeded train/eval split with ``ratio``:1 proportions."""
    rng = np.random.default_rng(np.random.PCG64(scenegen.mix_seed(seed, 0x5711)))
    perm = rng.permutation(n)
    n_eval = max(1, n // (ratio + 1))
    return np.sort(perm[n_eval:]), np.sort(perm[:n_eval])


def _ablation_runs(variant_id):
    """The runs of an ablation id, as (label, graph placement id, knn_k) triples."""
    default_k = model.EncoderConfig.knn_k
    if variant_id == "placement":
        return [(vid, vid, default_k) for vid in model.ABLATION_VARIANTS]
    if variant_id == "knn-sweep":
        return [(f"k{k}", "h+o2", k) for k in model.KNN_SWEEP]
    if variant_id in model.ABLATION_VARIANTS:
        return [(variant_id, variant_id, default_k)]
    raise ParameterError(
        f"unknown ablation id {variant_id!r}: use one of "
        f"{sorted(model.ABLATION_VARIANTS)} or 'placement' or 'knn-sweep'"
    )


def run_ablation(variant_id, data_dir, out_dir, epochs=2, steps_per_epoch=16,
                 batch_size=4, seed=0, quiet=False):
    """Train each requested variant under identical seeds and compare.

    The dataset is split 8:1 (seeded); every run trains on the same split and
    is evaluated on the held-out part. Writes ``ablation.json`` and an aligned
    ``ablation.txt`` table in ``out_dir`` and returns the row dicts.
    """
    runs = _ablation_runs(variant_id)
    manifest = scenegen.load_manifest(data_dir)
    train_idx, eval_idx = split_indices(manifest["num"], seed)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for label, graph, knn_k in runs:
        human_graph, object_graph = model.ABLATION_VARIANTS[graph]
        ckpt = os.path.join(out_dir, f"{label.replace('+', '_')}.ckpt")
        cfg = TrainConfig(
            epochs=epochs,
            steps_per_epoch=steps_per_epoch,
            batch_size=batch_size,
            seed=seed,
            data_dir=data_dir,
            checkpoint_path=ckpt,
            encoder=model.EncoderConfig(graph=graph, knn_k=knn_k),
        )
        result = train(cfg, sample_indices=train_idx.tolist(), quiet=True)
        report = evaluate(ckpt, data_dir, sample_indices=eval_idx.tolist())
        row = {
            "variant": label,
            "human_graph": list(human_graph),
            "object_graph": list(object_graph),
            "knn_k": knn_k,
            "final_loss": result.final_loss,
            "cd_human_cm": report.cd_human_cm,
            "cd_object_cm": report.cd_object_cm,
            "contact_p": report.contact_precision,
            "contact_r": report.contact_recall,
            "f1": report.f1,
        }
        rows.append(row)
        if not quiet:
            print(f"[{label}] cd_h {row['cd_human_cm']:.3f} cd_o {row['cd_object_cm']:.3f} f1 {row['f1']:.3f}")

    with open(os.path.join(out_dir, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
    header = f"{'variant':10s} {'cd_human':>9s} {'cd_object':>9s} {'p':>7s} {'r':>7s} {'f1':>7s}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['variant']:10s} {row['cd_human_cm']:9.3f} {row['cd_object_cm']:9.3f} "
            f"{row['contact_p']:7.3f} {row['contact_r']:7.3f} {row['f1']:7.3f}"
        )
    with open(os.path.join(out_dir, "ablation.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows
