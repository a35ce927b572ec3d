"""Training loop, checkpointing, evaluation, ablation, CLI."""

import csv
import dataclasses
import json
import os
import pathlib
import shutil
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from hoitg import cli, harness, losses, model, scenegen
from hoitg import diffcore as dc
from hoitg.errors import ConfigError, DataError, NumericAbort, ParameterError, config_from_dict, config_to_dict


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    cfg = scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini")
    path = tmp_path_factory.mktemp("data") / "ds"
    scenegen.generate_dataset(path, 6, 123, cfg)
    return str(path)


@pytest.fixture(scope="module")
def mini_checkpoint(mini_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    harness.train(tiny_train_config(mini_dataset, path, epochs=1, steps_per_epoch=1), quiet=True)
    return path


def rewrite_checkpoint_manifest(src, dst, edit, payload=None):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its JSON manifest and, when given,
    the float32 array ``payload`` in place of its payload; returns ``dst``."""
    data = src.read_bytes()
    (mlen,) = struct.unpack("<I", data[:4])
    manifest = json.loads(data[4 : 4 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode("utf-8")
    body = data[4 + mlen :] if payload is None else payload.astype("<f4").tobytes()
    dst.write_bytes(struct.pack("<I", len(mbytes)) + mbytes + body)
    return dst


def _first_matrix(manifest):
    """The first parameter entry of a checkpoint manifest with two or more axes."""
    return next(e for e in manifest["params"] if len(e["shape"]) > 1)


def tiny_train_config(data_dir, ckpt_path, **kw):
    defaults = dict(
        epochs=2,
        steps_per_epoch=2,
        batch_size=2,
        seed=9,
        data_dir=data_dir,
        checkpoint_path=str(ckpt_path),
        encoder=model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=2),
    )
    defaults.update(kw)
    return harness.TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults_follow_schedule(self):
        cfg = harness.TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.lr_decay == 0.1
        assert cfg.decay_at == 0.6
        assert cfg.batch_size == 4

    def test_json_roundtrip(self, tmp_path):
        cfg = harness.TrainConfig(epochs=3, weights=losses.LossWeights(edge=0.5))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        loaded = harness.TrainConfig.from_json_file(path)
        assert loaded.epochs == 3
        assert loaded.weights.edge == 0.5
        assert loaded.encoder.dims == cfg.encoder.dims

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(harness.TrainConfig, {"epochs": 1, "warp_speed": 9}, "config")

    @pytest.mark.parametrize("section", ["encoder", "weights"])
    def test_unknown_nested_key_rejected(self, section):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(harness.TrainConfig, {section: {"bogus": 1}}, "config")

    def test_encoder_variant_key_rejected(self):
        # the placement's one field is 'graph'; a 'variant' key is not a field
        enc = model.EncoderConfig(graph="h+o-all")
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict(harness.TrainConfig, {"encoder": {**config_to_dict(enc), "variant": "none"}}, "config")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            harness.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            harness.TrainConfig(decay_at=1.5)


ENCODER = model.EncoderConfig(
    dims=(48, 24, 12), layers_per_block=3, heads=3, graph="none", knn_k=7, feat_channels=32, mlp_expansion=3,
)
WEIGHTS = losses.LossWeights(*(1.5 + 0.25 * i for i in range(len(losses.TERM_NAMES))))


@pytest.mark.parametrize("cfg", [
    harness.TrainConfig(
        epochs=3, steps_per_epoch=5, batch_size=2, lr=3e-4, lr_decay=0.5, decay_at=0.25, seed=4,
        data_dir="d", checkpoint_path="c.ckpt", log_path="c.csv", encoder=ENCODER, weights=WEIGHTS,
        templates=("tube", "box"),
    ),
    ENCODER,
    WEIGHTS,
    scenegen.SceneConfig(
        res=32, v0=16, v1=32, body_seed=5, pose_dim=12, shape_dim=2, param_range=0.8, contact_prob=0.5,
        contact_threshold=0.04, templates=("tube", "box"), body_parts="mini",
    ),
], ids=lambda cfg: type(cfg).__name__)
def test_config_json_roundtrip(cfg):
    # every field differs from its default, so a field the codec drops shows
    default = type(cfg)()
    assert all(getattr(cfg, k) != getattr(default, k) for k in config_to_dict(cfg))
    text = json.dumps(config_to_dict(cfg))
    assert config_from_dict(type(cfg), json.loads(text), "config") == cfg


class TestTrainLoop:
    def test_bit_identical_reruns(self, mini_dataset, tmp_path):
        # identical config (including paths) twice; snapshot bytes in between
        cfg = tiny_train_config(mini_dataset, tmp_path / "a.ckpt")
        r1 = harness.train(cfg, quiet=True)
        ckpt1 = (tmp_path / "a.ckpt").read_bytes()
        log1 = (tmp_path / "a.ckpt.loss.csv").read_bytes()
        r2 = harness.train(tiny_train_config(mini_dataset, tmp_path / "a.ckpt"), quiet=True)
        assert (tmp_path / "a.ckpt").read_bytes() == ckpt1
        assert (tmp_path / "a.ckpt.loss.csv").read_bytes() == log1
        assert r1.final_loss == r2.final_loss

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    def test_per_sample_backward_equals_a_joint_backward(self, mini_dataset, tmp_path, monkeypatch, batch_size):
        """The first step's gradients and logged total are bit-equal to one backward of the batch-mean loss."""
        cfg = tiny_train_config(mini_dataset, tmp_path / "j.ckpt", epochs=1, steps_per_epoch=1,
                                batch_size=batch_size)
        grads = {}
        adam_step = dc.adam_step

        def spy_adam(params, state):
            grads.update({name: p.grad.copy() for name, p in params.items()})
            adam_step(params, state)

        monkeypatch.setattr(dc, "adam_step", spy_adam)
        result = harness.train(cfg, quiet=True)

        manifest, assets, loader = scenegen.load_dataset(mini_dataset)
        # the first batch of the seeded sampler, in batch order
        rng = np.random.default_rng(np.random.PCG64(scenegen.mix_seed(cfg.seed, 0xB47C)))
        batch = rng.permutation(manifest["num"])[:batch_size]
        net = model.HoiReconstructor(assets, cfg.encoder, seed=cfg.seed)
        joint = None
        for i in batch:
            s = loader(int(i))
            tot, _ = losses.scene_loss(net.forward(s.channels, s.template_id), s, assets, cfg.weights)
            joint = tot if joint is None else dc.add(joint, tot)
        joint = dc.scale(joint, 1.0 / batch_size)
        dc.backward(joint)
        assert result.first_loss == float(joint.data.reshape(()))
        assert list(grads) == list(net.params)
        for name, p in net.params.items():
            assert np.array_equal(grads[name], p.grad), name

    def test_train_peak_memory_does_not_scale_with_the_batch(self, mini_dataset, tmp_path):
        """Only one sample's tape is alive at a time, so batch 8 peaks near batch 1."""
        peaks = []
        for batch_size in (1, 8):
            cfg = tiny_train_config(mini_dataset, tmp_path / f"m{batch_size}.ckpt", epochs=1, steps_per_epoch=2,
                                    batch_size=batch_size)
            tracemalloc.start()
            try:
                harness.train(cfg, quiet=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_loss_log_shape_and_total_column(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "c.ckpt", epochs=3, steps_per_epoch=2)
        harness.train(cfg, quiet=True)
        with open(cfg.checkpoint_path + ".loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        w = config_to_dict(cfg.weights)
        for row in rows:
            total = float(row["total"])
            weighted = sum(w[name] * float(row[name]) for name in losses.TERM_NAMES)
            assert abs(total - weighted) < 1e-5

    def test_lr_decays_once_at_configured_fraction(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(
            mini_dataset, tmp_path / "d.ckpt", epochs=5, steps_per_epoch=1, lr=1e-4
        )
        harness.train(cfg, quiet=True)
        with open(cfg.checkpoint_path + ".loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        lrs = [float(r["lr"]) for r in rows]
        # decay epoch = round(5 * 0.6) = 3, one step per epoch
        assert lrs[:3] == [1e-4] * 3
        assert np.allclose(lrs[3:], 1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_reports_batch(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "e.ckpt", lr=1e18, epochs=3,
                                steps_per_epoch=4)
        with pytest.raises(NumericAbort) as exc_info:
            harness.train(cfg, quiet=True)
        assert exc_info.value.batch_indices

    def test_template_mismatch_rejected(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "f.ckpt", templates=("box",))
        with pytest.raises(ConfigError):
            harness.train(cfg, quiet=True)

    def test_trains_on_the_chosen_records_only(self, mini_dataset, tmp_path):
        # record 2 is cut short; a run on records 0 and 1 never reads it and logs what the intact data gives
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        np.fromfile(data / "sample_00002.bin", dtype="<f4")[:100].tofile(data / "sample_00002.bin")
        harness.train(tiny_train_config(str(data), tmp_path / "cut.ckpt"), sample_indices=[0, 1], quiet=True)
        harness.train(tiny_train_config(mini_dataset, tmp_path / "whole.ckpt"), sample_indices=[0, 1], quiet=True)
        assert (tmp_path / "cut.ckpt.loss.csv").read_bytes() == (tmp_path / "whole.ckpt.loss.csv").read_bytes()
        with pytest.raises(DataError, match="sample_00002"):
            harness.train(tiny_train_config(str(data), tmp_path / "all.ckpt"), quiet=True)

    def test_loss_decreases_on_tiny_overfit(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(
            mini_dataset, tmp_path / "g.ckpt", epochs=1, steps_per_epoch=40, batch_size=2,
            lr=1e-3,
        )
        result = harness.train(cfg, sample_indices=[0, 1], quiet=True)
        assert result.final_loss < result.first_loss


class TestCheckpoint:
    def test_roundtrip_forward_bit_identical(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "h.ckpt")
        harness.train(cfg, quiet=True)
        manifest, assets, loader = scenegen.load_dataset(mini_dataset)
        sample = loader(0)

        net1, _ = harness.load_checkpoint(cfg.checkpoint_path)
        rec1 = net1.forward(sample.channels, sample.template_id)
        net2, _ = harness.load_checkpoint(cfg.checkpoint_path)
        rec2 = net2.forward(sample.channels, sample.template_id)
        assert np.array_equal(rec1.human_full.data, rec2.human_full.data)
        assert np.array_equal(rec1.object_vertices.data, rec2.object_vertices.data)

        # loading back into a live model reproduces its own forward
        rec3 = net1.forward(sample.channels, sample.template_id)
        assert np.array_equal(rec1.human_full.data, rec3.human_full.data)

    def test_checkpoint_carries_config_and_snapshot(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "i.ckpt")
        harness.train(cfg, quiet=True)
        _, manifest = harness.load_checkpoint(cfg.checkpoint_path)
        assert manifest["kind"] == "hoitg-checkpoint"
        assert manifest["step"] == cfg.epochs * cfg.steps_per_epoch
        assert manifest["train_config"]["seed"] == 9
        assert "cd_human_cm" in manifest["snapshot"]

    def test_checkpoint_stores_the_encoder_once(self, mini_dataset, tmp_path):
        enc = model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=1)
        cfg = tiny_train_config(mini_dataset, tmp_path / "e.ckpt", epochs=1, steps_per_epoch=1, encoder=enc)
        harness.train(cfg, quiet=True)
        net, manifest = harness.load_checkpoint(cfg.checkpoint_path)
        assert "encoder" not in manifest
        assert manifest["train_config"]["encoder"] == json.loads(json.dumps(config_to_dict(enc)))
        assert net.cfg == enc

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk.bin"
        from hoitg import diffcore as dc

        dc.save_params(p, {"x": dc.tensor(np.zeros(3, dtype=np.float32))})
        with pytest.raises(ConfigError):
            harness.load_checkpoint(p)


class TestEvaluate:
    def test_report_fields_and_init_stage(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "j.ckpt")
        harness.train(cfg, quiet=True)
        report_path = str(tmp_path / "report.json")
        report = harness.evaluate(cfg.checkpoint_path, mini_dataset, report_path=report_path)
        assert report.sample_count == 6
        assert report.init_cd_human_cm is not None
        assert os.path.exists(report_path)
        assert os.path.exists(report_path + ".txt")
        data = json.loads(pathlib.Path(report_path).read_text())
        assert data["cd_human_cm"] == report.cd_human_cm

    def test_dataset_config_mismatch_rejected(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "k.ckpt")
        harness.train(cfg, quiet=True)
        other = tmp_path / "other_ds"
        scenegen.generate_dataset(
            other, 2, 4, scenegen.SceneConfig(res=32, v0=12, v1=24, body_parts="mini")
        )
        with pytest.raises(ConfigError):
            harness.evaluate(cfg.checkpoint_path, str(other))

    def test_contact_scored_at_the_dataset_threshold(self, tmp_path, monkeypatch):
        """Ground-truth meshes score contact p = r = 1 on a 3 cm dataset, not against a 5 cm default."""
        data = str(tmp_path / "ds3")
        scene = scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini", contact_threshold=0.03)
        manifest = scenegen.generate_dataset(data, 8, 123, scene)
        assert manifest["contact_mask_consistency"] is not None  # some scenes are in contact
        cfg = tiny_train_config(data, tmp_path / "c.ckpt", epochs=1, steps_per_epoch=1)
        harness.train(cfg, quiet=True)
        monkeypatch.setattr(harness, "_forward",
                            lambda net, sample, index: harness.gt_reconstruction(sample, net.assets))
        report = harness.evaluate(cfg.checkpoint_path, data)
        assert report.contact_precision == report.contact_recall == 1.0


class TestExportAttention:
    def test_vector_and_files(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "l.ckpt")
        harness.train(cfg, quiet=True)
        prefix = str(tmp_path / "attn")
        vec = harness.export_attention(cfg.checkpoint_path, mini_dataset, 0, 1, 0, prefix)
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        assert len(vec) == assets.operators.sizes[0]
        assert (vec >= 0).all() and (vec <= 1).all()
        # sub-row averages of a stochastic row cannot exceed 1
        assert vec.sum() <= assets.operators.sizes[0]
        with open(prefix + ".csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(vec) + 1
        pgm = pathlib.Path(prefix + ".pgm").read_bytes()
        assert pgm.startswith(b"P5\n")

    def test_full_rows_sum_to_one_so_subrows_bounded(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "m.ckpt")
        harness.train(cfg, quiet=True)
        net, _ = harness.load_checkpoint(cfg.checkpoint_path)
        _, assets, loader = scenegen.load_dataset(mini_dataset)
        s = loader(0)
        rec = net.forward(s.channels, s.template_id, retain_attention=True)
        attn = rec.attention[0][0].mean(axis=0)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-5)
        j0 = net.num_joints
        h1 = j0 + net.v0
        sub = attn[j0:h1, h1:]
        assert (sub.sum(axis=1) <= 1.0 + 1e-6).all()

    def test_invalid_layer_and_block(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "n.ckpt")
        harness.train(cfg, quiet=True)
        with pytest.raises(ParameterError):
            harness.export_attention(cfg.checkpoint_path, mini_dataset, 0, 9, 0, str(tmp_path / "x"))
        with pytest.raises(ParameterError):
            harness.export_attention(cfg.checkpoint_path, mini_dataset, 0, 0, 7, str(tmp_path / "x"))


class TestForwardOnlyPasses:
    """Evaluation, the train snapshot and attention export record no tape."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        recs = []
        forward = harness._forward

        def capturing_forward(*args, **kwargs):
            recs.append(forward(*args, **kwargs))
            return recs[-1]

        monkeypatch.setattr(harness, "_forward", capturing_forward)
        return recs

    @staticmethod
    def assert_untaped(recs, count, reconstruction_tensors):
        assert len(recs) == count
        for rec in recs:
            for name, t in reconstruction_tensors(rec).items():
                assert t._parents == () and t._bwd is None, name

    def test_evaluate(self, mini_dataset, mini_checkpoint, captured, reconstruction_tensors):
        harness.evaluate(str(mini_checkpoint), mini_dataset)
        self.assert_untaped(captured, 6, reconstruction_tensors)

    def test_train_snapshot(self, mini_dataset, tmp_path, captured, reconstruction_tensors):
        harness.train(tiny_train_config(mini_dataset, tmp_path / "s.ckpt", epochs=1, steps_per_epoch=1), quiet=True)
        self.assert_untaped(captured, 6, reconstruction_tensors)

    def test_export_attention(self, mini_dataset, mini_checkpoint, tmp_path, captured, reconstruction_tensors):
        harness.export_attention(str(mini_checkpoint), mini_dataset, 0, 1, 0, str(tmp_path / "attn"))
        self.assert_untaped(captured, 1, reconstruction_tensors)
        assert captured[0].attention is not None


class TestAblation:
    def test_placement_set_matches_table(self):
        runs = harness._ablation_runs("placement")
        labels = [r[0] for r in runs]
        assert labels == ["none", "h", "h+o1", "h+o2", "h+o3", "h+o-all"]

    def test_knn_sweep_includes_ten(self):
        runs = harness._ablation_runs("knn-sweep")
        ks = [r[2] for r in runs]
        assert ks == [1, 3, 5, 10, 20]
        assert all(r[1] == "h+o2" for r in runs)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            harness._ablation_runs("h+o9")

    def test_single_variant_run_emits_table(self, mini_dataset, tmp_path):
        out = tmp_path / "abl"
        rows = harness.run_ablation(
            "none", mini_dataset, str(out), epochs=1, steps_per_epoch=2, batch_size=2, quiet=True
        )
        assert len(rows) == 1
        assert rows[0]["variant"] == "none"
        assert rows[0]["human_graph"] == [False, False, False]
        table = (out / "ablation.txt").read_text()
        assert "cd_human" in table
        data = json.loads((out / "ablation.json").read_text())
        assert data[0]["variant"] == "none"

    def test_split_is_seeded_8_to_1(self):
        train_idx, eval_idx = harness.split_indices(90, seed=4)
        assert len(eval_idx) == 10
        assert len(train_idx) == 80
        assert set(train_idx) | set(eval_idx) == set(range(90))
        again = harness.split_indices(90, seed=4)
        assert np.array_equal(train_idx, again[0])


def test_encoder_knn_k_builds_assets_once(mini_dataset, tmp_path, monkeypatch):
    """A train run at encoder knn_k 3 builds the scene assets once, and its model's object graphs are
    the COO oracle's 3-NN graphs; the checkpoint rebuilds the same graphs."""
    from test_meshkit import brute_force_knn
    from test_scenegen import coo_normalized

    calls, nets = [], []
    build, net_class = scenegen.build_assets, model.HoiReconstructor

    def counting_build(config):
        calls.append(config)
        return build(config)

    class Recording(net_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    monkeypatch.setattr(scenegen, "build_assets", counting_build)
    monkeypatch.setattr(model, "HoiReconstructor", Recording)
    enc = model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=2, knn_k=3)
    cfg = tiny_train_config(mini_dataset, tmp_path / "k.ckpt", epochs=1, steps_per_epoch=1, encoder=enc)
    harness.train(cfg, quiet=True)
    assert len(calls) == 1 and len(nets) == 1
    for tid, template in nets[0].assets.objects.items():
        knn = brute_force_knn(template.mesh.vertices.astype(np.float64), 3)
        triples = [(i, j, d) for i, picks in knn.items() for d, j in picks]
        want = coo_normalized(scenegen.OBJECT_VERTEX_COUNT, *zip(*triples))
        assert np.array_equal(nets[0].object_adjacency[tid], want), tid
    loaded, _ = harness.load_checkpoint(cfg.checkpoint_path)
    assert loaded.cfg.knn_k == 3
    for tid, adj in nets[0].object_adjacency.items():
        assert np.array_equal(loaded.object_adjacency[tid], adj), tid


ONE_STEP = {"epochs": 1, "steps_per_epoch": 1, "batch_size": 1}


class TestCli:
    def test_gen_train_eval_viz_pipeline(self, tmp_path):
        data = str(tmp_path / "ds")
        rc = cli.main(["gen", "--out", data, "--num", "4", "--seed", "3",
                       "--templates", "box,tube", "--res", "32"])
        assert rc == 0
        # generated with CLI defaults: full-size body; use a tiny train run
        cfg = {
            "epochs": 1,
            "steps_per_epoch": 1,
            "batch_size": 2,
            "encoder": {"dims": [16, 12, 8], "heads": 2, "feat_channels": 16,
                        "layers_per_block": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = str(tmp_path / "m.ckpt")
        rc = cli.main(["train", "--data", data, "--config", str(cfg_path), "--out", ckpt])
        assert rc == 0
        report = str(tmp_path / "rep.json")
        rc = cli.main(["eval", "--data", data, "--ckpt", ckpt, "--report", report])
        assert rc == 0
        assert os.path.exists(report)
        rc = cli.main(["viz-attn", "--ckpt", ckpt, "--data", data, "--sample", "0",
                       "--layer", "0", "--block", "1", "--out", str(tmp_path / "att")])
        assert rc == 0
        assert os.path.exists(str(tmp_path / "att") + ".pgm")

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        rc = cli.main(["train", "--data", str(tmp_path), "--config", str(bad),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    def test_exit_code_data_error(self, tmp_path):
        rc = cli.main(["train", "--data", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3

    @pytest.mark.parametrize("section", ["encoder", "weights"])
    def test_exit_code_unknown_nested_key(self, mini_dataset, tmp_path, section):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"bogus": 1}}))
        rc = cli.main(["train", "--data", mini_dataset, "--config", str(bad),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("bad_cfg, field", [
        ({"encoder": 5}, "encoder"),
        ({"epochs": "x"}, "epochs"),
        ({"weights": {"edge": "a"}}, "edge"),
        ({"encoder": {"dims": 5}}, "dims"),
        ({"lr": None}, "lr"),
        # out of range: one step, in case a value slips through to training
        ({**ONE_STEP, "encoder": {"heads": 0}}, "heads"),
        ({**ONE_STEP, "encoder": {"heads": -4}}, "heads"),
        ({**ONE_STEP, "encoder": {"mlp_expansion": 0}}, "mlp_expansion"),
        ({**ONE_STEP, "encoder": {"mlp_expansion": -1}}, "mlp_expansion"),
        ({**ONE_STEP, "encoder": {"layers_per_block": 0}}, "layers_per_block"),
        ({**ONE_STEP, "encoder": {"feat_channels": 4}}, "feat_channels"),
        ({**ONE_STEP, "encoder": {"dims": [16, 12, 0]}}, "dims"),
        ({**ONE_STEP, "encoder": {"dims": [16, 12, -8]}}, "dims"),
        ({**ONE_STEP, "seed": -1}, "seed"),
        ({**ONE_STEP, "encoder": {"knn_k": 0}}, "knn_k"),
        ({**ONE_STEP, "encoder": {"knn_k": 64}}, "knn_k"),
        ({**ONE_STEP, "encoder": {"graph": "h+o4"}}, "graph"),
        # the per-block flags of the old config format
        ({**ONE_STEP, "encoder": {"human_graph": [True, True, True]}}, "human_graph"),
    ], ids=["encoder-int", "epochs-str", "weight-str", "dims-int", "lr-null", "heads-0", "heads-neg",
            "mlp-0", "mlp-neg", "layers-0", "feat-4", "dims-0", "dims-neg", "seed-neg", "knn-0", "knn-64",
            "graph-unknown", "graph-old-flags"])
    def test_exit_code_wrong_typed_value(self, mini_dataset, tmp_path, capsys, bad_cfg, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_cfg))
        rc = cli.main(["train", "--data", mini_dataset, "--config", str(bad),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"x"', "null"], ids=["list", "number", "string", "null"])
    def test_exit_code_config_not_an_object(self, mini_dataset, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli.main(["train", "--data", mini_dataset, "--config", str(bad),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, field", [
        ({"bogus": 1}, "bogus"),
        ({"res": "32"}, "res"),
        ({"v0": None}, "v0"),
    ], ids=["unknown", "res-str", "v0-null"])
    def test_exit_code_malformed_manifest_config(self, mini_dataset, tmp_path, capsys, bad, field):
        cfg = tiny_train_config(mini_dataset, tmp_path / "w.ckpt", epochs=1, steps_per_epoch=1)
        harness.train(cfg, quiet=True)
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"].update(bad)
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and repr(field) in err
        rc = cli.main(["eval", "--data", str(data), "--ckpt", cfg.checkpoint_path,
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and repr(field) in err

    @pytest.mark.parametrize("bad, field", [
        ({"templates": []}, "templates"),
        ({"templates": ["box", "giant"]}, "templates"),
        ({"pose_dim": -1}, "pose_dim"),
        ({"shape_dim": 0}, "shape_dim"),
        ({"res": 0}, "res"),
        ({"body_seed": -1}, "body_seed"),
        # K is an encoder field, so a manifest that names it is malformed whatever the value
        ({"knn_k": 0}, "knn_k"),
        ({"knn_k": 64}, "knn_k"),
        ({"v0": 0}, "v0"),
        ({"v0": 32}, "v0"),
        ({"v1": 68}, "v1"),
        ({"body_parts": "giant"}, "body_parts"),
        ({"contact_threshold": 0.0}, "contact_threshold"),
        ({"param_range": -1.2}, "param_range"),
        ({"contact_prob": 1.5}, "contact_prob"),
    ], ids=["templates-empty", "templates-unknown", "pose-neg", "shape-0", "res-0", "body-seed-neg", "knn-0",
            "knn-64", "v0-0", "v0-v1", "v1-v2", "body-giant", "threshold-0", "range-neg", "prob-1.5"])
    def test_exit_code_out_of_range_manifest_config(self, mini_dataset, tmp_path, capsys, bad, field):
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"].update(bad)
        (data / "manifest.json").write_text(json.dumps(manifest))
        one_step = tmp_path / "one.json"  # bounds the run should a value slip through
        one_step.write_text(json.dumps(ONE_STEP))
        rc = cli.main(["train", "--data", str(data), "--config", str(one_step), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and repr(field) in err

    @pytest.mark.parametrize("args, field", [
        (["--res", "0"], "res"),
        (["--templates", "box,giant"], "templates"),
        (["--templates", ","], "templates"),
        (["--num", "-1"], "num"),
        (["--seed", "-5"], "seed"),
    ], ids=["res-0", "templates-unknown", "templates-empty", "num-neg", "seed-neg"])
    def test_exit_code_gen_out_of_range(self, tmp_path, capsys, args, field):
        rc = cli.main(["gen", "--out", str(tmp_path / "ds"), "--num", "2", *args])
        assert rc == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_gen_zero_scenes_is_a_loadable_dataset(self, tmp_path):
        data = tmp_path / "ds"
        assert cli.main(["gen", "--out", str(data), "--num", "0", "--res", "32"]) == 0
        assert scenegen.load_manifest(str(data))["num"] == 0

    @pytest.mark.parametrize("sub", [False, True], ids=["file", "file-sub"])
    def test_exit_code_gen_out_not_a_directory(self, tmp_path, capsys, sub):
        taken = tmp_path / "taken"
        taken.write_text("x")
        out = taken / "sub" if sub else taken
        rc = cli.main(["gen", "--out", str(out), "--num", "1", "--res", "32"])
        assert rc == 3
        assert str(out) in capsys.readouterr().err
        assert taken.read_text() == "x"

    @pytest.mark.parametrize("cut, field", [
        ("0", "length prefix"),
        ("2", "length prefix"),
        ("4", "manifest length"),
        ("mid-manifest", "manifest length"),
        ("end-of-manifest", "'params[0]'"),
        ("mid-payload", "'params["),
    ])
    def test_exit_code_truncated_checkpoint(self, mini_dataset, mini_checkpoint, tmp_path, capsys, cut, field):
        data = mini_checkpoint.read_bytes()
        (mlen,) = struct.unpack("<I", data[:4])
        size = {"0": 0, "2": 2, "4": 4, "mid-manifest": 4 + mlen // 2, "end-of-manifest": 4 + mlen,
                "mid-payload": (4 + mlen + len(data)) // 2}[cut]
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(data[:size])
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and field in err

    # a file without 'kind' is some other parameter file, which is a usage error
    @pytest.mark.parametrize("key, code", [("params", 3), ("kind", 2), ("train_config", 3), ("scene_config", 3),
                                           ("payload_crc32", 3)])
    def test_exit_code_checkpoint_manifest_missing_key(self, mini_dataset, mini_checkpoint, tmp_path, capsys,
                                                       key, code):
        ckpt = rewrite_checkpoint_manifest(mini_checkpoint, tmp_path / "nokey.ckpt", lambda m: m.pop(key))
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == code
        err = capsys.readouterr().err
        assert str(ckpt) in err and repr(key) in err

    @pytest.mark.parametrize("key, bad, field", [
        ("train_config", {"epochs": "x"}, "epochs"),
        ("scene_config", {"res": 0}, "res"),
        ("scene_config", {"bogus": 1}, "bogus"),
    ], ids=["epochs-str", "scene-res-0", "scene-unknown"])
    def test_exit_code_checkpoint_malformed_config(self, mini_dataset, mini_checkpoint, tmp_path, capsys,
                                                   key, bad, field):
        ckpt = rewrite_checkpoint_manifest(mini_checkpoint, tmp_path / "badcfg.ckpt", lambda m: m[key].update(bad))
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and field in err

    @pytest.mark.parametrize("key", ["train_config", "scene_config"])
    def test_exit_code_checkpoint_with_old_knn_k(self, mini_dataset, mini_checkpoint, tmp_path, capsys, key):
        """K moved into the encoder config, so a checkpoint that stores it elsewhere must be retrained."""
        ckpt = rewrite_checkpoint_manifest(mini_checkpoint, tmp_path / "old.ckpt", lambda m: m[key].update(knn_k=10))
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'knn_k'" in err

    def test_old_manifest_migrates_by_deleting_knn_k(self, mini_dataset, mini_checkpoint, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"]["knn_k"] = 10
        (data / "manifest.json").write_text(json.dumps(manifest))
        argv = ["eval", "--data", str(data), "--ckpt", str(mini_checkpoint), "--report", str(tmp_path / "rep.json")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'knn_k'" in err
        del manifest["config"]["knn_k"]  # the records stay as they are
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(argv) == 0

    def test_exit_code_checkpoint_manifest_not_json(self, mini_dataset, mini_checkpoint, tmp_path, capsys):
        data = bytearray(mini_checkpoint.read_bytes())
        data[4] = 0xFF  # the manifest's opening brace
        ckpt = tmp_path / "garbled.ckpt"
        ckpt.write_bytes(bytes(data))
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "manifest" in err

    @pytest.mark.parametrize("edit, field", [
        (lambda m: (e := _first_matrix(m)).update(name=e["name"] + "x"), "'params'"),
        (lambda m: (e := _first_matrix(m)).update(shape=e["shape"][::-1]), "'params'"),
        # 2**64 floats: a product that wraps to 0 in int64 would pass the fit check
        (lambda m: m["params"][0].update(shape=[2**32, 2**32]), "'params[0]'"),
    ], ids=["renamed", "reshaped", "overflowing"])
    def test_exit_code_checkpoint_params_not_the_model(self, mini_dataset, mini_checkpoint, tmp_path, capsys,
                                                       edit, field):
        """A stored parameter the train config's model lacks, or one that does not fit the payload, is a
        broken file (exit 3), not a usage error."""
        ckpt = rewrite_checkpoint_manifest(mini_checkpoint, tmp_path / "params.ckpt", edit)
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", str(ckpt), "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and field in err

    # each case edits the manifest dict; "half" and "list" replace the file
    MANIFEST_FAULTS = {
        "half": (None, "manifest.json"),
        "list": (None, "manifest.json"),
        "format-missing": (lambda m: m.pop("format"), "'format'"),
        "format-other": (lambda m: m.update(format="hoitg-dataset-v0"), "'format'"),
        "format-v1": (lambda m: m.update(format="hoitg-dataset-v1"), "'format'"),  # records held the body mesh
        "format-v2": (lambda m: m.update(format="hoitg-dataset-v2"), "'format'"),  # and rotation, contact flags
        "num-missing": (lambda m: m.pop("num"), "'num'"),
        "num-str": (lambda m: m.update(num="6"), "'num'"),
        "num-neg": (lambda m: m.update(num=-1), "'num'"),
        "num-bool": (lambda m: m.update(num=True), "'num'"),
        "num-long": (lambda m: m.update(num=m["num"] + 1), "'sample_templates'"),
        "templates-missing": (lambda m: m.pop("sample_templates"), "'sample_templates'"),
        "templates-short": (lambda m: m["sample_templates"].pop(), "'sample_templates'"),
        "templates-unknown": (lambda m: m["sample_templates"].__setitem__(1, "sofa"), "'sample_templates'"),
        "templates-list": (lambda m: m["sample_templates"].__setitem__(1, ["box"]), "'sample_templates'"),
        "seeds-missing": (lambda m: m.pop("sample_seeds"), "'sample_seeds'"),
        "seeds-dict": (lambda m: m.update(sample_seeds={}), "'sample_seeds'"),
        "seeds-short": (lambda m: m["sample_seeds"].pop(), "'sample_seeds'"),
        "seeds-str": (lambda m: m["sample_seeds"].__setitem__(0, "7"), "'sample_seeds'"),
        "seeds-neg": (lambda m: m["sample_seeds"].__setitem__(0, -7), "'sample_seeds'"),
        "seeds-float": (lambda m: m["sample_seeds"].__setitem__(0, 7.0), "'sample_seeds'"),
        "seeds-2**64": (lambda m: m["sample_seeds"].__setitem__(0, 2**64), "'sample_seeds'"),
        "crc-missing": (lambda m: m.pop("sample_crc32"), "'sample_crc32'"),
        "crc-short": (lambda m: m["sample_crc32"].pop(), "'sample_crc32'"),
        "crc-neg": (lambda m: m["sample_crc32"].__setitem__(0, -1), "'sample_crc32'"),
        "crc-2**32": (lambda m: m["sample_crc32"].__setitem__(0, 2**32), "'sample_crc32'"),
        "crc-str": (lambda m: m["sample_crc32"].__setitem__(0, str(m["sample_crc32"][0])), "'sample_crc32'"),
    }

    @pytest.mark.parametrize("cut", list(MANIFEST_FAULTS))
    def test_exit_code_malformed_dataset_manifest(self, mini_dataset, mini_checkpoint, tmp_path, capsys, cut):
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        text = (data / "manifest.json").read_bytes()
        edit, field = self.MANIFEST_FAULTS[cut]
        if edit is None:
            (data / "manifest.json").write_bytes(text[: len(text) // 2] if cut == "half" else b"[1, 2]")
        else:
            manifest = json.loads(text)
            edit(manifest)
            (data / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["eval", "--data", str(data), "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and field in err

    def _write_record(self, mini_dataset, tmp_path, edit):
        """A copy of the mini dataset whose first record is ``edit(floats)``; returns (dir, record path)."""
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        path = data / "sample_00000.bin"
        edit(np.fromfile(path, dtype="<f4")).tofile(path)
        return str(data), str(path)

    @pytest.mark.parametrize("cut", range(3 * len(scenegen.RECORD_BLOCKS)))
    def test_exit_code_truncated_record(self, mini_dataset, mini_checkpoint, tmp_path, capsys, cut):
        """``cut`` ends the record in block ``cut // 3``: where it starts, halfway into it, or one float
        before its end."""
        block, at = divmod(cut, 3)
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        sizes = scenegen._record_sizes(assets)
        end = sum(sizes[:block]) + (0, sizes[block] // 2, sizes[block] - 1)[at]
        data, path = self._write_record(mini_dataset, tmp_path, lambda raw: raw[:end])
        rc = cli.main(["eval", "--data", data, "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert path in err and repr(scenegen.RECORD_BLOCKS[block]) in err

    def test_exit_code_overlong_record(self, mini_dataset, mini_checkpoint, tmp_path, capsys):
        data, path = self._write_record(mini_dataset, tmp_path, lambda raw: np.append(raw, np.float32(0)))
        rc = cli.main(["eval", "--data", data, "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_exit_code_non_finite_record(self, mini_dataset, mini_checkpoint, tmp_path, capsys, value):
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        sizes = scenegen._record_sizes(assets)
        for block, name in enumerate(scenegen.RECORD_BLOCKS):
            at = sum(sizes[:block]) + sizes[block] // 2

            def poison(raw):
                raw[at] = value
                return raw

            data, path = self._write_record(mini_dataset, tmp_path / name, poison)
            for argv in (["eval", "--data", data, "--ckpt", str(mini_checkpoint),
                          "--report", str(tmp_path / "rep.json")],
                         ["train", "--data", data, "--out", str(tmp_path / "x.ckpt")]):
                assert cli.main(argv) == 3, (name, argv[0])
                err = capsys.readouterr().err
                assert path in err and repr(name) in err, (name, argv[0], err)

    @pytest.mark.parametrize("value", [-0.6, 0.0], ids=["neg", "zero"])
    def test_exit_code_record_camera_scale(self, mini_dataset, mini_checkpoint, tmp_path, capsys, value):
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        at = sum(scenegen._record_sizes(assets)[:scenegen.RECORD_BLOCKS.index("camera")])

        def edit(raw):
            raw[at] = value
            return raw

        data, path = self._write_record(mini_dataset, tmp_path, edit)
        rc = cli.main(["eval", "--data", data, "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert path in err and "camera scale" in err

    @pytest.mark.parametrize("block, edit", [
        ("channels", lambda b, res: np.put(b, 3 * res * res + 5, 0.5)),  # human mask
        ("channels", lambda b, res: np.put(b, 4 * res * res + 7, -1.0)),  # object mask
        ("theta", lambda b, res: np.put(b, 0, 3e38)),  # finite, but it poses a body 1e37 m across
        ("theta", lambda b, res: np.put(b, 0, 1.01 * scenegen.SceneConfig.param_range)),
        ("beta", lambda b, res: np.put(b, 0, -1.01 * scenegen.SceneConfig.param_range)),
        ("gt_axis_angle", lambda b, res: np.put(b, 0, 3e38)),
        ("gt_axis_angle", lambda b, res: np.put(b, range(3), [0.75 * np.pi * (1 + 1e-5), 0.0, 0.0])),
        ("channels", lambda b, res: np.put(b, 0, 3e38)),  # human depth
        ("channels", lambda b, res: np.put(b, res * res + 9, -0.5)),  # object depth
        ("channels", lambda b, res: np.put(b, 2 * res * res + 3, 1.5)),  # shading
    ], ids=["mask3", "mask4", "theta-huge", "theta-range", "beta-range", "axis-angle-huge", "axis-angle-range",
            "depth-huge", "depth-neg", "shading-1.5"])
    def test_exit_code_impossible_record(self, mini_dataset, mini_checkpoint, tmp_path, capsys, block, edit):
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        sizes = scenegen._record_sizes(assets)
        start = sum(sizes[:scenegen.RECORD_BLOCKS.index(block)])

        def poison(raw):
            edit(raw[start:], assets.config.res)
            return raw

        data, path = self._write_record(mini_dataset, tmp_path, poison)
        rc = cli.main(["eval", "--data", data, "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert path in err and f"block {block!r}" in err

    def test_body_parameters_at_the_range_load(self, mini_dataset, mini_checkpoint, tmp_path, capsys):
        """theta and beta at exactly +-float32(param_range) and an object angle of float32(0.75 pi), the
        generator's extremes, pass the range checks; the edit is caught by the record's CRC32 until the
        manifest's entry is refreshed."""
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        sizes = scenegen._record_sizes(assets)
        theta, beta, aa = (sum(sizes[:scenegen.RECORD_BLOCKS.index(name)])
                           for name in ("theta", "beta", "gt_axis_angle"))
        limit = np.float32(assets.config.param_range)

        def edit(raw):
            raw[theta], raw[beta] = limit, -limit
            raw[aa:aa + 3] = np.float32([0.0, 0.0, -0.75 * np.pi])
            return raw

        data, path = self._write_record(mini_dataset, tmp_path, edit)
        argv = ["eval", "--data", data, "--ckpt", str(mini_checkpoint), "--report", str(tmp_path / "rep.json")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert path in err and "'sample_crc32'" in err
        manifest_path = pathlib.Path(data) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["sample_crc32"][0] = zlib.crc32(pathlib.Path(path).read_bytes())
        manifest_path.write_text(json.dumps(manifest))
        assert cli.main(argv) == 0

    def test_records_of_another_run_fail_their_crc(self, mini_dataset, tmp_path):
        """Records that another seed's gen wrote over the first three, as a second gen cut short leaves
        them, pass every semantic check but not the manifest's CRC32s."""
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        data, other = tmp_path / "ds", tmp_path / "other"
        shutil.copytree(mini_dataset, data)
        scenegen.generate_dataset(other, 3, 124, assets.config)
        for i in range(3):
            shutil.copyfile(other / f"sample_{i:05d}.bin", data / f"sample_{i:05d}.bin")
        _, _, loader = scenegen.load_dataset(str(data))
        for i in range(3):
            with pytest.raises(DataError, match=f"sample_{i:05d}.bin.*'sample_crc32'"):
                loader(i)
        for i in range(3, 6):
            loader(i)

    def test_fresh_gen_dataset_passes_the_record_checks(self, tmp_path):
        out = str(tmp_path / "fresh")
        assert cli.main(["gen", "--out", out, "--num", "4", "--seed", "17", "--res", "32"]) == 0
        manifest, _, loader = scenegen.load_dataset(out)
        for i in range(manifest["num"]):
            loader(i)  # raises DataError on a record the checks reject

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["manifest.json", "sample_00000.bin", "checkpoint"])
    def test_fuzz_byte_flips(self, mini_dataset, mini_checkpoint, tmp_path, capsys, name):
        """64 seeded one-bit flips of a file: eval exits 0, 2, 3 or 4 and never raises.

        Record flips cycle through the blocks of ``RECORD_BLOCKS``, so every
        block is hit, and each exits 3; checkpoint flips alternate between
        the length prefix and JSON manifest and the parameter payload;
        manifest flips land anywhere in the file.
        """
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        sizes = scenegen._record_sizes(assets)
        data = tmp_path / "ds"
        shutil.copytree(mini_dataset, data)
        if name == "checkpoint":
            source, target = mini_checkpoint, tmp_path / "flipped.ckpt"
            ckpt = target
        else:
            source, target = os.path.join(mini_dataset, name), data / name
            ckpt = mini_checkpoint
        with open(source, "rb") as fh:
            original = fh.read()
        rng = np.random.default_rng(2024)
        for k in range(64):
            flipped = bytearray(original)
            if name == "manifest.json":
                pos = int(rng.integers(len(flipped)))
            elif name == "checkpoint":
                split = 4 + struct.unpack_from("<I", original)[0]  # the end of the JSON manifest
                pos = int(rng.integers(split)) if k % 2 == 0 else int(rng.integers(split, len(flipped)))
            else:
                block = k % len(sizes)
                pos = 4 * sum(sizes[:block]) + int(rng.integers(4 * sizes[block]))
            flipped[pos] ^= 1 << int(rng.integers(8))
            target.write_bytes(bytes(flipped))
            rc = cli.main(["eval", "--data", str(data), "--ckpt", str(ckpt),
                           "--report", str(tmp_path / "rep.json")])
            assert rc in (0, 2, 3, 4), (k, pos)
            if name == "checkpoint" and k % 2:  # the payload checksum catches every payload flip
                assert rc == 3 and "'payload_crc32'" in capsys.readouterr().err, (k, pos)
            if name == "sample_00000.bin":  # a check names the block, or the record checksum catches the flip
                assert rc == 3, (k, pos)
            capsys.readouterr()

    def test_exit_code_viz_on_mismatched_dataset(self, mini_dataset, tmp_path, capsys):
        cfg = tiny_train_config(mini_dataset, tmp_path / "v.ckpt")
        harness.train(cfg, quiet=True)
        other = str(tmp_path / "res16")
        scenegen.generate_dataset(other, 1, 5, scenegen.SceneConfig(res=16, v0=16, v1=32, body_parts="mini"))
        rc = cli.main(["viz-attn", "--ckpt", cfg.checkpoint_path, "--data", other, "--sample", "0",
                       "--layer", "0", "--block", "0", "--out", str(tmp_path / "att")])
        assert rc == 2
        assert "checkpoint scene config does not match the dataset" in capsys.readouterr().err

    def test_exit_code_eval_on_mismatched_dataset(self, mini_dataset, mini_checkpoint, tmp_path, capsys):
        """A dataset drawn under another scene config is a usage error (exit 2), even where its records
        have the checkpoint's layout and would load."""
        _, assets, _ = scenegen.load_dataset(mini_dataset)
        other = str(tmp_path / "ds")
        scenegen.generate_dataset(other, 1, 5, dataclasses.replace(assets.config, contact_threshold=0.04))
        rc = cli.main(["eval", "--data", other, "--ckpt", str(mini_checkpoint),
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 2
        assert "checkpoint scene config does not match the dataset" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_diverged_checkpoint(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "d.ckpt")
        harness.train(cfg, quiet=True)
        ckpt = pathlib.Path(cfg.checkpoint_path)
        data = ckpt.read_bytes()
        payload = np.frombuffer(data[4 + struct.unpack("<I", data[:4])[0] :], dtype="<f4").copy()
        payload[::3] = 1e30
        # a diverged run writes a consistent file: its payload checksum is the huge weights'
        rewrite_checkpoint_manifest(ckpt, ckpt, lambda m: m.update(payload_crc32=zlib.crc32(payload.tobytes())),
                                    payload)
        with pytest.raises(NumericAbort, match="sample 0") as info:
            harness.evaluate(cfg.checkpoint_path, mini_dataset)
        assert info.value.batch_indices == [0]
        rc = cli.main(["eval", "--data", mini_dataset, "--ckpt", cfg.checkpoint_path,
                       "--report", str(tmp_path / "rep.json")])
        assert rc == 4
        rc = cli.main(["viz-attn", "--ckpt", cfg.checkpoint_path, "--data", mini_dataset,
                       "--sample", "2", "--layer", "0", "--block", "0", "--out", str(tmp_path / "att")])
        assert rc == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_numeric_abort(self, mini_dataset, tmp_path):
        cfg = {
            "epochs": 2,
            "steps_per_epoch": 4,
            "batch_size": 2,
            "lr": 1e18,
            "encoder": {"dims": [16, 12, 8], "heads": 2, "feat_channels": 16,
                        "layers_per_block": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--data", mini_dataset, "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 4
