"""Training loop, checkpointing, evaluation, ablation, CLI."""

import csv
import json
import os
import shutil
import struct

import numpy as np
import pytest

from hoitg import cli, harness, losses, model, scenegen
from hoitg.errors import ConfigError, NumericAbort, ParameterError, config_from_dict, config_to_dict


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    cfg = scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini")
    path = tmp_path_factory.mktemp("data") / "ds"
    scenegen.generate_dataset(path, 6, 123, cfg)
    return str(path)


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
        # the variant is derived from the graph flags, so no config file carries it
        enc = model.EncoderConfig(human_graph=(True, True, True), object_graph=(True, True, True))
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict(harness.TrainConfig, {"encoder": {**config_to_dict(enc), "variant": "none"}}, "config")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            harness.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            harness.TrainConfig(decay_at=1.5)


ENCODER = model.EncoderConfig(
    dims=(48, 24, 12), layers_per_block=3, heads=3, human_graph=(False,) * 3, object_graph=(False,) * 3,
    feat_channels=32, mlp_expansion=3, non_graph_mlp=False,
)
WEIGHTS = losses.LossWeights(*(1.5 + 0.25 * i for i in range(len(losses.TERM_NAMES))))


@pytest.mark.parametrize("cfg", [
    harness.TrainConfig(
        epochs=3, steps_per_epoch=5, batch_size=2, lr=3e-4, lr_decay=0.5, decay_at=0.25, seed=4,
        data_dir="d", checkpoint_path="c.ckpt", log_path="c.csv", encoder=ENCODER, weights=WEIGHTS,
        templates=("tube", "box"), knn_k=7,
    ),
    ENCODER,
    WEIGHTS,
    scenegen.SceneConfig(
        res=32, v0=16, v1=32, body_seed=5, pose_dim=12, shape_dim=2, param_range=0.8, contact_prob=0.5,
        contact_threshold=0.04, knn_k=7, templates=("tube", "box"), body_parts="mini",
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
        data = json.loads(open(report_path).read())
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
        pgm = open(prefix + ".pgm", "rb").read()
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


class TestAblation:
    def test_placement_set_matches_table(self):
        runs = harness._ablation_runs("placement")
        labels = [r[0] for r in runs]
        assert labels == ["none", "h", "h+o1", "h+o2", "h+o3", "h+o-all"]

    def test_knn_sweep_includes_ten(self):
        runs = harness._ablation_runs("knn-sweep")
        ks = [r[2] for r in runs]
        assert ks == [1, 3, 5, 10, 20]
        assert all(r[1]["variant"] == "h+o2" for r in runs)

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


def test_knn_override_builds_assets_once(mini_dataset, tmp_path, monkeypatch):
    calls = []
    build = scenegen.build_assets

    def counting_build(config):
        calls.append(config.knn_k)
        return build(config)

    monkeypatch.setattr(scenegen, "build_assets", counting_build)
    cfg = tiny_train_config(mini_dataset, tmp_path / "k.ckpt", epochs=1, steps_per_epoch=1, knn_k=3)
    harness.train(cfg, quiet=True)
    assert calls == [3]


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
    ], ids=["encoder-int", "epochs-str", "weight-str", "dims-int", "lr-null", "heads-0", "heads-neg",
            "mlp-0", "mlp-neg", "layers-0", "feat-4", "dims-0", "dims-neg", "seed-neg"])
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
    ], ids=["res-0", "templates-unknown", "templates-empty"])
    def test_exit_code_gen_out_of_range(self, tmp_path, capsys, args, field):
        rc = cli.main(["gen", "--out", str(tmp_path / "ds"), "--num", "2", *args])
        assert rc == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_exit_code_viz_on_mismatched_dataset(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "v.ckpt")
        harness.train(cfg, quiet=True)
        other = str(tmp_path / "res16")
        scenegen.generate_dataset(other, 1, 5, scenegen.SceneConfig(res=16, v0=16, v1=32, body_parts="mini"))
        rc = cli.main(["viz-attn", "--ckpt", cfg.checkpoint_path, "--data", other, "--sample", "0",
                       "--layer", "0", "--block", "0", "--out", str(tmp_path / "att")])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_diverged_checkpoint(self, mini_dataset, tmp_path):
        cfg = tiny_train_config(mini_dataset, tmp_path / "d.ckpt")
        harness.train(cfg, quiet=True)
        with open(cfg.checkpoint_path, "r+b") as fh:
            (mlen,) = struct.unpack("<I", fh.read(4))
            fh.seek(4 + mlen)
            payload = np.frombuffer(fh.read(), dtype="<f4").copy()
            payload[::3] = 1e30
            fh.seek(4 + mlen)
            fh.write(payload.tobytes())
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
