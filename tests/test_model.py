"""Network architecture tests: contracts, identities, equivariance."""

import copy

import numpy as np
import pytest

from hoitg import diffcore as dc
from hoitg import losses, meshkit, model, scenegen
from hoitg.errors import ConfigError, DimensionError, ParameterError


@pytest.fixture()
def mini_net(mini_assets, mini_encoder):
    return model.HoiReconstructor(mini_assets, mini_encoder, seed=5)


@pytest.fixture()
def mini_sample(mini_assets):
    return scenegen.sample_scene(scenegen.mix_seed(100, 0), "box", mini_assets)


class TestEncoderConfig:
    def test_default_dims_strictly_decreasing(self):
        cfg = model.EncoderConfig()
        assert cfg.dims == (128, 64, 32)
        assert all(a > b for a, b in zip(cfg.dims, cfg.dims[1:]))

    def test_non_decreasing_dims_rejected(self):
        with pytest.raises(ConfigError):
            model.EncoderConfig(dims=(64, 64, 32))

    def test_default_placement_is_h_o2(self):
        cfg = model.EncoderConfig()
        assert cfg.variant == "h+o2"
        assert cfg.human_graph == (True, True, True)
        assert cfg.object_graph == (False, True, False)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError):
            model.EncoderConfig(human_graph=(True, False, True))

    def test_variant_table(self):
        assert set(model.ABLATION_VARIANTS) == {"none", "h", "h+o1", "h+o2", "h+o3", "h+o-all"}
        for vid, (h, o) in model.ABLATION_VARIANTS.items():
            assert model.flags_variant(h, o) == vid
        # object placement rows: exactly one block in h+o1/h+o2/h+o3
        assert model.ABLATION_VARIANTS["h+o1"][1] == (True, False, False)
        assert model.ABLATION_VARIANTS["h+o2"][1] == (False, True, False)
        assert model.ABLATION_VARIANTS["h+o3"][1] == (False, False, True)

    def test_unknown_variant_id(self):
        with pytest.raises(ParameterError):
            model.variant_flags("h+o4")

    def test_knn_sweep_includes_ten(self):
        assert 10 in model.KNN_SWEEP


class TestGridSample:
    def test_exact_node(self, rng):
        grid = dc.tensor(rng.normal(size=(4, 5, 6)).astype(np.float32))
        # node (row 2, col 3) in align-corners coords
        x = 2 * 3 / 5 - 1
        y = 2 * 2 / 4 - 1
        out = dc.grid_sample(grid, dc.tensor(np.array([[x, y]], dtype=np.float32)))
        assert np.allclose(out.data[0], grid.data[:, 2, 3], atol=1e-6)

    def test_constant_patch_center(self):
        grid = dc.tensor(np.full((3, 2, 2), 1.75, dtype=np.float32))
        out = dc.grid_sample(grid, dc.tensor(np.zeros((1, 2), dtype=np.float32)))
        assert np.allclose(out.data, 1.75, atol=1e-6)

    def test_midpoint_average(self):
        grid = np.zeros((1, 2, 2), dtype=np.float32)
        grid[0, 0, 0] = 2.0  # feature a
        grid[0, 0, 1] = 6.0  # feature b
        out = dc.grid_sample(dc.tensor(grid), dc.tensor(np.array([[0.0, -1.0]], dtype=np.float32)))
        assert np.allclose(out.data, 4.0, atol=1e-6)

    def test_out_of_range_clamped(self, rng):
        grid = dc.tensor(rng.normal(size=(2, 3, 3)).astype(np.float32))
        out = dc.grid_sample(grid, dc.tensor(np.array([[5.0, 5.0]], dtype=np.float32)))
        assert np.allclose(out.data[0], grid.data[:, 2, 2], atol=1e-6)


class TestGraphResidualBlock:
    def test_zero_weight_is_identity(self, rng):
        x = dc.tensor(rng.normal(size=(6, 8)).astype(np.float32))
        adj = rng.random((6, 6)).astype(np.float32)
        w = dc.tensor(np.zeros((8, 8), dtype=np.float32))
        out = model.graph_residual_block(x, adj, w)
        assert np.array_equal(out.data, x.data)

    def test_identity_adjacency_single_token(self, rng):
        x = dc.tensor(rng.normal(size=(1, 4)))
        w = dc.tensor(rng.normal(size=(4, 4)))
        out = model.graph_residual_block(x, np.eye(1), w)
        expected = x.data + dc.gelu(dc.matmul(x, w)).data
        assert np.allclose(out.data, expected, atol=1e-7)

    def test_gradient_wrt_weight(self, rng):
        adj = rng.random((5, 5))
        adj /= adj.sum(axis=1, keepdims=True)
        x = rng.normal(size=(5, 4))

        def fn(ts):
            return dc.sum_all(model.graph_residual_block(ts[0], adj, ts[1]))

        rep = dc.gradcheck(fn, [x, rng.normal(size=(4, 4))])
        assert rep.ok, rep.worst

    def test_size_mismatch(self, rng):
        x = dc.tensor(rng.normal(size=(5, 4)))
        with pytest.raises(DimensionError):
            model.graph_residual_block(x, np.eye(4), dc.tensor(np.zeros((4, 4))))
        with pytest.raises(DimensionError):
            model.graph_residual_block(x, np.eye(5), dc.tensor(np.zeros((3, 3))))


class TestInitHead:
    def test_feature_grid_shape(self, mini_net, mini_sample, mini_config):
        grid, init = mini_net.init_head(mini_sample.channels)
        assert grid.data.shape == (16, mini_config.res // 8, mini_config.res // 8)

    def test_zero_input_finite(self, mini_net, mini_config):
        grid, init = mini_net.init_head(np.zeros((5, mini_config.res, mini_config.res), dtype=np.float32))
        queries = mini_net.build_queries(grid, init, "box")
        for t in (grid, init.theta, init.joints, init.mesh_coarse, init.object_vertices, queries.tokens):
            assert np.isfinite(t.data).all()

    def test_camera_scale_positive(self, mini_net, mini_sample):
        _, init = mini_net.init_head(mini_sample.channels)
        assert float(init.cam_scale.data.reshape(())) > 0

    def test_init_mesh_consistency(self, mini_net, mini_sample, mini_assets):
        # coarse init mesh is exactly the downsampled full init mesh
        _, init = mini_net.init_head(mini_sample.channels)
        expected = mini_assets.operators.down0 @ init.mesh_full.data
        assert np.allclose(init.mesh_coarse.data, expected, atol=1e-6)

    def test_wrong_resolution(self, mini_net):
        with pytest.raises(DimensionError):
            mini_net.init_head(np.zeros((5, 16, 16), dtype=np.float32))


class TestBuildQueries:
    def test_token_shape(self, mini_net, mini_sample, mini_assets):
        grid, init = mini_net.init_head(mini_sample.channels)
        q = mini_net.build_queries(grid, init, "box")
        j = mini_assets.body.num_joints
        v0 = mini_assets.operators.sizes[0]
        assert q.tokens.data.shape == (j + v0 + 64, 16 + 3)
        assert q.boundaries == (j, j + v0, j + v0 + 64)

    def test_coordinate_tail(self, mini_net, mini_sample):
        grid, init = mini_net.init_head(mini_sample.channels)
        q = mini_net.build_queries(grid, init, "box")
        coords = np.concatenate(
            [init.joints.data, init.mesh_coarse.data, init.object_vertices.data], axis=0
        )
        assert np.allclose(q.tokens.data[:, -3:], coords, atol=1e-6)

    def test_constant_grid_tokens_differ_only_in_tail(self, mini_net, mini_sample):
        grid, init = mini_net.init_head(mini_sample.channels)
        const_grid = dc.tensor(np.full(grid.data.shape, 0.5, dtype=np.float32))
        q = mini_net.build_queries(const_grid, init, "box")
        feats = q.tokens.data[:, :-3]
        assert np.allclose(feats, feats[0], atol=1e-6)

    def test_object_init_respects_rigid_construction(self, mini_net, mini_sample, mini_assets):
        _, init = mini_net.init_head(mini_sample.channels)
        mini_net.build_queries(dc.tensor(np.zeros((16, 4, 4), dtype=np.float32)), init, "box")
        aa = init.axis_angle.data.reshape(3).astype(np.float64)
        expected = (
            mini_assets.objects["box"].mesh.vertices @ scenegen.rodrigues(aa).T
            + init.translation.data.reshape(3)
        )
        assert np.allclose(init.object_vertices.data, expected, atol=1e-5)


class TestRodriguesTensor:
    def test_matches_numpy_reference(self, rng):
        for _ in range(10):
            aa = rng.normal(size=3) * 1.5
            r_t = model.rodrigues_t(dc.tensor(aa.reshape(1, 3)))
            assert np.allclose(r_t.data, scenegen.rodrigues(aa), atol=1e-6)

    def test_gradient(self, rng):
        def fn(ts):
            return dc.sum_all(dc.mul(model.rodrigues_t(ts[0]), ts[1]))

        for scale in (1.0, 0.01):
            rep = dc.gradcheck(fn, [rng.normal(size=(1, 3)) * scale, rng.normal(size=(3, 3))])
            assert rep.ok, rep.worst


class TestEncoderBlock:
    def test_output_width_follows_config(self, mini_net, mini_sample):
        grid, init = mini_net.init_head(mini_sample.channels)
        q = mini_net.build_queries(grid, init, "box")
        x = q.tokens
        for b, d in enumerate(mini_net.cfg.dims):
            x, _ = mini_net.encoder_block(x, b, "box")
            assert x.data.shape == (mini_net.num_tokens, d)

    def test_attention_rows_sum_to_one(self, mini_net, mini_sample):
        rec = mini_net.forward(mini_sample.channels, "box", retain_attention=True)
        n = mini_net.num_tokens
        for block_maps in rec.attention:
            for attn in block_maps:
                assert attn.shape == (mini_net.cfg.heads, n, n)
                assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)

    def test_width_mismatch_rejected(self, mini_net, rng):
        bad = dc.tensor(rng.normal(size=(mini_net.num_tokens, 7)).astype(np.float32))
        with pytest.raises(DimensionError):
            mini_net.encoder_block(bad, 0, "box")

    def test_zeroed_mlp_reduces_to_attention_plus_identity(self, mini_assets):
        cfg = model.EncoderConfig(
            dims=(8, 6, 4), heads=2, feat_channels=8, layers_per_block=1,
            human_graph=(False, False, False), object_graph=(False, False, False),
        )
        net = model.HoiReconstructor(mini_assets, cfg, seed=2)
        for name, p in net.params.items():
            if ".fc2." in name:
                p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(0)
        tokens = dc.tensor(rng.normal(size=(net.num_tokens, net.token_width)).astype(np.float32))
        out, _ = net.encoder_block(tokens, 0, "box")

        # hand-built reference: entry projection, then pre-norm attention only
        x = dc.add_bias(dc.matmul(tokens, net.params["block0.entry.w"]), net.params["block0.entry.b"])
        xn = dc.layer_norm(x, net.params["block0.layer0.ln1.g"], net.params["block0.layer0.ln1.b"])
        q = dc.add_bias(dc.matmul(xn, net.params["block0.layer0.attn.wq.w"]), net.params["block0.layer0.attn.wq.b"])
        k = dc.add_bias(dc.matmul(xn, net.params["block0.layer0.attn.wk.w"]), net.params["block0.layer0.attn.wk.b"])
        v = dc.add_bias(dc.matmul(xn, net.params["block0.layer0.attn.wv.w"]), net.params["block0.layer0.attn.wv.b"])
        att, _ = dc.multi_head_attention(q, k, v, cfg.heads)
        expected = dc.add(x, dc.add_bias(dc.matmul(att, net.params["block0.layer0.attn.wo.w"]),
                                         net.params["block0.layer0.attn.wo.b"]))
        assert np.allclose(out.data, expected.data, atol=1e-6)


class TestForward:
    def test_output_shapes(self, mini_net, mini_sample, mini_assets):
        rec = mini_net.forward(mini_sample.channels, "box")
        j = mini_assets.body.num_joints
        v0, v1, v2 = mini_assets.operators.sizes
        assert rec.joints.data.shape == (j, 3)
        assert rec.human_coarse.data.shape == (v0, 3)
        assert rec.human_mid.data.shape == (v1, 3)
        assert rec.human_full.data.shape == (v2, 3)
        assert rec.object_vertices.data.shape == (64, 3)
        rot = rec.pose.rotation
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-6)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-6

    def test_upsampling_chain(self, mini_net, mini_sample, mini_assets):
        rec = mini_net.forward(mini_sample.channels, "box")
        ops = mini_assets.operators
        assert np.allclose(rec.human_mid.data, ops.up01 @ rec.human_coarse.data, atol=1e-5)
        assert np.allclose(rec.human_full.data, ops.up12 @ rec.human_mid.data, atol=1e-5)

    def test_untrained_losses_finite(self, mini_net, mini_sample, mini_assets):
        rec = mini_net.forward(mini_sample.channels, "box")
        total, report = losses.scene_loss(rec, mini_sample, mini_assets, losses.LossWeights())
        assert np.isfinite(total.data).all()
        assert all(np.isfinite(v) for v in report.terms.values())

    def test_gradients_reach_first_conv(self, mini_net, mini_sample, mini_assets):
        rec = mini_net.forward(mini_sample.channels, "box")
        total, _ = losses.scene_loss(rec, mini_sample, mini_assets, losses.LossWeights())
        dc.backward(total)
        g = mini_net.params["conv0.w"].grad
        assert g is not None and np.abs(g).max() > 0

    def test_object_pathway_permutation_equivariance(self, mini_assets, mini_encoder, mini_sample):
        net = model.HoiReconstructor(mini_assets, mini_encoder, seed=5)
        rng = np.random.default_rng(3)
        for name, p in net.params.items():
            if name.endswith("obj.wg"):
                p.data = rng.normal(size=p.data.shape).astype(np.float32) * 0.05
        # run everything in float64 so only the permutation differs
        for p in net.params.values():
            p.data = p.data.astype(np.float64)

        perm = np.random.default_rng(11).permutation(64)
        permuted_assets = copy.deepcopy(mini_assets)
        box = permuted_assets.objects["box"]
        box.mesh.vertices = box.mesh.vertices[perm]
        dense = mini_assets.objects["box"].adjacency.to_dense(np.float64)[np.ix_(perm, perm)]
        box.adjacency = meshkit.SparseAdjacency.from_dense(dense)

        net_p = model.HoiReconstructor(permuted_assets, mini_encoder, seed=5)
        net_p.load_state({k: v.data for k, v in net.params.items()})
        for p in net_p.params.values():
            p.data = p.data.astype(np.float64)

        channels = mini_sample.channels.astype(np.float64)
        rec = net.forward(channels, "box")
        rec_p = net_p.forward(channels, "box")
        assert np.allclose(rec_p.object_vertices.data, rec.object_vertices.data[perm], atol=1e-9)
        assert meshkit.rotation_geodesic(rec_p.pose.rotation, rec.pose.rotation) < 1e-5
        assert np.linalg.norm(rec_p.pose.translation - rec.pose.translation) < 1e-5

    def test_forward_backward_under_two_seconds(self, default_assets):
        import time

        net = model.HoiReconstructor(default_assets, model.EncoderConfig(), seed=0)
        sample = scenegen.sample_scene(scenegen.mix_seed(50, 0), "box", default_assets)
        net.forward(sample.channels, "box")  # untimed first call
        t0 = time.time()
        rec = net.forward(sample.channels, "box")
        total, _ = losses.scene_loss(rec, sample, default_assets, losses.LossWeights())
        dc.backward(total)
        assert time.time() - t0 < 2.0

    def test_unknown_template(self, mini_net, mini_sample):
        with pytest.raises(ParameterError):
            mini_net.forward(mini_sample.channels, "sofa")


class TestCheckpointStateDict:
    def test_load_state_shape_mismatch(self, mini_net):
        state = {k: v.data.copy() for k, v in mini_net.params.items()}
        state["head.obj.w"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            mini_net.load_state(state)

    def test_load_state_missing_key(self, mini_net):
        state = {k: v.data.copy() for k, v in mini_net.params.items()}
        state.pop("head.obj.w")
        with pytest.raises(ConfigError):
            mini_net.load_state(state)
