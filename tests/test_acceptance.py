"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy criteria (6, 7) run real training on the default configuration; the
whole module is designed to stay within its stated runtime budgets on one
CPU. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import time

import numpy as np
import pytest

from hoitg import diffcore as dc
from hoitg import harness, losses, meshkit, metrics, model, scenegen


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} - {detail}")


def _off_lattice_points(rng, h, w, n):
    """NDC points whose pixel coords sit safely between grid nodes."""
    pts = np.empty((n, 2))
    for i in range(n):
        u = rng.integers(0, w - 1) + rng.uniform(0.2, 0.8)
        v = rng.integers(0, h - 1) + rng.uniform(0.2, 0.8)
        pts[i] = (2.0 * u / (w - 1) - 1.0, 2.0 * v / (h - 1) - 1.0)
    return pts


# --------------------------------------------------------------------------
# criterion 1: randomized finite-difference suite over every differentiable op
# --------------------------------------------------------------------------

def test_criterion_1_gradient_suite(mini_assets):
    t0 = time.monotonic()
    failures = []
    cases = 50

    def check(name, maker, n_cases=cases, max_coords=None):
        worst = 0.0
        for c in range(n_cases):
            rng = np.random.default_rng(100_000 + 977 * c)
            fn, arrays = maker(rng)
            rep = dc.gradcheck(fn, arrays, eps=1e-4, rtol=1e-4, atol=1e-6,
                               max_coords=max_coords, rng=rng)
            worst = max(worst, rep.max_abs_err)
            if not rep.ok:
                failures.append(f"{name}[case {c}]: {rep.worst}")
                break

    def _matmul_case(rng):
        m, k, n = rng.integers(2, 5, size=3)
        proj = rng.normal(size=(m, n))
        return (lambda ts: dc.sum_all(dc.mul(dc.matmul(ts[0], ts[1]), dc.tensor(proj))),
                [rng.normal(size=(m, k)), rng.normal(size=(k, n))])

    check("matmul", _matmul_case)

    def _linear_case(rng):
        m, k, n = rng.integers(2, 5, size=3)
        proj = rng.normal(size=(m, n))
        return (lambda ts: dc.sum_all(dc.mul(dc.linear(ts[0], ts[1], ts[2]), dc.tensor(proj))),
                [rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(1, n))])

    check("linear", _linear_case)

    check("gelu", lambda rng: (
        lambda ts: dc.sum_all(dc.gelu(ts[0])),
        [rng.normal(size=rng.integers(2, 8)) * 2.0],
    ))

    def _softmax_case(rng):
        rows, width = rng.integers(2, 5, size=2)
        axis = int(rng.integers(0, 2))
        proj = rng.normal(size=(rows, width))
        return (lambda ts: dc.sum_all(dc.mul(dc.softmax(ts[0], axis=axis), dc.tensor(proj))),
                [rng.normal(size=(rows, width)) * 3.0])

    check("softmax", _softmax_case)

    def _layer_norm_case(rng):
        rows, width = int(rng.integers(2, 5)), int(rng.integers(3, 7))
        proj = rng.normal(size=(rows, width))
        return (
            lambda ts: dc.sum_all(dc.mul(dc.layer_norm(ts[0], ts[1], ts[2]), dc.tensor(proj))),
            [rng.normal(size=(rows, width)), rng.normal(size=width), rng.normal(size=width)],
        )

    check("layer_norm", _layer_norm_case)

    def _grid_sample_case(rng):
        c, h, w = 3, 5, 6
        pts = _off_lattice_points(rng, h, w, 4)
        proj = rng.normal(size=(4, c))
        return (
            lambda ts: dc.sum_all(dc.mul(dc.grid_sample(ts[0], ts[1]), dc.tensor(proj))),
            [rng.normal(size=(c, h, w)), pts],
        )

    check("grid_sample", _grid_sample_case)

    def _grb_case(rng):
        n, d = 5, 4
        adj = rng.random((n, n))
        adj /= adj.sum(axis=1, keepdims=True)
        proj = rng.normal(size=(n, d))
        return (
            lambda ts: dc.sum_all(dc.mul(model.graph_residual_block(ts[0], adj, ts[1]), dc.tensor(proj))),
            [rng.normal(size=(n, d)), rng.normal(size=(d, d)) * 0.5],
        )

    check("graph_residual_block", _grb_case)

    micro_cfg = model.EncoderConfig(dims=(8, 6, 4), heads=2, feat_channels=8, layers_per_block=1)
    micro_net = model.HoiReconstructor(mini_assets, micro_cfg, seed=7)
    probe_params = ["block0.layer0.attn.wq.w", "block0.layer0.hum.wg", "block0.layer0.obj.fc2.w"]

    def _encoder_case(rng):
        proj = rng.normal(size=(micro_net.num_tokens, 8))
        tokens = rng.normal(size=(micro_net.num_tokens, micro_net.token_width))

        def fn(ts):
            saved = [micro_net.params[n] for n in probe_params]
            for n, leaf in zip(probe_params, ts[1:]):
                micro_net.params[n] = leaf
            try:
                out, _ = micro_net.encoder_block(ts[0], 0, "box")
                return dc.sum_all(dc.mul(out, dc.tensor(proj)))
            finally:
                for n, orig in zip(probe_params, saved):
                    micro_net.params[n] = orig

        arrays = [tokens] + [micro_net.params[n].data.astype(np.float64) + 0.05 * rng.normal(size=micro_net.params[n].data.shape)
                             for n in probe_params]
        return fn, arrays

    check("encoder_block", _encoder_case, max_coords=3)

    def _ms_vertex_case(rng):
        gts = [rng.normal(size=(n, 3)) for n in (4, 6, 8)]
        offs = [rng.uniform(0.05, 0.5, size=g.shape) * rng.choice([-1, 1], size=g.shape) for g in gts]
        return (
            lambda ts: losses.multiscale_vertex_loss([ts[0], ts[1], ts[2]], gts),
            [g + o for g, o in zip(gts, offs)],
        )

    check("loss_ms_vertex", _ms_vertex_case)

    def _joint_case(rng):
        gt3 = rng.normal(size=(4, 3))
        gt2 = rng.normal(size=(4, 2))
        off = lambda shape: rng.uniform(0.05, 0.4, size=shape) * rng.choice([-1, 1], size=shape)

        def fn(ts):
            terms = losses.joint_loss(ts[0], ts[1], ts[2], ts[3], gt3, gt2)
            acc = None
            for t in terms.values():
                acc = t if acc is None else dc.add(acc, t)
            return acc

        return fn, [gt3 + off((4, 3)), gt2 + off((4, 2)), gt3 + off((4, 3)), gt2 + off((4, 2))]

    check("loss_joint", _joint_case)

    def _edge_case(rng):
        gt = rng.normal(size=(5, 3))
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        return (lambda ts: losses.edge_loss(ts[0], gt, edges), [gt * 1.6])

    check("loss_edge", _edge_case)

    def _param_case(rng):
        gt_t = rng.normal(size=(5, 1))
        gt_b = rng.normal(size=(2, 1))
        gt_aa = rng.normal(size=(1, 3))
        gt_tr = rng.normal(size=(1, 3))
        off = lambda shape: rng.uniform(0.05, 0.4, size=shape) * rng.choice([-1, 1], size=shape)

        def fn(ts):
            terms = losses.param_losses(ts[0], ts[1], gt_t, gt_b, ts[2], ts[3], gt_aa, gt_tr)
            return dc.add(terms["human_param"], terms["object_param"])

        return fn, [gt_t + off((5, 1)), gt_b + off((2, 1)), gt_aa + off((1, 3)), gt_tr + off((1, 3))]

    check("loss_params", _param_case)

    def _objvert_case(rng):
        gt = rng.normal(size=(8, 3))
        off = rng.uniform(0.05, 0.4, size=(8, 3)) * rng.choice([-1, 1], size=(8, 3))
        return (lambda ts: losses.object_vertex_loss(ts[0], gt), [gt + off])

    check("loss_object_vertex", _objvert_case)

    body = mini_assets.body

    def _body_case(rng):
        proj = rng.normal(size=(body.num_vertices, 3))
        jproj = rng.normal(size=(body.num_joints, 3))

        def fn(ts):
            verts, joints = scenegen.body_forward(body, ts[0], ts[1])
            return dc.add(dc.sum_all(dc.mul(verts, dc.tensor(proj))),
                          dc.sum_all(dc.mul(joints, dc.tensor(jproj))))

        return fn, [rng.normal(size=(body.pose_dim, 1)), rng.normal(size=(body.shape_dim, 1))]

    check("body_forward", _body_case)

    def _sampling_case(rng):
        mat = rng.random((4, 6))
        mat /= mat.sum(axis=1, keepdims=True)
        proj = rng.normal(size=(4, 3))
        return (
            lambda ts: dc.sum_all(dc.mul(meshkit.apply_sampling(mat, ts[0]), dc.tensor(proj))),
            [rng.normal(size=(6, 3))],
        )

    check("apply_sampling", _sampling_case)

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(1, ok, f"gradient suite over 15 op families, 50 cases each, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# criterion 2: rigid-fit compose-then-recover oracle
# --------------------------------------------------------------------------

def test_criterion_2_kabsch_oracle():
    base = np.random.default_rng(2024).normal(size=(30, 3))
    worst_geo = worst_t = 0.0
    for trial in range(1000):
        rng = np.random.default_rng(5_000 + trial)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, np.pi)
        rot = scenegen.rodrigues(axis * angle)
        trans = rng.uniform(-1.0, 1.0, size=3)
        pose = meshkit.rigid_fit(base, base @ rot.T + trans)
        worst_geo = max(worst_geo, meshkit.rotation_geodesic(pose.rotation, rot))
        worst_t = max(worst_t, float(np.linalg.norm(pose.translation - trans)))
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9

    mirrored = base.copy()
    mirrored[:, 0] *= -1
    refl = meshkit.rigid_fit(base, mirrored)
    assert abs(np.linalg.det(refl.rotation) - 1.0) < 1e-6

    ok = worst_geo < 1e-6 and worst_t < 1e-6
    _report(2, ok, f"1000 trials: max geodesic {worst_geo:.2e} rad, max |dT| {worst_t:.2e} m, det=+1 always, reflection corrected")
    assert worst_geo < 1e-6
    assert worst_t < 1e-6


# --------------------------------------------------------------------------
# criterion 3: geometry oracles
# --------------------------------------------------------------------------

def test_criterion_3_geometry_oracles():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(200, 3))

    from test_meshkit import brute_force_knn
    from test_metrics import chamfer_oracle

    for k in (1, 5, 10):
        adj = meshkit.knn_adjacency(pts, k)
        oracle = brute_force_knn(pts, k)
        for i in range(200):
            got = [(int(j), float(adj[i, j])) for j in np.flatnonzero(adj[i])]
            expected = sorted((j, d) for d, j in oracle[i])
            assert [j for j, _ in got] == [j for j, _ in expected], f"k={k} row {i}"
            assert np.allclose([w for _, w in got], [d for _, d in expected], atol=1e-9)

    for trial in range(40):
        cloud = np.random.default_rng(trial).normal(size=(40, 3))
        dense = meshkit.normalize_adjacency(meshkit.knn_adjacency(cloud, 10))
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-6)

    worst = 0.0
    for trial in range(100):
        g = np.random.default_rng(10_000 + trial)
        a = g.normal(size=(int(g.integers(3, 35)), 3))
        b = g.normal(size=(int(g.integers(3, 35)), 3))
        worst = max(worst, abs(metrics.chamfer(a, b) - chamfer_oracle(a, b)))
    _report(3, worst < 1e-6, f"KNN==brute force (200 pts, K in 1/5/10); rows stochastic; chamfer vs oracle max |d| {worst:.2e} cm")
    assert worst < 1e-6


# --------------------------------------------------------------------------
# criterion 4: zero-loss harness
# --------------------------------------------------------------------------

def test_criterion_4_zero_loss(mini_assets):
    worst_total = 0.0
    for i, tid in enumerate(("box", "chair", "tube")):
        sample = scenegen.sample_scene(scenegen.mix_seed(404, i), tid, mini_assets)
        rec = harness.gt_reconstruction(sample, mini_assets)
        total, report = losses.scene_loss(rec, sample, mini_assets, losses.LossWeights())
        worst_total = max(worst_total, abs(float(total.data.reshape(()))))
        p, r, f1 = metrics.contact_pr(
            sample.gt_mesh_full, sample.gt_object_vertices, sample.contact, mini_assets.config.contact_threshold
        )
        assert (p, r, f1) == (1.0, 1.0, 1.0)
        assert metrics.chamfer(sample.gt_mesh_full, sample.gt_mesh_full) == 0.0
    _report(4, worst_total < 1e-6, f"GT-as-prediction: max |total loss| {worst_total:.2e}; contact p=r=f1=1")
    assert worst_total < 1e-6


# --------------------------------------------------------------------------
# criterion 5: architecture contracts
# --------------------------------------------------------------------------

def test_criterion_5_architecture_contracts(default_assets):
    cfg = model.EncoderConfig()
    net = model.HoiReconstructor(default_assets, cfg, seed=0)
    sample = scenegen.sample_scene(scenegen.mix_seed(505, 0), "box", default_assets)

    grid, init = net.init_head(sample.channels, "box")
    tokens = net.build_queries(grid, init)
    j = default_assets.body.num_joints
    v0 = default_assets.operators.sizes[0]
    expected_shape = (j + v0 + 64, cfg.feat_channels + 3)
    assert tokens.data.shape == expected_shape

    assert cfg.dims == (128, 64, 32)
    assert all(a > b for a, b in zip(cfg.dims, cfg.dims[1:]))

    # freshly built graph weights are zero, so the block is the identity map
    x = dc.tensor(np.random.default_rng(0).normal(size=(v0, cfg.dims[0])).astype(np.float32))
    out = model.graph_residual_block(x, default_assets.human_adjacency, net.params["block0.layer0.hum.wg"])
    assert np.array_equal(out.data, x.data)

    rec = net.forward(sample.channels, "box", retain_attention=True)
    n = net.num_tokens
    for block_maps in rec.attention:
        for attn in block_maps:
            assert attn.shape == (cfg.heads, n, n)
            assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)

    _report(5, True, f"tokens {expected_shape}; dims {cfg.dims} strictly decreasing; "
                     "W_G=0 block is identity; attention rows sum to 1")


# --------------------------------------------------------------------------
# criterion 6: 500-step overfit trend on 8 scenes, default config
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_overfit_trend(tmp_path):
    t0 = time.monotonic()
    data = str(tmp_path / "overfit8")
    scenegen.generate_dataset(data, 8, 41, scenegen.SceneConfig())
    cfg = harness.TrainConfig(
        epochs=10,
        steps_per_epoch=50,
        batch_size=4,
        seed=2,
        data_dir=data,
        checkpoint_path=str(tmp_path / "overfit8.ckpt"),
    )
    result = harness.train(cfg, quiet=True)
    report = harness.evaluate(cfg.checkpoint_path, data)
    elapsed = time.monotonic() - t0

    ratio = result.final_loss / result.first_loss
    clauses = {
        "loss ratio < 0.10": ratio < 0.10,
        "cd_object < init cd_object": report.cd_object_cm < report.init_cd_object_cm,
        "cd_human < init cd_human": report.cd_human_cm < report.init_cd_human_cm,
        "runtime < 300 s": elapsed < 300.0,
    }
    detail = (
        f"ratio {ratio:.4f}; cd_h {report.cd_human_cm:.2f} vs init {report.init_cd_human_cm:.2f} cm; "
        f"cd_o {report.cd_object_cm:.2f} vs init {report.init_cd_object_cm:.2f} cm; {elapsed:.0f}s"
    )
    _report(6, all(clauses.values()), detail)
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, (
        f"failed clauses: {failed}. {detail}. Known structural limit: the refined full human mesh "
        "is confined to the rank-V0 column space of the 3-nearest inverse-distance upsampling chain "
        "(least-squares Chamfer floor ~1.8 cm on this body), while the jointly trained init stage "
        "evaluates the exact linear body model and passes below that floor within the 500-step "
        "budget, so 'refined strictly below init' cannot hold for CD_human at this scale."
    )


# --------------------------------------------------------------------------
# criterion 7: generalization smoke, 256 train / 32 held out
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_generalization(tmp_path):
    t0 = time.monotonic()
    data = str(tmp_path / "gen288")
    scenegen.generate_dataset(data, 288, 71, scenegen.SceneConfig())
    manifest, assets, loader = scenegen.load_dataset(data)
    eval_indices = list(range(256, 288))

    untrained = model.HoiReconstructor(assets, model.EncoderConfig(), seed=3)
    untrained_rows = [harness._sample_metrics(untrained, loader(i)) for i in eval_indices]
    untrained_report = metrics.aggregate(untrained_rows)

    cfg = harness.TrainConfig(
        epochs=8,
        steps_per_epoch=64,
        batch_size=4,
        seed=3,
        data_dir=data,
        checkpoint_path=str(tmp_path / "gen.ckpt"),
    )
    harness.train(cfg, sample_indices=list(range(256)), quiet=True)
    trained_report = harness.evaluate(cfg.checkpoint_path, data, sample_indices=eval_indices)

    with open(cfg.checkpoint_path + ".loss.csv") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    assert cfg.encoder.graph == "h+o2"
    no_divergence = all(np.isfinite(totals))

    elapsed = time.monotonic() - t0
    h_ratio = trained_report.cd_human_cm / untrained_report.cd_human_cm
    o_ratio = trained_report.cd_object_cm / untrained_report.cd_object_cm
    ok = h_ratio <= 0.5 and o_ratio <= 0.5 and no_divergence and elapsed < 900.0
    _report(7, ok, (
        f"held-out cd_h {trained_report.cd_human_cm:.2f} cm ({h_ratio:.2f}x untrained "
        f"{untrained_report.cd_human_cm:.2f}), cd_o {trained_report.cd_object_cm:.2f} cm "
        f"({o_ratio:.2f}x untrained {untrained_report.cd_object_cm:.2f}); h+o2 stable; {elapsed:.0f}s"
    ))
    assert h_ratio <= 0.5
    assert o_ratio <= 0.5
    assert no_divergence
    assert elapsed < 900.0


# --------------------------------------------------------------------------
# criterion 8: ablation harness fidelity
# --------------------------------------------------------------------------

def test_criterion_8_ablation_fidelity(tmp_path):
    runs = harness._ablation_runs("placement")
    placements = {label: model.ABLATION_VARIANTS[label] for label, _, _ in runs}
    expected = {
        "none": ((False, False, False), (False, False, False)),
        "h": ((True, True, True), (False, False, False)),
        "h+o1": ((True, True, True), (True, False, False)),
        "h+o2": ((True, True, True), (False, True, False)),
        "h+o3": ((True, True, True), (False, False, True)),
        "h+o-all": ((True, True, True), (True, True, True)),
    }
    assert placements == expected

    sweep = harness._ablation_runs("knn-sweep")
    ks = [k for _, _, k in sweep]
    assert ks == [1, 3, 5, 10, 20]
    assert 10 in ks

    data = str(tmp_path / "abl_ds")
    scenegen.generate_dataset(
        data, 9, 17, scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini")
    )
    out = tmp_path / "abl_out"
    rows = harness.run_ablation("none", data, str(out), epochs=1, steps_per_epoch=2,
                                batch_size=2, quiet=True)
    table = (out / "ablation.txt").read_text()
    assert len(rows) == 1 and "cd_human" in table and "none" in table
    _report(8, True, "placement table enumerates all 6 configurations; KNN sweep = {1,3,5,10,20}; "
                     "runner emits one comparative table per run")


# --------------------------------------------------------------------------
# criterion 9: bit-level determinism
# --------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    cfg = scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini")
    d1, d2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    scenegen.generate_dataset(d1, 5, 77, cfg)
    scenegen.generate_dataset(d2, 5, 77, cfg)
    names = ["manifest.json"] + [f"sample_{i:05d}.bin" for i in range(5)]
    data_identical = all(
        (tmp_path / "d1" / n).read_bytes() == (tmp_path / "d2" / n).read_bytes() for n in names
    )

    def run_training():
        tc = harness.TrainConfig(
            epochs=2, steps_per_epoch=2, batch_size=2, seed=13, data_dir=d1,
            checkpoint_path=str(tmp_path / "det.ckpt"),
            encoder=model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16,
                                        layers_per_block=2),
        )
        harness.train(tc, quiet=True)
        return (tmp_path / "det.ckpt").read_bytes(), (tmp_path / "det.ckpt.loss.csv").read_bytes()

    ckpt1, log1 = run_training()
    ckpt2, log2 = run_training()
    train_identical = ckpt1 == ckpt2 and log1 == log2

    manifest, assets, loader = scenegen.load_dataset(d1)
    sample = loader(0)
    net1, _ = harness.load_checkpoint(str(tmp_path / "det.ckpt"))
    out1 = net1.forward(sample.channels, sample.template_id)
    net2, _ = harness.load_checkpoint(str(tmp_path / "det.ckpt"))
    out2 = net2.forward(sample.channels, sample.template_id)
    roundtrip_identical = (
        np.array_equal(out1.human_full.data, out2.human_full.data)
        and np.array_equal(out1.object_vertices.data, out2.object_vertices.data)
        and np.array_equal(out1.joints.data, out2.joints.data)
    )

    ok = data_identical and train_identical and roundtrip_identical
    _report(9, ok, f"dataset bytes identical: {data_identical}; training bytes identical: "
                   f"{train_identical}; checkpoint roundtrip bit-identical: {roundtrip_identical}")
    assert data_identical
    assert train_identical
    assert roundtrip_identical
