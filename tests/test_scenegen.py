"""Scene generator tests: body model, placement policy, rendering, datasets."""

import dataclasses
import math
import signal

import numpy as np
import pytest

from hoitg import diffcore as dc
from hoitg import kernels, meshkit, model
from hoitg import scenegen as sg
from hoitg.errors import ParameterError
from test_meshkit import brute_force_knn


class TestBodyForward:
    def test_rest_pose_is_template(self, mini_assets):
        body = mini_assets.body
        verts, joints = sg.body_forward(body, np.zeros(body.pose_dim), np.zeros(body.shape_dim))
        assert np.array_equal(verts, body.template)
        assert np.allclose(joints, body.rest_joints, atol=1e-6)

    def test_linearity(self, mini_assets, rng):
        body = mini_assets.body
        t1 = rng.uniform(-1, 1, body.pose_dim).astype(np.float32)
        t2 = rng.uniform(-1, 1, body.pose_dim).astype(np.float32)
        beta = np.zeros(body.shape_dim, dtype=np.float32)
        base, _ = sg.body_forward(body, np.zeros(body.pose_dim), beta)
        v1, _ = sg.body_forward(body, t1, beta)
        v2, _ = sg.body_forward(body, t2, beta)
        v12, _ = sg.body_forward(body, t1 + t2, beta)
        assert np.allclose(v12 - base, (v1 - base) + (v2 - base), atol=1e-5)

    def test_vertex_gradient_equals_basis_entry(self, mini_assets):
        body = mini_assets.body
        theta = dc.tensor(np.zeros((body.pose_dim, 1), dtype=np.float32))
        beta = dc.tensor(np.zeros((body.shape_dim, 1), dtype=np.float32))
        verts, _ = sg.body_forward(body, theta, beta)
        v, c = 7, 1
        dc.backward(dc.sum_all(dc.cols(dc.rows(verts, v, v + 1), c, c + 1)))
        assert np.allclose(theta.grad[:, 0], body.pose_basis[v, c, :], atol=1e-7)
        assert np.allclose(beta.grad[:, 0], body.shape_basis[v, c, :], atol=1e-7)

    def test_tensor_and_array_paths_agree(self, mini_assets, rng):
        body = mini_assets.body
        theta = rng.uniform(-1, 1, body.pose_dim).astype(np.float32)
        beta = rng.uniform(-1, 1, body.shape_dim).astype(np.float32)
        v_np, j_np = sg.body_forward(body, theta, beta)
        v_t, j_t = sg.body_forward(
            body, dc.tensor(theta.reshape(-1, 1)), dc.tensor(beta.reshape(-1, 1))
        )
        assert np.allclose(v_np, v_t.data, atol=1e-6)
        assert np.allclose(j_np, j_t.data, atol=1e-6)


class TestRodrigues:
    def test_zero_angle_identity(self):
        assert np.allclose(sg.rodrigues(np.zeros(3)), np.eye(3), atol=1e-9)

    def test_orthonormal(self, rng):
        for _ in range(20):
            r = sg.rodrigues(rng.normal(size=3))
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_quarter_turn(self):
        r = sg.rodrigues(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-9)


class TestSampleScene:
    def test_bit_identical_regeneration(self, mini_assets):
        a = sg.sample_scene(424242, "box", mini_assets)
        b = sg.sample_scene(424242, "box", mini_assets)
        for name in ("channels", "theta", "beta", "gt_mesh_full", "gt_joints",
                     "gt_rotation", "gt_translation", "gt_object_vertices", "contact"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self, mini_assets):
        a = sg.sample_scene(1, "box", mini_assets)
        b = sg.sample_scene(2, "box", mini_assets)
        assert not np.array_equal(a.theta, b.theta)

    def test_contact_fraction(self, mini_assets):
        templates = sg.list_object_templates()
        hits = 0
        n = 1000
        for i in range(n):
            s = sg.sample_scene(sg.mix_seed(77, i), templates[i % 3], mini_assets)
            hits += bool(s.contact.any())
        assert hits / n >= 0.75

    def test_param_ranges(self, mini_assets):
        for i in range(50):
            s = sg.sample_scene(sg.mix_seed(5, i), "tube", mini_assets)
            assert np.abs(s.theta).max() <= 3.0
            assert np.abs(s.beta).max() <= 3.0

    def test_contact_map_consistent_with_rule(self, mini_assets):
        s = sg.sample_scene(sg.mix_seed(9, 4), "chair", mini_assets)
        expected = sg.contact_map_gt(s.gt_mesh_full, s.gt_object_vertices, 0.05)
        assert np.array_equal(s.contact, expected)

    def test_mesh_consistent_with_params(self, mini_assets):
        s = sg.sample_scene(sg.mix_seed(3, 1), "box", mini_assets)
        verts, joints = sg.body_forward(mini_assets.body, s.theta, s.beta)
        assert np.array_equal(verts, s.gt_mesh_full)
        assert np.array_equal(joints, s.gt_joints)

    def test_unknown_template(self, mini_assets):
        with pytest.raises(ParameterError):
            sg.sample_scene(0, "sofa", mini_assets)

    def test_contact_free_objects_clear_the_threshold_or_snap(self, default_assets, monkeypatch):
        cfg = default_assets.config
        tries = []  # (object points, gap) of each placement try against the body's tree

        class Spy(kernels.NearestTree):
            def __init__(self, points):
                super().__init__(points)
                self.on_body = len(points) == default_assets.body.num_vertices

            def distances(self, a, upper=np.inf):
                out = super().distances(a, upper)
                if self.on_body:
                    tries.append((a.copy(), out.min()))
                return out

        monkeypatch.setattr(kernels, "NearestTree", Spy)
        placed = dict.fromkeys(cfg.templates, 0)
        snapped = {}  # scene -> queries after the 50 tries, one per snap push
        for i in range(120):  # seed 1, scene 115 exhausts its 50 tries and snaps
            tries.clear()
            tid = cfg.templates[i % len(cfg.templates)]
            s = sg.sample_scene(sg.mix_seed(1, i), tid, default_assets)
            if not tries:
                continue  # a contact scene
            posed, gap = tries[-1]
            if len(tries) > 50:
                snapped[i] = len(tries) - 50
            else:
                placed[tid] += 1
            assert np.allclose(posed, s.gt_object_vertices, atol=1e-6)
            brute = kernels.pairwise_distances(s.gt_mesh_full.astype(np.float64), posed).min()
            assert brute > cfg.contact_threshold and not s.contact.any(), (i, tid)
            # the bounded query from the object's side finds the same least pair distance
            assert gap == brute if np.isfinite(gap) else brute > cfg.contact_threshold * (1 + 1e-6)
        # one push along the last direction leaves scene 115 2.14 cm from the body; it takes two
        assert min(placed.values()) > 0 and snapped == {115: 2}, (placed, snapped)

    def test_snap_ends_for_a_body_beyond_float_resolution(self):
        """At param_range 3e38 the body spans ~1e37 m, where a fixed 10 cm push is lost in rounding."""
        cfg = sg.SceneConfig(res=32, v0=16, v1=32, body_parts="mini", param_range=3e38, contact_prob=0.0)
        assets = sg.build_assets(cfg)

        def stuck(signum, frame):
            raise TimeoutError("the contact-free snap did not end")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(30)
        try:
            s = sg.sample_scene(sg.mix_seed(0, 0), "box", assets)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert s.template_id == "box"


class TestProject:
    def test_unit_camera(self, rng):
        pts = rng.normal(size=(6, 3))
        cam = sg.Camera(scale=1.0, translation=np.zeros(2))
        assert np.allclose(sg.project(pts, cam), pts[:, :2])

    def test_scale_doubles(self, rng):
        pts = rng.normal(size=(6, 3))
        one = sg.project(pts, sg.Camera(scale=1.0, translation=np.zeros(2)))
        two = sg.project(pts, sg.Camera(scale=2.0, translation=np.zeros(2)))
        assert np.allclose(two, 2 * one)

    def test_gt_joints_land_in_frame(self, mini_assets):
        inside = total = 0
        for i in range(100):
            s = sg.sample_scene(sg.mix_seed(21, i), "box", mini_assets)
            p = s.gt_joints_2d
            inside += int(((np.abs(p) <= 1.0).all(axis=1)).sum())
            total += len(p)
        assert inside / total >= 0.99

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError):
            sg.Camera(scale=0.0, translation=np.zeros(2))


class TestRenderChannels:
    def test_empty_scene_all_zero(self):
        cam = sg.Camera(scale=0.6, translation=np.zeros(2))
        off_screen = np.array([[50.0, 50.0, 0.0]])
        chans = sg.render_channels(off_screen, None, cam, 32, 32)
        assert chans.shape == (5, 32, 32)
        assert np.all(chans == 0)

    def test_human_mask_nonzero_when_in_frame(self, mini_assets):
        s = sg.sample_scene(sg.mix_seed(2, 0), "box", mini_assets)
        assert s.channels[3].sum() > 0

    def test_object_mask_within_dilated_projection(self, mini_assets):
        cfg = mini_assets.config
        s = sg.sample_scene(sg.mix_seed(2, 5), "tube", mini_assets)
        ndc = sg.project(s.gt_object_vertices, s.camera)
        px = np.round((ndc[:, 0] + 1) * 0.5 * (cfg.res - 1)).astype(int)
        py = np.round((ndc[:, 1] + 1) * 0.5 * (cfg.res - 1)).astype(int)
        allowed = set()
        for x, y in zip(px, py):
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    allowed.add((y + dy, x + dx))
        mask_pixels = set(zip(*np.nonzero(s.channels[4])))
        assert mask_pixels <= allowed

    def test_channels_in_unit_range(self, mini_assets):
        s = sg.sample_scene(sg.mix_seed(2, 6), "chair", mini_assets)
        assert s.channels.min() >= 0.0
        assert s.channels.max() <= 1.0


class TestContactMap:
    def test_far_object_no_contact(self, rng):
        human = rng.normal(size=(20, 3))
        obj = rng.normal(size=(6, 3)) + 10.0
        assert not sg.contact_map_gt(human, obj).any()

    def test_coincident_vertex(self, rng):
        human = rng.normal(size=(20, 3))
        obj = rng.normal(size=(6, 3)) + 10.0
        obj[2] = human[13]
        assert sg.contact_map_gt(human, obj)[13]

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(50):
            human = rng.normal(size=(15, 3))
            obj = rng.normal(size=(7, 3)) * 2
            got = sg.contact_map_gt(human, obj, 1.5)
            expected = np.zeros(15, dtype=bool)
            for i in range(15):
                best = min(np.sqrt(((human[i] - obj[j]) ** 2).sum()) for j in range(7))
                expected[i] = best <= 1.5
            assert np.array_equal(got, expected)

    def test_bounded_query_keeps_the_flags_at_the_threshold(self, rng):
        # object points at the threshold and one float64 ulp either side of it, along each axis
        thr = 0.05
        human = np.vstack([np.zeros(3), rng.normal(size=(4, 3))])
        got, want = [], []
        for d in (np.nextafter(thr, 0.0), thr, np.nextafter(thr, 1.0)):
            for axis in range(3):
                obj = human + d * np.eye(3)[axis]
                obj = np.vstack([obj, obj + 1.0])
                got.append(sg.contact_map_gt(human, obj, thr))
                want.append(kernels.min_distances(human, obj) <= thr)
        assert np.array_equal(got, want)
        assert np.any(want) and not np.all(want)

    def test_bad_threshold(self, rng):
        with pytest.raises(ParameterError):
            sg.contact_map_gt(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), threshold=0.0)

    def test_non_finite_vertices_are_not_in_contact(self, rng):
        human = rng.normal(size=(20, 3))
        obj = human[:6] + 0.001
        human[[0, 1, 2]] = [[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]]
        got = sg.contact_map_gt(human, obj)
        assert not got[:3].any() and got[3:6].all()
        obj[2, 0] = np.nan
        assert not sg.contact_map_gt(human, obj).any()


class TestDataset:
    def test_roundtrip(self, tmp_path, mini_config, mini_assets):
        out = tmp_path / "ds"
        manifest = sg.generate_dataset(out, 4, 99, mini_config, assets=mini_assets)
        assert manifest["num"] == 4
        loaded_manifest, assets, loader = sg.load_dataset(out)
        assert loaded_manifest["sample_seeds"] == manifest["sample_seeds"]
        for i in range(4):
            direct = sg.sample_scene(manifest["sample_seeds"][i], manifest["sample_templates"][i], mini_assets)
            from_disk = loader(i)
            for field in dataclasses.fields(sg.SceneSample):
                a, b = getattr(direct, field.name), getattr(from_disk, field.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (i, field.name)
                elif field.name != "camera":
                    assert type(a) is type(b) and a == b, (i, field.name)
            assert type(direct.camera.scale) is type(from_disk.camera.scale)
            assert direct.camera.scale == from_disk.camera.scale
            assert direct.camera.translation.dtype == from_disk.camera.translation.dtype
            assert np.array_equal(direct.camera.translation, from_disk.camera.translation)
            assert (out / f"sample_{i:05d}.bin").read_bytes() == direct.record.tobytes()

    def test_record_layout(self, mini_assets):
        sample = sg.sample_scene(sg.mix_seed(6, 0), "chair", mini_assets)
        sizes = sg._record_sizes(mini_assets)
        assert len(sizes) == len(sg.RECORD_BLOCKS)
        assert sample.record.dtype == np.dtype("<f4") and sample.record.size == sum(sizes)
        blocks = dict(zip(sg.RECORD_BLOCKS, np.split(sample.record, np.cumsum(sizes)[:-1])))
        for name, block in blocks.items():
            if name == "camera":
                assert np.array_equal(block, np.float32([sample.camera.scale, *sample.camera.translation]))
            else:
                assert np.array_equal(block, getattr(sample, name).ravel()), name
        # the split-out fields are views of the record, not copies
        for name in ("channels", "theta", "beta", "gt_rotation"):
            assert np.shares_memory(getattr(sample, name), sample.record), name

    def test_regeneration_bit_identical(self, tmp_path, mini_config, mini_assets):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        sg.generate_dataset(out1, 3, 5, mini_config, assets=mini_assets)
        sg.generate_dataset(out2, 3, 5, mini_config, assets=mini_assets)
        for name in ["manifest.json"] + [f"sample_{i:05d}.bin" for i in range(3)]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_template_cycle(self, tmp_path, mini_config, mini_assets):
        out = tmp_path / "ds"
        manifest = sg.generate_dataset(out, 7, 0, mini_config, assets=mini_assets)
        assert manifest["sample_templates"][:3] == ["box", "chair", "tube"]
        assert manifest["sample_templates"][3] == "box"

    def test_mask_consistency_statistic_logged(self, tmp_path, mini_config, mini_assets):
        # recorded as a sanity statistic, deliberately not a hard threshold
        manifest = sg.generate_dataset(tmp_path / "ds", 10, 8, mini_config, assets=mini_assets)
        value = manifest["contact_mask_consistency"]
        assert value is None or 0.0 <= value <= 1.0


def test_mix_seed_spreads_and_repeats():
    a = sg.mix_seed(42, 0)
    b = sg.mix_seed(42, 1)
    c = sg.mix_seed(43, 0)
    assert a != b != c
    assert a == sg.mix_seed(42, 0)
    assert 0 <= a < 2**64


def test_object_templates_have_exactly_64_vertices():
    for tid in sg.list_object_templates():
        t = sg.build_object_template(tid)
        assert len(t.mesh.vertices) == 64


def test_box_template_symmetric_under_half_turn():
    box = sg.build_object_template("box").mesh.vertices
    flipped = box @ sg.rodrigues(np.array([0.0, np.pi, 0.0])).T.astype(np.float32)
    d = np.sqrt(((flipped[:, None, :] - box[None, :, :]) ** 2).sum(-1))
    assert d.min(axis=1).max() < 1e-6  # every rotated vertex lands on a template vertex


def loop_ellipsoid(center, radii, nu, nv, base_index):
    """Scalar-loop oracle: one vertex and one face at a time."""
    cx, cy, cz = center
    rx, ry, rz = radii
    verts = [[cx, cy + ry, cz]]
    for i in range(1, nu + 1):
        phi = math.pi * i / (nu + 1)
        sp, cp = math.sin(phi), math.cos(phi)
        for j in range(nv):
            th = 2.0 * math.pi * j / nv
            verts.append([cx + rx * sp * math.cos(th), cy + ry * cp, cz + rz * sp * math.sin(th)])
    verts.append([cx, cy - ry, cz])
    bottom = len(verts) - 1

    def ring(i, j):
        return 1 + (i - 1) * nv + (j % nv)

    faces = []
    for j in range(nv):
        faces.append([0, ring(1, j + 1), ring(1, j)])
    for i in range(1, nu):
        for j in range(nv):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append([a, b, d])
            faces.append([a, d, c])
    for j in range(nv):
        faces.append([bottom, ring(nu, j), ring(nu, j + 1)])
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64) + base_index


@pytest.mark.parametrize("nu, nv", [(1, 3), (2, 5), (3, 4), (12, 10), (18, 23), (20, 16)])
def test_ellipsoid_matches_loop_oracle(nu, nv):
    args = ([0.09, -0.44, 0.01], [0.075, 0.43, 0.06], nu, nv, 7)
    verts, faces = sg._ellipsoid(*args)
    want_v, want_f = loop_ellipsoid(*args)
    assert verts.dtype == np.float64 and faces.dtype == np.int64
    assert np.array_equal(verts, want_v)
    assert np.array_equal(faces, want_f)


@pytest.mark.parametrize("parts", ["mini", "default"])
def test_human_graph_clusters_match_pairwise_oracle(parts):
    cfg = sg.SceneConfig(body_parts=parts, v0=16, v1=32) if parts == "mini" else sg.SceneConfig()
    assets = sg.build_assets(cfg)
    full = assets.body.template.astype(np.float64)
    coarse = full[assets.operators.coarse_indices]
    nearest = np.argmin(kernels.pairwise_distances(full, coarse), axis=1)
    assert np.array_equal(assets.operators.nearest_coarse, nearest)
    n = cfg.v0
    dense = np.zeros((n, n))
    rows, cols = zip(*cluster_edge_pairs(assets.body.faces, nearest))
    dense[rows, cols] = 1.0
    dense /= dense.sum(axis=1, keepdims=True)
    assert np.array_equal(assets.human_adjacency, dense.astype(np.float32))


def cluster_edge_pairs(faces, nearest):
    """Oracle: join the clusters of the two endpoints of every face side, both ways."""
    pairs = set()
    for face in faces:
        for u, v in ((face[0], face[1]), (face[1], face[2]), (face[0], face[2])):
            if nearest[u] != nearest[v]:
                pairs |= {(nearest[u], nearest[v]), (nearest[v], nearest[u])}
    return sorted(pairs)


def coo_normalized(n, rows, cols, weights):
    """The graph path graphs once took through COO triples, kept as an oracle.

    Triples scatter into a float64 matrix, which is symmetrized by max with
    its transpose and row-normalized, read back as triples and scattered into
    the float32 matrix the model uses.
    """
    dense = np.zeros((n, n))
    dense[np.asarray(rows), np.asarray(cols)] = weights
    dense = np.maximum(dense, dense.T)
    sums = dense.sum(axis=1, keepdims=True)
    nz = sums[:, 0] > 0
    dense[nz] /= sums[nz]
    r, c = np.nonzero(dense)
    out = np.zeros((n, n), dtype=np.float32)
    out[r, c] = dense[r, c]
    return out


@pytest.mark.parametrize("cfg, k", [
    (sg.SceneConfig(), 10),
    (sg.SceneConfig(res=32, v0=16, v1=32, body_parts="mini"), 10),
    (sg.SceneConfig(), 1),
    (sg.SceneConfig(), 63),
], ids=["default", "mini", "k1", "k63"])
def test_adjacency_matches_coo_oracle(cfg, k):
    """The assets' human graph, and the object graphs a model at encoder knn_k ``k`` builds."""
    assets = sg.build_assets(cfg)
    pairs = cluster_edge_pairs(assets.body.faces, assets.operators.nearest_coarse)
    rows, cols = zip(*pairs)
    want = coo_normalized(cfg.v0, rows, cols, np.ones(len(pairs)))
    assert assets.human_adjacency.dtype == np.float32
    assert np.array_equal(assets.human_adjacency, want)
    enc = model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=2, knn_k=k)
    net = model.HoiReconstructor(assets, enc)
    assert sorted(net.object_adjacency) == sorted(assets.objects)
    for tid, template in assets.objects.items():
        knn = brute_force_knn(template.mesh.vertices.astype(np.float64), k)
        triples = [(i, j, d) for i, picks in knn.items() for d, j in picks]
        want = coo_normalized(sg.OBJECT_VERTEX_COUNT, *zip(*triples))
        assert net.object_adjacency[tid].dtype == np.float32
        assert np.array_equal(net.object_adjacency[tid], want), tid


def test_build_assets_computes_each_distance_once(monkeypatch, mini_config):
    calls = {"pairwise_distances": 0, "edge_list": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(kernels, "pairwise_distances")
    counting(meshkit, "edge_list")
    cfg = sg.SceneConfig(res=32, v0=16, v1=32, body_parts="mini", templates=("box",))
    sg.build_assets(cfg)
    # the object templates' KNN graphs are the model's, so nothing measures distances again
    assert calls == {"pairwise_distances": 0, "edge_list": 1}
