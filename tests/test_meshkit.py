"""Geometry operator tests, each checked against an independent oracle."""

import numpy as np
import pytest

from hoitg import diffcore as dc
from hoitg import kernels, meshkit, scenegen
from hoitg.errors import DegeneracyError, DimensionError, ParameterError


def brute_force_knn(points, k):
    """Exhaustive KNN oracle: python loops, stable lowest-index ties."""
    n = len(points)
    result = {}
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = float(np.sqrt(((points[i] - points[j]) ** 2).sum()))
            dists.append((d, j))
        dists.sort(key=lambda t: (t[0], t[1]))
        result[i] = dists[:k]
    return result


def axis_angle_matrix(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def brute_force_knn_dense(points, k):
    """The exhaustive oracle as an (n, n) matrix: distances at each row's k picks."""
    dense = np.zeros((len(points), len(points)))
    for i, picks in brute_force_knn(points, k).items():
        for d, j in picks:
            dense[i, j] = d
    return dense


class TestKnnAdjacency:
    def test_collinear_hand_case(self):
        # points 0,1,3,7 on the x axis, k=1: nearest are 1,0,1,2 at distances 1,1,2,4
        pts = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0], [7, 0, 0]], dtype=float)
        adj = meshkit.knn_adjacency(pts, 1)
        expected = np.zeros((4, 4))
        expected[[0, 1, 2, 3], [1, 0, 1, 2]] = [1.0, 1.0, 2.0, 4.0]
        assert adj.dtype == np.float64
        assert np.array_equal(adj, expected)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_exhaustive_oracle(self, k, rng):
        pts = rng.normal(size=(200, 3))
        adj = meshkit.knn_adjacency(pts, k)
        oracle = brute_force_knn_dense(pts, k)
        assert np.array_equal(adj != 0, oracle != 0)
        assert np.allclose(adj, oracle, rtol=0, atol=1e-9)

    def test_each_row_has_k_entries(self, rng):
        pts = rng.normal(size=(50, 3))
        adj = meshkit.knn_adjacency(pts, 7)
        assert adj.shape == (50, 50)
        assert (np.count_nonzero(adj, axis=1) == 7).all()
        assert (adj >= 0).all() and (np.diag(adj) == 0).all()

    def test_k_out_of_range(self, rng):
        pts = rng.normal(size=(5, 3))
        with pytest.raises(ParameterError):
            meshkit.knn_adjacency(pts, 5)

    @pytest.mark.parametrize("k", [1, 6, 10, 20])
    def test_lattice_ties_match_oracle_order(self, k):
        # integer coordinates make the 4x4x4 box lattice's many equal distances
        # exact ties, which go to the lower index: every row's neighbour set
        # and weights must be the oracle's exactly
        pts = np.indices((4, 4, 4)).reshape(3, -1).T.astype(np.float64)
        adj = meshkit.knn_adjacency(pts, k)
        assert np.array_equal(adj, brute_force_knn_dense(pts, k))


class TestNormalizeAdjacency:
    def test_uniform_rows(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        dense = meshkit.normalize_adjacency(meshkit.knn_adjacency(pts, 2))
        assert dense.dtype == np.float64
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-6)

    def test_max_symmetrization(self):
        raw = np.zeros((3, 3))
        raw[0, 1] = 2.0
        dense = meshkit.normalize_adjacency(raw)
        assert dense[0, 1] > 0 and dense[1, 0] > 0
        assert dense[2].sum() == 0  # isolated row stays zero

    def test_row_sums_on_random_clouds(self, rng):
        for _ in range(100):
            pts = rng.normal(size=(30, 3))
            dense = meshkit.normalize_adjacency(meshkit.knn_adjacency(pts, 10))
            assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-6)
            # sparsity pattern is symmetric after max-symmetrization
            assert np.array_equal(dense > 0, (dense > 0).T)

    def test_input_unchanged(self, rng):
        raw = meshkit.knn_adjacency(rng.normal(size=(20, 3)), 4)
        before = raw.copy()
        out = meshkit.normalize_adjacency(raw)
        assert np.array_equal(raw, before)
        assert not np.shares_memory(out, raw)

    def test_negative_weights_rejected(self):
        raw = np.zeros((3, 3))
        raw[0, 1] = -1.0
        with pytest.raises(ParameterError):
            meshkit.normalize_adjacency(raw)


class TestFarthestPointSample:
    def test_full_sample_is_permutation(self, rng):
        pts = rng.normal(size=(17, 3))
        idx, dist = meshkit.farthest_point_sample(pts, 17, seed=3)
        assert sorted(idx.tolist()) == list(range(17))
        assert np.array_equal(dist, kernels.pairwise_distances(pts, pts[idx]))

    def test_square_corners_tie_break(self):
        # start at the center: all corners are equidistant, lowest index wins
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]])
        picks, _ = kernels.fps(pts, 2, 4)
        assert picks[0] == 4
        assert picks[1] == 0

    def test_spreads_better_than_random_subset(self, rng):
        def min_pairwise(p):
            d = kernels.pairwise_distances(p, p)
            np.fill_diagonal(d, np.inf)
            return d.min()

        wins = 0
        for trial in range(50):
            pts = rng.normal(size=(80, 3))
            fps_idx, _ = meshkit.farthest_point_sample(pts, 12, seed=trial)
            rand_idx = np.random.default_rng(trial).choice(80, size=12, replace=False)
            if min_pairwise(pts[fps_idx]) >= min_pairwise(pts[rand_idx]):
                wins += 1
        assert wins == 50

    def test_m_too_large(self, rng):
        with pytest.raises(ParameterError):
            meshkit.farthest_point_sample(rng.normal(size=(4, 3)), 5, seed=0)


@pytest.fixture(scope="module")
def ops_and_mesh():
    mesh = scenegen.build_body_template(scenegen.MINI_BODY_PARTS)
    ops = meshkit.build_sampling_operators(mesh, v0=16, v1=32, seed=5)
    return ops, mesh


def loop_interp_matrix(fine, coarse):
    """Per-row oracle of the 3-NN inverse-distance rows, ties to the lower index."""
    out = np.zeros((len(fine), len(coarse)), dtype=np.float32)
    for i, p in enumerate(fine):
        d = np.sqrt(((p - coarse) ** 2).sum(axis=1))
        nbrs = sorted(range(len(coarse)), key=lambda j: (d[j], j))[:3]
        if d[nbrs[0]] < 1e-12:
            out[i, nbrs[0]] = 1.0
            continue
        w = 1.0 / d[nbrs]
        out[i, nbrs] = (w / w.sum()).astype(np.float32)
    return out


class TestSamplingOperators:

    def test_down_selects_exactly(self, ops_and_mesh):
        ops, mesh = ops_and_mesh
        v0, v1, v2 = ops.sizes
        assert ops.coarse_indices.shape == (v0,) and ops.mid_indices.shape == (v1,)
        assert len(set(ops.mid_indices.tolist())) == v1
        assert 0 <= ops.mid_indices.min() and ops.mid_indices.max() < v2
        # coarse vertices nest inside the mid set as its first v0 picks
        assert np.array_equal(ops.mid_indices[:v0], ops.coarse_indices)

    def test_rows_are_stochastic(self, ops_and_mesh):
        ops, _ = ops_and_mesh
        for mat in (ops.up01, ops.up12):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("parts, v0, v1, seed", [
        (scenegen.MINI_BODY_PARTS, 16, 32, 5),
        (scenegen.DEFAULT_BODY_PARTS, 96, 384, 11),
    ])
    def test_upsampling_matches_loop_oracle(self, parts, v0, v1, seed):
        mesh = scenegen.build_body_template(parts)
        ops = meshkit.build_sampling_operators(mesh, v0=v0, v1=v1, seed=seed)
        verts = mesh.vertices.astype(np.float64)
        mid, coarse = verts[ops.mid_indices], verts[ops.coarse_indices]
        assert np.array_equal(ops.up01, loop_interp_matrix(mid, coarse))
        assert np.array_equal(ops.up12, loop_interp_matrix(verts, mid))
        # every vertex that is itself a coarser vertex gets a one-hot row
        assert ((ops.up01 == 1.0).sum(axis=1) == 1).sum() == v0
        assert ((ops.up12 == 1.0).sum(axis=1) == 1).sum() == v1

    def test_coarse_vertex_upsamples_as_identity_row(self, ops_and_mesh):
        ops, _ = ops_and_mesh
        # coarse picks are the first v0 mid picks, so those up01 rows are one-hot
        for row in range(len(ops.coarse_indices)):
            r = ops.up01[row]
            assert r.max() == 1.0 and (r > 0).sum() == 1

    def test_reconstruction_error_bounded(self, ops_and_mesh):
        # 3-NN inverse-distance interpolation cannot reproduce curved detail
        # below the coarse spacing; guard against gross errors instead.
        ops, mesh = ops_and_mesh
        tmpl = mesh.vertices.astype(np.float64)
        recon = ops.up12 @ (ops.up01 @ tmpl[ops.coarse_indices])
        err = np.linalg.norm(recon - tmpl, axis=1).mean()
        edges = meshkit.edge_list(mesh.faces)
        mean_edge = np.linalg.norm(tmpl[edges[:, 0]] - tmpl[edges[:, 1]], axis=1).mean()
        coarse = tmpl[ops.coarse_indices]
        d = kernels.pairwise_distances(coarse, coarse)
        np.fill_diagonal(d, np.inf)
        coarse_spacing = d.min(axis=1).mean()
        assert err < mean_edge
        assert err < 0.35 * coarse_spacing

    def test_invalid_scale_ordering(self, ops_and_mesh):
        _, mesh = ops_and_mesh
        with pytest.raises(ParameterError):
            meshkit.build_sampling_operators(mesh, v0=32, v1=16, seed=0)


class TestApplySampling:
    def test_identity(self, rng):
        verts = rng.normal(size=(5, 3))
        out = meshkit.apply_sampling(np.eye(5), dc.tensor(verts))
        assert np.array_equal(out.data, verts)

    def test_row_stochastic_preserves_constant(self, rng):
        mat = rng.random((4, 6))
        mat /= mat.sum(axis=1, keepdims=True)
        const = np.tile([1.5, -2.0, 0.25], (6, 1))
        out = meshkit.apply_sampling(mat, dc.tensor(const))
        assert np.allclose(out.data, const[:4], atol=1e-12)

    def test_gradient(self, rng):
        mat = rng.random((4, 6))
        rep = dc.gradcheck(
            lambda ts: dc.sum_all(meshkit.apply_sampling(mat, ts[0])), [rng.normal(size=(6, 3))]
        )
        assert rep.ok, rep.worst

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            meshkit.apply_sampling(np.eye(3), dc.tensor(rng.normal(size=(4, 3))))


class TestRigidFit:
    def test_identity_pose(self, rng):
        t = rng.normal(size=(10, 3))
        pose = meshkit.rigid_fit(t, t)
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(pose.translation, 0.0, atol=1e-9)

    def test_compose_recover(self, rng):
        t = rng.normal(size=(25, 3))
        for trial in range(200):
            g = np.random.default_rng(trial)
            axis = g.normal(size=3)
            angle = g.uniform(0, np.pi)
            rot = axis_angle_matrix(axis, angle)
            trans = g.uniform(-1, 1, 3)
            pose = meshkit.rigid_fit(t, t @ rot.T + trans)
            assert meshkit.rotation_geodesic(pose.rotation, rot) < 1e-6
            assert np.linalg.norm(pose.translation - trans) < 1e-6

    def test_reflection_corrected(self, rng):
        t = rng.normal(size=(12, 3))
        mirrored = t.copy()
        mirrored[:, 2] *= -1
        pose = meshkit.rigid_fit(t, mirrored)
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-6
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-9)

    def test_invariant_under_common_rigid_motion(self, rng):
        t = rng.normal(size=(15, 3))
        p = t @ axis_angle_matrix([0, 0, 1], 0.8).T + np.array([0.3, -0.1, 0.5])
        base = meshkit.rigid_fit(t, p)
        motion_r = axis_angle_matrix([1, 1, 0], 1.1)
        motion_t = np.array([-2.0, 0.7, 1.3])
        moved = meshkit.rigid_fit(t @ motion_r.T + motion_t, p @ motion_r.T + motion_t)
        # the recovered pose conjugates by the common motion and nothing else
        expected_r = motion_r @ base.rotation @ motion_r.T
        expected_t = motion_r @ base.translation + motion_t - expected_r @ motion_t
        assert meshkit.rotation_geodesic(moved.rotation, expected_r) < 1e-6
        assert np.linalg.norm(moved.translation - expected_t) < 1e-6

    def test_collinear_template_rejected(self):
        line = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        with pytest.raises(DegeneracyError):
            meshkit.rigid_fit(line, line)

    def test_too_few_points(self):
        with pytest.raises(DegeneracyError):
            meshkit.rigid_fit(np.zeros((2, 3)), np.zeros((2, 3)))


class TestEdgeList:
    def test_single_triangle(self):
        edges = meshkit.edge_list(np.array([[0, 1, 2]]))
        assert edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_shared_edge_deduplicated(self):
        edges = meshkit.edge_list(np.array([[0, 1, 2], [1, 2, 3]]))
        assert len(edges) == 5

    def test_matches_set_oracle(self, rng):
        faces = [rng.integers(0, 30, size=(40, 3)), scenegen.build_body_template().faces]
        for f in faces:
            oracle = sorted({(min(u, v), max(u, v)) for a, b, c in f.tolist() for u, v in ((a, b), (b, c), (a, c))})
            edges = meshkit.edge_list(f)
            assert edges.dtype == np.int64 and edges.shape == (len(oracle), 2)
            assert edges.tolist() == [list(e) for e in oracle]

    def test_closed_manifold_euler_relation(self):
        mesh = scenegen.build_body_template(scenegen.MINI_BODY_PARTS)
        edges = meshkit.edge_list(mesh.faces)
        assert len(edges) * 2 == 3 * len(mesh.faces)
