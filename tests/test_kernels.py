"""Every kernel against an independent brute-force loop oracle."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hoitg import kernels


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def _dist(p, q):
    total = 0.0
    for x, y in zip(p, q):
        d = float(x) - float(y)
        total += d * d
    return math.sqrt(total)


def test_pairwise_and_min_distances_match_loops(rng):
    # same arithmetic in the same order, so the results are bit-equal
    for n, m in [(1, 1), (40, 25), (7, 300)]:
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3))
        expected = np.array([[_dist(p, q) for q in b] for p in a])
        assert np.array_equal(kernels.pairwise_distances(a, b), expected)
        assert np.array_equal(kernels.min_distances(a, b), expected.min(axis=1))


def test_min_distances_of_coincident_points_are_zero(rng):
    a = rng.normal(size=(30, 3))
    assert np.array_equal(kernels.min_distances(a, a[::-1].copy()), np.zeros(30))


def test_min_distances_non_finite_rows_are_nan(rng):
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(5, 3))
    a[1, 0] = np.nan
    a[4, 2] = np.inf
    got = kernels.min_distances(a, b)
    assert np.isnan(got[[1, 4]]).all()
    keep = [0, 2, 3, 5]
    assert np.array_equal(got[keep], kernels.min_distances(a[keep], b))
    for bad in (np.nan, -np.inf):
        b2 = b.copy()
        b2[3, 1] = bad
        assert np.isnan(kernels.min_distances(a, b2)).all()


def _per_call_tree(a, b):
    """The per-call KD-tree query ``NearestTree`` replaced: NaN rows for non-finite input."""
    out = np.full(len(a), np.nan)
    finite = np.isfinite(a).all(axis=1)
    if np.isfinite(b).all():
        out[finite] = cKDTree(b).query(a[finite])[0]
    return out


def _point_sets(rng):
    """Random (points, queries) pairs, with NaN and inf rows on either side."""
    for n, m in [(1, 1), (64, 1536), (300, 7), (50, 50)]:
        p = rng.normal(size=(n, 3))
        q = rng.normal(size=(m, 3)) * 0.5
        yield p, q
    p, q = rng.normal(size=(40, 3)), rng.normal(size=(30, 3))
    q[[3, 17]] = [[np.nan, 0, 0], [0, 0, -np.inf]]
    yield p, q
    p[5, 1] = np.inf
    yield p, q


def test_nearest_tree_matches_a_per_call_tree(rng):
    for p, q in _point_sets(rng):
        tree = kernels.NearestTree(p)
        for _ in range(2):  # a tree answers repeat queries alike
            assert np.array_equal(tree.distances(q), _per_call_tree(q, p), equal_nan=True)
        assert np.array_equal(kernels.min_distances(q, p), _per_call_tree(q, p), equal_nan=True)


def test_nearest_tree_minimum_is_symmetric(rng):
    # the least pair distance is the same sum of squares from either side
    for _ in range(20):
        p = rng.normal(size=(int(rng.integers(1, 200)), 3))
        q = rng.normal(size=(int(rng.integers(1, 200)), 3)) + rng.normal(size=3)
        assert kernels.NearestTree(p).distances(q).min() == kernels.min_distances(p, q).min()


def test_bounded_distances_are_inf_beyond_the_bound_and_exact_within(rng):
    for p, q in _point_sets(rng):
        full = kernels.NearestTree(p).distances(q)
        # bounds between distances, so no row sits on one; 0 keeps none, twice the largest keeps all
        ends = np.unique(np.r_[0.0, full[np.isfinite(full)]])
        mids = (ends[1:] + ends[:-1]) / 2
        for upper in [0.0, *mids[:: max(1, len(mids) // 4)], 2 * ends[-1] + 1]:
            got = kernels.min_distances(q, p, upper)
            within = full < upper
            assert np.array_equal(got[within], full[within])
            assert np.isinf(got[full >= upper]).all()
            assert np.array_equal(np.isnan(got), np.isnan(full))


def _fps_oracle(points, m, start):
    chosen = [start]
    while len(chosen) < m:
        best, pick = -1.0, 0
        for i, p in enumerate(points):
            d = min(_dist(p, points[j]) for j in chosen)
            if d > best:  # strict: the lowest index wins a tie
                best, pick = d, i
        chosen.append(pick)
    return np.array(chosen)


def test_fps_matches_loop(rng):
    pts = rng.normal(size=(60, 3))
    for m, start in [(1, 0), (10, 3), (60, 59)]:
        picks, _ = kernels.fps(pts, m, start)
        assert np.array_equal(picks, _fps_oracle(pts, m, start))


def _lattice():
    # integer lattice: many exactly equal distances
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0), np.arange(2.0), indexing="ij"), -1)
    return grid.reshape(-1, 3)


def test_fps_ties_go_to_the_lower_index():
    pts = _lattice()
    for start in (0, 5, 31):
        picks, _ = kernels.fps(pts, 12, start)
        assert np.array_equal(picks, _fps_oracle(pts, 12, start))
    picks, _ = kernels.fps(np.zeros((5, 3)), 3, 2)
    assert picks.tolist() == [2, 0, 0]


def test_fps_distances_match_pairwise(rng):
    # the distances the sampling kept are the matrix the operators are built from
    clouds = [rng.normal(size=(60, 3)), rng.normal(size=(200, 3)) * 0.1, _lattice(), np.zeros((5, 3))]
    for pts in clouds:
        for m, start in [(1, 0), (3, 2), (len(pts), len(pts) - 1)]:
            picks, dist = kernels.fps(pts, m, start)
            assert dist.shape == (len(pts), m) and dist.dtype == pts.dtype
            assert np.array_equal(dist, kernels.pairwise_distances(pts, pts[picks]))
            expected = np.array([[_dist(p, pts[j]) for j in picks] for p in pts])
            assert np.array_equal(dist, expected)


def test_gelu_matches_reference():
    xs = np.array([-6.0, -3.0, -1.0, -0.1, 0.0, 0.5, 1.0, 4.0, 9.0])
    expected = np.array([x * 0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs])
    out, phi = kernels.gelu_forward(xs)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(phi, [0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs], atol=1e-12)
    grad = np.array([
        0.5 * (1 + math.erf(x / math.sqrt(2))) + x * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        for x in xs
    ])
    assert np.allclose(kernels.gelu_grad(xs, phi), grad, atol=1e-12)
    x2 = np.linspace(-3, 3, 12).reshape(3, 4)
    out2, phi2 = kernels.gelu_forward(x2)
    assert out2.shape == phi2.shape == kernels.gelu_grad(x2, phi2).shape == (3, 4)


def _bilinear_corners(h, w, u, v):
    uc = min(max(float(u), 0.0), w - 1.0)
    vc = min(max(float(v), 0.0), h - 1.0)
    u0, v0 = int(math.floor(uc)), int(math.floor(vc))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    return u0, v0, u1, v1, uc - u0, vc - v0


def test_bilinear_forward_and_backward_match_per_point_loops(rng):
    c, h, w, n = 6, 9, 7, 40
    grid = rng.normal(size=(c, h, w))
    u = rng.uniform(-2, w + 1, size=n)
    v = rng.uniform(-2, h + 1, size=n)
    u[:4] = [0.0, w - 1.0, 3.0, -0.5]  # on the border, on a node, clamped
    dout = rng.normal(size=(n, c))

    out = np.zeros((n, c))
    dgrid = np.zeros_like(grid)
    du = np.zeros(n)
    dv = np.zeros(n)
    for i in range(n):
        u0, v0, u1, v1, fu, fv = _bilinear_corners(h, w, u[i], v[i])
        for ch in range(c):
            g = grid[ch]
            out[i, ch] = ((1 - fv) * (1 - fu) * g[v0, u0] + (1 - fv) * fu * g[v0, u1]
                          + fv * (1 - fu) * g[v1, u0] + fv * fu * g[v1, u1])
            d = dout[i, ch]
            dgrid[ch, v0, u0] += d * (1 - fv) * (1 - fu)
            dgrid[ch, v0, u1] += d * (1 - fv) * fu
            dgrid[ch, v1, u0] += d * fv * (1 - fu)
            dgrid[ch, v1, u1] += d * fv * fu
            if 0.0 <= u[i] <= w - 1.0:
                du[i] += d * ((1 - fv) * (g[v0, u1] - g[v0, u0]) + fv * (g[v1, u1] - g[v1, u0]))
            if 0.0 <= v[i] <= h - 1.0:
                dv[i] += d * ((1 - fu) * (g[v1, u0] - g[v0, u0]) + fu * (g[v1, u1] - g[v0, u1]))

    assert np.allclose(kernels.bilinear_forward(grid, u, v), out, rtol=0, atol=1e-12)
    got = kernels.bilinear_backward(grid, u, v, dout)
    for x, y in zip(got, (dgrid, du, dv)):
        assert x.shape == y.shape
        assert np.allclose(x, y, rtol=0, atol=1e-12)


def test_im2col_and_col2im_match_per_patch_loops(rng):
    c, hp, wp, k, s = 4, 12, 11, 3, 2
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    x = rng.normal(size=(c, hp, wp))
    cols = np.empty((ho * wo, c * k * k))
    for oy in range(ho):
        for ox in range(wo):
            cols[oy * wo + ox] = x[:, oy * s : oy * s + k, ox * s : ox * s + k].ravel()
    assert np.array_equal(kernels.im2col(x, k, k, s, s, ho, wo), cols)

    g = rng.normal(size=cols.shape)
    back = np.zeros_like(x)
    for oy in range(ho):
        for ox in range(wo):
            back[:, oy * s : oy * s + k, ox * s : ox * s + k] += g[oy * wo + ox].reshape(c, k, k)
    assert np.allclose(kernels.col2im(g, c, hp, wp, k, k, s, s, ho, wo), back, rtol=0, atol=1e-12)


def _splat_oracle(px, py, z, h, w):
    mask = np.zeros((h, w))
    depth = np.full((h, w), -np.inf)
    for i in range(len(px)):
        cx, cy = round(float(px[i])), round(float(py[i]))  # half to even
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                x, y = cx + dx, cy + dy
                if 0 <= x < w and 0 <= y < h:
                    mask[y, x] = 1.0
                    if z[i] > depth[y, x]:
                        depth[y, x] = z[i]
    return mask, depth


def test_splat_matches_per_point_loop(rng):
    for h, w, n in [(16, 16, 50), (9, 23, 300), (32, 32, 1)]:
        px = rng.uniform(-4, w + 4, size=n)
        py = rng.uniform(-4, h + 4, size=n)
        px[: n // 3] = np.floor(px[: n // 3]) + 0.5  # exact .5 ties
        py[: n // 5] = np.floor(py[: n // 5]) + 0.5
        z = np.round(rng.normal(size=n), 1)  # repeated depths
        z[-1] = np.nan  # marks its footprint but never wins the depth
        mask, depth = kernels.splat(px, py, z, h, w)
        m_ref, d_ref = _splat_oracle(px, py, z, h, w)
        assert np.array_equal(mask, m_ref)
        assert np.array_equal(depth, d_ref)


def test_splat_far_off_points_leave_the_frame_empty():
    px = np.array([-1e30, 1e30, 2.5, -2.6])
    py = np.array([3.0, 3.0, -1e300, 4.0])
    mask, depth = kernels.splat(px, py, np.ones(4), 8, 8)
    assert not mask.any() and np.isneginf(depth).all()
