"""Hot numeric kernels, in numpy and scipy.

Every kernel works on whole arrays: pairwise distances and KD-tree
nearest-neighbor distances (``NearestTree`` keeps one tree for repeated
queries, optionally bounded), farthest point sampling, the exact erf GeLU,
bilinear sampling and its gradient, patch extraction for convolutions, and
point splatting. All are dtype-generic (float32 for training, float64 for
the gradient check harness).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import erf as _scipy_erf

BACKEND = "numpy"

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def pairwise_distances(a, b):
    """Euclidean distance matrix between point sets a (n,3) and b (m,3).

    Squares are summed one coordinate at a time, in the order a sum over the
    coordinate axis takes, into preallocated buffers, so no (n, m, 3) array is
    built.
    """
    sq = np.zeros((len(a), len(b)), dtype=np.result_type(a, b))
    d = np.empty_like(sq)
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=d)
        np.multiply(d, d, out=d)
        sq += d
    return np.sqrt(sq, out=sq)


class NearestTree:
    """A KD-tree over ``points`` (m,3), built once and queried many times."""

    def __init__(self, points):
        # a KD-tree cannot hold non-finite points; such a set answers NaN
        self.tree = cKDTree(points) if np.isfinite(points).all() else None

    def distances(self, a, upper=np.inf):
        """Per-row distance from each point of a to its nearest tree point.

        Rows of a with a NaN or inf coordinate get NaN, and so does every row
        when the tree points hold one. Rows with no tree point closer than
        ``upper`` get inf; the search prunes by that bound, and every row
        within it is bit-equal to the unbounded query.
        """
        out = np.full(len(a), np.nan)
        finite = np.isfinite(a).all(axis=1)
        if self.tree is not None:
            out[finite] = self.tree.query(a[finite], distance_upper_bound=upper)[0]
        return out


def min_distances(a, b, upper=np.inf):
    """Per-row distance from each point of a to its nearest point of b.

    ``NearestTree(b).distances(a, upper)``, for a single query.
    """
    return NearestTree(b).distances(a, upper)


def fps(points, m, start):
    """Greedy farthest point sampling; ties resolved to the lowest index.

    Returns the picks (m,) and the (n, m) distances from every point to each
    pick, bit-equal to ``pairwise_distances(points, points[picks])``: each
    distance row is summed one coordinate at a time, as there.
    """
    n = len(points)
    cols = [np.ascontiguousarray(points[:, k]) for k in range(points.shape[1])]
    chosen = np.empty(m, dtype=np.int64)
    dist = np.zeros((m, n), dtype=points.dtype)  # row k: distance to pick k
    nearest = np.full(n, np.inf, dtype=points.dtype)
    diff = np.empty(n, dtype=points.dtype)
    pick = start
    for k in range(m):
        chosen[k] = pick
        row = dist[k]
        for c in cols:
            np.subtract(c, c[pick], out=diff)
            np.multiply(diff, diff, out=diff)
            row += diff
        np.sqrt(row, out=row)
        np.minimum(nearest, row, out=nearest)
        pick = int(nearest.argmax())
    return chosen, dist.T


def gelu_forward(x):
    """GeLU ``x * Phi(x)`` and ``Phi(x)``, which :func:`gelu_grad` takes back."""
    phi = 0.5 * (1.0 + _scipy_erf(x * _SQRT1_2))
    return x * phi, phi


def gelu_grad(x, phi):
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return phi + x * pdf


def _taps(grid, u, v):
    """Border-clamped bilinear taps of grid (C,h,w): corner indices u0, v0, u1, v1 and fractions fu, fv."""
    _, h, w = grid.shape
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(uc).astype(np.int64)
    v0 = np.floor(vc).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    return u0, v0, u1, v1, (uc - u0).astype(grid.dtype), (vc - v0).astype(grid.dtype)


def bilinear_forward(grid, u, v):
    """Sample grid (C,h,w) at continuous pixel coords (u along w, v along h).

    Coordinates are clamped to the border. Returns (n, C).
    """
    u0, v0, u1, v1, fu, fv = _taps(grid, u, v)
    g = grid.transpose(1, 2, 0)  # (h, w, C)
    out = (
        g[v0, u0] * ((1 - fv) * (1 - fu))[:, None]
        + g[v0, u1] * ((1 - fv) * fu)[:, None]
        + g[v1, u0] * (fv * (1 - fu))[:, None]
        + g[v1, u1] * (fv * fu)[:, None]
    )
    return np.ascontiguousarray(out)


def bilinear_backward(grid, u, v, dout):
    """Gradients of bilinear sampling wrt the grid and the raw coordinates.

    Returns (dgrid, du, dv); du/dv are zero where the coordinate was clamped.
    """
    u0, v0, u1, v1, fu, fv = _taps(grid, u, v)
    dgrid = np.zeros_like(grid)
    dg = dgrid.transpose(1, 2, 0)  # view (h, w, C)
    np.add.at(dg, (v0, u0), dout * ((1 - fv) * (1 - fu))[:, None])
    np.add.at(dg, (v0, u1), dout * ((1 - fv) * fu)[:, None])
    np.add.at(dg, (v1, u0), dout * (fv * (1 - fu))[:, None])
    np.add.at(dg, (v1, u1), dout * (fv * fu)[:, None])

    g = grid.transpose(1, 2, 0)
    ddu = (1 - fv)[:, None] * (g[v0, u1] - g[v0, u0]) + fv[:, None] * (g[v1, u1] - g[v1, u0])
    ddv = (1 - fu)[:, None] * (g[v1, u0] - g[v0, u0]) + fu[:, None] * (g[v1, u1] - g[v0, u1])
    du = (ddu * dout).sum(axis=1)
    dv = (ddv * dout).sum(axis=1)
    _, h, w = grid.shape
    inside_u = (u >= 0.0) & (u <= w - 1.0)
    inside_v = (v >= 0.0) & (v <= h - 1.0)
    du = np.where(inside_u, du, 0.0).astype(grid.dtype)
    dv = np.where(inside_v, dv, 0.0).astype(grid.dtype)
    return dgrid, du, dv


def im2col(xp, kh, kw, sh, sw, ho, wo):
    """Extract conv patches from padded input (C,Hp,Wp) -> (ho*wo, C*kh*kw)."""
    c = xp.shape[0]
    cols = np.empty((c, kh, kw, ho, wo), dtype=xp.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, ky, kx] = xp[:, ky : ky + sh * ho : sh, kx : kx + sw * wo : sw]
    return cols.reshape(c * kh * kw, ho * wo).T.copy()


def col2im(cols, c, hp, wp, kh, kw, sh, sw, ho, wo):
    """Scatter-add conv patch gradients back onto the padded input."""
    xp = np.zeros((c, hp, wp), dtype=cols.dtype)
    cr = cols.T.reshape(c, kh, kw, ho, wo)
    for ky in range(kh):
        for kx in range(kw):
            xp[:, ky : ky + sh * ho : sh, kx : kx + sw * wo : sw] += cr[:, ky, kx]
    return xp


def splat(px, py, z, h, w):
    """Splat points with a 3x3 footprint; nearest point (largest z) wins.

    Pixel centers are rounded half to even. Returns (mask, depth) as (h, w)
    float arrays; depth holds raw z values where the mask is set and -inf
    elsewhere (the caller normalizes).
    """
    # clipping keeps far-off points off the frame without int64 overflow
    cx = np.clip(np.rint(px), -2, w + 1).astype(np.int64)
    cy = np.clip(np.rint(py), -2, h + 1).astype(np.int64)
    off = np.arange(-1, 2)
    x = (cx[:, None] + np.tile(off, 3)).ravel()  # the 9 footprint pixels of each point
    y = (cy[:, None] + np.repeat(off, 3)).ravel()
    keep = (x >= 0) & (x < w) & (y >= 0) & (y < h)
    flat = y[keep] * w + x[keep]
    mask = np.zeros(h * w, dtype=np.float64)
    mask[flat] = 1.0
    depth = np.full(h * w, -np.inf, dtype=np.float64)
    # fmax skips a NaN z, as a per-point "z > depth" test would
    np.fmax.at(depth, flat, np.repeat(np.asarray(z, dtype=np.float64), 9)[keep])
    return mask.reshape(h, w), depth.reshape(h, w)
