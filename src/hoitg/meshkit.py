"""Mesh containers and geometric operators.

Covers dense KNN adjacency matrices with distance weights, row-stochastic
normalization, farthest point sampling, the down/up sampling operator pair
used for multi-scale vertex supervision, undirected edge extraction, and the
SVD rigid fit that reads a rotation / translation out of predicted object
vertices.

All functions are pure: they never mutate their inputs and are safe to call
concurrently. Ties are always broken toward the lower index so results are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore, kernels
from .errors import DegeneracyError, DimensionError, ParameterError


@dataclass
class Mesh:
    """Triangle mesh: vertices (V,3) in meters, faces (F,3) int indices."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float32)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size:
            if self.faces.max() >= len(self.vertices) or self.faces.min() < 0:
                raise ParameterError("mesh: face index out of range")
            a, b, c = self.faces.T
            if np.any((a == b) | (b == c) | (a == c)):
                raise ParameterError("mesh: degenerate face with repeated indices")


@dataclass
class SamplingOperators:
    """Fixed mesh resampling linking three vertex scales.

    Down-sampling is row selection: ``coarse_indices`` (V0,) and
    ``mid_indices`` (V1,) pick farthest-point-sampled full vertices, and the
    coarse picks are the first V0 mid picks. ``up01`` (V1,V0) and ``up12``
    (V2,V1) interpolate each finer vertex from its 3 nearest coarser vertices
    with inverse-distance weights; every row sums to 1. ``nearest_coarse``
    (V2,) maps each full vertex to its nearest coarse vertex, the clusters
    that :func:`coarsen_edge_graph` joins. Built once from the template and
    never updated by training.
    """

    sizes: tuple
    up01: np.ndarray
    up12: np.ndarray
    coarse_indices: np.ndarray
    mid_indices: np.ndarray
    nearest_coarse: np.ndarray


@dataclass
class RigidPose:
    """Rotation (3,3, det +1) and translation (3,) in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def knn_adjacency(points: np.ndarray, k: int) -> np.ndarray:
    """K-nearest-neighbor graph weighted by point distances, as a dense matrix.

    Row i of the (n, n) float64 result holds the Euclidean distance at the k
    nearest distinct points of point i and zero elsewhere. Ties go to the
    lower index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"knn_adjacency: need 1 <= k < n, got k={k}, n={n}")
    dist = kernels.pairwise_distances(points, points)
    np.fill_diagonal(dist, np.inf)
    rows = np.arange(n)[:, None]
    cols = _nearest(dist, k)
    adj = np.zeros((n, n))
    adj[rows, cols] = dist[rows, cols]
    return adj


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, nearest first.

    One ``argmin`` pass per rank, masking each pick with inf: ``argmin``
    returns the first minimum, so ties go to the lower index, the order of a
    stable argsort.
    """
    dist = dist.copy()
    rows = np.arange(dist.shape[0])
    picks = np.empty((dist.shape[0], k), dtype=np.int64)
    for rank in range(k):
        picks[:, rank] = np.argmin(dist, axis=1)
        dist[rows, picks[:, rank]] = np.inf
    return picks


def normalize_adjacency(raw: np.ndarray) -> np.ndarray:
    """Symmetrize by elementwise max with the transpose, then row-normalize.

    Takes and returns a dense (n, n) matrix, float64 out. Rows with no
    neighbors stay zero; every other row sums to 1.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size and raw.min() < 0:
        raise ParameterError("normalize_adjacency: negative weights")
    dense = np.maximum(raw, raw.T)
    sums = dense.sum(axis=1, keepdims=True)
    nz = sums[:, 0] > 0
    dense[nz] /= sums[nz]
    return dense


def farthest_point_sample(points: np.ndarray, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy farthest point sampling from a seeded random start index.

    Returns the picks (m,) and the (n, m) float64 distances from every point
    to each pick, as ``kernels.fps`` does.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if m > n:
        raise ParameterError(f"farthest_point_sample: m={m} exceeds n={n}")
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty((n, 0))
    start = int(np.random.default_rng(seed).integers(0, n))
    return kernels.fps(points, m, start)


def build_sampling_operators(full_template: Mesh, v0: int, v1: int, seed: int) -> SamplingOperators:
    """Construct the three-scale resampling operators from a full template.

    The mid scale is a farthest-point subset of the full vertices and the
    coarse scale is the first v0 picks of the same greedy sequence, so coarse
    vertices nest inside the mid set. Every operator comes from the one
    (V2, V1) distance matrix the sampling computes: its columns are the mid
    vertices, and its first v0 columns the coarse ones.
    """
    verts = np.asarray(full_template.vertices, dtype=np.float64)
    v2 = verts.shape[0]
    if not 0 < v0 < v1 < v2:
        raise ParameterError(f"build_sampling_operators: need 0 < V0 < V1 < V2, got {v0},{v1},{v2}")
    mid_idx, dist = farthest_point_sample(verts, v1, seed)
    return SamplingOperators(
        sizes=(v0, v1, v2),
        up01=_interp_matrix(dist[mid_idx, :v0]),
        up12=_interp_matrix(dist),
        coarse_indices=mid_idx[:v0].copy(),
        mid_indices=mid_idx,
        nearest_coarse=np.argmin(dist[:, :v0], axis=1),
    )


def _interp_matrix(dist: np.ndarray) -> np.ndarray:
    """Rows interpolate each fine vertex from its 3 nearest coarse vertices.

    ``dist`` is the (fine, coarse) distance matrix. Inverse-distance weights
    normalized to sum 1; an exact coincidence collapses the row to a one-hot
    selection.
    """
    nf, nc = dist.shape
    nbrs = _nearest(dist, min(3, nc))
    d = np.take_along_axis(dist, nbrs, axis=1)
    hit = d[:, 0] < 1e-12
    d[hit] = 1.0  # these rows become one-hot below; keeps 1/d finite
    w = 1.0 / d
    out = np.zeros((nf, nc), dtype=np.float32)
    out[np.arange(nf)[:, None], nbrs] = (w / w.sum(axis=1, keepdims=True)).astype(np.float32)
    out[hit] = 0.0
    out[hit, nbrs[hit, 0]] = 1.0
    return out


def apply_sampling(op_matrix: np.ndarray, vertices: diffcore.Tensor) -> diffcore.Tensor:
    """Apply a fixed (m, n) resampling matrix to (n, 3) vertex tensors."""
    return diffcore.matmul(
        diffcore.tensor(np.asarray(op_matrix, dtype=vertices.data.dtype)), vertices
    )


def rigid_fit(template: np.ndarray, predicted: np.ndarray) -> RigidPose:
    """Least-squares rigid transform mapping the template onto predictions.

    Classic closed-form solution: subtract centroids, SVD of the 3x3
    cross-covariance, flip the smallest singular direction if the raw
    solution is a reflection. Minimizes sum ||R t_i + T - p_i||^2.
    """
    t = np.asarray(template, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 2 or t.shape[1] != 3:
        raise DimensionError(f"rigid_fit: shapes {t.shape} vs {p.shape}")
    if t.shape[0] < 3:
        raise DegeneracyError(f"rigid_fit: need at least 3 points, got {t.shape[0]}")
    if not np.isfinite(p).all():
        raise DegeneracyError("rigid_fit: predicted points contain non-finite values")
    tc = t.mean(axis=0)
    pc = p.mean(axis=0)
    t0 = t - tc
    sv = np.linalg.svd(t0, compute_uv=False)
    if sv[1] < 1e-9 * max(sv[0], 1e-12):
        raise DegeneracyError("rigid_fit: template points are collinear or coincident")
    h = t0.T @ (p - pc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidPose(rotation=r, translation=pc - r @ tc)


def rotation_geodesic(r1: np.ndarray, r2: np.ndarray) -> float:
    """Angle in radians between two rotations, stable for tiny differences."""
    diff = np.asarray(r1, dtype=np.float64) - np.asarray(r2, dtype=np.float64)
    fro = np.sqrt((diff * diff).sum())
    return float(2.0 * np.arcsin(min(1.0, fro / (2.0 * np.sqrt(2.0)))))


def edge_list(faces: np.ndarray) -> np.ndarray:
    """Unique undirected edges as sorted (min,max) index pairs, shape (E,2)."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(faces, faces[:, [1, 2, 0]]).ravel()
    hi = np.maximum(faces, faces[:, [1, 2, 0]]).ravel()
    # one int64 key per edge sorts in the (min, max) lexicographic order
    n = int(faces.max()) + 1
    keys = np.unique(lo * n + hi)
    return np.stack([keys // n, keys % n], axis=1)


def coarsen_edge_graph(edges: np.ndarray, nearest_coarse: np.ndarray, n: int) -> np.ndarray:
    """Unit-weight (n, n) edge graph among n coarse vertices, induced by the full mesh.

    ``nearest_coarse`` assigns every full vertex to its nearest coarse vertex;
    a full-mesh edge whose endpoints land in different clusters connects those
    two coarse vertices. Row-normalizing the result gives the human-token
    adjacency.
    """
    dense = np.zeros((n, n), dtype=np.float64)
    a = nearest_coarse[edges[:, 0]]
    b = nearest_coarse[edges[:, 1]]
    keep = a != b
    dense[a[keep], b[keep]] = 1.0
    dense[b[keep], a[keep]] = 1.0
    return dense
