"""Synthetic interaction scenes: parametric toy body, objects, rendering.

The body is a linear blendshape model over a procedurally built multi-part
template (closed ellipsoid parts, ~1.7 m tall): vertices = template +
pose_basis . theta + shape_basis . beta, with joints read off by a fixed
row-stochastic regressor. Objects are 64-vertex templates (box lattice,
chair-like L shape, tube); the model builds their KNN graphs.

A scene sample is a pure function of (seed, template id, config): body
parameters, camera, and object pose are drawn from a seeded generator, the
object is placed so that most scenes have real human-object contact, and the
input tensor is rasterized by splatting projected vertices:

    channel 0  human depth      (0 outside the mask)
    channel 1  object depth
    channel 2  shading proxy over the union of both point sets
    channel 3  human mask
    channel 4  object mask

Dataset layout on disk: ``manifest.json`` (with each record's CRC32) plus one
binary record per sample, little-endian float32 blocks in the order of
``RECORD_BLOCKS``, with the float counts of ``_record_sizes``. A record holds
the body's parameters, not its mesh. ``sample_scene`` builds that record and
``load_sample`` reads it back; both hand it to ``_sample_from_record``, so a
fresh scene equals its loaded record field for field.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import diffcore, kernels, meshkit
from .errors import ConfigError, DataError, ParameterError, config_from_dict, config_to_dict

MASK64 = (1 << 64) - 1


def mix_seed(seed: int, index: int) -> int:
    """Derive a per-sample seed: splitmix64 finalizer over seed and index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


# ---------------------------------------------------------------------------
# body template
# ---------------------------------------------------------------------------

# (center, radii, latitude rows, longitude columns); vertex counts per part
# are nu*nv + 2, chosen to total exactly 1536.
DEFAULT_BODY_PARTS = [
    {"name": "head", "center": [0.0, 0.70, 0.0], "radii": [0.11, 0.13, 0.11], "nu": 12, "nv": 10},
    {"name": "torso", "center": [0.0, 0.30, 0.0], "radii": [0.17, 0.31, 0.11], "nu": 20, "nv": 16},
    {"name": "arm_l", "center": [-0.26, 0.24, 0.0], "radii": [0.05, 0.34, 0.05], "nu": 16, "nv": 8},
    {"name": "arm_r", "center": [0.26, 0.24, 0.0], "radii": [0.05, 0.34, 0.05], "nu": 16, "nv": 8},
    {"name": "leg_l", "center": [-0.09, -0.44, 0.0], "radii": [0.075, 0.43, 0.075], "nu": 18, "nv": 23},
    {"name": "leg_r", "center": [0.09, -0.44, 0.0], "radii": [0.075, 0.43, 0.075], "nu": 18, "nv": 23},
]

MINI_BODY_PARTS = [
    {"name": "head", "center": [0.0, 0.70, 0.0], "radii": [0.11, 0.13, 0.11], "nu": 3, "nv": 4},
    {"name": "torso", "center": [0.0, 0.30, 0.0], "radii": [0.17, 0.31, 0.11], "nu": 4, "nv": 6},
    {"name": "leg_l", "center": [-0.09, -0.44, 0.0], "radii": [0.075, 0.43, 0.075], "nu": 3, "nv": 4},
    {"name": "leg_r", "center": [0.09, -0.44, 0.0], "radii": [0.075, 0.43, 0.075], "nu": 3, "nv": 4},
]

BODY_PARTS = {"default": DEFAULT_BODY_PARTS, "mini": MINI_BODY_PARTS}

JOINT_ANCHORS = [
    ("head", [0.0, 0.72, 0.0]),
    ("neck", [0.0, 0.56, 0.0]),
    ("chest", [0.0, 0.40, 0.0]),
    ("pelvis", [0.0, 0.02, 0.0]),
    ("shoulder_l", [-0.26, 0.50, 0.0]),
    ("shoulder_r", [0.26, 0.50, 0.0]),
    ("hand_l", [-0.26, -0.06, 0.0]),
    ("hand_r", [0.26, -0.06, 0.0]),
    ("knee_l", [-0.09, -0.44, 0.0]),
    ("knee_r", [0.09, -0.44, 0.0]),
    ("foot_l", [-0.09, -0.84, 0.0]),
    ("foot_r", [0.09, -0.84, 0.0]),
]


def _ellipsoid(center, radii, nu, nv, base_index):
    """Closed UV-sphere ellipsoid: nu*nv + 2 vertices, 2*nu*nv faces.

    Vertex 0 is the top pole, then nu latitude rings of nv vertices, then the
    bottom pole. The sines and cosines are taken per ring and per column with
    ``math``, so the template does not depend on numpy's vectorized trig.
    """
    cx, cy, cz = center
    rx, ry, rz = radii
    phi = [math.pi * i / (nu + 1) for i in range(1, nu + 1)]
    th = [2.0 * math.pi * j / nv for j in range(nv)]
    sp = np.array([math.sin(p) for p in phi])[:, None]
    cp = np.array([math.cos(p) for p in phi])[:, None]
    ct = np.array([math.cos(t) for t in th])
    st = np.array([math.sin(t) for t in th])
    rings = np.stack(np.broadcast_arrays(cx + rx * sp * ct, cy + ry * cp, cz + rz * sp * st), axis=-1)
    verts = np.concatenate([[[cx, cy + ry, cz]], rings.reshape(-1, 3), [[cx, cy - ry, cz]]])

    ring = 1 + nv * np.arange(nu)[:, None] + np.arange(nv)  # (nu, nv) vertex indices
    nxt = np.roll(ring, -1, axis=1)  # the next vertex along each ring
    a, b, c, d = ring[:-1], nxt[:-1], ring[1:], nxt[1:]
    faces = np.concatenate([
        np.stack([np.full(nv, 0), nxt[0], ring[0]], axis=1),
        np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3),
        np.stack([np.full(nv, nu * nv + 1), ring[-1], nxt[-1]], axis=1),
    ])
    return verts, faces.astype(np.int64) + base_index


def build_body_template(parts=None) -> meshkit.Mesh:
    """Assemble the multi-part body template mesh."""
    parts = parts if parts is not None else DEFAULT_BODY_PARTS
    all_v, all_f = [], []
    offset = 0
    for p in parts:
        v, f = _ellipsoid(p["center"], p["radii"], p["nu"], p["nv"], offset)
        all_v.append(v)
        all_f.append(f)
        offset += len(v)
    return meshkit.Mesh(vertices=np.concatenate(all_v), faces=np.concatenate(all_f))


@dataclass
class ToyBodyModel:
    """Linear parametric body: template, pose/shape bases, joint regressor."""

    template: np.ndarray          # (V2, 3)
    faces: np.ndarray             # (F, 3)
    pose_basis: np.ndarray        # (V2, 3, P)
    shape_basis: np.ndarray       # (V2, 3, S)
    joint_regressor: np.ndarray   # (J, V2), rows sum to 1
    seed: int

    @property
    def num_vertices(self):
        return self.template.shape[0]

    @property
    def pose_dim(self):
        return self.pose_basis.shape[2]

    @property
    def shape_dim(self):
        return self.shape_basis.shape[2]

    @property
    def num_joints(self):
        return self.joint_regressor.shape[0]

    @property
    def rest_joints(self):
        return self.joint_regressor @ self.template

    def basis_flat(self):
        v2 = self.num_vertices
        return (
            self.template.reshape(v2 * 3, 1),
            self.pose_basis.reshape(v2 * 3, self.pose_dim),
            self.shape_basis.reshape(v2 * 3, self.shape_dim),
        )


def _smooth_basis(verts, dim, amp, rng):
    """Smooth deterministic displacement fields, one per parameter."""
    v2 = verts.shape[0]
    basis = np.zeros((v2, 3, dim), dtype=np.float64)
    for p in range(dim):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        freq = rng.uniform(1.5, 4.5, size=3)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        profile = np.sin(verts @ freq + phase)
        basis[:, :, p] = amp * profile[:, None] * direction[None, :]
    return basis


def build_toy_body(seed: int, parts=None, pose_dim: int = 24, shape_dim: int = 4,
                   pose_amp: float = 0.05, shape_amp: float = 0.05) -> ToyBodyModel:
    """Deterministically derive the full body model from a seed."""
    mesh = build_body_template(parts)
    verts = mesh.vertices.astype(np.float64)
    rng = np.random.default_rng(seed)
    pose_basis = _smooth_basis(verts, pose_dim, pose_amp, rng)
    shape_basis = _smooth_basis(verts, shape_dim, shape_amp, rng)

    anchors = np.asarray([a for _, a in JOINT_ANCHORS], dtype=np.float64)
    d2 = ((verts[None, :, :] - anchors[:, None, :]) ** 2).sum(axis=2)
    logits = -d2 / (2.0 * 0.06**2)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    regressor = w / w.sum(axis=1, keepdims=True)

    return ToyBodyModel(
        template=verts.astype(np.float32),
        faces=mesh.faces,
        pose_basis=pose_basis.astype(np.float32),
        shape_basis=shape_basis.astype(np.float32),
        joint_regressor=regressor.astype(np.float32),
        seed=seed,
    )


def body_forward(model: ToyBodyModel, theta, beta):
    """Evaluate the body: (vertices V2x3, joints Jx3), linear in (theta, beta).

    Accepts numpy arrays or diffcore tensors; tensor inputs must be column
    vectors (P,1)/(S,1) and yield a differentiable graph.
    """
    tmpl_flat, bp_flat, bs_flat = model.basis_flat()
    if isinstance(theta, diffcore.Tensor):
        dtype = theta.data.dtype
        base = diffcore.tensor(tmpl_flat.astype(dtype))
        vflat = diffcore.add(
            diffcore.add(base, diffcore.matmul(diffcore.tensor(bp_flat.astype(dtype)), theta)),
            diffcore.matmul(diffcore.tensor(bs_flat.astype(dtype)), beta),
        )
        verts = diffcore.reshape(vflat, (model.num_vertices, 3))
        joints = diffcore.matmul(diffcore.tensor(model.joint_regressor.astype(dtype)), verts)
        return verts, joints
    theta = np.asarray(theta, dtype=np.float32).reshape(-1, 1)
    beta = np.asarray(beta, dtype=np.float32).reshape(-1, 1)
    vflat = tmpl_flat + bp_flat @ theta + bs_flat @ beta
    verts = vflat.reshape(model.num_vertices, 3)
    return verts, model.joint_regressor @ verts


def rodrigues(aa: np.ndarray) -> np.ndarray:
    """Axis-angle (3,) to rotation matrix, stable near zero angle."""
    aa = np.asarray(aa, dtype=np.float64).reshape(3)
    t2 = float(aa @ aa) + 1e-12
    theta = math.sqrt(t2)
    k = np.array(
        [[0.0, -aa[2], aa[1]], [aa[2], 0.0, -aa[0]], [-aa[1], aa[0], 0.0]]
    )
    a = math.sin(theta) / theta
    b = 2.0 * math.sin(0.5 * theta) ** 2 / t2
    return np.eye(3) + a * k + b * (k @ k)


# ---------------------------------------------------------------------------
# object templates
# ---------------------------------------------------------------------------

@dataclass
class ObjectTemplate:
    """A 64-vertex object mesh (vertices only)."""

    template_id: str
    mesh: meshkit.Mesh

    def __post_init__(self):
        if len(self.mesh.vertices) != OBJECT_VERTEX_COUNT:
            raise ParameterError(
                f"object template {self.template_id!r}: expected "
                f"{OBJECT_VERTEX_COUNT} vertices, got {len(self.mesh.vertices)}"
            )


OBJECT_VERTEX_COUNT = 64


def _box_points():
    # full 4x4x4 lattice of a rectangular box, symmetric under 180 degree flips
    xs = np.linspace(-0.15, 0.15, 4)
    ys = np.linspace(-0.10, 0.10, 4)
    zs = np.linspace(-0.20, 0.20, 4)
    pts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    return pts


def _chair_points():
    g = np.linspace(-0.2, 0.2, 4)
    seat = np.array([[x, 0.0, z] for x in g for z in g])
    back = np.array([[x, 0.05 + 0.4 * i / 3.0, -0.2] for x in g for i in range(4)])
    legs = []
    for sx in (-0.18, 0.18):
        for sz in (-0.18, 0.18):
            for y in np.linspace(-0.40, -0.05, 8):
                legs.append([sx, y, sz])
    pts = np.concatenate([seat, back, np.asarray(legs)], axis=0)
    return pts - pts.mean(axis=0, keepdims=True)


def _tube_points():
    pts = []
    for y in np.linspace(-0.25, 0.25, 8):
        for j in range(8):
            th = 2.0 * math.pi * j / 8.0
            pts.append([0.06 * math.cos(th), y, 0.06 * math.sin(th)])
    return np.asarray(pts)


_OBJECT_BUILDERS = {"box": _box_points, "chair": _chair_points, "tube": _tube_points}


def list_object_templates():
    return sorted(_OBJECT_BUILDERS)


def build_object_template(template_id: str) -> ObjectTemplate:
    if template_id not in _OBJECT_BUILDERS:
        raise ParameterError(
            f"unknown object template {template_id!r}; available: {list_object_templates()}"
        )
    pts = _OBJECT_BUILDERS[template_id]().astype(np.float32)
    mesh = meshkit.Mesh(vertices=pts, faces=np.empty((0, 3), dtype=np.int64))
    return ObjectTemplate(template_id=template_id, mesh=mesh)


# ---------------------------------------------------------------------------
# camera and rasterization
# ---------------------------------------------------------------------------

@dataclass
class Camera:
    """Weak-perspective camera: (x, y) = s * (X, Y) + t in [-1, 1] coords."""

    scale: float
    translation: np.ndarray

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float32).reshape(2)
        if self.scale <= 0:
            raise ParameterError(f"camera scale must be positive, got {self.scale}")


def project(points, cam: Camera):
    """Weak-perspective projection of (n,3) points to (n,2) image coords."""
    points = np.asarray(points)
    return points[:, :2] * cam.scale + cam.translation[None, :]


def project_t(points: diffcore.Tensor, s: diffcore.Tensor, t: diffcore.Tensor) -> diffcore.Tensor:
    """Differentiable projection (tensors for points, scale, translation)."""
    xy = diffcore.cols(points, 0, 2)
    return diffcore.add_bias(diffcore.scale_t(xy, s), t)


def _to_pixels(ndc, res):
    return (ndc + 1.0) * 0.5 * (res - 1)


def render_channels(human_points, object_points, cam: Camera, height: int, width: int):
    """Rasterize the 5-channel input tensor by splatting projected vertices."""
    chans = np.zeros((5, height, width), dtype=np.float32)
    sets = []
    for pts in (human_points, object_points):
        if pts is None or len(pts) == 0:
            sets.append(None)
            continue
        pts = np.asarray(pts, dtype=np.float64)
        ndc = project(pts, cam)
        px = _to_pixels(ndc[:, 0], width)
        py = _to_pixels(ndc[:, 1], height)
        sets.append((px, py, pts[:, 2].copy()))

    zs = np.concatenate([s[2] for s in sets if s is not None]) if any(s is not None for s in sets) else None
    if zs is None:
        return chans
    zmin = float(zs.min())
    zspan = float(zs.max()) - zmin + 1e-9

    for idx, s in enumerate(sets):
        if s is None:
            continue
        mask, depth = kernels.splat(s[0], s[1], s[2], height, width)
        dn = np.where(mask > 0, 0.1 + 0.9 * (depth - zmin) / zspan, 0.0)
        chans[idx] = dn.astype(np.float32)
        chans[3 + idx] = mask.astype(np.float32)

    allpx = np.concatenate([s[0] for s in sets if s is not None])
    allpy = np.concatenate([s[1] for s in sets if s is not None])
    allz = np.concatenate([s[2] for s in sets if s is not None])
    umask, udepth = kernels.splat(allpx, allpy, allz, height, width)
    xg, yg = np.meshgrid(np.arange(width), np.arange(height))
    shade = 0.5 + 0.5 * np.sin(40.0 * np.where(umask > 0, udepth, 0.0) + 0.3 * xg + 0.7 * yg)
    chans[2] = (shade * umask).astype(np.float32)
    return chans


def contact_map_gt(human_vertices, object_vertices, threshold: float = 0.05):
    """Boolean per-human-vertex flag: within ``threshold`` meters of the object."""
    if threshold <= 0:
        raise ParameterError(f"contact threshold must be positive, got {threshold}")
    h = np.ascontiguousarray(human_vertices, dtype=np.float64)
    o = np.ascontiguousarray(object_vertices, dtype=np.float64)
    return kernels.min_distances(h, o, _bound(threshold)) <= threshold


def _bound(threshold):
    """A KD-tree search bound just above ``threshold``: every distance at or
    below it is found, bit-equal to an unbounded search, and any farther one
    reads inf."""
    return threshold * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# scene sampling
# ---------------------------------------------------------------------------

@dataclass
class SceneConfig:
    """Everything a dataset needs to be regenerated bit-identically."""

    res: int = 64
    v0: int = 96
    v1: int = 384
    body_seed: int = 11
    pose_dim: int = 24
    shape_dim: int = 4
    param_range: float = 1.2
    contact_prob: float = 0.8
    contact_threshold: float = 0.05
    templates: tuple[str, ...] = ("box", "chair", "tube")
    body_parts: str = "default"

    def __post_init__(self):
        def need(ok, field, rule):
            if not ok:
                raise ConfigError(f"scene config field {field!r} must be {rule}, got {getattr(self, field)!r}")

        for name in ("res", "pose_dim", "shape_dim"):
            need(getattr(self, name) >= 1, name, "at least 1")
        need(self.body_seed >= 0, "body_seed", "non-negative")
        need(self.body_parts in BODY_PARTS, "body_parts", f"one of {sorted(BODY_PARTS)}")
        need(0 < self.v0 < self.v1, "v0", f"in (0, v1={self.v1})")
        v2 = sum(p["nu"] * p["nv"] + 2 for p in BODY_PARTS[self.body_parts])
        need(self.v1 < v2, "v1", f"below the {v2} vertices of the {self.body_parts} body")
        need(len(self.templates) > 0 and set(self.templates) <= set(_OBJECT_BUILDERS), "templates",
             f"a non-empty list of {list_object_templates()}")
        need(self.param_range > 0, "param_range", "positive")
        need(self.contact_threshold > 0, "contact_threshold", "positive")
        need(0.0 <= self.contact_prob <= 1.0, "contact_prob", "in [0, 1]")


@dataclass
class SceneAssets:
    """Shared fixed structures derived from a SceneConfig."""

    config: SceneConfig
    body: ToyBodyModel
    operators: meshkit.SamplingOperators
    human_adjacency: np.ndarray      # (V0, V0) row-normalized, dense
    objects: dict                    # template id -> ObjectTemplate
    full_edges: np.ndarray           # (E, 2) edges of the full body template


def build_assets(config: SceneConfig) -> SceneAssets:
    body = build_toy_body(
        config.body_seed, parts=BODY_PARTS[config.body_parts], pose_dim=config.pose_dim,
        shape_dim=config.shape_dim,
    )
    ops = meshkit.build_sampling_operators(
        meshkit.Mesh(vertices=body.template, faces=body.faces),
        config.v0,
        config.v1,
        seed=config.body_seed,
    )
    edges = meshkit.edge_list(body.faces)
    coarse_adj = meshkit.coarsen_edge_graph(edges, ops.nearest_coarse, config.v0)
    human_adj = meshkit.normalize_adjacency(coarse_adj).astype(np.float32)
    objects = {tid: build_object_template(tid) for tid in config.templates}
    return SceneAssets(
        config=config,
        body=body,
        operators=ops,
        human_adjacency=human_adj,
        objects=objects,
        full_edges=edges,
    )


@dataclass
class SceneSample:
    """One synthetic scene with all ground-truth targets."""

    channels: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    gt_mesh_full: np.ndarray
    gt_mesh_mid: np.ndarray
    gt_mesh_coarse: np.ndarray
    gt_joints: np.ndarray
    gt_joints_2d: np.ndarray
    gt_rotation: np.ndarray
    gt_axis_angle: np.ndarray
    gt_translation: np.ndarray
    gt_object_vertices: np.ndarray
    camera: Camera
    contact: np.ndarray
    template_id: str
    seed: int
    record: np.ndarray  # the float32 record the array fields above are split from


# The blocks of a scene record, in file order; all but the camera (s, tx, ty)
# are the SceneSample fields of the same name.
RECORD_BLOCKS = ("channels", "theta", "beta", "gt_rotation", "gt_axis_angle", "gt_translation", "camera",
                 "contact")


def _record_sizes(assets: SceneAssets):
    """The float count of each block in ``RECORD_BLOCKS``."""
    cfg = assets.config
    return [5 * cfg.res * cfg.res, cfg.pose_dim, cfg.shape_dim, 9, 3, 3, 3, assets.body.num_vertices]


def _sample_from_record(raw: np.ndarray, template_id: str, seed: int, assets: SceneAssets) -> SceneSample:
    """Split a float32 record into a SceneSample and derive the remaining targets."""
    res = assets.config.res
    b = dict(zip(RECORD_BLOCKS, np.split(raw, np.cumsum(_record_sizes(assets))[:-1])))
    mesh_full, joints = body_forward(assets.body, b["theta"], b["beta"])
    rot = b["gt_rotation"].reshape(3, 3)
    trans = b["gt_translation"]
    cam = Camera(scale=float(b["camera"][0]), translation=b["camera"][1:])
    posed = assets.objects[template_id].mesh.vertices.astype(np.float64) @ rot.astype(np.float64).T + trans
    ops = assets.operators
    return SceneSample(
        channels=b["channels"].reshape(5, res, res),
        theta=b["theta"],
        beta=b["beta"],
        gt_mesh_full=mesh_full,
        gt_mesh_mid=mesh_full[ops.mid_indices],
        gt_mesh_coarse=mesh_full[ops.coarse_indices],
        gt_joints=joints,
        gt_joints_2d=project(joints, cam).astype(np.float32),
        gt_rotation=rot,
        gt_axis_angle=b["gt_axis_angle"],
        gt_translation=trans,
        gt_object_vertices=posed.astype(np.float32),
        camera=cam,
        contact=b["contact"] > 0.5,
        template_id=template_id,
        seed=seed,
        record=raw,
    )


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def sample_scene(seed: int, template_id: str, assets: SceneAssets) -> SceneSample:
    """Draw one deterministic scene for (seed, template id, config)."""
    cfg = assets.config
    if template_id not in assets.objects:
        raise ParameterError(f"template {template_id!r} not in assets: {sorted(assets.objects)}")
    obj = assets.objects[template_id]
    tmpl = obj.mesh.vertices.astype(np.float64)
    rng = np.random.default_rng(np.random.PCG64(seed))

    theta = rng.uniform(-cfg.param_range, cfg.param_range, size=cfg.pose_dim).astype(np.float32)
    beta = rng.uniform(-cfg.param_range, cfg.param_range, size=cfg.shape_dim).astype(np.float32)
    mesh_full, joints = body_forward(assets.body, theta, beta)
    mesh64 = mesh_full.astype(np.float64)

    cam = Camera(scale=float(rng.uniform(0.5, 0.8)), translation=rng.uniform(-0.1, 0.1, size=2))

    axis = _random_unit(rng)
    angle = float(rng.uniform(0.0, 0.75 * math.pi))
    aa = (axis * angle).astype(np.float64)
    rot = rodrigues(aa)
    rotated = tmpl @ rot.T

    want_contact = bool(rng.random() < cfg.contact_prob)
    trans = None
    if want_contact:
        h_idx = int(rng.integers(0, assets.body.num_vertices))
        o_idx = int(rng.integers(0, len(tmpl)))
        offset = float(rng.uniform(0.005, 0.02)) * _random_unit(rng)
        trans = mesh64[h_idx] + offset - rot @ tmpl[o_idx]
    else:
        # One tree over the posed body serves every try. The gap is the least
        # body-object pair distance, the same bits from either side; past the
        # bound it reads inf, which still clears the threshold.
        target = cfg.contact_threshold * 3.0
        body_tree, bound = kernels.NearestTree(mesh64), _bound(cfg.contact_threshold)
        direction = gap = None
        for _ in range(50):
            direction = _random_unit(rng)
            anchor = mesh64[int(rng.integers(0, assets.body.num_vertices))]
            trans = anchor + float(rng.uniform(target, 0.45)) * direction
            gap = float(body_tree.distances(rotated + trans, bound).min())
            if gap > cfg.contact_threshold:
                break
        else:
            # nearest-offset snap: push the object out along the last direction, doubling each push,
            # until it clears the threshold; a fixed push can be absorbed by a far-off translation
            push = target - gap
            while gap <= cfg.contact_threshold:
                trans = trans + push * direction
                gap = float(body_tree.distances(rotated + trans, bound).min())
                push *= 2.0

    posed = rotated + trans
    contact = contact_map_gt(mesh64, posed, cfg.contact_threshold)
    channels = render_channels(mesh64, posed, cam, cfg.res, cfg.res)
    blocks = {"channels": channels, "theta": theta, "beta": beta, "gt_rotation": rot, "gt_axis_angle": aa,
              "gt_translation": trans, "camera": [cam.scale, *cam.translation], "contact": contact}
    record = np.concatenate([np.ravel(blocks[name]) for name in RECORD_BLOCKS], dtype="<f4")
    return _sample_from_record(record, template_id, seed, assets)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "hoitg-dataset-v2"


def _record_name(i):
    return f"sample_{i:05d}.bin"


def generate_dataset(out_dir, num: int, seed: int, config: SceneConfig, assets: SceneAssets | None = None):
    """Write ``num`` scenes to ``out_dir``; returns the manifest dict.

    Sample i uses seed mix_seed(seed, i) and cycles through the configured
    template ids, so any sample can be regenerated in isolation. A negative
    ``num`` or ``seed`` raises ``ParameterError``, naming the argument.
    """
    for name, value in (("num", num), ("seed", seed)):
        if value < 0:
            raise ParameterError(f"generate_dataset: argument {name!r} must be non-negative, got {value}")
    assets = assets if assets is not None else build_assets(config)
    os.makedirs(out_dir, exist_ok=True)
    templates = list(config.templates)
    sample_templates = [templates[i % len(templates)] for i in range(num)]
    sample_seeds = [mix_seed(seed, i) for i in range(num)]
    manifest = {
        "format": DATASET_FORMAT,
        "num": num,
        "seed": seed,
        "sample_templates": sample_templates,
        "sample_seeds": sample_seeds,
        "sample_crc32": [],
        "config": config_to_dict(config),
    }
    contact_scenes = 0
    masks_consistent = 0
    for i in range(num):
        sample = sample_scene(sample_seeds[i], sample_templates[i], assets)
        if sample.contact.any():
            contact_scenes += 1
            if _masks_touch(sample.channels[3], sample.channels[4]):
                masks_consistent += 1
        sample.record.tofile(os.path.join(out_dir, _record_name(i)))
        manifest["sample_crc32"].append(zlib.crc32(sample.record))
    # sanity statistic, recorded rather than enforced: scenes with contact
    # should nearly always show touching or adjacent human/object masks
    manifest["contact_mask_consistency"] = (
        masks_consistent / contact_scenes if contact_scenes else None
    )
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest


def _masks_touch(human_mask, object_mask):
    """True when the object mask overlaps the 1-px dilated human mask."""
    dil = human_mask.copy()
    dil[1:] = np.maximum(dil[1:], human_mask[:-1])
    dil[:-1] = np.maximum(dil[:-1], human_mask[1:])
    dil[:, 1:] = np.maximum(dil[:, 1:], dil[:, :-1])
    dil[:, :-1] = np.maximum(dil[:, :-1], dil[:, 1:])
    return bool((dil * object_mask).any())


def _read_manifest(data_dir):
    """Read and check ``manifest.json``; returns (manifest, scene config)."""
    path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path} must hold a JSON object, got {type(manifest).__name__}")

    def need(ok, field, rule, got):
        if not ok:
            raise DataError(f"{path}: field {field!r} must be {rule}, got {got!r}")

    need(manifest.get("format") == DATASET_FORMAT, "format", repr(DATASET_FORMAT), manifest.get("format"))
    num = manifest.get("num")
    need(type(num) is int and num >= 0, "num", "a non-negative int", num)
    for field in ("sample_templates", "sample_seeds", "sample_crc32"):
        entries = manifest.get(field)
        need(isinstance(entries, list) and len(entries) == num, field, f"a list of {num} entries",
             len(entries) if isinstance(entries, list) else entries)
    try:
        config = config_from_dict(SceneConfig, manifest.get("config"), "scene config")
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    bad = [t for t in manifest["sample_templates"] if t not in config.templates]
    need(not bad, "sample_templates", f"ids from {list(config.templates)}", bad[:1])
    bad = [x for x in manifest["sample_seeds"] if type(x) is not int or not 0 <= x <= MASK64]
    need(not bad, "sample_seeds", "seeds in [0, 2**64)", bad[:1])
    bad = [x for x in manifest["sample_crc32"] if type(x) is not int or not 0 <= x < 2**32]
    need(not bad, "sample_crc32", "CRC32s in [0, 2**32)", bad[:1])
    return manifest, config


def load_manifest(data_dir):
    """The checked ``manifest.json`` of a dataset directory."""
    return _read_manifest(data_dir)[0]


def _block_at(sizes, index):
    """The name of the record block holding float ``index``."""
    return RECORD_BLOCKS[int(np.searchsorted(np.cumsum(sizes), index, side="right"))]


def load_sample(data_dir, index: int, manifest: dict, assets: SceneAssets) -> SceneSample:
    """Read record ``index``, check its size, floats, rotation (and its axis-angle),
    flags, masks, image channels 0-2 and body parameters, split it into a
    SceneSample, and check its CRC32 against the manifest's."""
    path = os.path.join(data_dir, _record_name(index))
    if not os.path.exists(path):
        raise DataError(f"missing record {path}")
    sizes = _record_sizes(assets)
    size, want = os.path.getsize(path), 4 * sum(sizes)
    if size != want:
        where = f"cut short in block {_block_at(sizes, size // 4)!r}" if size < want else "too long"
        raise DataError(f"record {path}: expected {want} bytes, got {size}: {where}")
    raw = np.fromfile(path, dtype="<f4")
    finite = np.isfinite(raw)
    if not finite.all():
        raise DataError(f"record {path}: non-finite value in block {_block_at(sizes, np.argmin(finite))!r}")
    b = dict(zip(RECORD_BLOCKS, np.split(raw, np.cumsum(sizes)[:-1])))
    rot = b["gt_rotation"].reshape(3, 3).astype(np.float64)  # float64 squares of float32 cannot overflow
    if not (np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-4 and abs(np.linalg.det(rot) - 1.0) <= 1e-4):
        raise DataError(f"record {path}: block 'gt_rotation' is not a rotation (orthonormal, det +1)")
    if not np.abs(rodrigues(b["gt_axis_angle"]) - rot).max() <= 1e-4:
        raise DataError(f"record {path}: block 'gt_axis_angle' does not give the stored 'gt_rotation'")
    chans = b["channels"].reshape(5, -1)
    for name, flags, what in (("contact", b["contact"], "contact flag"),
                              ("channels", chans[3:], "mask value (channels 3-4)")):
        if not np.isin(flags, (0.0, 1.0)).all():
            raise DataError(f"record {path}: block {name!r} holds a {what} that is not 0 or 1")
    if not (chans[:3].min() >= 0.0 and chans[:3].max() <= 1.0):
        raise DataError(f"record {path}: block 'channels' holds a depth or shading value (channels 0-2) "
                        f"outside [0, 1]")
    limit = np.float32(assets.config.param_range)  # the generator's float32 draws from (-p, p) stay within
    for name in ("theta", "beta"):
        if not np.abs(b[name]).max() <= limit:
            raise DataError(f"record {path}: block {name!r} holds a value outside +-'param_range' ({limit})")
    try:
        sample = _sample_from_record(raw, manifest["sample_templates"][index], manifest["sample_seeds"][index],
                                     assets)
    except ParameterError as exc:
        raise DataError(f"record {path}: {exc}") from exc
    # last, so that each check above names the block it rejects
    if zlib.crc32(raw) != manifest["sample_crc32"][index]:
        raise DataError(f"record {path}: CRC32 is not the manifest's 'sample_crc32' entry {index}")
    return sample


def load_dataset(data_dir):
    """Returns (manifest, assets, loader) where loader(i) -> SceneSample."""
    manifest, config = _read_manifest(data_dir)
    assets = build_assets(config)

    def loader(i):
        return load_sample(data_dir, i, manifest, assets)

    return manifest, assets, loader
