"""The reconstruction network.

Pipeline: a small strided conv stack turns the 5-channel input into a feature
grid and four linear heads (body parameters, camera, object rotation, object
translation). The resulting initial meshes are projected, grid-sampled, and
concatenated with their own 3D coordinates into query tokens (joints, coarse
human vertices, object vertices). Three encoder blocks with decreasing widths
refine the tokens; inside every layer, self-attention over all tokens is
followed by token-partitioned sub-blocks: graph residual mixing where enabled
(y = x + gelu(A x W)), a small MLP otherwise. Per-partition linear heads emit
3D coordinates, the coarse human mesh is upsampled twice, and the object pose
is read out by a rigid fit against the template.

Gradients flow through everything except the final rigid fit, which is a
post-hoc readout; the object vertices themselves carry the supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import meshkit, scenegen
from .errors import ConfigError, DimensionError, ParameterError

# graph placement id -> (human, object) graph-block flags per encoder block
ABLATION_VARIANTS = {
    "none": ((False, False, False), (False, False, False)),
    "h": ((True, True, True), (False, False, False)),
    "h+o1": ((True, True, True), (True, False, False)),
    "h+o2": ((True, True, True), (False, True, False)),
    "h+o3": ((True, True, True), (False, False, True)),
    "h+o-all": ((True, True, True), (True, True, True)),
}

KNN_SWEEP = (1, 3, 5, 10, 20)


@dataclass
class EncoderConfig:
    """Widths and structure of the three-block encoder.

    ``graph`` names the graph-block placement, a key of ``ABLATION_VARIANTS``;
    a partition without a graph block in some encoder block gets an MLP there.
    """

    dims: tuple[int, ...] = (128, 64, 32)
    layers_per_block: int = 4
    heads: int = 4
    graph: str = "h+o2"
    feat_channels: int = 128
    mlp_expansion: int = 2

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        # the backbone's first width is feat_channels // 8
        for name, low in (("heads", 1), ("layers_per_block", 1), ("mlp_expansion", 1), ("feat_channels", 8)):
            if getattr(self, name) < low:
                raise ConfigError(f"encoder field {name!r} must be at least {low}, got {getattr(self, name)}")
        decreasing = all(a > b for a, b in zip(self.dims, self.dims[1:]))
        if len(self.dims) != 3 or not decreasing or self.dims[-1] < 1:
            raise ConfigError(f"encoder field 'dims' must be three decreasing positive values, got {self.dims}")
        if any(d % self.heads for d in self.dims):
            raise ConfigError(f"encoder dims {self.dims} must be divisible by {self.heads} heads")
        if self.graph not in ABLATION_VARIANTS:
            raise ConfigError(
                f"encoder field 'graph' must be one of {sorted(ABLATION_VARIANTS)}, got {self.graph!r}"
            )


@dataclass
class InitEstimates:
    """Rough first-stage estimates that seed the query tokens."""

    theta: dc.Tensor            # (P, 1)
    beta: dc.Tensor             # (S, 1)
    cam_scale: dc.Tensor        # (1, 1), positive
    cam_trans: dc.Tensor        # (1, 2)
    axis_angle: dc.Tensor       # (1, 3)
    translation: dc.Tensor      # (1, 3)
    joints: dc.Tensor           # (J, 3)
    mesh_coarse: dc.Tensor      # (V0, 3)
    mesh_full: dc.Tensor        # (V2, 3)
    object_vertices: dc.Tensor  # (64, 3)


@dataclass
class QueryTokens:
    """Token matrix (J+V0+64, C+3); last 3 columns are init coordinates."""

    tokens: dc.Tensor
    boundaries: tuple  # (J, J+V0, J+V0+64)


@dataclass
class Reconstruction:
    """Full network output for one scene."""

    init: InitEstimates
    joints: dc.Tensor          # (J, 3)
    human_coarse: dc.Tensor    # (V0, 3)
    human_mid: dc.Tensor       # (V1, 3)
    human_full: dc.Tensor      # (V2, 3)
    object_vertices: dc.Tensor  # (64, 3)
    pose: meshkit.RigidPose
    template_id: str
    attention: list | None = None  # [block][layer] -> (heads, N, N)


def rodrigues_t(aa: dc.Tensor) -> dc.Tensor:
    """Differentiable axis-angle (1,3) to rotation matrix (3,3)."""
    dtype = aa.data.dtype
    t2 = dc.add(dc.sum_all(dc.mul(aa, aa)), dc.tensor(np.asarray([1e-12], dtype=dtype)))
    theta = dc.sqrt(t2)
    a = dc.div(dc.sin(theta), theta)
    half_sin = dc.sin(dc.scale(theta, 0.5))
    b = dc.div(dc.scale(dc.mul(half_sin, half_sin), 2.0), t2)
    k = dc.skew3(aa)
    k2 = dc.matmul(k, k)
    eye = dc.tensor(np.eye(3, dtype=dtype))
    return dc.add(dc.add(eye, dc.scale_t(k, a)), dc.scale_t(k2, b))


def graph_residual_block(x: dc.Tensor, adjacency: np.ndarray, w_g: dc.Tensor) -> dc.Tensor:
    """Residual graph mixing: y = x + gelu(A x W) for a dense (n, n) adjacency A."""
    n, d = x.data.shape
    if adjacency.shape != (n, n):
        raise DimensionError(f"graph_residual_block: adjacency {adjacency.shape} vs {n} tokens")
    if w_g.data.shape != (d, d):
        raise DimensionError(f"graph_residual_block: weight {w_g.data.shape} vs width {d}")
    adj = dc.tensor(np.asarray(adjacency, dtype=x.data.dtype))
    return dc.add(x, dc.gelu(dc.matmul(dc.matmul(adj, x), w_g)))


# backbone: (out_channels_factor, stride); the final width is feat_channels
_BACKBONE_PLAN = [(8, 2), (4, 2), (2, 2), (1, 1)]
_BACKBONE_STRIDE = 8


class HoiReconstructor:
    """Trainable reconstruction network over a fixed asset bundle."""

    def __init__(self, assets: scenegen.SceneAssets, cfg: EncoderConfig, seed: int = 0):
        self.assets = assets
        self.cfg = cfg
        body = assets.body
        self.num_joints = body.num_joints
        self.v0, self.v1, self.v2 = assets.operators.sizes
        self.num_obj = scenegen.OBJECT_VERTEX_COUNT
        self.num_tokens = self.num_joints + self.v0 + self.num_obj
        self.token_width = cfg.feat_channels + 3
        self.params: dict[str, dc.Tensor] = {}
        self._rng = np.random.default_rng(seed)
        self._build_params()

    # -- parameter construction -------------------------------------------

    def _linear(self, name, fan_in, fan_out, gain=1.0):
        # seeded uniform fan-in scaling; heads use a small gain so initial
        # meshes start near the origin and normalized features drive learning
        bound = gain * np.sqrt(3.0 / fan_in)
        w = self._rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
        self.params[f"{name}.w"] = dc.tensor(w)
        self.params[f"{name}.b"] = dc.tensor(np.zeros(fan_out, dtype=np.float32))

    def _norm(self, name, d):
        self.params[f"{name}.g"] = dc.tensor(np.ones(d, dtype=np.float32))
        self.params[f"{name}.b"] = dc.tensor(np.zeros(d, dtype=np.float32))

    def _mlp(self, name, d):
        hidden = d * self.cfg.mlp_expansion
        self._norm(f"{name}.ln", d)
        self._linear(f"{name}.fc1", d, hidden)
        self._linear(f"{name}.fc2", hidden, d, gain=1.0 / np.sqrt(2.0 * 3 * self.cfg.layers_per_block))

    def _build_params(self):
        cfg = self.cfg
        cin = 5
        for i, (factor, _) in enumerate(_BACKBONE_PLAN):
            cout = cfg.feat_channels // factor
            fan_in = cin * 9
            bound = np.sqrt(6.0 / fan_in)  # He gain for the gelu conv stack
            self.params[f"conv{i}.w"] = dc.tensor(
                self._rng.uniform(-bound, bound, size=(cout, cin, 3, 3)).astype(np.float32)
            )
            self.params[f"conv{i}.b"] = dc.tensor(np.zeros(cout, dtype=np.float32))
            cin = cout
        body = self.assets.body
        self._norm("init.norm", cfg.feat_channels)
        self._linear("init.params", cfg.feat_channels, body.pose_dim + body.shape_dim, gain=0.1)
        self._linear("init.cam", cfg.feat_channels, 3, gain=0.1)
        self._linear("init.rot", cfg.feat_channels, 3, gain=0.1)
        self._linear("init.trans", cfg.feat_channels, 3, gain=0.1)

        hum_graph, obj_graph = ABLATION_VARIANTS[cfg.graph]
        prev = self.token_width
        branch_gain = 1.0 / np.sqrt(2.0 * 3 * cfg.layers_per_block)
        for b, d in enumerate(cfg.dims):
            self._linear(f"block{b}.entry", prev, d)
            for l in range(cfg.layers_per_block):
                base = f"block{b}.layer{l}"
                self._norm(f"{base}.ln1", d)
                for part in ("wq", "wk", "wv"):
                    self._linear(f"{base}.attn.{part}", d, d)
                # residual branch outputs scaled down so the 12-layer stack
                # stays near unit scale and trains quickly from scratch
                self._linear(f"{base}.attn.wo", d, d, gain=branch_gain)
                self._mlp(f"{base}.jnt", d)
                for kind, graph in (("hum", hum_graph[b]), ("obj", obj_graph[b])):
                    if graph:
                        self.params[f"{base}.{kind}.wg"] = dc.tensor(np.zeros((d, d), dtype=np.float32))
                    else:
                        self._mlp(f"{base}.{kind}", d)
            prev = d
        d3 = cfg.dims[-1]
        self._norm("out.norm", d3)
        # initial coordinate spread roughly matches body scale (~0.3 m)
        self._linear("head.jnt", d3, 3, gain=0.3)
        self._linear("head.hum", d3, 3, gain=0.3)
        self._linear("head.obj", d3, 3, gain=0.3)

    def load_state(self, arrays: dict):
        if set(arrays) != set(self.params):
            missing = set(self.params) - set(arrays)
            extra = set(arrays) - set(self.params)
            raise ConfigError(f"parameter mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        for name, arr in arrays.items():
            if tuple(arr.shape) != self.params[name].data.shape:
                raise ConfigError(
                    f"parameter {name}: shape {arr.shape} vs expected {self.params[name].data.shape}"
                )
            self.params[name].data = np.array(arr, dtype=np.float32)

    # -- forward ------------------------------------------------------------

    def _dense(self, name, x):
        return dc.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def init_head(self, channels):
        """Backbone + four linear heads; returns (feature grid, InitEstimates)."""
        arr = np.asarray(channels, dtype=np.float32)
        res = self.assets.config.res
        if arr.shape != (5, res, res):
            raise DimensionError(f"init_head: input {arr.shape}, expected (5, {res}, {res})")
        h = dc.tensor(arr)
        for i, (_, stride) in enumerate(_BACKBONE_PLAN):
            h = dc.gelu(dc.conv2d(h, self.params[f"conv{i}.w"], self.params[f"conv{i}.b"], stride=stride, pad=1))
        grid = h
        pooled = dc.layer_norm(
            dc.global_mean_pool(grid), self.params["init.norm.g"], self.params["init.norm.b"]
        )
        body = self.assets.body
        pdim = body.pose_dim

        pb = self._dense("init.params", pooled)
        theta = dc.transpose(dc.cols(pb, 0, pdim))
        beta = dc.transpose(dc.cols(pb, pdim, pdim + body.shape_dim))

        cam_raw = self._dense("init.cam", pooled)
        cam_scale = dc.add(
            dc.softplus(dc.cols(cam_raw, 0, 1)),
            dc.tensor(np.asarray([[0.25]], dtype=np.float32)),
        )
        cam_trans = dc.cols(cam_raw, 1, 3)

        axis_angle = self._dense("init.rot", pooled)
        translation = self._dense("init.trans", pooled)

        mesh_full, joints = scenegen.body_forward(body, theta, beta)
        mesh_coarse = dc.gather_rows(mesh_full, self.assets.operators.coarse_indices)
        return grid, InitEstimates(
            theta=theta,
            beta=beta,
            cam_scale=cam_scale,
            cam_trans=cam_trans,
            axis_angle=axis_angle,
            translation=translation,
            joints=joints,
            mesh_coarse=mesh_coarse,
            mesh_full=mesh_full,
            object_vertices=None,  # filled by build_queries with the template
        )

    def build_queries(self, grid, init: InitEstimates, template_id: str) -> QueryTokens:
        """Project init meshes, grid-sample features, append coordinates."""
        tmpl = self.assets.objects[template_id].mesh.vertices
        rot = rodrigues_t(init.axis_angle)
        init.object_vertices = dc.linear(dc.tensor(tmpl), dc.transpose(rot), init.translation)
        coords = dc.concat_rows([init.joints, init.mesh_coarse, init.object_vertices])
        pts = scenegen.project_t(coords, init.cam_scale, init.cam_trans)
        feats = dc.grid_sample(grid, pts)
        tokens = dc.concat_cols([feats, coords])
        j = self.num_joints
        return QueryTokens(tokens=tokens, boundaries=(j, j + self.v0, j + self.v0 + self.num_obj))

    def _partition_block(self, x, base, kind, enabled, adjacency):
        if enabled:
            return graph_residual_block(x, adjacency, self.params[f"{base}.{kind}.wg"])
        xn = dc.layer_norm(x, self.params[f"{base}.{kind}.ln.g"], self.params[f"{base}.{kind}.ln.b"])
        hmid = dc.gelu(self._dense(f"{base}.{kind}.fc1", xn))
        return dc.add(x, self._dense(f"{base}.{kind}.fc2", hmid))

    def encoder_block(self, tokens: dc.Tensor, block_index: int, template_id: str,
                      retain_attention: bool = False):
        """One width-reducing block: entry projection plus attention layers."""
        cfg = self.cfg
        d = cfg.dims[block_index]
        expected = self.token_width if block_index == 0 else cfg.dims[block_index - 1]
        if tokens.data.shape != (self.num_tokens, expected):
            raise DimensionError(
                f"encoder_block {block_index}: tokens {tokens.data.shape}, "
                f"expected ({self.num_tokens}, {expected})"
            )
        j0, h1, n = self.num_joints, self.num_joints + self.v0, self.num_tokens
        hum_graph, obj_graph = ABLATION_VARIANTS[cfg.graph]
        hum_adj = self.assets.human_adjacency
        obj_adj = self.assets.objects[template_id].adjacency
        x = self._dense(f"block{block_index}.entry", tokens)
        attn_maps = []
        for l in range(cfg.layers_per_block):
            base = f"block{block_index}.layer{l}"
            xn = dc.layer_norm(x, self.params[f"{base}.ln1.g"], self.params[f"{base}.ln1.b"])
            q = self._dense(f"{base}.attn.wq", xn)
            k = self._dense(f"{base}.attn.wk", xn)
            v = self._dense(f"{base}.attn.wv", xn)
            att, weights = dc.multi_head_attention(q, k, v, cfg.heads, retain=retain_attention)
            x = dc.add(x, self._dense(f"{base}.attn.wo", att))
            if retain_attention:
                attn_maps.append(weights)
            jt = self._partition_block(dc.rows(x, 0, j0), base, "jnt", False, None)
            hm = self._partition_block(dc.rows(x, j0, h1), base, "hum", hum_graph[block_index], hum_adj)
            ob = self._partition_block(dc.rows(x, h1, n), base, "obj", obj_graph[block_index], obj_adj)
            x = dc.concat_rows([jt, hm, ob])
        return x, attn_maps

    def forward(self, channels, template_id: str, retain_attention: bool = False) -> Reconstruction:
        if template_id not in self.assets.objects:
            raise ParameterError(f"unknown template {template_id!r}")
        grid, init = self.init_head(channels)
        queries = self.build_queries(grid, init, template_id)
        x = queries.tokens
        attention = [] if retain_attention else None
        for b in range(3):
            x, maps = self.encoder_block(x, b, template_id, retain_attention)
            if retain_attention:
                attention.append(maps)
        j0, h1, n = queries.boundaries
        x = dc.layer_norm(x, self.params["out.norm.g"], self.params["out.norm.b"])
        joints = self._dense("head.jnt", dc.rows(x, 0, j0))
        human_coarse = self._dense("head.hum", dc.rows(x, j0, h1))
        obj = self._dense("head.obj", dc.rows(x, h1, n))
        ops = self.assets.operators
        human_mid = meshkit.apply_sampling(ops.up01, human_coarse)
        human_full = meshkit.apply_sampling(ops.up12, human_mid)
        tmpl = self.assets.objects[template_id].mesh.vertices
        pose = meshkit.rigid_fit(tmpl.astype(np.float64), obj.data.astype(np.float64))
        return Reconstruction(
            init=init,
            joints=joints,
            human_coarse=human_coarse,
            human_mid=human_mid,
            human_full=human_full,
            object_vertices=obj,
            pose=pose,
            template_id=template_id,
            attention=attention,
        )
