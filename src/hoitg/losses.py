"""Training objective: human terms, object terms, and the weighted total.

Reduction convention, used by every term: mean absolute difference over all
elements of the compared blocks (vertices x coordinates, parameters, edge
lengths). Parameter losses are the sum of two per-group means (pose + shape
for the human, rotation + translation for the object) so each group
contributes its own mean.

2D joint supervision compares predictions projected with the *predicted*
camera against ground-truth joints projected with the *ground-truth* camera,
so camera error shows up in the 2D terms even when 3D joints are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import diffcore as dc
from . import scenegen
from .errors import ConfigError, DimensionError, config_to_dict

TERM_NAMES = (
    "ms_vertex",
    "human_param",
    "joint_init_3d",
    "joint_init_2d",
    "joint_refined_3d",
    "joint_refined_2d",
    "edge",
    "object_vertex",
    "object_param",
)


@dataclass
class LossWeights:
    """One non-negative weight per loss term; all default to 1."""

    ms_vertex: float = 1.0
    human_param: float = 1.0
    joint_init_3d: float = 1.0
    joint_init_2d: float = 1.0
    joint_refined_3d: float = 1.0
    joint_refined_2d: float = 1.0
    edge: float = 1.0
    object_vertex: float = 1.0
    object_param: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"loss weight {f.name} must be non-negative")


@dataclass
class LossReport:
    """Itemized per-term values plus the weighted total."""

    terms: dict
    weights: dict
    total: float


def _as_tensor(x, like=None):
    if isinstance(x, dc.Tensor):
        return x
    dtype = like.data.dtype if isinstance(like, dc.Tensor) else np.float32
    return dc.tensor(np.asarray(x, dtype=dtype))


def l1_mean(pred: dc.Tensor, target) -> dc.Tensor:
    """Mean absolute difference over all elements."""
    target = _as_tensor(target, like=pred)
    if pred.data.shape != target.data.shape:
        raise DimensionError(f"l1_mean: {pred.data.shape} vs {target.data.shape}")
    return dc.mean_all(dc.absolute(dc.sub(pred, target)))


def multiscale_vertex_loss(pred_scales, gt_scales) -> dc.Tensor:
    """Sum over the three mesh scales of the per-element L1 mean."""
    if len(pred_scales) != len(gt_scales):
        raise DimensionError("multiscale_vertex_loss: scale count mismatch")
    total = None
    for p, g in zip(pred_scales, gt_scales):
        term = l1_mean(p, g)
        total = term if total is None else dc.add(total, term)
    return total


def joint_loss(init_3d, init_2d, refined_3d, refined_2d, gt_3d, gt_2d) -> dict:
    """Four streams of mean-L1 joint error (init/refined x 3D/2D)."""
    return {
        "joint_init_3d": l1_mean(init_3d, gt_3d),
        "joint_init_2d": l1_mean(init_2d, gt_2d),
        "joint_refined_3d": l1_mean(refined_3d, gt_3d),
        "joint_refined_2d": l1_mean(refined_2d, gt_2d),
    }


def edge_loss(pred_full: dc.Tensor, gt_full, edges) -> dc.Tensor:
    """Mean absolute difference of edge lengths on the full-scale mesh."""
    edges = np.asarray(edges, dtype=np.int64)
    nv = pred_full.data.shape[0]
    if edges.size and edges.max() >= nv:
        raise DimensionError(f"edge_loss: edge index {edges.max()} out of range for {nv} vertices")
    gt_full = np.asarray(gt_full, dtype=np.float64)
    gt_len = np.linalg.norm(gt_full[edges[:, 0]] - gt_full[edges[:, 1]], axis=1)[:, None]
    diff = dc.sub(dc.gather_rows(pred_full, edges[:, 0]), dc.gather_rows(pred_full, edges[:, 1]))
    pred_len = dc.row_norms(diff)
    return l1_mean(pred_len, gt_len.astype(pred_full.data.dtype))


def param_losses(theta_hat, beta_hat, theta_gt, beta_gt,
                 aa_hat, trans_hat, aa_gt, trans_gt) -> dict:
    """Per-group parameter means: human (pose + shape), object (rot + trans)."""
    human = dc.add(l1_mean(theta_hat, np.reshape(theta_gt, theta_hat.data.shape)),
                   l1_mean(beta_hat, np.reshape(beta_gt, beta_hat.data.shape)))
    obj = dc.add(l1_mean(aa_hat, np.reshape(aa_gt, aa_hat.data.shape)),
                 l1_mean(trans_hat, np.reshape(trans_gt, trans_hat.data.shape)))
    return {"human_param": human, "object_param": obj}


def object_vertex_loss(pred: dc.Tensor, gt) -> dc.Tensor:
    """Per-element L1 mean over the 64 object vertices."""
    return l1_mean(pred, gt)


def total_loss(terms: dict, weights: LossWeights):
    """Weighted sum of all terms; returns (tensor, LossReport)."""
    wd = config_to_dict(weights)
    unknown = set(terms) - set(wd)
    if unknown:
        raise ConfigError(f"unknown loss terms: {sorted(unknown)}")
    total = None
    values = {}
    for name in TERM_NAMES:
        if name not in terms:
            continue
        t = terms[name]
        values[name] = float(t.data.reshape(()))
        wt = dc.scale(t, wd[name])
        total = wt if total is None else dc.add(total, wt)
    report = LossReport(terms=values, weights=wd, total=float(total.data.reshape(())))
    return total, report


def scene_loss(recon, sample, assets, weights: LossWeights):
    """Assemble every term for one (reconstruction, scene) pair."""
    init = recon.init
    init_2d = scenegen.project_t(init.joints, init.cam_scale, init.cam_trans)
    refined_2d = scenegen.project_t(recon.joints, init.cam_scale, init.cam_trans)
    terms = {
        "ms_vertex": multiscale_vertex_loss(
            [recon.human_coarse, recon.human_mid, recon.human_full],
            [sample.gt_mesh_coarse, sample.gt_mesh_mid, sample.gt_mesh_full],
        ),
        "edge": edge_loss(recon.human_full, sample.gt_mesh_full, assets.full_edges),
        "object_vertex": object_vertex_loss(recon.object_vertices, sample.gt_object_vertices),
    }
    terms.update(
        joint_loss(init.joints, init_2d, recon.joints, refined_2d,
                   sample.gt_joints, sample.gt_joints_2d)
    )
    terms.update(
        param_losses(init.theta, init.beta, sample.theta.reshape(-1, 1), sample.beta.reshape(-1, 1),
                     init.axis_angle, init.translation,
                     sample.gt_axis_angle.reshape(1, 3), sample.gt_translation.reshape(1, 3))
    )
    return total_loss(terms, weights)
