"""Evaluation metrics: Chamfer distance in centimeters, contact quality.

Chamfer here is the symmetric variant: the two directed mean nearest-neighbor
distances are averaged (not summed) and reported in centimeters. Contact
precision/recall compare the predicted contact map (recomputed from predicted
meshes with the same 5 cm rule used for ground truth) against the stored map.

Empty-set conventions, chosen explicitly: with no predicted positives,
precision is 1 (no false alarms); with no ground-truth positives, recall is 1;
f1 is 0 whenever p + r is 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels, scenegen
from .errors import DimensionError, ParameterError


@dataclass
class MetricsReport:
    """Aggregated evaluation numbers (means of per-sample metrics)."""

    cd_human_cm: float
    cd_object_cm: float
    contact_precision: float
    contact_recall: float
    f1: float
    sample_count: int
    init_cd_human_cm: float | None = None
    init_cd_object_cm: float | None = None

    def to_json(self):
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    def to_text(self):
        lines = [
            "metric               value",
            f"cd_human (cm)        {self.cd_human_cm:10.4f}",
            f"cd_object (cm)       {self.cd_object_cm:10.4f}",
            f"contact precision    {self.contact_precision:10.4f}",
            f"contact recall       {self.contact_recall:10.4f}",
            f"f1                   {self.f1:10.4f}",
            f"samples              {self.sample_count:10d}",
        ]
        if self.init_cd_human_cm is not None:
            lines.append(f"init cd_human (cm)   {self.init_cd_human_cm:10.4f}")
            lines.append(f"init cd_object (cm)  {self.init_cd_object_cm:10.4f}")
        lines.append(
            "reference full-scale results (context only, not a target at this scale): "
            "cd_human 4.59 cm, cd_object 8.00 cm, contact p 0.662 / r 0.554"
        )
        return "\n".join(lines)


def chamfer(a, b) -> float:
    """Symmetric Chamfer distance between two point sets, in centimeters."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ParameterError("chamfer: point sets must be non-empty")
    d_ab = kernels.min_distances(a, b).mean()
    d_ba = kernels.min_distances(b, a).mean()
    return float(0.5 * (d_ab + d_ba) * 100.0)


def f1_score(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def contact_pr(pred_human, pred_object, gt_contact, threshold: float = 0.05):
    """Contact precision/recall/f1 of predicted meshes against a GT map."""
    gt_contact = np.asarray(gt_contact, dtype=bool)
    pred_human = np.asarray(pred_human, dtype=np.float64)
    if len(gt_contact) != len(pred_human):
        raise DimensionError(
            f"contact_pr: map length {len(gt_contact)} vs {len(pred_human)} vertices"
        )
    pred = scenegen.contact_map_gt(pred_human, pred_object, threshold)
    tp = int(np.sum(pred & gt_contact))
    fp = int(np.sum(pred & ~gt_contact))
    fn = int(np.sum(~pred & gt_contact))
    p = 1.0 if (tp + fp) == 0 else tp / (tp + fp)
    r = 1.0 if (tp + fn) == 0 else tp / (tp + fn)
    return p, r, f1_score(p, r)


def aggregate(per_sample: list[dict], init_stage: bool = False) -> MetricsReport:
    """Mean of per-sample metric dicts into one report."""
    def col(key):
        return float(np.mean([s[key] for s in per_sample]))

    report = MetricsReport(
        cd_human_cm=col("cd_human_cm"),
        cd_object_cm=col("cd_object_cm"),
        contact_precision=col("p"),
        contact_recall=col("r"),
        f1=col("f1"),
        sample_count=len(per_sample),
    )
    if init_stage:
        report.init_cd_human_cm = col("init_cd_human_cm")
        report.init_cd_object_cm = col("init_cd_object_cm")
    return report
