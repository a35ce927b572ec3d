"""Metric tests with an independently implemented double-loop oracle."""

import numpy as np
import pytest

from hoitg import metrics, scenegen
from hoitg.errors import DimensionError, ParameterError


def chamfer_oracle(a, b):
    """Separate exhaustive implementation: explicit double loops."""
    def directed(p, q):
        total = 0.0
        for i in range(len(p)):
            best = float("inf")
            for j in range(len(q)):
                d = float(np.sqrt(((p[i] - q[j]) ** 2).sum()))
                best = min(best, d)
            total += best
        return total / len(p)

    return 0.5 * (directed(a, b) + directed(b, a)) * 100.0


class TestChamfer:
    def test_identical_clouds(self, rng):
        a = rng.normal(size=(10, 3))
        assert metrics.chamfer(a, a.copy()) == 0.0

    def test_single_points_one_centimeter(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[0.01, 0.0, 0.0]])
        assert abs(metrics.chamfer(a, b) - 1.0) < 1e-9

    def test_symmetry(self, rng):
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=(13, 3))
        assert abs(metrics.chamfer(a, b) - metrics.chamfer(b, a)) < 1e-12

    def test_rigid_invariance(self, rng):
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(7, 3))
        rot = scenegen.rodrigues(np.array([0.4, -1.2, 0.3]))
        t = np.array([0.5, -0.25, 2.0])
        assert abs(metrics.chamfer(a @ rot.T + t, b @ rot.T + t) - metrics.chamfer(a, b)) < 1e-6

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=(rng.integers(2, 30), 3))
            b = rng.normal(size=(rng.integers(2, 30), 3))
            assert abs(metrics.chamfer(a, b) - chamfer_oracle(a, b)) < 1e-6

    def test_empty_rejected(self, rng):
        with pytest.raises(ParameterError):
            metrics.chamfer(np.empty((0, 3)), rng.normal(size=(3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_point_gives_non_finite_value(self, rng, bad, side):
        clouds = [rng.normal(size=(12, 3)), rng.normal(size=(9, 3))]
        clouds[side][4, 1] = bad
        assert not np.isfinite(metrics.chamfer(*clouds))


class TestContactPR:
    def test_gt_prediction_perfect(self, mini_assets):
        s = scenegen.sample_scene(scenegen.mix_seed(61, 0), "box", mini_assets)
        p, r, f1 = metrics.contact_pr(
            s.gt_mesh_full, s.gt_object_vertices, s.contact, mini_assets.config.contact_threshold
        )
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_distant_object_zero_recall(self, mini_assets):
        s = None
        for i in range(30):
            cand = scenegen.sample_scene(scenegen.mix_seed(62, i), "box", mini_assets)
            if cand.contact.any():
                s = cand
                break
        assert s is not None
        p, r, f1 = metrics.contact_pr(
            s.gt_mesh_full, s.gt_object_vertices + 10.0, s.contact, mini_assets.config.contact_threshold
        )
        assert r == 0.0
        assert f1 == 0.0

    def test_constructed_counts(self):
        # pred map comes out [1,1,1,0,0,0]; gt [1,1,0,1,1,0]
        # TP=2 FP=1 FN=2 -> p=2/3 r=1/2 f1=4/7
        human = np.zeros((6, 3))
        human[:3] = [[0, 0, 0], [0.01, 0, 0], [0, 0.01, 0]]
        human[3:] = [[5, 5, 5], [6, 6, 6], [7, 7, 7]]
        obj = np.array([[0.0, 0.0, 0.02]])
        gt = np.array([True, True, False, True, True, False])
        p, r, f1 = metrics.contact_pr(human, obj, gt, 0.05)
        assert abs(p - 2 / 3) < 1e-12
        assert abs(r - 1 / 2) < 1e-12
        assert abs(f1 - 4 / 7) < 1e-12

    def test_empty_conventions(self):
        human = np.full((4, 3), 10.0)
        obj = np.zeros((2, 3))
        # nothing predicted, nothing in gt: perfect by convention, f1 = 2pr/(p+r)
        p, r, f1 = metrics.contact_pr(human, obj, np.zeros(4, dtype=bool), 0.05)
        assert (p, r, f1) == (1.0, 1.0, 1.0)
        # nothing predicted but gt has contacts: no false alarms, zero recall
        p, r, f1 = metrics.contact_pr(human, obj, np.array([True, False, False, False]), 0.05)
        assert (p, r, f1) == (1.0, 0.0, 0.0)
        # predictions exist, gt empty: zero precision
        near = np.zeros((4, 3))
        p, r, f1 = metrics.contact_pr(near, obj, np.zeros(4, dtype=bool), 0.05)
        assert (p, r, f1) == (0.0, 1.0, 0.0)

    def test_permutation_invariance(self, mini_assets, rng):
        s = scenegen.sample_scene(scenegen.mix_seed(63, 2), "tube", mini_assets)
        perm = rng.permutation(len(s.gt_mesh_full))
        thr = mini_assets.config.contact_threshold
        base = metrics.contact_pr(s.gt_mesh_full, s.gt_object_vertices, s.contact, thr)
        shuffled = metrics.contact_pr(s.gt_mesh_full[perm], s.gt_object_vertices, s.contact[perm], thr)
        assert base == shuffled

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            metrics.contact_pr(rng.normal(size=(5, 3)), rng.normal(size=(3, 3)),
                               np.zeros(4, dtype=bool), 0.05)


class TestAggregate:
    def test_mean_of_per_sample_metrics(self):
        per = [
            {"cd_human_cm": 1.0, "cd_object_cm": 2.0, "p": 1.0, "r": 0.5, "f1": 2 / 3},
            {"cd_human_cm": 3.0, "cd_object_cm": 4.0, "p": 0.0, "r": 0.5, "f1": 0.0},
        ]
        rep = metrics.aggregate(per)
        assert rep.cd_human_cm == 2.0
        assert rep.cd_object_cm == 3.0
        assert rep.contact_precision == 0.5
        assert rep.sample_count == 2

    def test_report_serialization(self):
        rep = metrics.MetricsReport(1.0, 2.0, 0.5, 0.25, 1 / 3, 4)
        text = rep.to_text()
        assert "cd_human" in text and "4.59" in text  # reference footer present
        import json

        data = json.loads(rep.to_json())
        assert data["cd_human_cm"] == 1.0


def test_f1_formula():
    assert metrics.f1_score(0.0, 0.0) == 0.0
    assert abs(metrics.f1_score(2 / 3, 1 / 2) - 4 / 7) < 1e-12
    assert metrics.f1_score(1.0, 1.0) == 1.0
