"""Confusion matrix and mIoU against hand-computed cases."""

import numpy as np
import pytest

from protoseg.errors import DataError, DegenerateError, ShapeError
from protoseg.metrics import (
    ConfusionMatrix,
    iou_per_class,
    mean_report,
    miou,
    summarize_confusion,
)


def test_perfect_prediction_fills_diagonal():
    cm = ConfusionMatrix([0, 1, 2])
    truth = np.array([[0, 1], [2, 0]])
    cm.accumulate(truth, truth)
    assert np.array_equal(np.diag(cm.counts), [2, 1, 1])
    assert cm.counts.sum() == 4
    roles = {0: "base", 1: "base", 2: "base"}
    assert miou(cm, roles, "all") == 1.0
    assert miou(cm, roles, "base") == 1.0


def test_all_ignored_leaves_matrix_unchanged():
    cm = ConfusionMatrix([0, 1])
    cm.accumulate(np.array([[0, 1]]), np.array([[255, 255]]))
    assert cm.total == 0


def test_three_by_three_hand_case():
    # truth row-major: 0 0 1 / 1 2 2 / 0 1 255, pred: 0 1 1 / 1 2 0 / 0 1 2
    truth = np.array([[0, 0, 1], [1, 2, 2], [0, 1, 255]])
    pred = np.array([[0, 1, 1], [1, 2, 0], [0, 1, 2]])
    cm = ConfusionMatrix([0, 1, 2]).accumulate(pred, truth)
    expected = np.array(
        [
            [2, 1, 0],  # truth 0: pred 0 twice, pred 1 once
            [0, 3, 0],  # truth 1: pred 1 three times
            [1, 0, 1],  # truth 2: pred 2 once, pred 0 once
        ]
    )
    assert np.array_equal(cm.counts, expected)


def test_miou_hand_value_background_collapse():
    # 50/50 two-class image, prediction always background:
    # IoU(bg) = 0.5, IoU(fg) = 0 -> mIoU over both = 0.25
    truth = np.zeros((10, 10), dtype=int)
    truth[:, 5:] = 1
    pred = np.zeros_like(truth)
    cm = ConfusionMatrix([0, 1]).accumulate(pred, truth)
    roles = {0: "base", 1: "base"}
    assert abs(miou(cm, roles, "all") - 0.25) < 1e-12
    per = iou_per_class(cm)
    assert per[0] == 0.5 and per[1] == 0.0


def test_zero_union_class_excluded_from_mean():
    # class 2 never appears in truth or prediction
    truth = np.array([[0, 1]])
    pred = np.array([[0, 0]])
    cm = ConfusionMatrix([0, 1, 2]).accumulate(pred, truth)
    per = iou_per_class(cm)
    assert per[2] is None
    roles = {0: "base", 1: "base", 2: "base"}
    # IoU(0) = 1/2 (one TP, one FP), IoU(1) = 0
    assert abs(miou(cm, roles, "all") - 0.25) < 1e-12


def test_three_constructed_matrices_match_closed_form():
    cases = []
    cm1 = ConfusionMatrix([0, 1])
    cm1.counts[:] = [[8, 2], [1, 9]]
    cases.append((cm1, (8 / 11 + 9 / 12) / 2))
    cm2 = ConfusionMatrix([0, 1, 2])
    cm2.counts[:] = [[5, 0, 0], [0, 0, 5], [0, 0, 5]]
    cases.append((cm2, (1.0 + 0.0 + 5 / 10) / 3))
    cm3 = ConfusionMatrix([0, 3])
    cm3.counts[:] = [[4, 4], [4, 4]]
    cases.append((cm3, (4 / 12 + 4 / 12) / 2))
    for cm, expected in cases:
        roles = {cid: "base" for cid in cm.class_ids}
        assert abs(miou(cm, roles, "all") - expected) < 1e-12


def test_accumulation_is_order_invariant():
    rng = np.random.default_rng(0)
    pairs = [
        (rng.integers(0, 3, (6, 6)), rng.integers(0, 3, (6, 6))) for _ in range(5)
    ]
    fwd = ConfusionMatrix([0, 1, 2])
    rev = ConfusionMatrix([0, 1, 2])
    for p, t in pairs:
        fwd.accumulate(p, t)
    for p, t in reversed(pairs):
        rev.accumulate(p, t)
    assert np.array_equal(fwd.counts, rev.counts)


def test_unregistered_truth_id_raises():
    cm = ConfusionMatrix([0, 1])
    with pytest.raises(DataError):
        cm.accumulate(np.array([[0]]), np.array([[7]]))


def test_shape_mismatch_raises():
    cm = ConfusionMatrix([0, 1])
    with pytest.raises(ShapeError):
        cm.accumulate(np.zeros((2, 2), int), np.zeros((3, 2), int))


def test_novel_filter_without_novel_classes_degenerates():
    cm = ConfusionMatrix([0, 1]).accumulate(np.array([[0, 1]]), np.array([[0, 1]]))
    with pytest.raises(DegenerateError):
        miou(cm, {0: "base", 1: "base"}, "novel")


def test_total_miou_between_min_and_max_per_class():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cm = ConfusionMatrix([0, 1, 2])
        cm.accumulate(rng.integers(0, 3, (8, 8)), rng.integers(0, 3, (8, 8)))
        per = [v for v in iou_per_class(cm).values() if v is not None]
        total = miou(cm, {0: "base", 1: "base", 2: "novel"}, "all")
        assert min(per) - 1e-12 <= total <= max(per) + 1e-12


def test_summarize_and_mean_report():
    truth = np.array([[0, 1], [2, 2]])
    cm1 = ConfusionMatrix([0, 1, 2]).accumulate(truth, truth)
    pred2 = np.array([[0, 1], [1, 2]])
    cm2 = ConfusionMatrix([0, 1, 2]).accumulate(pred2, truth)
    roles = {0: "base", 1: "base", 2: "novel"}
    s1 = summarize_confusion(cm1, roles, seed=123)
    s2 = summarize_confusion(cm2, roles, seed=321)
    assert s1.total_miou == 1.0
    assert s1.novel_miou == 1.0
    report = mean_report([s1, s2])
    assert report.seeds == [123, 321]
    assert abs(report.total_miou - (s1.total_miou + s2.total_miou) / 2) < 1e-12
    # total is the mean over ALL classes, not the mean of base and novel
    expected_total = np.mean([v for v in s2.per_class.values()])
    assert abs(s2.total_miou - expected_total) < 1e-12
