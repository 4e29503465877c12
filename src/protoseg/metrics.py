"""Confusion-matrix accumulation and IoU aggregates.

Ignore-labelled pixels never enter the matrix. Per-class IoU is
TP / (TP + FP + FN); classes with an empty union are excluded from means
rather than scored. Total mIoU averages over all registered classes, not
over the base/novel submeans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateError, ShapeError
from .tensor import IGNORE_LABEL

ROLE_FILTERS = ("base", "novel", "all")


class ConfusionMatrix:
    """Square integer matrix over a fixed set of class ids."""

    def __init__(self, class_ids):
        self.class_ids = tuple(sorted(int(i) for i in class_ids))
        if len(set(self.class_ids)) != len(self.class_ids):
            raise DataError("duplicate class ids")
        self._index = {cid: i for i, cid in enumerate(self.class_ids)}
        n = len(self.class_ids)
        self.counts = np.zeros((n, n), dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accumulate(self, pred: np.ndarray, truth: np.ndarray) -> "ConfusionMatrix":
        """Add one (prediction, ground truth) pair; returns self for chaining."""
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        if pred.shape != truth.shape:
            raise ShapeError(f"pred {pred.shape} vs truth {truth.shape}")
        valid = truth != IGNORE_LABEL
        t = truth[valid]
        p = pred[valid]
        if t.size == 0:
            return self
        n = len(self.class_ids)
        ti = self._remap(t, "truth")
        pi = self._remap(p, "prediction")
        flat = np.bincount(ti * n + pi, minlength=n * n)
        self.counts += flat.reshape(n, n)
        return self

    def _remap(self, values: np.ndarray, what: str) -> np.ndarray:
        lut_size = max(self.class_ids) + 1
        lut = np.full(lut_size, -1, dtype=np.int64)
        for cid, i in self._index.items():
            lut[cid] = i
        if values.min() < 0 or values.max() >= lut_size:
            raise DataError(f"unregistered class id in {what}")
        mapped = lut[values]
        if (mapped < 0).any():
            raise DataError(f"unregistered class id in {what}")
        return mapped


def iou_per_class(cm: ConfusionMatrix) -> dict[int, float | None]:
    """IoU per class id; None when the class has zero union (absent everywhere)."""
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - np.diag(cm.counts)
    fn = cm.counts.sum(axis=1) - np.diag(cm.counts)
    union = tp + fp + fn
    out: dict[int, float | None] = {}
    for i, cid in enumerate(cm.class_ids):
        out[cid] = None if union[i] == 0 else float(tp[i] / union[i])
    return out


def miou(cm: ConfusionMatrix, roles: dict[int, str], role_filter: str = "all") -> float:
    """Mean IoU over classes passing the role filter; zero-union classes excluded."""
    if role_filter not in ROLE_FILTERS:
        raise DataError(f"unknown role filter {role_filter!r}")
    per_class = iou_per_class(cm)
    values = [
        v
        for cid, v in per_class.items()
        if v is not None and (role_filter == "all" or roles.get(cid) == role_filter)
    ]
    if not values:
        raise DegenerateError(f"no classes pass role filter {role_filter!r}")
    return float(np.mean(values))


@dataclass
class SeedMetrics:
    """Metrics from one evaluation pass (one support-sampling seed)."""

    seed: int | None
    base_miou: float
    novel_miou: float | None
    total_miou: float
    per_class: dict[int, float | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "base": self.base_miou,
            "novel": self.novel_miou,
            "total": self.total_miou,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
        }


@dataclass
class MetricsReport:
    """Per-seed metrics plus their mean, as produced by the evaluation protocols."""

    seeds: list[int | None]
    per_seed: list[SeedMetrics]
    base_miou: float
    novel_miou: float | None
    total_miou: float
    per_class: dict[int, float | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seeds": self.seeds,
            "per_seed": [m.to_json() for m in self.per_seed],
            "mean": {
                "base": self.base_miou,
                "novel": self.novel_miou,
                "total": self.total_miou,
                "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            },
        }


def summarize_confusion(
    cm: ConfusionMatrix, roles: dict[int, str], seed: int | None = None
) -> SeedMetrics:
    per_class = iou_per_class(cm)
    has_novel = any(roles.get(cid) == "novel" for cid in cm.class_ids)
    return SeedMetrics(
        seed=seed,
        base_miou=miou(cm, roles, "base"),
        novel_miou=miou(cm, roles, "novel") if has_novel else None,
        total_miou=miou(cm, roles, "all"),
        per_class=per_class,
    )


def mean_report(per_seed: list[SeedMetrics]) -> MetricsReport:
    """Average seed metrics; absent values are skipped per slot."""
    if not per_seed:
        raise DegenerateError("no seed metrics to aggregate")

    def mean_of(values):
        present = [v for v in values if v is not None]
        return float(np.mean(present)) if present else None

    all_ids = sorted({cid for m in per_seed for cid in m.per_class})
    per_class = {cid: mean_of([m.per_class.get(cid) for m in per_seed]) for cid in all_ids}
    return MetricsReport(
        seeds=[m.seed for m in per_seed],
        per_seed=per_seed,
        base_miou=mean_of([m.base_miou for m in per_seed]),
        novel_miou=mean_of([m.novel_miou for m in per_seed]),
        total_miou=mean_of([m.total_miou for m in per_seed]),
        per_class=per_class,
    )
