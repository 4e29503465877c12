"""Evaluation protocols: multi-seed generalized eval, episodic binary eval,
and the fusion-strategy ablation grid.

Test-image features depend only on the trained backbone, so they are
extracted once per model and shared across support-sampling seeds; each seed
only recomputes prototypes and the cheap cosine scores.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, replace

import numpy as np

from . import checkpoint as ckpt
from .backbone import extract_features
from .errors import ConfigError, DataError, ProtosegError
from .metrics import ConfusionMatrix, MetricsReport, iou_per_class, mean_report, summarize_confusion
from .model import EvalModel, from_train_state
from .netpbm import atomic_write
from .prototypes import (
    ROLE_NOVEL,
    SupportSet,
    classify,
    form_novel_prototype,
    make_classifier,
    pixel_weighted_mean,
    register_novel_classes,
)
from .scenes import DatasetManifest, load_pair, sample_support_set
from .tensor import IGNORE_LABEL, Tensor
from .training import (
    TRAIN_SCHEME,
    TrainConfig,
    load_train_data,
    make_variant,
    train,
)

DEFAULT_SEEDS = (123, 321, 456, 654, 999)
DEFAULT_FS_EPISODES = 500


def register_for_variant(
    model: EvalModel, supports: SupportSet, min_pixels: int = 1
):
    """Apply the model's variant policy to build the evaluation classifier."""
    variant = make_variant(model.variant_kind)
    if not variant.infer_enrich:
        return register_novel_classes(
            model.classifier, None, model.backbone, supports, min_pixels, enrich=False
        )
    if variant.gamma_mode == "adaptive":
        if model.gammanet is None:
            raise ConfigError(f"variant {model.variant_kind} needs a gate network")
        return register_novel_classes(
            model.classifier, model.gammanet, model.backbone, supports, min_pixels
        )
    fixed = model.amp_gamma if variant.gamma_mode == "amp" else model.converged_gamma
    if fixed is None:
        raise ConfigError(
            f"variant {model.variant_kind} needs a recorded converged gamma "
            "(train the full adaptive variant first or supply one explicitly)"
        )
    return register_novel_classes(
        model.classifier, None, model.backbone, supports, min_pixels, fixed_gamma=fixed
    )


def run_gfs_protocol(
    model: EvalModel,
    manifest: DatasetManifest,
    k: int | None,
    seeds=DEFAULT_SEEDS,
    min_pixels: int = 1,
) -> MetricsReport:
    """Register novel classes per seed, score every test image, average seeds.

    ``k`` falsy runs a base-only pass: no supports, and test pixels of
    unregistered classes are treated as ignore.
    """
    if not manifest.test:
        raise DataError("manifest has an empty test set")
    pairs = [load_pair(manifest, e) for e in manifest.test]
    feats = [extract_features(model.backbone, img) for img, _ in pairs]
    truths = [mask for _, mask in pairs]

    if not k:
        clf = model.classifier
        cm = ConfusionMatrix(clf.class_ids)
        keep = set(clf.class_ids)
        for feat, truth in zip(feats, truths):
            pred, _ = classify(clf, feat)
            masked_truth = np.where(np.isin(truth, sorted(keep)), truth, IGNORE_LABEL)
            cm.accumulate(pred, masked_truth)
        return mean_report([summarize_confusion(cm, clf.roles, seed=None)])

    per_seed = []
    for seed in seeds:
        try:
            supports = sample_support_set(manifest, k, seed)
            clf = register_for_variant(model, supports, min_pixels)
            cm = ConfusionMatrix(clf.class_ids)
            for feat, truth in zip(feats, truths):
                pred, _ = classify(clf, feat)
                cm.accumulate(pred, truth)
            per_seed.append(summarize_confusion(cm, clf.roles, seed=seed))
        except ProtosegError as exc:
            raise type(exc)(f"seed {seed}: {exc}") from exc
    return mean_report(per_seed)


# ---------------------------------------------------------------------------
# episodic binary protocol
# ---------------------------------------------------------------------------


def _binary_truth(mask: np.ndarray, fg_class: int) -> np.ndarray:
    out = np.zeros_like(mask)
    out[mask == fg_class] = 1
    out[mask == IGNORE_LABEL] = IGNORE_LABEL
    return out


def _background_prototype(feats, masks, fg_class: int) -> np.ndarray:
    """Pixel-weighted mean of everything that is neither foreground nor ignore."""
    keep = [(mask != fg_class) & (mask != IGNORE_LABEL) for mask in masks]
    return pixel_weighted_mean(feats, keep)[0].data


def run_fs_protocol(
    model: EvalModel,
    manifest: DatasetManifest,
    k: int,
    episodes: int = DEFAULT_FS_EPISODES,
    seed: int = 0,
) -> dict:
    """One-way binary episodes: foreground prototype from K shots, background
    prototype from the shots' remaining pixels, then IoU of the foreground on
    a query scene containing the class. Reports the class-wise mean."""
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    if k < 1:
        raise ConfigError("K must be >= 1")
    novel_ids = manifest.ids_with_role(ROLE_NOVEL)
    if not novel_ids:
        raise DataError("manifest declares no novel classes")

    pools = {u: [e for e in manifest.support_pool if e.novel_id == u] for u in novel_ids}
    queries: dict[int, list[int]] = {u: [] for u in novel_ids}
    test_pairs = [load_pair(manifest, e) for e in manifest.test]
    for i, (_, mask) in enumerate(test_pairs):
        for u in novel_ids:
            if (mask == u).any():
                queries[u].append(i)
    for u in novel_ids:
        if not queries[u]:
            raise DataError(f"no test scene contains novel class {u}")
        if len(pools[u]) < k:
            raise DataError(f"support pool for class {u} has fewer than K={k} scenes")

    test_feats: dict[int, Tensor] = {}
    rng = np.random.default_rng(seed)
    matrices = {u: ConfusionMatrix([0, 1]) for u in novel_ids}
    for ep in range(episodes):
        u = novel_ids[ep % len(novel_ids)]
        picks = sorted(int(i) for i in rng.choice(len(pools[u]), k, replace=False))
        shots = [load_pair(manifest, pools[u][i]) for i in picks]
        shot_feats = [extract_features(model.backbone, img) for img, _ in shots]
        shot_masks = [mask for _, mask in shots]

        fg = form_novel_prototype(
            [(f, m == u) for f, m in zip(shot_feats, shot_masks)]
        ).data
        bg = _background_prototype(shot_feats, shot_masks, u)
        clf = make_classifier(
            [0, 1], np.stack([bg, fg]), {0: "base", 1: "novel"}, model.classifier.alpha
        )

        qi = int(rng.choice(queries[u]))
        if qi not in test_feats:
            test_feats[qi] = extract_features(model.backbone, test_pairs[qi][0])
        pred, _ = classify(clf, test_feats[qi])
        matrices[u].accumulate(pred, _binary_truth(test_pairs[qi][1], u))

    per_class = {}
    for u in novel_ids:
        per_class[u] = iou_per_class(matrices[u])[1] if matrices[u].total else None
    scored = [v for v in per_class.values() if v is not None]
    if not scored:
        raise DataError("no episodes produced a scoreable foreground")
    return {
        "protocol": "fs",
        "shots": k,
        "episodes": episodes,
        "seed": seed,
        "class_miou": float(np.mean(scored)),
        "per_class": {str(u): per_class[u] for u in novel_ids},
    }


# ---------------------------------------------------------------------------
# ablation runner
# ---------------------------------------------------------------------------


def config_digest(config: TrainConfig, manifest: DatasetManifest) -> str:
    doc = json.dumps(
        {"config": asdict(config), "split": manifest.split_index, "seed": manifest.seed},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def trained_model_for_scheme(
    scheme: str,
    manifest: DatasetManifest,
    config: TrainConfig,
    cache_dir: str | None = None,
    class_names: dict[int, str] | None = None,
) -> EvalModel:
    """Train (or reload from the cache) one underlying training scheme."""
    path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        digest = config_digest(config, manifest)
        path = os.path.join(cache_dir, f"{scheme}_split{manifest.split_index}_{digest}.ckpt")
        if os.path.exists(path):
            return ckpt.load_checkpoint(path)
    data = load_train_data(manifest)
    state = train(config, data, make_variant(scheme))
    model = from_train_state(state, class_names)
    if path:
        ckpt.save_checkpoint(path, model)
    return model


def model_for_variant(
    kind: str,
    manifest: DatasetManifest,
    config: TrainConfig,
    cache_dir: str | None = None,
) -> EvalModel:
    """Resolve a variant to its trained model, wiring in the converged gamma
    from the full adaptive run where the variant calls for it."""
    names = {int(c["id"]): c["name"] for c in manifest.classes}
    scheme = TRAIN_SCHEME[make_variant(kind).kind]
    model = trained_model_for_scheme(scheme, manifest, config, cache_dir, names)
    model = replace(model, variant_kind=kind)
    if make_variant(kind).gamma_mode == "converged" and model.converged_gamma is None:
        donor = trained_model_for_scheme("capl", manifest, config, cache_dir, names)
        model.converged_gamma = donor.converged_gamma
    return model


def run_ablation(
    manifest: DatasetManifest,
    shots_list,
    variant_kinds,
    seeds=DEFAULT_SEEDS,
    config: TrainConfig = TrainConfig(),
    cache_dir: str | None = None,
) -> list[dict]:
    """Rows of (variant, shots, seed, base, novel, total) over the grid."""
    rows = []
    for kind in variant_kinds:
        model = model_for_variant(kind, manifest, config, cache_dir)
        for k in shots_list:
            report = run_gfs_protocol(model, manifest, k, seeds, config.min_pixels)
            for sm in report.per_seed:
                rows.append(
                    {
                        "variant": kind,
                        "shots": k,
                        "seed": sm.seed,
                        "base": sm.base_miou,
                        "novel": sm.novel_miou,
                        "total": sm.total_miou,
                    }
                )
    return rows


def write_ablation_csv(rows: list[dict], path: str) -> None:
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=["variant", "shots", "seed", "base", "novel", "total"])
    writer.writeheader()
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode())


def report_to_json(report: MetricsReport, config_echo: dict) -> str:
    doc = {"config": config_echo, **report.to_json()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
