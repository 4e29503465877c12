"""Evaluation protocols: multi-seed generalized eval, episodic binary eval,
and the fusion-strategy ablation grid.

The generalized protocol is one streamed pass: every seed registers first,
then each test map is loaded, turned into unit rows, scored for all seeds in
one product and counted before the next is loaded. The episodic protocol
keeps only the test scenes that hold a novel class, caches its query maps
as unit rows, and pools each support-pool scene once per call, summing the
cached parts in every episode that draws it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, replace

import numpy as np

from . import checkpoint as ckpt
from .backbone import extract_features
from .errors import ConfigError, DataError, ProtosegError
from .metrics import ConfusionMatrix, MetricsReport, iou_per_class, mean_report, summarize_confusion
from .model import EvalModel, from_train_state
from .netpbm import make_dirs, read_bytes, write_csv
from .prototypes import (
    ROLE_BASE,
    ROLE_NOVEL,
    SupportSet,
    check_gamma,
    make_classifier,
    masked_sum_part,
    mean_of_shots,
    pixel_weighted_combine,
    register_novel_classes,
    scorer,
    unit_rows,
)
from .scenes import DatasetManifest, load_pair, present_ids, sample_support_set
from .tensor import IGNORE_LABEL
from .training import TrainConfig, load_train_data, make_variant, train


# the EvalModel field that holds each gamma mode's gate
GATE_FIELDS = {"adaptive": "gammanet", "converged": "converged_gamma", "amp": "amp_gamma"}


def register_for_variant(model: EvalModel, supports: SupportSet):
    """Apply the model's variant policy to build the evaluation classifier."""
    mode = make_variant(model.variant_kind).gamma_mode
    gate = getattr(model, GATE_FIELDS[mode]) if mode in GATE_FIELDS else None
    if gate is None and mode != "none":
        raise ConfigError(
            f"variant {model.variant_kind} has no {mode} gate (train the full adaptive "
            "variant first or supply a fixed gamma explicitly)"
        )
    return register_novel_classes(model.classifier, gate, model.backbone, supports)


def with_fixed_gamma(model: EvalModel, gamma: float) -> EvalModel:
    """The model with ``gamma`` as the fixed gate its variant registers with;
    a ``RangeError`` for a gamma outside [0, 1] (NaN included) and a
    ``ConfigError`` for a variant with an adaptive gate or none."""
    check_gamma(gamma)
    mode = make_variant(model.variant_kind).gamma_mode
    if mode not in ("converged", "amp"):
        raise ConfigError(f"variant {model.variant_kind} takes no fixed gamma (gamma mode {mode})")
    return replace(model, **{GATE_FIELDS[mode]: gamma})


def run_gfs_protocol(
    model: EvalModel,
    manifest: DatasetManifest,
    k: int | None,
    seeds,
) -> MetricsReport:
    """Register every seed's novel classes, then score each test image once for
    all seeds, and average the seeds; an error of one seed's run names the seed.

    ``k`` falsy runs a base-only pass: no supports and no use of ``seeds``,
    and test pixels of unregistered classes are treated as ignore.
    """
    if not manifest.test:
        raise DataError("manifest has an empty test set")
    runs = [] if k else [(None, model.classifier)]  # the base-only pass registers nothing
    for seed in seeds if k else ():
        with _errors_name(seed):
            runs.append((seed, register_for_variant(model, sample_support_set(manifest, k, seed))))
    if not runs:
        return mean_report([])  # no seed to score: a DegenerateError
    score = scorer([clf for _, clf in runs])
    matrices = [ConfusionMatrix(clf.class_ids) for _, clf in runs]
    for entry in manifest.test:
        image, mask = load_pair(manifest, entry)
        if not k:
            mask = np.where(np.isin(mask, model.classifier.class_ids), mask, IGNORE_LABEL)
        predicted = score(unit_rows(extract_features(model.backbone, image)))
        with _errors_name(runs[0][0]):  # every seed registers all novel classes: one class set
            pixels, rows = matrices[0].truth_rows(mask.reshape(-1))
        for cm, (pred, _) in zip(matrices, predicted):
            cm.add_rows(rows, pred[pixels])
    per_seed = []
    for (seed, clf), cm in zip(runs, matrices):
        with _errors_name(seed):
            per_seed.append(summarize_confusion(cm, clf.roles, seed=seed))
    return mean_report(per_seed)


@contextlib.contextmanager
def _errors_name(seed):
    try:
        yield
    except ProtosegError as exc:
        if seed is None:
            raise
        raise type(exc)(f"seed {seed}: {exc}") from exc


# ---------------------------------------------------------------------------
# episodic binary protocol
# ---------------------------------------------------------------------------


def _binary_truth(mask: np.ndarray, fg_class: int) -> np.ndarray:
    out = np.zeros_like(mask)
    out[mask == fg_class] = 1
    out[mask == IGNORE_LABEL] = IGNORE_LABEL
    return out


def _query_scenes(manifest: DatasetManifest, novel_ids) -> tuple[dict, dict]:
    """The test pairs that hold a novel class, by index, and each class's indices."""
    test_pairs, queries = {}, {u: [] for u in novel_ids}
    for i, entry in enumerate(manifest.test):
        image, mask = load_pair(manifest, entry)
        for u in queries.keys() & present_ids(mask).tolist():
            queries[u].append(i)
            test_pairs[i] = image, mask
    return test_pairs, queries


def run_fs_protocol(
    model: EvalModel,
    manifest: DatasetManifest,
    k: int,
    episodes: int,
    seed: int,
) -> dict:
    """One-way binary episodes: foreground prototype from K shots, background
    prototype from the shots' remaining pixels, then IoU of the foreground on
    a query scene containing the class. Reports the class-wise mean.

    Each pool scene is loaded, extracted and pooled once per call, the first
    time an episode draws it; later episodes reuse its foreground and
    background masked sums, so the prototypes are bitwise those of
    re-extraction."""
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    if k < 1:
        raise ConfigError("K must be >= 1")
    novel_ids = manifest.ids_with_role(ROLE_NOVEL)
    if not novel_ids:
        raise DataError("manifest declares no novel classes")

    pools = {}
    test_pairs, queries = _query_scenes(manifest, novel_ids)
    for u in novel_ids:
        if not queries[u]:
            raise DataError(f"no test scene contains novel class {u}")
        pools[u] = manifest.support_pool_for(u, k)

    test_rows: dict[int, np.ndarray] = {}
    # (class, pool index) -> foreground and background masked_sum_part
    parts: dict[tuple[int, int], tuple] = {}
    rng = np.random.default_rng(seed)
    matrices = {u: ConfusionMatrix([0, 1]) for u in novel_ids}
    for ep in range(episodes):
        u = novel_ids[ep % len(novel_ids)]
        picks = sorted(int(i) for i in rng.choice(len(pools[u]), k, replace=False))
        for i in picks:
            if (u, i) not in parts:
                image, mask = load_pair(manifest, pools[u][i])
                feats = extract_features(model.backbone, image)
                background = (mask != u) & (mask != IGNORE_LABEL)
                parts[u, i] = (masked_sum_part(feats, mask == u), masked_sum_part(feats, background))
        fg = mean_of_shots([parts[u, i][0] for i in picks]).data
        bg = pixel_weighted_combine([parts[u, i][1] for i in picks], len(fg))[0].data
        clf = make_classifier([0, 1], np.stack([bg, fg]), {0: ROLE_BASE, 1: ROLE_NOVEL})

        qi = int(rng.choice(queries[u]))
        if qi not in test_rows:
            test_rows[qi] = unit_rows(extract_features(model.backbone, test_pairs[qi][0]))
        [(pred, _)] = scorer([clf])(test_rows[qi])  # rows 0 and 1 are ids 0 and 1
        matrices[u].accumulate(pred, _binary_truth(test_pairs[qi][1], u).reshape(-1))

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


def cache_key(config: TrainConfig, manifest: DatasetManifest) -> str:
    """The ablate cache key: checkpoint format version, train config, base class
    ids and the bytes of every train pair, so splits whose train scenes differ
    never share a checkpoint."""
    doc = {"config": asdict(config), "base": manifest.ids_with_role(ROLE_BASE), "format": ckpt.VERSION}
    key = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for entry in manifest.train:
        for name in (entry.image, entry.mask):
            key.update(hashlib.sha256(read_bytes(os.path.join(manifest.base_dir, name))).digest())
    return key.hexdigest()[:16]


def trained_model_for_scheme(
    scheme: str,
    manifest: DatasetManifest,
    config: TrainConfig,
    cache_dir: str,
) -> EvalModel:
    """Reload one underlying training scheme from the cache, or train it and
    cache its checkpoint."""
    make_dirs(cache_dir)
    key = cache_key(config, manifest)
    path = os.path.join(cache_dir, f"{scheme}_split{manifest.split_index}_{key}.ckpt")
    if os.path.exists(path):
        return ckpt.load_checkpoint(path)
    model = from_train_state(train(config, load_train_data(manifest), make_variant(scheme)))
    ckpt.save_checkpoint(path, model)
    return model


def model_for_variant(
    kind: str,
    manifest: DatasetManifest,
    config: TrainConfig,
    cache_dir: str,
) -> EvalModel:
    """Resolve a variant to its trained model, wiring in the converged gamma
    from the full adaptive run where the variant calls for it."""
    variant = make_variant(kind)
    model = trained_model_for_scheme(variant.scheme, manifest, config, cache_dir)
    model = replace(model, variant_kind=kind)
    if variant.gamma_mode == "converged" and model.converged_gamma is None:
        donor = trained_model_for_scheme("capl", manifest, config, cache_dir)
        model.converged_gamma = donor.converged_gamma
    return model


def run_ablation(
    manifest: DatasetManifest,
    shots_list,
    variant_kinds,
    seeds,
    config: TrainConfig,
    cache_dir: str,
) -> list[dict]:
    """Rows of (variant, shots, seed, base, novel, total) over the grid; each
    training scheme is trained once, through the checkpoint cache."""
    rows = []
    for kind in variant_kinds:
        model = model_for_variant(kind, manifest, config, cache_dir)
        for k in shots_list:
            report = run_gfs_protocol(model, manifest, k, seeds)
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
    write_csv(path, ["variant", "shots", "seed", "base", "novel", "total"], rows)


def report_to_json(report: MetricsReport, config_echo: dict) -> str:
    doc = {"config": config_echo, **report.to_json()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
