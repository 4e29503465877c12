"""Evaluation protocols over a small end-to-end world."""

import os

import numpy as np
import pytest

from protoseg.errors import ConfigError, DataError, IoError
from protoseg.model import from_train_state
from protoseg.protocols import (
    model_for_variant,
    register_for_variant,
    run_ablation,
    run_fs_protocol,
    run_gfs_protocol,
    write_ablation_csv,
)
from protoseg.scenes import SceneConfig, build_dataset, load_manifest, sample_support_set
from protoseg.training import TrainConfig, load_train_data, make_variant, train

WORLD = SceneConfig(
    height=24,
    width=24,
    shapes_min=1,
    shapes_max=3,
    train_scenes=24,
    support_per_class=6,
    test_scenes=10,
    noise=0.04,
    seed=11,
)
TRAIN = TrainConfig(batch_size=4, steps=40, lr=0.05, seed=3, embed_dim=8, backbone_layers=2)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("world") / "split0")
    build_dataset(WORLD, 0, out)
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    data = load_train_data(manifest)
    models = {
        kind: from_train_state(
            train(TRAIN, data, make_variant(kind)),
            {int(c["id"]): c["name"] for c in manifest.classes},
        )
        for kind in ("baseline", "capl")
    }
    return manifest, models


def test_gfs_protocol_is_deterministic(world):
    manifest, models = world
    r1 = run_gfs_protocol(models["capl"], manifest, 2, seeds=(123, 321))
    r2 = run_gfs_protocol(models["capl"], manifest, 2, seeds=(123, 321))
    assert r1.to_json() == r2.to_json()
    assert r1.seeds == [123, 321]
    assert 0.0 <= r1.total_miou <= 1.0
    assert r1.novel_miou is not None


def test_gfs_base_only_pass(world):
    manifest, models = world
    report = run_gfs_protocol(models["baseline"], manifest, None)
    assert report.novel_miou is None
    assert report.seeds == [None]
    assert 0.0 <= report.base_miou <= 1.0
    # novel truth pixels were ignored, not scored against base classes
    per_class_ids = set(report.per_class)
    assert per_class_ids <= set(models["baseline"].classifier.class_ids)


def test_gfs_exhausted_pool_raises(world):
    manifest, models = world
    with pytest.raises(DataError):
        run_gfs_protocol(models["capl"], manifest, 999, seeds=(123,))


def test_gfs_error_carries_seed_context(world):
    manifest, models = world
    with pytest.raises(DataError, match="seed 123"):
        run_gfs_protocol(models["capl"], manifest, 999, seeds=(123,))


def test_registration_purity_before_after_predictions(world):
    """Predictions made before registration are unaffected by it."""
    from protoseg.prototypes import classify
    from protoseg.backbone import extract_features
    from protoseg.scenes import load_pair

    manifest, models = world
    model = models["capl"]
    image, _ = load_pair(manifest, manifest.test[0])
    feats = extract_features(model.backbone, image)
    before, _ = classify(model.classifier, feats)
    supports = sample_support_set(manifest, 2, seed=123)
    register_for_variant(model, supports)
    after, _ = classify(model.classifier, feats)
    assert np.array_equal(before, after)


def test_fs_protocol_smoke(world):
    manifest, models = world
    out = run_fs_protocol(models["capl"], manifest, k=1, episodes=6, seed=5)
    assert out["episodes"] == 6
    assert set(out["per_class"]) == {"1", "2"}
    assert 0.0 <= out["class_miou"] <= 1.0
    again = run_fs_protocol(models["capl"], manifest, k=1, episodes=6, seed=5)
    assert out == again


def test_fs_protocol_validates_arguments(world):
    manifest, models = world
    with pytest.raises(ConfigError):
        run_fs_protocol(models["capl"], manifest, k=1, episodes=0)
    with pytest.raises(DataError):
        run_fs_protocol(models["capl"], manifest, k=999, episodes=1)


def test_ablation_single_variant_rows(world, tmp_path):
    manifest, _ = world
    rows = run_ablation(
        manifest, [1], ["baseline"], seeds=(123, 321), config=TRAIN,
        cache_dir=str(tmp_path / "cache"),
    )
    assert len(rows) == 2
    assert {r["variant"] for r in rows} == {"baseline"}
    assert {r["seed"] for r in rows} == {123, 321}
    csv_path = str(tmp_path / "ab.csv")
    write_ablation_csv(rows, csv_path)
    header = open(csv_path).readline().strip()
    assert header == "variant,shots,seed,base,novel,total"


def test_write_ablation_csv_to_missing_directory_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        write_ablation_csv([], str(tmp_path / "missing" / "ab.csv"))


def test_ablation_cache_reuse_is_identical(world, tmp_path):
    manifest, _ = world
    cache = str(tmp_path / "cache")
    first = run_ablation(manifest, [1], ["capl"], seeds=(123,), config=TRAIN, cache_dir=cache)
    second = run_ablation(manifest, [1], ["capl"], seeds=(123,), config=TRAIN, cache_dir=cache)
    assert first == second
    assert any(name.startswith("capl_split0") for name in os.listdir(cache))


def test_variant_wiring_for_fixed_gamma(world, tmp_path):
    manifest, _ = world
    cache = str(tmp_path / "cache")
    te = model_for_variant("capl_te", manifest, TRAIN, cache)
    assert te.variant_kind == "capl_te"
    assert te.converged_gamma is not None  # pulled from the adaptive run
    amp = model_for_variant("amp_gamma", manifest, TRAIN, cache)
    assert amp.variant_kind == "amp_gamma"
    supports = sample_support_set(manifest, 1, seed=123)
    clf = register_for_variant(amp, supports)
    assert set(clf.ids_with_role("novel")) == {1, 2}


def test_baseline_registration_never_touches_base_rows(world):
    manifest, models = world
    supports = sample_support_set(manifest, 2, seed=321)
    clf = register_for_variant(models["baseline"], supports)
    base = models["baseline"].classifier
    for cid in base.class_ids:
        assert np.array_equal(clf.row(cid), base.row(cid))


# ---------------------------------------------------------------------------
# episodic oracle on a separable world, and the full ablation grid shape
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def separable_world(tmp_path_factory):
    """Single-shape scenes, minimal noise: binary episodes should be near-clean."""
    from protoseg.scenes import SceneConfig, build_dataset
    from protoseg.training import load_train_data, train

    cfg = SceneConfig(
        height=36, width=36, shapes_min=1, shapes_max=1, noise=0.02,
        color_jitter=0.02, context_tint=0.0, cooc_prob=0.0,
        train_scenes=40, support_per_class=8, test_scenes=40, seed=21,
    )
    out = str(tmp_path_factory.mktemp("sep") / "split0")
    build_dataset(cfg, 0, out)
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    state = train(
        TrainConfig(batch_size=4, steps=300, lr=0.1, seed=0, embed_dim=16, backbone_layers=3),
        load_train_data(manifest),
        make_variant("capl"),
    )
    return manifest, from_train_state(state)


def test_fs_self_episode_iou_on_separable_world(separable_world):
    """Query identical to the single support shot: foreground IoU near 1."""
    from protoseg.backbone import extract_features
    from protoseg.metrics import ConfusionMatrix, iou_per_class
    from protoseg.prototypes import classify, form_novel_prototype, make_classifier
    from protoseg.protocols import _background_prototype, _binary_truth
    from protoseg.scenes import load_pair

    manifest, model = separable_world
    ious = []
    for entry in manifest.support_pool:
        image, mask = load_pair(manifest, entry)
        u = entry.novel_id
        feats = extract_features(model.backbone, image)
        fg = form_novel_prototype([(feats, mask == u)]).data
        bg = _background_prototype([feats], [mask], u)
        clf = make_classifier(
            [0, 1], np.stack([bg, fg]), {0: "base", 1: "novel"}, model.classifier.alpha
        )
        pred, _ = classify(clf, feats)
        cm = ConfusionMatrix([0, 1]).accumulate(pred, _binary_truth(mask, u))
        ious.append(iou_per_class(cm)[1])
    assert float(np.mean(ious)) >= 0.9, f"mean self-episode IoU {np.mean(ious):.3f}"


@pytest.mark.parametrize("c", [1, 6])
def test_fs_background_prototype_is_bitwise_the_taped_pooled_mean(c):
    import protoseg.tensor as T
    from protoseg.protocols import _background_prototype
    from protoseg.tensor import IGNORE_LABEL, Tape, Tensor

    rng = np.random.default_rng(29)
    for _ in range(20):
        shots = int(rng.integers(1, 5))
        feats = [Tensor(rng.uniform(-2, 2, (7, 9, c)), requires_grad=True) for _ in range(shots)]
        labels = [0, 1, 2, IGNORE_LABEL]
        masks = [rng.choice(labels, (7, 9), p=[0.5, 0.3, 0.1, 0.1]) for _ in range(shots)]
        keep = [(m != 1) & (m != IGNORE_LABEL) for m in masks]
        with Tape() as tape:
            total = T.masked_sum(feats[0], keep[0])
            for f, m in zip(feats[1:], keep[1:]):
                total = T.add(total, T.masked_sum(f, m))
            taped = T.div_scalar(total, int(sum(np.count_nonzero(m) for m in keep)))
        assert len(tape.records) == 2 * shots
        assert np.array_equal(_background_prototype(feats, masks, 1), taped.data)


def test_fs_protocol_scores_high_on_separable_world(separable_world):
    manifest, model = separable_world
    result = run_fs_protocol(model, manifest, k=1, episodes=16, seed=3)
    assert result["class_miou"] >= 0.8


def test_ablation_full_grid_shape(world, tmp_path):
    manifest, _ = world
    kinds = ("baseline", "capl_tr", "capl_te", "capl", "amp_gamma", "convg_gamma")
    rows = run_ablation(
        manifest, [1, 2, 3], kinds, seeds=(123,), config=TRAIN,
        cache_dir=str(tmp_path / "cache"),
    )
    assert len(rows) == 6 * 3  # six variants, three shot settings, one seed
    assert {(r["variant"], r["shots"]) for r in rows} == {
        (k, s) for k in kinds for s in (1, 2, 3)
    }


def test_support_sampling_seed_sensitivity(world):
    manifest, _ = world
    a = sample_support_set(manifest, 2, seed=123)
    b = sample_support_set(manifest, 2, seed=321)
    bytes_a = [s.image.data.tobytes() for s in a.samples]
    bytes_b = [s.image.data.tobytes() for s in b.samples]
    assert bytes_a != bytes_b
