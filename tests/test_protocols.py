"""Evaluation protocols over a small end-to-end world."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from protoseg import protocols
from protoseg import tensor as T
from protoseg.errors import ConfigError, DataError, EmptyMaskError, IoError
from protoseg.model import from_train_state
from protoseg.protocols import (
    model_for_variant,
    register_for_variant,
    report_to_json,
    run_ablation,
    run_fs_protocol,
    run_gfs_protocol,
    write_ablation_csv,
)
from protoseg.scenes import SceneConfig, build_dataset, load_manifest, sample_support_set
from protoseg.tensor import IGNORE_LABEL
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
        kind: from_train_state(train(TRAIN, data, make_variant(kind)))
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
    report = run_gfs_protocol(models["baseline"], manifest, None, seeds=(123,))
    assert report.novel_miou is None
    assert report.seeds == [None]  # a base-only pass draws no supports
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


def gfs_oracle(model, manifest, k, seeds):
    """The gfs protocol without a cache: each seed registers its supports,
    then reloads, re-extracts and classifies every test image."""
    from protoseg.backbone import extract_features
    from protoseg.metrics import ConfusionMatrix, mean_report, summarize_confusion
    from protoseg.prototypes import classify
    from protoseg.scenes import load_pair
    from protoseg.tensor import IGNORE_LABEL

    per_seed = []
    for seed in seeds if k else (None,):
        clf = model.classifier
        if k:
            clf = register_for_variant(model, sample_support_set(manifest, k, seed))
        cm = ConfusionMatrix(clf.class_ids)
        for entry in manifest.test:
            image, truth = load_pair(manifest, entry)
            if not k:
                truth = np.where(np.isin(truth, clf.class_ids), truth, IGNORE_LABEL)
            pred, _ = classify(clf, extract_features(model.backbone, image))
            cm.accumulate(pred, truth)
        per_seed.append(summarize_confusion(cm, clf.roles, seed=seed))
    return mean_report(per_seed)


# five seeds, one of them repeated: its two classifiers are scored apart
FIVE_SEEDS = (123, 321, 7, 123, 55)


@pytest.mark.parametrize("k", [1, 5, None])
def test_gfs_protocol_equals_the_uncached_oracle(world, k):
    manifest, models = world
    got = run_gfs_protocol(models["capl"], manifest, k, seeds=FIVE_SEEDS)
    want = gfs_oracle(models["capl"], manifest, k, seeds=FIVE_SEEDS)
    assert report_to_json(got, {}) == report_to_json(want, {})
    assert got.seeds == (list(FIVE_SEEDS) if k else [None])


def test_gfs_protocol_casts_and_scores_each_test_map_once(world, monkeypatch):
    # one product per map scores every seed's classifier, and the map's
    # float32 unit rows are cast to float64 inside it: once per call
    manifest, models = world
    calls = []
    logits = T.cosine_logits

    def counted(unit_weights, unit_rows, alpha):
        calls.append((unit_weights.shape[0], unit_rows.dtype))
        return logits(unit_weights, unit_rows, alpha)

    monkeypatch.setattr(T, "cosine_logits", counted)
    run_gfs_protocol(models["capl"], manifest, 1, seeds=FIVE_SEEDS)
    rows = models["capl"].classifier.num_classes + len(manifest.ids_with_role("novel"))
    assert calls == [(5 * rows, np.float32)] * len(manifest.test)


def test_gfs_registration_failure_names_its_seed(world, monkeypatch):
    # the third of five seeds draws supports whose masks are all ignore
    manifest, models = world
    draw = protocols.sample_support_set

    def blank_third(manifest, k, seed):
        supports = draw(manifest, k, seed)
        if seed == 7:
            supports.samples = [
                replace(s, mask=np.full_like(s.mask, IGNORE_LABEL)) for s in supports.samples
            ]
        return supports

    monkeypatch.setattr(protocols, "sample_support_set", blank_third)
    with pytest.raises(EmptyMaskError, match=r"^seed 7: novel class \d+ has no pixels in any shot$"):
        run_gfs_protocol(models["capl"], manifest, 1, seeds=(123, 321, 7, 5, 9))


def test_fs_protocol_smoke(world):
    manifest, models = world
    out = run_fs_protocol(models["capl"], manifest, k=1, episodes=6, seed=5)
    assert out["episodes"] == 6
    assert set(out["per_class"]) == {"1", "2"}
    assert 0.0 <= out["class_miou"] <= 1.0
    again = run_fs_protocol(models["capl"], manifest, k=1, episodes=6, seed=5)
    assert out == again


def fs_oracle(model, manifest, k, episodes, seed):
    """The episodic protocol without a cache: every episode reloads and
    re-extracts each of its K shots, with the same draws from the same RNG.
    Also returns the distinct (class, pool index) shots and queries drawn."""
    from protoseg.backbone import extract_features
    from protoseg.metrics import ConfusionMatrix, iou_per_class
    from protoseg.prototypes import (
        classify,
        make_classifier,
        masked_sum_part,
        mean_of_shots,
        pixel_weighted_combine,
    )
    from protoseg.protocols import _binary_truth
    from protoseg.scenes import load_pair
    from protoseg.tensor import IGNORE_LABEL

    novel = manifest.ids_with_role("novel")
    tests = [load_pair(manifest, e) for e in manifest.test]
    queries = {u: [i for i, (_, m) in enumerate(tests) if (m == u).any()] for u in novel}
    pools = {u: manifest.support_pool_for(u, k) for u in novel}
    rng = np.random.default_rng(seed)
    matrices = {u: ConfusionMatrix([0, 1]) for u in novel}
    shots_drawn, queries_drawn = set(), set()
    for ep in range(episodes):
        u = novel[ep % len(novel)]
        picks = sorted(int(i) for i in rng.choice(len(pools[u]), k, replace=False))
        shots = [load_pair(manifest, pools[u][i]) for i in picks]
        feats = [extract_features(model.backbone, image) for image, _ in shots]
        masks = [mask for _, mask in shots]
        fg = mean_of_shots([masked_sum_part(f, m == u) for f, m in zip(feats, masks)]).data
        keep = [(m != u) & (m != IGNORE_LABEL) for m in masks]
        bg = pixel_weighted_combine(map(masked_sum_part, feats, keep), len(fg))[0].data
        clf = make_classifier([0, 1], np.stack([bg, fg]), {0: "base", 1: "novel"})
        qi = int(rng.choice(queries[u]))
        pred, _ = classify(clf, extract_features(model.backbone, tests[qi][0]))
        matrices[u].accumulate(pred, _binary_truth(tests[qi][1], u))
        shots_drawn.update((u, i) for i in picks)
        queries_drawn.add(qi)
    per_class = {str(u): iou_per_class(m)[1] if m.total else None for u, m in matrices.items()}
    report = {
        "protocol": "fs",
        "shots": k,
        "episodes": episodes,
        "seed": seed,
        "class_miou": float(np.mean([v for v in per_class.values() if v is not None])),
        "per_class": per_class,
    }
    return report, shots_drawn, queries_drawn


@pytest.mark.parametrize("k", [1, 2])
def test_fs_protocol_equals_the_uncached_oracle(world, k):
    manifest, models = world
    got = run_fs_protocol(models["capl"], manifest, k, episodes=14, seed=7)
    want, shots_drawn, _ = fs_oracle(models["capl"], manifest, k, episodes=14, seed=7)
    assert len(shots_drawn) < 14 * k  # some episodes redraw a pooled scene
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_fs_protocol_extracts_each_drawn_scene_once(world, monkeypatch):
    import protoseg.protocols as protocols

    manifest, models = world
    _, shots_drawn, queries_drawn = fs_oracle(models["capl"], manifest, 2, episodes=14, seed=7)
    calls = []
    extract = protocols.extract_features

    def counted(params, image):
        calls.append(image)
        return extract(params, image)

    monkeypatch.setattr(protocols, "extract_features", counted)
    run_fs_protocol(models["capl"], manifest, 2, episodes=14, seed=7)
    assert len(shots_drawn) < 14 * 2
    assert len(calls) == len(shots_drawn) + len(queries_drawn)


def test_fs_protocol_keeps_only_the_test_scenes_that_hold_a_novel_class(world, monkeypatch):
    import weakref

    manifest, models = world
    novel = set(manifest.ids_with_role("novel"))
    masks = {}  # test index -> weak reference to its loaded mask
    load = protocols.load_pair

    def tracked(manifest_, entry):
        image, mask = load(manifest_, entry)
        if entry in manifest.test:
            masks[manifest.test.index(entry)] = weakref.ref(mask), novel & set(mask.reshape(-1).tolist())
        return image, mask

    alive_while_scoring = []
    score = protocols.scorer

    def watched(classifiers):
        alive_while_scoring.append({i for i, (ref, _) in masks.items() if ref() is not None})
        return score(classifiers)

    monkeypatch.setattr(protocols, "load_pair", tracked)
    monkeypatch.setattr(protocols, "scorer", watched)
    run_fs_protocol(models["capl"], manifest, 1, episodes=6, seed=5)
    held = {i for i, (_, classes) in masks.items() if classes}
    assert len(masks) == len(manifest.test) and len(held) < len(masks)
    assert alive_while_scoring == [held] * 6


def test_fs_protocol_validates_arguments(world):
    manifest, models = world
    with pytest.raises(ConfigError):
        run_fs_protocol(models["capl"], manifest, k=1, episodes=0, seed=0)
    with pytest.raises(DataError):
        run_fs_protocol(models["capl"], manifest, k=999, episodes=1, seed=0)


def test_fs_and_support_sampling_reject_a_short_pool_alike(world):
    manifest, models = world
    with pytest.raises(DataError) as fs:
        run_fs_protocol(models["capl"], manifest, k=999, episodes=1, seed=0)
    with pytest.raises(DataError) as draw:
        sample_support_set(manifest, 999, seed=0)
    assert str(fs.value) == str(draw.value)


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
    assert {c for c, role in clf.roles.items() if role == "novel"} == {1, 2}


def test_baseline_registration_never_touches_base_rows(world):
    manifest, models = world
    supports = sample_support_set(manifest, 2, seed=321)
    clf = register_for_variant(models["baseline"], supports)
    base = models["baseline"].classifier
    rows = [clf.class_ids.index(cid) for cid in base.class_ids]
    assert np.array_equal(clf.weights[rows], base.weights)


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
    from protoseg.prototypes import (
        classify,
        make_classifier,
        masked_sum_part,
        mean_of_shots,
        pixel_weighted_combine,
    )
    from protoseg.protocols import _binary_truth
    from protoseg.scenes import load_pair
    from protoseg.tensor import IGNORE_LABEL

    manifest, model = separable_world
    ious = []
    for entry in manifest.support_pool:
        image, mask = load_pair(manifest, entry)
        u = entry.novel_id
        feats = extract_features(model.backbone, image)
        fg = mean_of_shots([masked_sum_part(feats, mask == u)]).data
        background = (mask != u) & (mask != IGNORE_LABEL)
        bg = pixel_weighted_combine([masked_sum_part(feats, background)], len(fg))[0].data
        clf = make_classifier([0, 1], np.stack([bg, fg]), {0: "base", 1: "novel"})
        pred, _ = classify(clf, feats)
        cm = ConfusionMatrix([0, 1]).accumulate(pred, _binary_truth(mask, u))
        ious.append(iou_per_class(cm)[1])
    assert float(np.mean(ious)) >= 0.9, f"mean self-episode IoU {np.mean(ious):.3f}"


@pytest.mark.parametrize("c", [1, 6])
def test_fs_background_prototype_is_bitwise_the_taped_pooled_mean(c):
    """The fs background row, combined from per-shot parts taken before the
    combine as the protocol's cache takes them, equals the taped pooled mean."""
    import protoseg.tensor as T
    from protoseg.prototypes import masked_sum_part, pixel_weighted_combine
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
        parts = [masked_sum_part(f, m) for f, m in zip(feats, keep)]
        assert np.array_equal(pixel_weighted_combine(parts, c)[0].data, taped.data)


def test_fs_protocol_scores_high_on_separable_world(separable_world):
    manifest, model = separable_world
    result = run_fs_protocol(model, manifest, k=1, episodes=16, seed=3)
    assert result["class_miou"] >= 0.8


def test_ablation_full_grid_shape(world, tmp_path, monkeypatch):
    manifest, _ = world
    schemes = []

    def counted_train(config, data, variant):
        schemes.append(variant.scheme)
        return train(config, data, variant)

    monkeypatch.setattr(protocols, "train", counted_train)
    kinds = ("baseline", "capl_tr", "capl_te", "capl", "amp_gamma", "convg_gamma")
    rows = run_ablation(
        manifest, [1, 2, 3], kinds, seeds=(123,), config=TRAIN,
        cache_dir=str(tmp_path / "cache"),
    )
    # six variants share three training schemes, each trained once
    assert sorted(schemes) == ["baseline", "capl", "capl_tr"]
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
