"""Prototype engine: pooling oracles, gating, fusion, registration, classification."""

import numpy as np
import pytest

from protoseg.backbone import init_backbone, extract_features
from protoseg.errors import (
    ConfigError,
    EmptyMaskError,
    NumericalError,
    RangeError,
    ShapeError,
)
from protoseg.prototypes import (
    DEFAULT_ALPHA,
    GammaNet,
    SupportSample,
    SupportSet,
    classify,
    fuse_prototype,
    gamma_forward,
    init_gamma_net,
    make_classifier,
    masked_sum_part,
    mean_of_shots,
    pixel_weighted_combine,
    register_novel_classes,
)
from protoseg.tensor import Tensor


def pooled_loop_oracle(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-pixel scalar loop: sum selected vectors in row-major order, divide."""
    h, w, c = features.shape
    acc = np.zeros(c)
    n = 0
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                acc = acc + features[y, x]
                n += 1
    return acc / n


def context_prototype(supports, features, base_class):
    """Registration's pixel-weighted context rule for one base class."""
    parts = (masked_sum_part(f, s.mask == base_class) for s, f in zip(supports.samples, features))
    return pixel_weighted_combine(parts, features[0].shape[-1])


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def two_pixel_features():
    # 1x2 spatial map, 2 channels: pixel 0 -> [1, 0], pixel 1 -> [3, 0]
    return Tensor(np.array([[[1.0, 0.0], [3.0, 0.0]]]))


def test_pool_single_pixel():
    out = mean_of_shots([masked_sum_part(two_pixel_features(), np.array([[1, 0]]))])
    np.testing.assert_array_equal(out.data, [1.0, 0.0])


def test_pool_two_pixel_mean():
    out = mean_of_shots([masked_sum_part(two_pixel_features(), np.array([[1, 1]]))])
    np.testing.assert_array_equal(out.data, [2.0, 0.0])


def test_pool_empty_mask_raises():
    with pytest.raises(EmptyMaskError):
        mean_of_shots([masked_sum_part(two_pixel_features(), np.array([[0, 0]]))])


def test_pool_matches_loop_oracle_exactly():
    rng = np.random.default_rng(21)
    for _ in range(20):
        feats = rng.uniform(-2, 2, (6, 5, 4))
        mask = (rng.random((6, 5)) < 0.5).astype(int)
        if mask.sum() == 0:
            mask[2, 2] = 1
        out = mean_of_shots([masked_sum_part(Tensor(feats), mask)])
        assert np.array_equal(out.data, pooled_loop_oracle(feats, mask))


def test_form_novel_single_shot_equals_pool():
    feats = two_pixel_features()
    mask = np.array([[1, 1]])
    a = mean_of_shots([masked_sum_part(feats, mask)])
    assert np.array_equal(a.data, pooled_loop_oracle(feats.data, mask))


def test_form_novel_equal_weight_per_shot():
    # per-shot means [1,0] and [3,0] -> [2,0] regardless of pixel counts
    shot_a = (Tensor(np.array([[[1.0, 0.0]]])), np.array([[1]]))
    shot_b = (
        Tensor(np.array([[[3.0, 0.0], [3.0, 0.0], [3.0, 0.0]]])),
        np.array([[1, 1, 1]]),
    )
    out = mean_of_shots([masked_sum_part(*shot_a), masked_sum_part(*shot_b)])
    np.testing.assert_array_equal(out.data, [2.0, 0.0])


def test_form_novel_skips_empty_shots_errors_when_all_empty():
    feats = two_pixel_features()
    empty, one = np.array([[0, 0]]), np.array([[1, 0]])
    out = mean_of_shots([masked_sum_part(feats, empty), masked_sum_part(feats, one)])
    np.testing.assert_array_equal(out.data, [1.0, 0.0])
    with pytest.raises(EmptyMaskError):
        mean_of_shots([masked_sum_part(feats, empty)])


def _supports_for_accumulation():
    # sample 1: one pixel of class 3 with features [2, 0]
    # sample 2: three pixels of class 3 with features summing to [6, 0]
    img = Tensor(np.zeros((1, 4, 3)))
    f1 = np.zeros((1, 4, 2))
    f1[0, 0] = [2.0, 0.0]
    m1 = np.full((1, 4), 255, dtype=np.int64)
    m1[0, 0] = 3
    f2 = np.zeros((1, 4, 2))
    f2[0, 1] = [1.0, 0.0]
    f2[0, 2] = [2.0, 0.0]
    f2[0, 3] = [3.0, 0.0]
    m2 = np.full((1, 4), 255, dtype=np.int64)
    m2[0, 1:] = 3
    supports = SupportSet(
        [SupportSample(img, m1, 9), SupportSample(img, m2, 9)]
    )
    return supports, [Tensor(f1), Tensor(f2)]


def test_accumulate_single_sample():
    supports, feats = _supports_for_accumulation()
    vec, count = context_prototype(SupportSet(supports.samples[:1]), feats[:1], base_class=3)
    np.testing.assert_array_equal(vec.data, [2.0, 0.0])
    assert count == 1


def test_accumulate_is_pixel_weighted_across_samples():
    supports, feats = _supports_for_accumulation()
    vec, count = context_prototype(supports, feats, base_class=3)
    np.testing.assert_array_equal(vec.data, [2.0, 0.0])  # (2 + 6) / 4
    assert count == 4


def test_accumulate_absent_class_gives_zero_count():
    supports, feats = _supports_for_accumulation()
    vec, count = context_prototype(supports, feats, base_class=7)
    np.testing.assert_array_equal(vec.data, [0.0, 0.0])
    assert count == 0


def test_shot_mean_vs_pixel_weighted_mean_disagree_on_unequal_counts():
    # shot means [1,0] (1 px) and [3,0] (3 px): shot-level average gives
    # [2,0] while pixel-weighted accumulation gives [2.5,0]
    supports, feats = _supports_for_accumulation()
    f1 = np.zeros((1, 4, 2))
    f1[0, 0] = [1.0, 0.0]
    f2 = np.zeros((1, 4, 2))
    f2[0, 1:] = [3.0, 0.0]
    feats = [Tensor(f1), Tensor(f2)]

    shots = [
        (feats[0], supports.samples[0].mask == 3),
        (feats[1], supports.samples[1].mask == 3),
    ]
    eq1 = mean_of_shots([masked_sum_part(f, m) for f, m in shots])
    eq3, count = context_prototype(supports, feats, base_class=3)
    np.testing.assert_array_equal(eq1.data, [2.0, 0.0])
    np.testing.assert_array_equal(eq3.data, [2.5, 0.0])
    assert count == 4

    # pixel-loop oracles for both
    per_shot_means = [pooled_loop_oracle(f.data, m) for f, m in shots]
    assert np.array_equal(eq1.data, sum(per_shot_means) / 2)
    flat_sum = np.zeros(2)
    n = 0
    for (f, m) in shots:
        for y in range(f.shape[0]):
            for x in range(f.shape[1]):
                if m[y, x]:
                    flat_sum = flat_sum + f.data[y, x]
                    n += 1
    assert np.array_equal(eq3.data, flat_sum / n)


def test_accumulation_equals_shot_mean_when_counts_equal():
    f1 = np.zeros((1, 4, 2))
    f1[0, 0] = [1.0, 0.0]
    f2 = np.zeros((1, 4, 2))
    f2[0, 1] = [3.0, 0.0]
    m1 = np.full((1, 4), 255)
    m1[0, 0] = 3
    m2 = np.full((1, 4), 255)
    m2[0, 1] = 3
    supports = SupportSet(
        [
            SupportSample(Tensor(np.zeros((1, 4, 3))), m1, 9),
            SupportSample(Tensor(np.zeros((1, 4, 3))), m2, 9),
        ]
    )
    feats = [Tensor(f1), Tensor(f2)]
    eq1 = mean_of_shots([masked_sum_part(feats[0], m1 == 3), masked_sum_part(feats[1], m2 == 3)])
    eq3, _ = context_prototype(supports, feats, base_class=3)
    np.testing.assert_allclose(eq1.data, eq3.data, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# gamma gate and fusion
# ---------------------------------------------------------------------------


def test_gamma_all_zero_net_gives_half():
    c = 4
    net = GammaNet(
        Tensor(np.zeros((2 * c, c))),
        Tensor(np.zeros(c)),
        Tensor(np.zeros((c, 1))),
        Tensor(np.zeros(1)),
    )
    g = gamma_forward(net, Tensor(np.ones(c)), Tensor(np.ones(c)))
    assert g.item() == 0.5


def test_gamma_stays_in_open_unit_interval():
    rng = np.random.default_rng(12)
    for seed in range(30):
        net = init_gamma_net(c=8, seed=seed)
        g = gamma_forward(
            net, Tensor(rng.uniform(-2, 2, 8)), Tensor(rng.uniform(-2, 2, 8))
        )
        assert 0.0 < g.item() < 1.0


def test_gamma_matches_hand_computation_small_net():
    c = 2
    w1 = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6], [0.7, -0.8]])
    b1 = np.array([0.05, -0.05])
    w2 = np.array([[1.5], [-2.0]])
    b2 = np.array([0.25])
    net = GammaNet(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
    p_cls = np.array([0.5, -1.0])
    p_feat = np.array([2.0, 0.25])
    x = np.concatenate([p_cls, p_feat])
    h = np.maximum(x @ w1 + b1, 0.0)
    expected = 1.0 / (1.0 + np.exp(-(h @ w2 + b2)[0]))
    g = gamma_forward(net, Tensor(p_cls), Tensor(p_feat))
    np.testing.assert_allclose(g.item(), expected, rtol=1e-15)


def test_gamma_rejects_length_mismatch():
    net = init_gamma_net(c=4, seed=0)
    with pytest.raises(ShapeError):
        gamma_forward(net, Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_fuse_identity_cases_and_midpoint():
    p_cls = Tensor(np.array([2.0, 0.0]))
    p_feat = Tensor(np.array([0.0, 2.0]))
    assert np.array_equal(fuse_prototype(p_cls, p_feat, Tensor(1.0)).data, [2.0, 0.0])
    assert np.array_equal(fuse_prototype(p_cls, p_feat, Tensor(0.0)).data, [0.0, 2.0])
    assert np.array_equal(fuse_prototype(p_cls, p_feat, Tensor(0.5)).data, [1.0, 1.0])


def test_fuse_rejects_gamma_outside_unit_interval():
    p = Tensor(np.zeros(2))
    with pytest.raises(RangeError):
        fuse_prototype(p, p, Tensor(1.5))
    with pytest.raises(RangeError):
        fuse_prototype(p, p, Tensor(-0.1))


def test_fuse_with_a_non_finite_gate_output_is_numerical_error():
    p = Tensor(np.zeros(2))
    with pytest.raises(NumericalError):
        fuse_prototype(p, p, Tensor(np.array(np.nan)))


def test_fuse_stays_in_componentwise_hull():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(-2, 2, 6)
        b = rng.uniform(-2, 2, 6)
        g = float(rng.random())
        out = fuse_prototype(Tensor(a), Tensor(b), Tensor(g)).data
        lo = np.minimum(a, b) - 1e-12
        hi = np.maximum(a, b) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


def _toy_world(c=8, n_base=5, seed=0):
    """Background + n_base foreground base classes, random rows."""
    rng = np.random.default_rng(seed)
    ids = list(range(n_base + 1))
    weights = rng.uniform(-1, 1, (n_base + 1, c))
    roles = {i: "base" for i in ids}
    clf = make_classifier(ids, weights, roles)
    backbone = init_backbone(c=c, layers=2, seed=seed)
    net = init_gamma_net(c=c, seed=seed + 1)
    return clf, backbone, net


def _row(clf, cid):
    return clf.weights[clf.class_ids.index(cid)]


def _support_scene(novel_id, base_ids, shape=(6, 6), seed=0):
    """Mask with one stripe of the novel class and one per listed base class."""
    rng = np.random.default_rng(seed)
    mask = np.full(shape, 255, dtype=np.int64)
    mask[0, :] = novel_id
    for row, bid in enumerate(base_ids, start=1):
        mask[row, :] = bid
    image = Tensor(rng.random((*shape, 3)))
    return SupportSample(image, mask, novel_id)


def test_register_without_base_pixels_keeps_base_rows_bitwise():
    clf, backbone, net = _toy_world()
    supports = SupportSet([_support_scene(9, [], seed=5)])
    out = register_novel_classes(clf, net, backbone, supports)
    for cid in clf.class_ids:
        assert np.array_equal(_row(out, cid), _row(clf, cid))
    assert out.class_ids == (*clf.class_ids, 9)
    assert out.roles[9] == "novel"


def test_register_seven_class_two_shot_scenario():
    # base: person=1 car=2 sheep=3 bus=4 dog=5; novel: motor=6 cow=7.
    # person/car appear in motor's shots, sheep/bus in cow's; dog nowhere.
    clf, backbone, net = _toy_world(n_base=5)
    supports = SupportSet(
        [
            _support_scene(6, [1, 2], seed=1),
            _support_scene(6, [1], seed=2),
            _support_scene(7, [3, 4], seed=3),
            _support_scene(7, [4], seed=4),
        ]
    )
    out = register_novel_classes(clf, net, backbone, supports)
    enriched = [1, 2, 3, 4]
    kept = [0, 5]  # background has no pixels here either (masks use ignore)
    for cid in enriched:
        assert not np.array_equal(_row(out, cid), _row(clf, cid))
    for cid in kept:
        assert np.array_equal(_row(out, cid), _row(clf, cid))
    assert out.roles[6] == "novel" and out.roles[7] == "novel"
    assert out.num_classes == clf.num_classes + 2


def test_register_gamma_one_keeps_base_rows():
    clf, backbone, net = _toy_world()
    supports = SupportSet([_support_scene(9, [1, 2], seed=8)])
    out = register_novel_classes(clf, 1.0, backbone, supports)
    for cid in clf.class_ids:
        assert np.array_equal(_row(out, cid), _row(clf, cid))


def test_register_is_pure_and_deterministic():
    clf, backbone, net = _toy_world()
    before = clf.weights.copy()
    supports = SupportSet([_support_scene(9, [1, 3], seed=2)])
    out1 = register_novel_classes(clf, net, backbone, supports)
    out2 = register_novel_classes(clf, net, backbone, supports)
    assert np.array_equal(clf.weights, before)
    assert np.array_equal(out1.weights, out2.weights)
    assert out1.class_ids == out2.class_ids


def test_register_rejects_duplicate_novel_id():
    clf, backbone, net = _toy_world()
    supports = SupportSet([_support_scene(1, [2], seed=0)])  # 1 is already base
    with pytest.raises(ConfigError):
        register_novel_classes(clf, net, backbone, supports)


def test_register_rejects_all_empty_novel_masks():
    clf, backbone, net = _toy_world()
    sample = _support_scene(9, [1], seed=0)
    sample.mask[sample.mask == 9] = 255
    with pytest.raises(EmptyMaskError):
        register_novel_classes(clf, net, backbone, SupportSet([sample]))


def test_register_enriches_a_base_class_with_one_support_pixel():
    clf, backbone, net = _toy_world()
    sample = _support_scene(9, [], seed=3)
    sample.mask[3, 0] = 1  # exactly one pixel of base class 1
    supports = SupportSet([sample])
    enriched = register_novel_classes(clf, net, backbone, supports)
    assert not np.array_equal(_row(enriched, 1), _row(clf, 1))


def test_fixed_gamma_fuses_a_float32_prototype_in_float64():
    # a fixed gate fuses with the adaptive gate's arithmetic: the float32
    # pooled prototype is promoted before it is scaled by 1 - gamma
    clf, backbone, _ = _toy_world(c=16)
    samples = [_support_scene(9, [1, 2], seed=s) for s in (6, 7)]
    for s in samples:
        s.image = Tensor(s.image.data.astype(np.float32))
    out = register_novel_classes(clf, 0.7, backbone, SupportSet(samples))
    feats = [extract_features(backbone, s.image) for s in samples]
    for cid in (1, 2):
        parts = (masked_sum_part(f, s.mask == cid) for s, f in zip(samples, feats))
        p_feat, _ = pixel_weighted_combine(parts, 16)
        assert p_feat.data.dtype == np.float32
        expected = 0.7 * _row(clf, cid) + p_feat.data.astype(np.float64) * (1.0 - 0.7)
        assert np.array_equal(_row(out, cid), expected)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _two_proto_classifier():
    return make_classifier(
        [0, 1],
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        {0: "base", 1: "base"},
    )


def test_classify_aligned_vector():
    clf = _two_proto_classifier()
    feats = Tensor(np.array([[[1.0, 0.0]]]))
    pred, logits = classify(clf, feats)
    assert pred[0, 0] == 0
    np.testing.assert_allclose(logits[0, 0], [10.0, 0.0], rtol=0, atol=1e-12)


def test_classify_cosine_scale_invariance():
    clf = _two_proto_classifier()
    p1, _ = classify(clf, Tensor(np.array([[[1.0, 0.0]]])))
    p5, _ = classify(clf, Tensor(np.array([[[5.0, 0.0]]])))
    assert np.array_equal(p1, p5)


def test_classify_tie_breaks_toward_lowest_class_id():
    clf = _two_proto_classifier()
    pred, _ = classify(clf, Tensor(np.array([[[1.0, 1.0]]])))
    assert pred[0, 0] == 0


def test_classify_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(17)
    clf = make_classifier(
        [0, 1, 2, 3],
        rng.uniform(-1, 1, (4, 6)),
        {i: "base" for i in range(4)},
    )
    feats = rng.uniform(-2, 2, (5, 5, 6))
    base_pred, _ = classify(clf, Tensor(feats))
    for s in (0.01, 3.0, 250.0):
        pred, _ = classify(clf, Tensor(feats * s))
        assert np.array_equal(pred, base_pred)


def test_classify_logits_bounded_by_alpha():
    rng = np.random.default_rng(23)
    clf = make_classifier(
        [0, 1, 2],
        rng.uniform(-1, 1, (3, 4)),
        {i: "base" for i in range(3)},
    )
    _, logits = classify(clf, Tensor(rng.uniform(-3, 3, (7, 7, 4))))
    assert (logits >= -DEFAULT_ALPHA).all() and (logits <= DEFAULT_ALPHA).all()


def test_classify_zero_feature_gets_zero_cosine():
    clf = _two_proto_classifier()
    feats = np.zeros((1, 2, 2))
    feats[0, 1] = [1.0, 0.0]
    _, logits = classify(clf, Tensor(feats))
    np.testing.assert_array_equal(logits[0, 0], [0.0, 0.0])


def test_classify_channel_mismatch():
    clf = _two_proto_classifier()
    with pytest.raises(ShapeError):
        classify(clf, Tensor(np.zeros((2, 2, 3))))


def test_classifier_requires_background_base():
    with pytest.raises(ConfigError):
        make_classifier([1, 2], np.zeros((2, 3)), {1: "base", 2: "base"})
