"""Training scheme: batch partition, fake splits, updated classifier, dual loss, SGD."""

import numpy as np
import pytest

import protoseg.tensor as T
from protoseg.backbone import extract_features, init_backbone
from protoseg.errors import ConfigError, DataError, DegenerateBatchError, IoError
from protoseg.prototypes import init_gamma_net
from protoseg.tensor import Tape, Tensor, backward, gradient_check
from protoseg.training import (
    FakeSplit,
    TrainConfig,
    TrainData,
    TrainBatch,
    build_updated_classifier,
    dual_loss,
    init_state,
    make_variant,
    partition_batch,
    pooled_class_means,
    select_fake_classes,
    train,
    train_step,
    write_curve,
)


def _blank_samples(n, h=6, w=6):
    rng = np.random.default_rng(0)
    return [
        (Tensor(rng.random((h, w, 3))), np.zeros((h, w), dtype=np.int64)) for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# partition and fake-class selection
# ---------------------------------------------------------------------------


def test_partition_sizes():
    b4 = partition_batch(_blank_samples(4), np.random.default_rng(0))
    assert len(b4.fake_support_idx) == 2 and len(b4.fake_query_idx) == 2
    b5 = partition_batch(_blank_samples(5), np.random.default_rng(0))
    assert len(b5.fake_support_idx) == 2 and len(b5.fake_query_idx) == 3
    joined = sorted(b5.fake_support_idx + b5.fake_query_idx)
    assert joined == list(range(5))


def test_partition_is_deterministic():
    samples = _blank_samples(6)
    a = partition_batch(samples, np.random.default_rng(9))
    b = partition_batch(samples, np.random.default_rng(9))
    assert a.fake_support_idx == b.fake_support_idx


def test_partition_rejects_small_batches():
    with pytest.raises(ConfigError):
        partition_batch(_blank_samples(3), np.random.default_rng(0))


def _batch_with_support_classes(class_sets):
    """Build a batch whose fake-support half shows exactly the given classes."""
    samples = []
    for classes in class_sets:
        mask = np.zeros((4, 8), dtype=np.int64)
        for col, cid in enumerate(classes):
            mask[:, col] = cid
        samples.append((Tensor(np.random.default_rng(1).random((4, 8, 3))), mask))
    n = len(samples)
    support = tuple(range(n // 2))
    query = tuple(range(n // 2, n))
    return TrainBatch(samples, support, query)


def test_select_fake_classes_floor_rule():
    batch = _batch_with_support_classes([[1, 2, 3], [4, 5], [6], [7]])
    split = select_fake_classes(batch, np.random.default_rng(0))
    assert len(split.fake_novel) == 2  # floor(5 / 2)
    assert len(split.fake_context) == 3
    assert set(split.fake_novel) | set(split.fake_context) == {1, 2, 3, 4, 5}
    assert not set(split.fake_novel) & set(split.fake_context)


def test_select_fake_classes_background_free_batch():
    batch = _batch_with_support_classes([[0], [0], [0], [0]])
    split = select_fake_classes(batch, np.random.default_rng(0))
    assert split.fake_novel == () and split.fake_context == ()


def test_select_fake_classes_single_class():
    batch = _batch_with_support_classes([[3], [3], [0], [0]])
    split = select_fake_classes(batch, np.random.default_rng(0))
    assert split.fake_novel == ()
    assert split.fake_context == (3,)


def test_select_fake_classes_excludes_background_and_ignore():
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[0] = 255
    mask[1] = 2
    samples = [(Tensor(np.zeros((4, 4, 3))), mask) for _ in range(4)]
    batch = TrainBatch(samples, (0, 1), (2, 3))
    split = select_fake_classes(batch, np.random.default_rng(0))
    assert set(split.fake_novel) | set(split.fake_context) == {2}


# ---------------------------------------------------------------------------
# updated classifier
# ---------------------------------------------------------------------------


def _support_world(c=4):
    rng = np.random.default_rng(2)
    weights = Tensor(rng.uniform(-1, 1, (3, c)), requires_grad=True)  # classes 0,1,2
    feats = [Tensor(rng.uniform(-1, 1, (3, 3, c))) for _ in range(2)]
    masks = [np.zeros((3, 3), dtype=np.int64) for _ in range(2)]
    masks[0][0, :] = 1
    masks[1][1, :2] = 2
    net = init_gamma_net(c, seed=0)
    return weights, feats, masks, net


def test_updated_classifier_empty_split_is_identity():
    weights, feats, masks, net = _support_world()
    updated, gammas = build_updated_classifier(
        weights, (0, 1, 2), net, feats, masks, FakeSplit((), ())
    )
    assert np.array_equal(updated.data, weights.data)
    assert gammas == []


def test_updated_classifier_fake_novel_row_is_support_mean():
    weights, feats, masks, net = _support_world()
    target = np.array([3.0, 1.0, 0.0, 0.0])
    feats[0].data[0, :, :] = target  # class 1 pixels all equal [3,1,0,0]
    updated, _ = build_updated_classifier(
        weights, (0, 1, 2), net, feats, masks, FakeSplit((1,), ())
    )
    np.testing.assert_array_equal(updated.data[1], target)
    np.testing.assert_array_equal(updated.data[0], weights.data[0])
    np.testing.assert_array_equal(updated.data[2], weights.data[2])


def test_updated_classifier_fake_context_midpoint_with_zero_net():
    weights, feats, masks, _ = _support_world()
    from protoseg.prototypes import GammaNet

    c = 4
    zero_net = GammaNet(
        Tensor(np.zeros((2 * c, c))),
        Tensor(np.zeros(c)),
        Tensor(np.zeros((c, 1))),
        Tensor(np.zeros(1)),
    )
    mean = pooled_class_means(feats, masks, [2])[2].data
    updated, gammas = build_updated_classifier(
        weights, (0, 1, 2), zero_net, feats, masks, FakeSplit((), (2,))
    )
    assert gammas == [0.5]
    np.testing.assert_allclose(updated.data[2], 0.5 * weights.data[2] + 0.5 * mean, atol=1e-15)


def test_updated_classifier_without_context_branch():
    weights, feats, masks, net = _support_world()
    updated, gammas = build_updated_classifier(
        weights, (0, 1, 2), None, feats, masks, FakeSplit((1,), (2,)), use_context_fusion=False
    )
    assert gammas == []
    np.testing.assert_array_equal(updated.data[2], weights.data[2])
    assert not np.array_equal(updated.data[1], weights.data[1])


# ---------------------------------------------------------------------------
# dual loss
# ---------------------------------------------------------------------------


def _loss_world(c=4, n_cls=3):
    rng = np.random.default_rng(5)
    weights = Tensor(rng.uniform(-1, 1, (n_cls, c)), requires_grad=True)
    feats = [Tensor(rng.uniform(-1, 1, (4, 4, c))) for _ in range(4)]
    masks = [rng.integers(0, n_cls, (4, 4)) for _ in range(4)]
    return weights, feats, masks


def test_dual_loss_identity_when_updated_equals_original_and_full_query():
    weights, feats, masks = _loss_world()
    loss, info = dual_loss(
        weights, weights, feats, masks, range(4), (0, 1, 2), alpha=10.0
    )
    assert info["l_cls"] == info["l_update"]
    assert float(loss.data) == info["l_cls"]


def test_dual_loss_is_exact_average():
    weights, feats, masks = _loss_world()
    other = Tensor(weights.data[::-1].copy())
    loss, info = dual_loss(weights, other, feats, masks, (2, 3), (0, 1, 2), alpha=10.0)
    assert float(loss.data) == (info["l_cls"] + info["l_update"]) * 0.5


def test_dual_loss_all_ignored_raises():
    weights, feats, _ = _loss_world()
    masks = [np.full((4, 4), 255, dtype=np.int64) for _ in range(4)]
    with pytest.raises(DegenerateBatchError):
        dual_loss(weights, weights, feats, masks, (2, 3), (0, 1, 2), alpha=10.0)


def test_dual_loss_end_to_end_gradients_pass_fd_check():
    """Gradient of the full rehearsal loss w.r.t. backbone, classifier and gate."""
    rng = np.random.default_rng(8)
    c = 4
    backbone = init_backbone(c, layers=2, seed=1)
    net = init_gamma_net(c, seed=2)
    weights0 = rng.uniform(-1, 1, (3, c))
    images = [Tensor(rng.random((6, 6, 3))) for _ in range(4)]
    masks = [rng.integers(0, 3, (6, 6)) for _ in range(4)]
    split = FakeSplit((1,), (2,))
    support, query = (0, 1), (2, 3)

    def full_loss(weights_t, kernel_override=None, gamma_w2=None):
        bb = backbone
        if kernel_override is not None:
            bb = init_backbone(c, layers=2, seed=1)
            for (dst, _), (src, _) in zip(bb.layers, backbone.layers):
                dst.data = src.data.copy()
            bb.layers[0] = (kernel_override, bb.layers[0][1])
        gnet = net
        if gamma_w2 is not None:
            gnet = init_gamma_net(c, seed=2)
            gnet.w1.data = net.w1.data.copy()
            gnet.b1.data = net.b1.data.copy()
            gnet.b2.data = net.b2.data.copy()
            gnet = type(net)(gnet.w1, gnet.b1, gamma_w2, gnet.b2)
        feats = [extract_features(bb, img) for img in images]
        updated, _ = build_updated_classifier(
            weights_t, (0, 1, 2), gnet, [feats[i] for i in support],
            [masks[i] for i in support], split,
        )
        loss, _ = dual_loss(weights_t, updated, feats, masks, query, (0, 1, 2), 10.0)
        return loss

    report = gradient_check(lambda t: full_loss(t), Tensor(weights0), tol=1e-4)
    assert report.passed, f"classifier weights: {report}"

    k0 = backbone.layers[0][0]
    report = gradient_check(
        lambda t: full_loss(Tensor(weights0), kernel_override=t), Tensor(k0.data), tol=1e-4
    )
    assert report.passed, f"backbone kernel: {report}"

    report = gradient_check(
        lambda t: full_loss(Tensor(weights0), gamma_w2=t), Tensor(net.w2.data), tol=1e-4
    )
    assert report.passed, f"gate w2: {report}"


# ---------------------------------------------------------------------------
# gradient routing
# ---------------------------------------------------------------------------


def _grads_for_split(split):
    rng = np.random.default_rng(3)
    c = 4
    backbone = init_backbone(c, layers=2, seed=4)
    net = init_gamma_net(c, seed=5)
    weights = Tensor(rng.uniform(-1, 1, (3, c)), requires_grad=True)
    images = [Tensor(rng.random((5, 5, 3))) for _ in range(4)]
    masks = [rng.integers(0, 3, (5, 5)) for _ in range(4)]
    with Tape() as tape:
        feats = [extract_features(backbone, img) for img in images]
        updated, _ = build_updated_classifier(
            weights, (0, 1, 2), net, feats[:2], masks[:2], split
        )
        loss, _ = dual_loss(weights, updated, feats, masks, (2, 3), (0, 1, 2), 10.0)
        backward(tape, loss)
    gate_norm = sum(float(np.abs(t.grad).sum()) for _, t in net.tensors() if t.grad is not None)
    bb_norm = sum(
        float(np.abs(t.grad).sum()) for _, t in backbone.tensors() if t.grad is not None
    )
    return gate_norm, bb_norm


def test_gate_gets_gradients_only_with_fake_context():
    gate_with, bb_with = _grads_for_split(FakeSplit((1,), (2,)))
    gate_without, bb_without = _grads_for_split(FakeSplit((1,), ()))
    assert gate_with > 0
    assert gate_without == 0
    assert bb_with > 0 and bb_without > 0


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def _tiny_data(n=10, h=12, w=12, block=6, classes=(0, 1, 2), seed=0):
    """Trivially separable scenes: one colored block per class on a dark field."""
    rng = np.random.default_rng(seed)
    colors = {0: (0.1, 0.1, 0.8), 1: (0.9, 0.1, 0.1), 2: (0.1, 0.9, 0.1)}
    images, masks = [], []
    for i in range(n):
        mask = np.zeros((h, w), dtype=np.int64)
        img = np.tile(colors[0], (h, w, 1))
        cid = classes[1 + i % (len(classes) - 1)]
        y, x = int(rng.integers(0, h - block)), int(rng.integers(0, w - block))
        mask[y : y + block, x : x + block] = cid
        img[y : y + block, x : x + block] = colors[cid]
        img += rng.normal(0, 0.01, img.shape)
        images.append(Tensor(np.clip(img, 0, 1)))
        masks.append(mask)
    roles = {c: "base" for c in classes}
    return TrainData(images, masks, tuple(classes), roles)


def _tiny_config(**kw):
    base = dict(
        batch_size=4, steps=20, lr=0.1, seed=0, embed_dim=8, backbone_layers=2
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_zero_steps_returns_initialized_state():
    state = train(_tiny_config(steps=0), _tiny_data(), make_variant("capl"))
    assert state.step == 0
    assert state.weights.shape == (3, 8)


def test_write_curve_to_missing_directory_raises_io_error(tmp_path):
    state = train(_tiny_config(steps=1), _tiny_data(), make_variant("capl"))
    with pytest.raises(IoError):
        write_curve(state, str(tmp_path / "missing" / "curve.csv"))


def test_training_is_bitwise_reproducible():
    cfg = _tiny_config(steps=8)
    data = _tiny_data()
    a = train(cfg, data, make_variant("capl"))
    b = train(cfg, data, make_variant("capl"))
    assert np.array_equal(a.weights.data, b.weights.data)
    for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(ta.data, tb.data)
    assert a.curve == b.curve


def test_zero_effective_lr_leaves_params_unchanged():
    # at step == steps the poly schedule reaches exactly zero
    data = _tiny_data()
    cfg = _tiny_config(steps=5)
    state = init_state(cfg, data, make_variant("capl"))
    state.step = 5
    before = {name: t.data.copy() for name, t in state.parameters()}
    batch = partition_batch(list(zip(data.images[:4], data.masks[:4])), np.random.default_rng(0))
    info = train_step(state, batch, np.random.default_rng(1))
    assert np.isfinite(info["loss"])
    assert info["lr"] == 0.0
    for name, t in state.parameters():
        assert np.array_equal(t.data, before[name]), name


def test_poly_power_zero_keeps_lr_constant():
    data = _tiny_data()
    cfg = _tiny_config(steps=6, poly_power=0.0)
    state = init_state(cfg, data, make_variant("baseline"))
    lrs = []
    for i in range(3):
        batch = partition_batch(
            list(zip(data.images[:4], data.masks[:4])), np.random.default_rng(i)
        )
        lrs.append(train_step(state, batch, np.random.default_rng(i))["lr"])
    assert lrs[0] == lrs[1] == lrs[2] == cfg.lr


def test_loss_decreases_to_threshold_on_separable_data():
    cfg = _tiny_config(steps=200, lr=0.05, seed=1)
    state = train(cfg, _tiny_data(n=16, seed=1), make_variant("baseline"))
    final = np.mean([row["loss"] for row in state.curve[-10:]])
    assert final < 0.1, f"final loss {final}"


def test_train_rejects_novel_ids_in_masks():
    data = _tiny_data()
    data.masks[0][0, 0] = 7  # not a base class
    with pytest.raises(DataError):
        train(_tiny_config(steps=1), data, make_variant("baseline"))


def test_gamma_history_recorded_only_for_context_variants():
    data = _tiny_data()
    capl = train(_tiny_config(steps=6), data, make_variant("capl"))
    base = train(_tiny_config(steps=6), data, make_variant("baseline"))
    tr = train(_tiny_config(steps=6), data, make_variant("capl_tr"))
    assert capl.gamma_steps, "capl should record gamma values"
    assert capl.converged_gamma() is not None
    assert 0.0 < capl.converged_gamma() < 1.0
    assert base.gamma_steps == [] and base.converged_gamma() is None
    assert tr.gamma_steps == [] and tr.gammanet is None


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------


def test_make_variant_table():
    assert make_variant("baseline").train_fake_novel is False
    assert make_variant("baseline").infer_enrich is False
    tr = make_variant("capl_tr")
    assert tr.train_fake_novel and not tr.train_fake_context and not tr.infer_enrich
    te = make_variant("capl_te")
    assert not te.train_fake_novel and te.infer_enrich and te.gamma_mode == "converged"
    full = make_variant("capl")
    assert full.train_fake_novel and full.train_fake_context and full.gamma_mode == "adaptive"
    assert make_variant("amp_gamma").gamma_mode == "amp"
    assert make_variant("convg_gamma").gamma_mode == "converged"
    with pytest.raises(ConfigError):
        make_variant("fancy")


@pytest.mark.parametrize(
    "field, value",
    [
        ("amp_gamma", -0.1),
        ("amp_gamma", 1.5),
        ("momentum", -0.9),
        ("poly_power", -1.0),
        ("clip_grad_norm", -1.0),
        ("batch_size", 8.0),
        ("lr", float("nan")),
        ("momentum", float("nan")),
        ("steps", 2.5),
        ("embed_dim", 8.0),
        ("steps", True),
        ("seed", 1.5),
    ],
)
def test_train_config_rejects_bad_values_at_construction(field, value):
    with pytest.raises(ConfigError, match=field.replace("_", "[_ ]")):
        TrainConfig(**{field: value})


def test_capl_tr_differs_from_capl_only_in_context_branch():
    a, b = make_variant("capl_tr"), make_variant("capl")
    assert a.train_fake_novel == b.train_fake_novel
    assert a.train_fake_context != b.train_fake_context
