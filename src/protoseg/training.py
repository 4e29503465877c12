"""Base-class training with fake support/query rehearsal.

Each step splits the batch in half: pooled class means from the fake-support
half either replace ("fake novel") or gate-fuse into ("fake context") the
matching classifier rows, and the loss averages the cross entropy of the
original classifier over the whole batch with that of the updated classifier
over the fake-query half. This teaches the feature extractor to produce
pooled means that can stand in for classifier weights at registration time.

Variant flags turn the rehearsal branches and the inference-time enrichment
on or off to reproduce the ablation grid.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, extract_features, init_backbone
from .errors import ConfigError, DataError, NumericalError
from .netpbm import atomic_write
from .prototypes import (
    GammaNet,
    fuse_prototype,
    gamma_forward,
    init_gamma_net,
    make_classifier,
    pixel_weighted_mean,
)
from .scenes import DatasetManifest, load_pair
from .tensor import IGNORE_LABEL, Tape, Tensor, backward

VARIANT_KINDS = ("baseline", "capl_tr", "capl_te", "capl", "amp_gamma", "convg_gamma")
DEFAULT_AMP_GAMMA = 0.5


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    steps: int = 3000
    lr: float = 0.05
    momentum: float = 0.9
    poly_power: float = 0.9
    seed: int = 0
    embed_dim: int = 32
    alpha: float = 10.0
    backbone_layers: int = 3
    min_pixels: int = 1
    amp_gamma: float = DEFAULT_AMP_GAMMA
    weight_decay: float = 1e-3
    clip_grad_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        for f in fields(self):  # the annotations above are the type table
            value = getattr(self, f.name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "int" and not (real and isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (real and math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.batch_size < 4:
            raise ConfigError(f"batch size must be >= 4, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be non-negative")
        for name in ("momentum", "poly_power", "clip_grad_norm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not 0.0 <= self.amp_gamma <= 1.0:
            raise ConfigError(f"amp_gamma must lie in [0, 1], got {self.amp_gamma}")


@dataclass(frozen=True)
class VariantSpec:
    """Which rehearsal branches run in training and how gamma is set at inference."""

    kind: str
    train_fake_novel: bool
    train_fake_context: bool
    infer_enrich: bool
    gamma_mode: str  # "adaptive" | "converged" | "amp" | "none"

    @property
    def trains_gamma(self) -> bool:
        return self.train_fake_context


def make_variant(kind: str) -> VariantSpec:
    table = {
        "baseline": VariantSpec("baseline", False, False, False, "none"),
        "capl_tr": VariantSpec("capl_tr", True, False, False, "none"),
        "capl_te": VariantSpec("capl_te", False, False, True, "converged"),
        "capl": VariantSpec("capl", True, True, True, "adaptive"),
        "amp_gamma": VariantSpec("amp_gamma", True, True, True, "amp"),
        "convg_gamma": VariantSpec("convg_gamma", True, True, True, "converged"),
    }
    if kind not in table:
        raise ConfigError(f"unknown variant {kind!r}; expected one of {VARIANT_KINDS}")
    return table[kind]


# training for a variant reuses the checkpoint of its underlying train scheme
TRAIN_SCHEME = {
    "baseline": "baseline",
    "capl_te": "baseline",
    "capl_tr": "capl_tr",
    "capl": "capl",
    "amp_gamma": "capl",
    "convg_gamma": "capl",
}


@dataclass
class TrainBatch:
    samples: list  # (image Tensor, mask ndarray) pairs
    fake_support_idx: tuple[int, ...]
    fake_query_idx: tuple[int, ...]


@dataclass(frozen=True)
class FakeSplit:
    fake_novel: tuple[int, ...]
    fake_context: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.fake_novel and not self.fake_context


def partition_batch(samples, rng: np.random.Generator) -> TrainBatch:
    """Uniformly draw floor(B/2) samples as fake support; the rest are fake query."""
    b = len(samples)
    if b < 4:
        raise ConfigError(f"batch of {b} is too small to partition (need >= 4)")
    support = sorted(int(i) for i in rng.choice(b, b // 2, replace=False))
    query = [i for i in range(b) if i not in set(support)]
    return TrainBatch(list(samples), tuple(support), tuple(query))


def select_fake_classes(batch: TrainBatch, rng: np.random.Generator) -> FakeSplit:
    """Split the non-background classes present in the fake-support half.

    floor(n/2) of them rehearse novel-prototype replacement, the rest rehearse
    context fusion. Background never participates: it appears in every sample,
    and swapping its row for a batch mean each step destabilizes training.
    """
    present: set[int] = set()
    for i in batch.fake_support_idx:
        _, mask = batch.samples[i]
        present.update(int(v) for v in np.unique(mask))
    present -= {0, IGNORE_LABEL}
    ordered = sorted(present)
    if not ordered:
        return FakeSplit((), ())
    perm = rng.permutation(len(ordered))
    k = len(ordered) // 2
    fake_novel = tuple(sorted(ordered[i] for i in perm[:k]))
    fake_context = tuple(sorted(ordered[i] for i in perm[k:]))
    return FakeSplit(fake_novel, fake_context)


def pooled_class_means(
    feats: list[Tensor], masks: list[np.ndarray], class_ids
) -> dict[int, Tensor]:
    """Pixel-weighted mean feature per class over the given samples: all
    pixels of all samples pooled before dividing."""
    out: dict[int, Tensor] = {}
    for cid in class_ids:
        mean, count = pixel_weighted_mean(feats, [mask == cid for mask in masks])
        if count:
            out[cid] = mean
    return out


def build_updated_classifier(
    weights: Tensor,
    class_ids: tuple[int, ...],
    net: GammaNet | None,
    support_feats: list[Tensor],
    support_masks: list[np.ndarray],
    split: FakeSplit,
    use_context_fusion: bool = True,
) -> tuple[Tensor, list[float]]:
    """Assemble the updated weight matrix row by row; gradients flow through
    the pooled means and the gate. Rows outside the split are passed through.
    """
    wanted = set(split.fake_novel) | (set(split.fake_context) if use_context_fusion else set())
    means = pooled_class_means(support_feats, support_masks, sorted(wanted))
    rows = []
    gammas: list[float] = []
    for idx, cid in enumerate(class_ids):
        if cid in split.fake_novel and cid in means:
            rows.append(means[cid])
        elif use_context_fusion and cid in split.fake_context and cid in means:
            p_cls = T.take_row(weights, idx)
            gamma = gamma_forward(net, p_cls, means[cid])
            gammas.append(float(gamma.data.reshape(())))
            rows.append(fuse_prototype(p_cls, means[cid], gamma))
        else:
            rows.append(T.take_row(weights, idx))
    return T.stack(rows), gammas


def _label_lut(class_ids: tuple[int, ...]) -> np.ndarray:
    lut = np.full(256, -1, dtype=np.int64)
    for row, cid in enumerate(class_ids):
        lut[cid] = row
    lut[IGNORE_LABEL] = IGNORE_LABEL
    return lut


def _scaled_cosine_logits(flat_feats: Tensor, weights: Tensor, alpha: float) -> Tensor:
    normed_w = T.l2_normalize(weights)
    return T.scale(T.matmul(flat_feats, normed_w, transpose_b=True), alpha)


def _batch_ce(
    feats_flat: list[Tensor],
    labels: list[np.ndarray],
    positions,
    weights: Tensor,
    lut: np.ndarray,
    alpha: float,
) -> Tensor:
    chosen = [feats_flat[i] for i in positions]
    stacked = chosen[0] if len(chosen) == 1 else T.concat(chosen, axis=0)
    target = np.concatenate([lut[labels[i].reshape(-1)] for i in positions])
    if (target == -1).any():
        raise DataError("label id not covered by the classifier")
    logits = _scaled_cosine_logits(stacked, weights, alpha)
    return T.softmax_cross_entropy(logits, target)


def dual_loss(
    weights: Tensor,
    updated: Tensor,
    feats: list[Tensor],
    masks: list[np.ndarray],
    query_positions,
    class_ids: tuple[int, ...],
    alpha: float,
) -> tuple[Tensor, dict]:
    """(CE of original weights over all samples + CE of updated weights over
    the fake-query half) / 2. Means are over non-ignored pixels, pooled
    across the samples in each term."""
    lut = _label_lut(class_ids)
    flat = [T.reshape(T.l2_normalize(f), (f.shape[0] * f.shape[1], f.shape[2])) for f in feats]
    all_positions = range(len(feats))
    l_cls = _batch_ce(flat, masks, all_positions, weights, lut, alpha)
    l_update = _batch_ce(flat, masks, query_positions, updated, lut, alpha)
    loss = T.scale(T.add(l_cls, l_update), 0.5)
    info = {"l_cls": float(l_cls.data), "l_update": float(l_update.data)}
    return loss, info


# ---------------------------------------------------------------------------
# the optimization loop
# ---------------------------------------------------------------------------


@dataclass
class TrainData:
    images: list[Tensor]
    masks: list[np.ndarray]
    class_ids: tuple[int, ...]  # base classes, background included
    roles: dict[int, str]


def load_train_data(manifest: DatasetManifest) -> TrainData:
    base_ids = manifest.ids_with_role("base")
    images, masks = [], []
    for entry in manifest.train:
        image, mask = load_pair(manifest, entry)
        images.append(image)
        masks.append(mask)
    data = TrainData(images, masks, tuple(base_ids), {i: "base" for i in base_ids})
    _validate_train_masks(data)
    return data


def _validate_train_masks(data: TrainData) -> None:
    legal = set(data.class_ids) | {IGNORE_LABEL}
    for i, mask in enumerate(data.masks):
        extra = set(np.unique(mask)) - legal
        if extra:
            raise DataError(f"train sample {i} contains non-base ids {sorted(extra)}")


@dataclass
class TrainState:
    config: TrainConfig
    variant: VariantSpec
    backbone: BackboneParams
    class_ids: tuple[int, ...]
    weights: Tensor
    roles: dict[int, str]
    gammanet: GammaNet | None
    rng_batches: np.random.Generator = None
    rng_steps: np.random.Generator = None
    step: int = 0
    velocities: dict[str, np.ndarray] = field(default_factory=dict)
    gamma_steps: list[float] = field(default_factory=list)
    curve: list[dict] = field(default_factory=list)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = self.backbone.tensors()
        named.append(("classifier.weights", self.weights))
        if self.gammanet is not None:
            named.extend(self.gammanet.tensors())
        return named

    def classifier(self):
        return make_classifier(self.class_ids, self.weights.data.copy(), self.roles, self.config.alpha)

    def converged_gamma(self) -> float | None:
        """Mean per-step gamma over the final tenth of training."""
        if not self.gamma_steps:
            return None
        tail = max(1, len(self.gamma_steps) // 10)
        return float(np.mean(self.gamma_steps[-tail:]))


def init_state(config: TrainConfig, data: TrainData, variant: VariantSpec) -> TrainState:
    backbone = init_backbone(config.embed_dim, config.backbone_layers, (config.seed, 1))
    rng_w = np.random.default_rng((config.seed, 2))
    s = np.sqrt(1.0 / config.embed_dim)
    weights = Tensor(
        rng_w.uniform(-s, s, (len(data.class_ids), config.embed_dim)), requires_grad=True
    )
    gammanet = init_gamma_net(config.embed_dim, (config.seed, 3)) if variant.trains_gamma else None
    return TrainState(
        config=config,
        variant=variant,
        backbone=backbone,
        class_ids=data.class_ids,
        weights=weights,
        roles=dict(data.roles),
        gammanet=gammanet,
        rng_batches=np.random.default_rng((config.seed, 4)),
        rng_steps=np.random.default_rng((config.seed, 5)),
    )


def train_step(state: TrainState, batch: TrainBatch, rng: np.random.Generator) -> dict:
    """One forward/backward/SGD-momentum update; returns the loss breakdown."""
    cfg = state.config
    variant = state.variant
    rehearse = variant.train_fake_novel or variant.train_fake_context
    gammas: list[float] = []
    with Tape() as tape:
        feats = [extract_features(state.backbone, img) for img, _ in batch.samples]
        masks = [mask for _, mask in batch.samples]
        if rehearse:
            split = select_fake_classes(batch, rng)
            if not variant.train_fake_context:
                split = FakeSplit(split.fake_novel, ())
            support_feats = [feats[i] for i in batch.fake_support_idx]
            support_masks = [masks[i] for i in batch.fake_support_idx]
            updated, gammas = build_updated_classifier(
                state.weights,
                state.class_ids,
                state.gammanet,
                support_feats,
                support_masks,
                split,
                use_context_fusion=variant.train_fake_context,
            )
            loss, info = dual_loss(
                state.weights,
                updated,
                feats,
                masks,
                batch.fake_query_idx,
                state.class_ids,
                cfg.alpha,
            )
        else:
            lut = _label_lut(state.class_ids)
            flat = [
                T.reshape(T.l2_normalize(f), (f.shape[0] * f.shape[1], f.shape[2]))
                for f in feats
            ]
            loss = _batch_ce(flat, masks, range(len(feats)), state.weights, lut, cfg.alpha)
            info = {"l_cls": float(loss.data), "l_update": float(loss.data)}
    if not np.isfinite(loss.data).all():
        raise NumericalError(f"non-finite loss at step {state.step}")
    backward(tape, loss)

    lr_t = cfg.lr * (1.0 - state.step / max(1, cfg.steps)) ** cfg.poly_power
    clip_scale = 1.0
    if cfg.clip_grad_norm > 0:
        total_sq = 0.0
        for _, param in state.parameters():
            if param.grad is not None:
                total_sq += float(np.sum(param.grad * param.grad))
        total = np.sqrt(total_sq)
        if total > cfg.clip_grad_norm:
            clip_scale = cfg.clip_grad_norm / total
    for name, param in state.parameters():
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        if clip_scale != 1.0:
            grad = grad * clip_scale
        if cfg.weight_decay:
            grad = grad + cfg.weight_decay * param.data
        vel = state.velocities.get(name)
        vel = grad.copy() if vel is None else cfg.momentum * vel + grad
        state.velocities[name] = vel
        param.data = param.data - lr_t * vel
        param.grad = None

    state.step += 1
    mean_gamma = float(np.mean(gammas)) if gammas else None
    if mean_gamma is not None:
        state.gamma_steps.append(mean_gamma)
    info.update(loss=float(loss.data), lr=lr_t, mean_gamma=mean_gamma)
    state.curve.append(
        {
            "step": state.step - 1,
            "l_cls": info["l_cls"],
            "l_update": info["l_update"],
            "loss": info["loss"],
            "mean_gamma": "" if mean_gamma is None else mean_gamma,
        }
    )
    return info


def run_training_loop(state: TrainState, data: TrainData, until: int | None = None) -> TrainState:
    """Advance an (initialized or resumed) state toward its configured step
    count, optionally halting early at ``until`` total steps."""
    _validate_train_masks(data)
    target = state.config.steps if until is None else min(until, state.config.steps)
    n = len(data.images)
    if n == 0 and target > state.step:
        raise DataError("empty training set")
    while state.step < target:
        idx = state.rng_batches.choice(n, state.config.batch_size, replace=n < state.config.batch_size)
        samples = [(data.images[int(i)], data.masks[int(i)]) for i in idx]
        batch = partition_batch(samples, state.rng_steps)
        train_step(state, batch, state.rng_steps)
    return state


def train(config: TrainConfig, data: TrainData, variant: VariantSpec) -> TrainState:
    """Run the configured number of steps with poly learning-rate decay."""
    return run_training_loop(init_state(config, data, variant), data)


def write_curve(state: TrainState, path: str) -> None:
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=["step", "l_cls", "l_update", "loss", "mean_gamma"])
    writer.writeheader()
    writer.writerows(state.curve)
    atomic_write(path, buf.getvalue().encode())
