"""Base-class training with fake support/query rehearsal.

Each step splits the batch in half: pooled class means from the fake-support
half either replace ("fake novel") or gate-fuse into ("fake context") the
matching classifier rows, and the loss averages the cross entropy of the
original classifier over the whole batch with that of the updated classifier
over the fake-query half. This teaches the feature extractor to produce
pooled means that can stand in for classifier weights at registration time.

The variant table turns the rehearsal branches and the inference-time
enrichment on or off to reproduce the ablation grid.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, extract_features, init_backbone
from .errors import ConfigError, DataError, NumericalError, check_field_types
from .netpbm import write_csv
from .prototypes import (
    DEFAULT_ALPHA,
    ROLE_BASE,
    GammaNet,
    init_gamma_net,
    make_classifier,
    named_parameters,
    row_table,
    update_rows,
)
from .scenes import DatasetManifest, load_pair, present_ids
from .tensor import IGNORE_LABEL, Tape, Tensor, backward

# the SGD recipe: momentum, poly learning-rate decay exponent, weight decay
# and the global gradient-norm clip
MOMENTUM = 0.9
POLY_POWER = 0.9
WEIGHT_DECAY = 1e-3
CLIP_GRAD_NORM = 1.0


def _keep_freed_heap() -> None:
    """Let each train step reuse the ~35 MB the last one freed, not fault it in
    afresh. A trim threshold alone would pin glibc's mmap threshold at 128 KiB."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks under 32 MiB come from the heap
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: up to 1 GiB of free heap top is kept


_keep_freed_heap()


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    steps: int = 3000
    lr: float = 0.05
    seed: int = 0
    embed_dim: int = 32
    backbone_layers: int = 3

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 4:
            raise ConfigError(f"batch size must be >= 4, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.embed_dim < 2:
            raise ConfigError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.backbone_layers < 1:
            raise ConfigError(f"backbone_layers must be >= 1, got {self.backbone_layers}")
        for name in ("steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class VariantSpec:
    """One row of the ablation grid: the training scheme whose checkpoint the
    variant reuses, which rehearsal branches that scheme runs, and how gamma is
    set at inference ("none" registers by imprinting only)."""

    kind: str
    scheme: str
    train_fake_novel: bool
    train_fake_context: bool  # also: the scheme trains a gate network
    gamma_mode: str  # "adaptive" | "converged" | "amp" | "none"


VARIANTS = {
    v.kind: v
    for v in (
        VariantSpec("baseline", "baseline", False, False, "none"),
        VariantSpec("capl_tr", "capl_tr", True, False, "none"),
        VariantSpec("capl_te", "baseline", False, False, "converged"),
        VariantSpec("capl", "capl", True, True, "adaptive"),
        VariantSpec("amp_gamma", "capl", True, True, "amp"),
        VariantSpec("convg_gamma", "capl", True, True, "converged"),
    )
}
VARIANT_KINDS = tuple(VARIANTS)


def make_variant(kind: str) -> VariantSpec:
    if kind not in VARIANT_KINDS:  # a tuple: an unhashable kind compares unequal
        raise ConfigError(f"unknown variant {kind!r}; expected one of {VARIANT_KINDS}")
    return VARIANTS[kind]


@dataclass
class TrainBatch:
    samples: list  # (image Tensor, mask ndarray) pairs
    fake_support_idx: tuple[int, ...]
    fake_query_idx: tuple[int, ...]


@dataclass(frozen=True)
class FakeSplit:
    fake_novel: tuple[int, ...]
    fake_context: tuple[int, ...]


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
        present.update(present_ids(batch.samples[i][1]).tolist())
    present -= {0, IGNORE_LABEL}
    ordered = sorted(present)
    if not ordered:
        return FakeSplit((), ())
    perm = rng.permutation(len(ordered))
    k = len(ordered) // 2
    fake_novel = tuple(sorted(ordered[i] for i in perm[:k]))
    fake_context = tuple(sorted(ordered[i] for i in perm[k:]))
    return FakeSplit(fake_novel, fake_context)


def build_updated_classifier(
    weights: Tensor,
    class_ids: tuple[int, ...],
    net: GammaNet | None,
    support_feats: list[Tensor],
    support_masks: list[np.ndarray],
    split: FakeSplit,
) -> tuple[Tensor, list[float]]:
    """The rehearsed update: fake-novel rows are replaced by their pooled
    means and fake-context rows gate-fused with them, by the one
    ``update_rows`` that registration applies."""
    return update_rows(
        weights, class_ids, net, support_feats, support_masks, split.fake_novel, split.fake_context
    )


def _batch_ce(feats, masks, positions, weights: Tensor, lut: np.ndarray) -> Tensor:
    target = np.concatenate([lut[masks[i].reshape(-1)] for i in positions])
    if (target == -1).any():
        raise DataError("label id not covered by the classifier")
    return T.softmax_cross_entropy([feats[i] for i in positions], weights, target, DEFAULT_ALPHA)


def dual_loss(
    weights: Tensor,
    updated: Tensor | None,
    feats: list[Tensor],
    masks: list[np.ndarray],
    query_positions,
    class_ids: tuple[int, ...],
) -> tuple[Tensor, dict]:
    """(CE of original weights over all samples + CE of updated weights over
    the fake-query half) / 2. Means are over non-ignored pixels, pooled
    across the samples in each term, and the second term scores the
    fake-query maps only. Without an updated classifier (a variant that does
    not rehearse) the loss is the first term alone."""
    lut = row_table(class_ids)
    lut[IGNORE_LABEL] = IGNORE_LABEL  # ignore pixels stay ignore targets
    l_cls = _batch_ce(feats, masks, range(len(feats)), weights, lut)
    if updated is None:
        return l_cls, {"l_cls": float(l_cls.data), "l_update": float(l_cls.data)}
    l_update = _batch_ce(feats, masks, query_positions, updated, lut)
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


def load_train_data(manifest: DatasetManifest) -> TrainData:
    images, masks = [], []
    for entry in manifest.train:
        image, mask = load_pair(manifest, entry)
        images.append(image)
        masks.append(mask)
    return TrainData(images, masks, manifest.ids_with_role(ROLE_BASE))


def _validate_train_masks(data: TrainData) -> None:
    legal = set(data.class_ids) | {IGNORE_LABEL}
    for i, mask in enumerate(data.masks):
        extra = set(present_ids(mask).tolist()) - legal
        if extra:
            raise DataError(f"train sample {i} contains non-base ids {sorted(extra)}")


@dataclass
class TrainState:
    config: TrainConfig
    variant: VariantSpec
    backbone: BackboneParams
    class_ids: tuple[int, ...]
    weights: Tensor
    gammanet: GammaNet | None
    rng_batches: np.random.Generator = None
    rng_steps: np.random.Generator = None
    step: int = 0
    velocities: dict[str, np.ndarray] = field(default_factory=dict)
    gamma_steps: list[float] = field(default_factory=list)
    curve: list[dict] = field(default_factory=list)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return named_parameters(self.backbone, self.weights, self.gammanet)

    def classifier(self):
        """The trained rows as a classifier; training only ever holds base classes."""
        roles = {cid: ROLE_BASE for cid in self.class_ids}
        return make_classifier(self.class_ids, self.weights.data.copy(), roles)

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
    gammanet = (
        init_gamma_net(config.embed_dim, (config.seed, 3)) if variant.train_fake_context else None
    )
    return TrainState(
        config=config,
        variant=variant,
        backbone=backbone,
        class_ids=data.class_ids,
        weights=weights,
        gammanet=gammanet,
        rng_batches=np.random.default_rng((config.seed, 4)),
        rng_steps=np.random.default_rng((config.seed, 5)),
    )


def train_step(state: TrainState, batch: TrainBatch, rng: np.random.Generator) -> dict:
    """One forward/backward/SGD-momentum update; returns the loss breakdown."""
    cfg = state.config
    variant = state.variant
    updated = None
    gammas: list[float] = []
    with Tape() as tape:
        feats = [extract_features(state.backbone, img) for img, _ in batch.samples]
        masks = [mask for _, mask in batch.samples]
        if variant.train_fake_novel or variant.train_fake_context:
            split = select_fake_classes(batch, rng)
            if not variant.train_fake_context:
                split = FakeSplit(split.fake_novel, ())
            updated, gammas = build_updated_classifier(
                state.weights,
                state.class_ids,
                state.gammanet,
                [feats[i] for i in batch.fake_support_idx],
                [masks[i] for i in batch.fake_support_idx],
                split,
            )
        loss, info = dual_loss(
            state.weights,
            updated,
            feats,
            masks,
            batch.fake_query_idx,
            state.class_ids,
        )
    if not np.isfinite(loss.data).all():
        raise NumericalError(f"non-finite loss at step {state.step}")
    params = state.parameters()
    grads = backward(tape, loss, [p for _, p in params])

    lr_t = cfg.lr * (1.0 - state.step / max(1, cfg.steps)) ** POLY_POWER
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    clip_scale = CLIP_GRAD_NORM / total if total > CLIP_GRAD_NORM else 1.0
    for (name, param), grad in zip(params, grads):
        if clip_scale != 1.0:
            grad = grad * clip_scale
        grad = grad + WEIGHT_DECAY * param.data
        vel = state.velocities.get(name)
        vel = grad if vel is None else MOMENTUM * vel + grad
        state.velocities[name] = vel
        param.data = param.data - lr_t * vel

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
    write_csv(path, ["step", "l_cls", "l_update", "loss", "mean_gamma"], state.curve)
