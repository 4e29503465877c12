"""Prototype math: pooling, the cosine classifier, context fusion, registration.

A classifier is an ordered list of class prototypes. One head scores every
pixel against them: the cosine similarity scaled by ``DEFAULT_ALPHA``, whose
logits half ``tensor.cosine_logits`` both training's cross entropy and
inference's ``scorer`` call. Novel classes are installed by mask-average pooling over
their support shots; base classes present in those supports can additionally
be enriched by fusing their trained row with a pooled feature prototype,
weighted by a small learned gate network or a fixed gamma. Both go through
``update_rows``, the one classifier update, which training's rehearsal calls
too: the update that training rehearses is the one applied at inference.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, extract_features
from .errors import ConfigError, EmptyMaskError, NumericalError, RangeError, ShapeError
from .tensor import IGNORE_LABEL, Tensor

ROLE_BASE = "base"
ROLE_NOVEL = "novel"
BACKGROUND = 0
DEFAULT_ALPHA = 10.0


def class_name(cid: int) -> str:
    """The one naming rule: "background" for class 0, ``class{id}`` otherwise."""
    return "background" if cid == BACKGROUND else f"class{cid}"


def row_table(class_ids) -> np.ndarray:
    """The one label table: a class id (an 8-bit mask value) to its index in
    ``class_ids``, with -1 for every id not listed."""
    table = np.full(IGNORE_LABEL + 1, -1, dtype=np.int64)
    table[np.asarray(class_ids, dtype=np.int64)] = np.arange(len(class_ids))
    return table


@dataclass(frozen=True)
class Classifier:
    """Ordered (class id, prototype row) table plus roles.

    Rows are kept sorted by ascending class id so argmax tie-breaking lands on
    the lowest class id. Instances are immutable; registration returns a new one.
    """

    class_ids: tuple[int, ...]
    weights: np.ndarray  # (n, c) float64, row i belongs to class_ids[i]
    roles: dict[int, str]

    def __post_init__(self):
        ids = self.class_ids
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate class ids in classifier")
        if tuple(sorted(ids)) != ids:
            raise ConfigError("classifier rows must be sorted by class id")
        if BACKGROUND not in ids or self.roles.get(BACKGROUND) != ROLE_BASE:
            raise ConfigError("background class 0 must be present with role base")
        if self.weights.shape[0] != len(ids):
            raise ShapeError("one weight row per class id required")

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)


def make_classifier(class_ids, weights, roles) -> Classifier:
    order = np.argsort(class_ids, kind="stable")
    ids = tuple(int(class_ids[i]) for i in order)
    w = np.ascontiguousarray(np.asarray(weights, dtype=np.float64)[order])
    return Classifier(ids, w, dict(roles))


@dataclass
class SupportSample:
    image: Tensor  # (h, w, 3)
    mask: np.ndarray  # (h, w) int labels with IGNORE_LABEL holes
    novel_class: int  # the class this sample was selected for


@dataclass
class SupportSet:
    """K support samples per novel class, flattened; grouped via novel_class."""

    samples: list[SupportSample] = field(default_factory=list)

    def novel_ids(self) -> tuple[int, ...]:
        return tuple(sorted({s.novel_class for s in self.samples}))

    def shots_for(self, novel_id: int) -> list[SupportSample]:
        return [s for s in self.samples if s.novel_class == novel_id]


@dataclass
class GammaNet:
    """Two-layer MLP gate: concat(p_cls, p_feat) -> hidden c (ReLU) -> sigmoid scalar."""

    w1: Tensor  # (2c, c)
    b1: Tensor  # (c,)
    w2: Tensor  # (c, 1)
    b2: Tensor  # (1,)

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[1]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [
            ("gamma.w1", self.w1),
            ("gamma.b1", self.b1),
            ("gamma.w2", self.w2),
            ("gamma.b2", self.b2),
        ]


def named_parameters(
    backbone: BackboneParams, weights: Tensor, gammanet: GammaNet | None
) -> list[tuple[str, Tensor]]:
    """Every trainable tensor under its checkpoint name: the backbone layers,
    the classifier weights, then the gate when there is one."""
    named = backbone.tensors()
    named.append(("classifier.weights", weights))
    if gammanet is not None:
        named.extend(gammanet.tensors())
    return named


def parameters_from_named(named: dict[str, Tensor]) -> tuple[BackboneParams, Tensor, GammaNet | None]:
    """Inverse of ``named_parameters``; other names are ignored. A missing
    tensor, including a gap in the backbone layer numbers, raises KeyError."""
    kernel = re.compile(r"backbone\.(\d+)\.kernel")
    kernels = [int(m.group(1)) for n in named if (m := kernel.fullmatch(n))]
    layers = [
        (named[f"backbone.{i}.kernel"], named[f"backbone.{i}.bias"])
        for i in range(max(kernels, default=0) + 1)
    ]
    gammanet = None
    if "gamma.w1" in named:
        gammanet = GammaNet(*(named[f"gamma.{n}"] for n in ("w1", "b1", "w2", "b2")))
    return BackboneParams(layers), named["classifier.weights"], gammanet


def init_gamma_net(c: int, seed: int) -> GammaNet:
    rng = np.random.default_rng(seed)
    s1 = np.sqrt(1.0 / (2 * c))
    s2 = np.sqrt(1.0 / c)
    return GammaNet(
        w1=Tensor(rng.uniform(-s1, s1, (2 * c, c)), requires_grad=True),
        b1=Tensor(np.zeros(c), requires_grad=True),
        w2=Tensor(rng.uniform(-s2, s2, (c, 1)), requires_grad=True),
        b2=Tensor(np.zeros(1), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def masked_sum_part(features: Tensor, mask: np.ndarray) -> tuple[Tensor, int] | None:
    """Per-sample part of both pooling rules: (masked sum, pixel count); None if empty."""
    n = int(np.count_nonzero(mask))
    return (T.masked_sum(features, mask), n) if n else None


def mean_of_shots(parts) -> Tensor:
    """Shot-level rule: the mean of the non-empty parts' masked means.

    Every contributing shot carries equal weight regardless of its pixel
    count; empty parts (None) are skipped, and an ``EmptyMaskError`` is raised
    when every part is empty.
    """
    means = [T.div_scalar(total, n) for total, n in filter(None, parts)]
    if not means:
        raise EmptyMaskError("every shot has an empty mask")
    return T.div_scalar(functools.reduce(T.add, means), len(means))


def pixel_weighted_combine(parts, dim: int) -> tuple[Tensor, int]:
    """Pixel-weighted rule: the non-empty parts' sums, added as ``parts``
    yields them, over their total pixel count, and that count.

    All pixels are pooled before dividing; with no pixel at all the result is
    the zero vector of width ``dim`` with count 0. Given a generator of parts,
    each masked sum is taken just before it is added, so on a tape the
    records interleave sample by sample.
    """
    total, count = None, 0
    for part, n in filter(None, parts):
        total = part if total is None else T.add(total, part)
        count += n
    if count == 0:
        return Tensor(np.zeros(dim)), 0
    return T.div_scalar(total, count), count


# ---------------------------------------------------------------------------
# gating and fusion
# ---------------------------------------------------------------------------


def gamma_forward(net: GammaNet, p_cls: Tensor, p_feat: Tensor) -> Tensor:
    """Adaptive fusion weight in (0, 1), conditioned on both prototypes."""
    c = net.embed_dim
    if p_cls.shape != (c,) or p_feat.shape != (c,):
        raise ShapeError(f"expected two ({c},) vectors, got {p_cls.shape} and {p_feat.shape}")
    h = T.relu(T.linear(T.concat([p_cls, p_feat]), net.w1, net.b1))
    out = T.sigmoid(T.linear(h, net.w2, net.b2))
    return T.reshape(out, ())


def check_gamma(gamma) -> None:
    """The one rule for a gate value: a ``RangeError`` for a bool or another
    non-real, and for a real outside [0, 1], NaN included."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise RangeError(f"gamma {gamma!r} is not a real number")
    if not 0.0 <= gamma <= 1.0:
        raise RangeError(f"gamma {gamma} outside [0, 1]")


def fuse_prototype(p_cls: Tensor, p_feat: Tensor, gamma: Tensor) -> Tensor:
    """Convex combination gamma * p_cls + (1 - gamma) * p_feat.

    ``gamma`` is a scalar tensor, a gate's output or a fixed gamma, so both
    fuse in float64. A gamma that is not finite (a diverged gate) is a
    ``NumericalError``; any other gamma outside [0, 1] is a ``RangeError``.
    """
    g = gamma.item()
    if not np.isfinite(g):
        raise NumericalError(f"the gate computed gamma {g}")
    check_gamma(g)
    return T.add(T.mul(p_cls, gamma), T.mul(p_feat, T.add(Tensor(1.0), T.scale(gamma, -1.0))))


def update_rows(weights: Tensor, class_ids, gate, feats, masks, replace, fuse):
    """The one classifier update of rehearsal and registration: (rows, gammas).

    A ``replace`` or ``fuse`` class with pixels in ``masks`` gets its
    pixel-weighted mean over ``feats``; a ``replace`` row becomes the mean, a
    ``fuse`` row its fusion through ``gate`` (a gate network, or a fixed
    gamma wrapped once as a scalar tensor). Other rows pass through. Taped:
    gradients flow through the means and the gate.
    """
    means: dict[int, Tensor] = {}
    for cid in sorted(set(replace) | set(fuse)):
        # a generator, not a list: the tape then records each masked sum just
        # before its add, and the gradient bits depend on that record order
        parts = (masked_sum_part(f, m == cid) for f, m in zip(feats, masks))
        mean, count = pixel_weighted_combine(parts, weights.shape[1])
        if count:
            means[cid] = mean
    if gate is not None and not isinstance(gate, GammaNet):
        gate = Tensor(gate)
    rows, gammas = [], []
    for idx, cid in enumerate(class_ids):
        if cid in replace and cid in means:
            rows.append(means[cid])
        elif cid in fuse and cid in means:
            p_cls = T.take_row(weights, idx)
            gamma = gate if isinstance(gate, Tensor) else gamma_forward(gate, p_cls, means[cid])
            gammas.append(gamma.item())
            rows.append(fuse_prototype(p_cls, means[cid], gamma))
        else:
            rows.append(T.take_row(weights, idx))
    return T.reshape(T.concat(rows), (len(rows), weights.shape[1])), gammas


# ---------------------------------------------------------------------------
# registration and classification
# ---------------------------------------------------------------------------


def register_novel_classes(
    classifier: Classifier,
    gate: GammaNet | float | None,
    backbone: BackboneParams,
    supports: SupportSet,
) -> Classifier:
    """Build a new classifier with novel rows imprinted and base rows enriched.

    Each declared novel class gets the shot-averaged pooled prototype. The
    base rows come from ``update_rows``, the update training rehearses: each
    base class with at least one support pixel is fused with its pooled
    context prototype, weighted by ``gate``: a gate network's output, or a
    fixed gamma in [0, 1]. Every other row is carried over bitwise, and with
    no gate (``None``, imprint-only registration) every base row is. The
    input classifier is never mutated.
    """
    declared = supports.novel_ids()
    for nid in declared:
        if nid in classifier.class_ids:
            raise ConfigError(f"class {nid} is already registered")
    if gate is not None and not isinstance(gate, GammaNet):
        check_gamma(gate)  # a fixed gamma may be an int, e.g. JSON 1

    features = [extract_features(backbone, s.image) for s in supports.samples]
    masks = [s.mask for s in supports.samples]

    novel_rows = []
    for nid in declared:
        parts = [
            masked_sum_part(feat, sample.mask == nid)
            for sample, feat in zip(supports.samples, features)
            if sample.novel_class == nid
        ]
        if not any(parts):
            raise EmptyMaskError(f"novel class {nid} has no pixels in any shot")
        novel_rows.append(mean_of_shots(parts).data)

    ids = classifier.class_ids
    base = tuple(cid for cid in ids if classifier.roles[cid] == ROLE_BASE)
    fuse = () if gate is None else base
    rows, _ = update_rows(Tensor(classifier.weights), ids, gate, features, masks, (), fuse)
    roles = {**classifier.roles, **{nid: ROLE_NOVEL for nid in declared}}
    return make_classifier(ids + declared, np.vstack([rows.data, *novel_rows]), roles)


def unit_rows(features: Tensor) -> np.ndarray:
    """``classify``'s per-image half: an (h, w, c) map as (h*w, c) unit rows."""
    return T.unit(features.data.reshape(-1, features.shape[-1]))[0]


def scorer(classifiers):
    """``classify``'s per-classifier half, for one classifier or many: it
    normalizes the prototype rows once, and scores unit rows (n, c) for all in
    one product, as each one's (predicted rows into ``class_ids``, logits (k, n))."""
    table = np.vstack([T.unit(c.weights)[0] for c in classifiers])
    bounds = [0, *itertools.accumulate(c.num_classes for c in classifiers)]
    ranks = np.arange(IGNORE_LABEL, 0, -1, dtype=np.uint8)[:, None]  # its last k rows: k..1

    def score(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        logits = T.cosine_logits(table, rows, DEFAULT_ALPHA)
        # bounded by alpha, but float32 unit rows can exceed norm 1 by rounding;
        # only inference clips, as a clipped training logit has no gradient
        np.clip(logits, -DEFAULT_ALPHA, DEFAULT_ALPHA, out=logits)
        parts = [logits[lo:hi] for lo, hi in itertools.pairwise(bounds)]
        # argmax down the class axis without its transposed copy: the top rank
        # at the maximum is the lowest row; a NaN column matches none, row 0
        firsts = [((p == p.max(axis=0)) * ranks[-len(p):]).max(axis=0) for p in parts]
        return [((len(p) - first) % len(p), p) for p, first in zip(parts, firsts)]

    return score


def classify(classifier: Classifier, features: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Predict per-pixel class ids; ties break toward the lowest class id.

    Returns (label mask, logits (h, w, k)). Argmax of the scaled cosine
    scores equals argmax of the softmax, so no softmax is materialized.
    """
    h, w, _ = features.shape
    [(rows, logits)] = scorer([classifier])(unit_rows(features))
    labels = np.asarray(classifier.class_ids)[rows]
    return labels.reshape(h, w), logits.reshape(-1, h, w).transpose(1, 2, 0)
