"""Per-pixel feature extractor: a small stack of stride-1 conv layers.

Maps an (h, w, 3) image in [0, 1] to an (h, w, c) embedding at the same
spatial resolution, so label masks never need resampling. ReLU follows every
layer except the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

IN_CHANNELS = 3
KERNEL_SIZE = 3


@dataclass
class BackboneParams:
    """Conv-layer parameters; final layer's output channels == embed_dim."""

    layers: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def tensors(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, (kernel, bias) in enumerate(self.layers):
            named.append((f"backbone.{i}.kernel", kernel))
            named.append((f"backbone.{i}.bias", bias))
        return named


def init_backbone(c: int, layers: int, seed) -> BackboneParams:
    """Deterministic variance-preserving uniform init, zero biases.

    ReLU layers use gain 6 (He), the linear last layer gain 3, i.e. bounds
    +-sqrt(gain/fan_in). Smaller bounds shrink activations ~3x per layer;
    with a cosine head the resulting 1/|f| gradient factor then blows up the
    first steps and training collapses onto the majority class.
    """
    rng = np.random.default_rng(seed)
    params = BackboneParams()
    c_in = IN_CHANNELS
    for li in range(layers):
        fan_in = KERNEL_SIZE * KERNEL_SIZE * c_in
        gain = 3.0 if li == layers - 1 else 6.0
        s = np.sqrt(gain / fan_in)
        kernel = rng.uniform(-s, s, (KERNEL_SIZE, KERNEL_SIZE, c_in, c))
        bias = np.zeros(c)
        params.layers.append((Tensor(kernel, requires_grad=True), Tensor(bias, requires_grad=True)))
        c_in = c
    return params


def extract_features(params: BackboneParams, image: Tensor) -> Tensor:
    """Image (h, w, 3) -> feature map (h, w, c); differentiable when taped.

    The input is centered to [-0.5, 0.5] before the first convolution:
    all-positive inputs give every pixel a large shared feature component,
    which collapses cosine scores to ~1 for every class.
    """
    if image.data.ndim != 3 or image.shape[2] != IN_CHANNELS:
        raise ShapeError(f"expected (h, w, {IN_CHANNELS}) image, got {image.shape}")
    out = Tensor(image.data - 0.5)  # off the tape: the image needs no gradient
    last = len(params.layers) - 1
    for i, (kernel, bias) in enumerate(params.layers):
        out = T.conv2d(out, kernel, bias)
        if i != last:
            out = T.relu(out)
    return out
