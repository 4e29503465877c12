"""Dense real tensors with tape-based reverse-mode differentiation.

Only the operations the rest of the package needs are implemented. A tensor
holds float32 or float64: float32 data stays float32 and everything else
becomes float64. Ops compute at numpy's promoted precision, except conv2d,
which computes at its input's precision, so a float32 image keeps the whole
backbone in float32 while the float64 parameters stay float64. Forward
results are recorded on the active tape whenever an input requires
gradients; ``backward`` replays the records in exact reverse order, casts
each gradient to the dtype of the tensor it flows into, and returns
dLoss/dt for each tensor it is asked about.

Reductions that feed the prototype math (``masked_sum``) gather the set
pixels and accumulate them in row-major pixel order, so they match a
per-pixel loop bitwise; other ops use ordinary numpy kernels, deterministic
but with no ordering promise beyond that. The cosine cross entropy is one
class-major op; conv2d keeps its input, not its im2col columns, and skips
``dx`` for an input that needs no gradient, such as the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericalError,
    ShapeError,
)

IGNORE_LABEL = 255


class Tensor:
    """n-dimensional float32 or float64 array, optionally tracked by the tape.

    A float32 array is kept as it is; any other data is converted to float64.

    Tensors are treated as immutable once produced by an op; the trainer is
    the only writer and only between steps.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeRecord:
    """One recorded op: kind, output, and its pullback to the op's inputs."""

    kind: str
    output: Tensor
    backward: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]


_active_tape: "Tape | None" = None


class Tape:
    """Ordered record of ops for one forward pass; single-threaded by contract."""

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        global _active_tape
        if _active_tape is not None:
            raise ConfigError("nested tapes are not supported")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_tape
        _active_tape = None


def _record(kind, inputs, out, backward) -> Tensor:
    if _active_tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _active_tape.records.append(TapeRecord(kind, out, backward))
    return out


def backward(tape: Tape, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """dLoss/dt for each tensor ``t`` of ``wrt``, zeros of ``t``'s dtype where
    the loss does not reach it; clears the tape."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g = grads.get(id(rec.output))
        if g is None:
            continue
        for tensor, contribution in rec.backward(g):
            if not tensor.requires_grad:
                continue
            if contribution.dtype != tensor.data.dtype:
                contribution = contribution.astype(tensor.data.dtype)
            held = grads.get(id(tensor))
            grads[id(tensor)] = contribution if held is None else held + contribution
    tape.records.clear()
    return [grads[id(t)] if id(t) in grads else np.zeros_like(t.data) for t in wrt]


# ---------------------------------------------------------------------------
# op kinds
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def back(g):
        return [(a, g), (b, g)]

    return _record("add", (a, b), out, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may also be a one-element tensor (broadcast)."""
    if a.shape != b.shape and b.data.size != 1:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def back(g):
        if b.data.size == 1 and a.shape != b.shape:
            gb = np.array(np.sum(g * a.data)).reshape(b.shape)
            return [(a, g * b.data), (b, gb)]
        return [(a, g * b.data), (b, g * a.data)]

    return _record("mul", (a, b), out, back)


def scale(a: Tensor, alpha: float) -> Tensor:
    """alpha * a with a python-scalar coefficient."""
    out = Tensor(a.data * alpha)

    def back(g):
        return [(a, g * alpha)]

    return _record("scale", (a,), out, back)


def div_scalar(a: Tensor, denom: float) -> Tensor:
    """a / denom as a true division, so pooled means match loop oracles bitwise."""
    if denom == 0.0:
        raise NumericalError("division by zero")
    out = Tensor(a.data / denom)

    def back(g):
        return [(a, g / denom)]

    return _record("div_scalar", (a,), out, back)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def back(g):
        return [(a, g * (a.data > 0.0))]

    return _record("relu", (a,), out, back)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    z = np.exp(-np.abs(x))
    y = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    out = Tensor(y)

    def back(g):
        return [(a, g * y * (1.0 - y))]

    return _record("sigmoid", (a,), out, back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """w^T x + b for a vector x: x (n,), w (n, m), b (m,)."""
    if x.data.ndim != 1 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("linear expects x (n,), w (n, m), b (m,)")
    n, m = w.shape
    if x.shape != (n,) or b.shape != (m,):
        raise ShapeError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}")
    out = Tensor(x.data @ w.data + b.data)

    def back(g):
        return [(x, w.data @ g), (w, np.outer(x.data, g)), (b, g)]

    return _record("linear", (x, w, b), out, back)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape {a.shape} -> {shape}")
    out = Tensor(a.data.reshape(shape))

    def back(g):
        return [(a, g.reshape(a.shape))]

    return _record("reshape", (a,), out, back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors along their first axis."""
    if not tensors:
        raise ShapeError("concat of zero tensors")
    parts = list(tensors)
    out = Tensor(np.concatenate([t.data for t in parts]))
    offsets = np.cumsum([0] + [t.shape[0] for t in parts])

    def back(g):
        return [(t, g[lo:hi]) for t, lo, hi in zip(parts, offsets[:-1], offsets[1:])]

    return _record("concat", tuple(parts), out, back)


def take_row(a: Tensor, index: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("take_row expects a matrix")
    if not 0 <= index < a.shape[0]:
        raise ShapeError(f"row {index} out of range for {a.shape}")
    out = Tensor(a.data[index].copy())

    def back(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return [(a, ga)]

    return _record("take_row", (a,), out, back)


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """An (h, w, c) array with ``p`` zero rows and columns on every side."""
    h, w, c = a.shape
    padded = np.zeros((h + 2 * p, w + 2 * p, c), a.dtype)
    padded[p : p + h, p : p + w] = a
    return padded


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    """Zero-padded k x k patches of an (h, w, c) array as an (h*w, k*k*c) matrix."""
    h, w, c = a.shape
    p = k // 2
    # a patch is k runs of k*c values, each contiguous in a padded row
    runs = sliding_window_view(_pad(a, p).reshape(h + 2 * p, -1), (k, k * c))[:, ::c]
    return runs.reshape(h * w, k * k * c)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Stride-1, zero-padded 2-d convolution: x (h, w, cin) -> (h, w, cout).

    Kernel is (k, k, cin, cout) with odd k. An im2col matrix product at
    ``x``'s dtype; the pullback keeps ``x``, not the k*k times larger columns.
    ``dk`` is k*k matrix products over shifted runs of the padded input's
    rows, ``dx`` the im2col of the output gradient times the flipped kernel
    with cin and cout swapped. Direct-loop oracles in the test suite pin the
    arithmetic: exactly for float64, at float32 tolerance for float32.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeError("conv2d expects x (h,w,cin), kernel (k,k,cin,cout), bias (cout,)")
    h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d kernel must be square with odd side, got {kh}x{kw}")
    if kcin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {kcin}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} vs cout {cout}")
    # kernel and bias are cast to the input's dtype once per call; the ``dx``
    # pullback reuses the cast kernel
    kern = kernel.data.astype(x.data.dtype, copy=False)
    out = _im2col(x.data, kh) @ kern.reshape(kh * kw * cin, cout)
    out += bias.data.astype(kern.dtype, copy=False)
    out = Tensor(out.reshape(h, w, cout))

    def back(g):
        p, wp = kh // 2, w + kh - 1
        rows = _pad(x.data, p).reshape(-1, cin)
        # g at the padded row width, less the last row's pad columns: for
        # kernel tap (i, j), output row r pairs with input row r + i*wp + j
        gp = np.zeros((h, wp, cout), g.dtype)
        gp[:, :w] = g
        gp = gp.reshape(-1, cout)[: h * wp - 2 * p]
        dk = np.stack([rows[i * wp + j :][: len(gp)].T @ gp for i in range(kh) for j in range(kw)])
        grads = [(kernel, dk.reshape(kernel.shape)), (bias, np.einsum("ij->j", gp))]
        if x.requires_grad:
            flipped = kern[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
            grads.append((x, (_im2col(g, kh) @ flipped).reshape(h, w, cin)))
        return grads

    return _record("conv2d", (x, kernel, bias), out, back)


def masked_sum(features: Tensor, mask: np.ndarray) -> Tensor:
    """Sum of feature vectors at set mask pixels, in row-major pixel order.

    The set pixels are gathered and reduced in row order, so the result
    matches a per-pixel python loop bitwise (the pooling oracles assert exact
    equality). The reduction is a cumsum because ``sum(axis=0)`` switches to
    pairwise summation when there is a single channel.
    """
    if features.data.ndim != 3:
        raise ShapeError("masked_sum expects features (h, w, c)")
    h, w, c = features.shape
    m = np.asarray(mask)
    if m.shape != (h, w):
        raise ShapeError(f"masked_sum: mask {m.shape} vs features {features.shape}")
    picked = m.reshape(-1).astype(bool)
    rows = features.data.reshape(h * w, c)[picked]
    out = Tensor(np.cumsum(rows, axis=0)[-1] if len(rows) else np.zeros(c, rows.dtype))

    def back(g):
        ga = np.zeros((h * w, c), features.data.dtype)
        ga[picked] = g
        return [(features, ga.reshape(h, w, c))]

    return _record("masked_sum", (features,), out, back)


def unit(a: np.ndarray):
    """The one unit-row function: rows of ``a`` (its last axis) at unit
    length, a row of norm <= 1e-8 mapping to zeros, and the pullback from
    their gradient to ``a``'s."""
    norms = np.sqrt(np.einsum("...i,...i->...", a, a))[..., None]
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 1e-8)
    y = a * inv

    def back(g):
        da = g - y * np.einsum("...i,...i->...", y, g)[..., None]
        da *= inv
        return da

    return y, back


def cosine_logits(unit_weights: np.ndarray, unit_rows: np.ndarray, alpha: float) -> np.ndarray:
    """The cosine head's logits half: unit prototype rows (k, c) against unit
    feature rows (n, c), cast to float64 here, as (k, n) logits times ``alpha``."""
    if unit_weights.shape[1] != unit_rows.shape[1]:
        raise ShapeError(f"cosine logits: weights {unit_weights.shape} vs rows {unit_rows.shape}")
    return (alpha * unit_weights) @ unit_rows.astype(np.float64, copy=False).T


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross entropy of class-major logits (k, n) against a row
    index per pixel, and its pullback; ``IGNORE_LABEL`` pixels weigh zero."""
    k, n = logits.shape
    y = np.asarray(labels).reshape(-1)
    if y.shape != (n,):
        raise ShapeError(f"labels {np.asarray(labels).shape} vs {n} scored pixels")
    keep = y != IGNORE_LABEL
    count = int(np.count_nonzero(keep))
    if count == 0:
        raise DegenerateBatchError("every pixel is ignored")
    target = np.where(keep, y, 0)
    if target.min() < 0 or target.max() >= k:
        raise ShapeError("label id outside the logit class range")
    picked = target * n + np.arange(n)  # each pixel's target logit, flat
    top = logits.max(axis=0)
    ez = np.exp(logits - top)
    ez_sum = ez.sum(axis=0)
    nll = (np.log(ez_sum) + top - logits.reshape(-1)[picked]) * keep

    def back(g):
        dz = ez / ez_sum
        dz.reshape(-1)[picked] -= 1.0
        dz *= keep * (float(g) / count)
        return dz

    return nll.sum() / count, back


def softmax_cross_entropy(maps: Sequence[Tensor], weights: Tensor, labels, alpha: float) -> Tensor:
    """The cosine head's mean cross entropy over the pixels of ``maps``.

    Each (..., c) map's rows are scaled to unit length by ``unit``, cast to
    float64 once and scored class-major by ``cosine_logits`` against the unit
    rows of ``weights`` (k, c); ``labels`` holds each pixel's row, maps in
    order, or ``IGNORE_LABEL``. The pullback is written out by hand.
    """
    parts = list(maps)
    if not parts or weights.data.ndim != 2 or any(m.shape[-1] != weights.shape[1] for m in parts):
        raise ShapeError(f"cross entropy: maps {[m.shape for m in parts]}, weights {weights.shape}")
    c = weights.shape[1]
    units, unit_backs = zip(*(unit(m.data.reshape(-1, c)) for m in parts))
    rows = np.concatenate(units, dtype=np.float64)
    unit_w, w_back = unit(weights.data)
    loss, logits_back = _cross_entropy(cosine_logits(unit_w, rows, alpha), labels)

    def back(g):
        dz = logits_back(g)
        grads = [(weights, w_back(alpha * (dz @ rows)))]
        # each map's pullback runs at the map's dtype
        d_rows = np.split(dz.T @ (alpha * unit_w), np.cumsum([m.size // c for m in parts[:-1]]))
        for m, unit_back, d_unit in zip(parts, unit_backs, d_rows):
            grads.append((m, unit_back(d_unit.astype(m.data.dtype)).reshape(m.shape)))
        return grads

    return _record("softmax_cross_entropy", (*parts, weights), Tensor(loss), back)


_OPS: dict[str, Callable] = {
    "add": add,
    "mul": mul,
    "scale": scale,
    "div_scalar": div_scalar,
    "relu": relu,
    "sigmoid": sigmoid,
    "linear": linear,
    "reshape": reshape,
    "concat": concat,
    "take_row": take_row,
    "conv2d": conv2d,
    "masked_sum": masked_sum,
    "softmax_cross_entropy": softmax_cross_entropy,
}


def op_kinds() -> tuple[str, ...]:
    return tuple(sorted(_OPS))
