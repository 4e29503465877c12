"""Finite-difference audit of every op kind and the end-to-end training loss.

``gradient_check`` compares the tape's gradient of a scalar function against
central differences. Each op gets randomized scalar-valued probes checked that
way; the end-to-end probe differentiates the full rehearsal loss on a small
fixed batch with respect to every trainable tensor. ``corrupted_op``
deliberately breaks one op's forward/backward consistency so the audit's
fail path can be exercised.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .backbone import extract_features, init_backbone
from .errors import ConfigError, NumericalError, ShapeError
from .prototypes import DEFAULT_ALPHA, init_gamma_net, named_parameters, parameters_from_named
from .tensor import Tape, Tensor, backward
from .training import FakeSplit, build_updated_classifier, dual_loss

GRADCHECK_STEP = 1e-5
GRADCHECK_TOL = 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    n_checked: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status} max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e} n={self.n_checked}"


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor) -> GradCheckReport:
    """Compare analytic gradients of a scalar function against central differences
    of half-width ``GRADCHECK_STEP``; the check passes at ``GRADCHECK_TOL``.

    Relative error uses max(|analytic|, |numeric|, 1.0) as the denominator so
    near-zero gradients are judged on absolute error at unit scale.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if y.data.size != 1:
        raise ShapeError("gradient_check needs a scalar-valued function")
    if not np.isfinite(y.data).all():
        raise NumericalError("f(x) is not finite")
    (analytic,) = backward(tape, y, [probe])

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + GRADCHECK_STEP
        f_plus = f(Tensor(bumped.reshape(x.shape))).data
        bumped[i] = flat[i] - GRADCHECK_STEP
        f_minus = f(Tensor(bumped.reshape(x.shape))).data
        if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
            raise NumericalError("f is not finite near x")
        num_flat[i] = (float(f_plus.reshape(())) - float(f_minus.reshape(()))) / (2.0 * GRADCHECK_STEP)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(max_rel, GRADCHECK_TOL, max_rel <= GRADCHECK_TOL, int(flat.size))


@contextmanager
def corrupted_op(kind: str):
    """Scale an op's forward output by 1 + 1e-3 after it is recorded, leaving
    its pullback stale; any gradient check through it must then fail. An
    unknown kind raises ``KeyError``."""
    original = T._OPS[kind]

    def broken(*args, **kwargs):
        out = original(*args, **kwargs)
        out.data = out.data * (1.0 + 1e-3)
        return out

    T._OPS[kind] = broken
    setattr(T, kind, broken)
    try:
        yield
    finally:
        T._OPS[kind] = original
        setattr(T, kind, original)


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    """The fixed linear functional ``weights . out`` as a one-element tensor."""
    flat = T.reshape(out, (out.size,))
    return T.linear(flat, Tensor(weights[:, None]), Tensor(np.zeros(1)))


def _op_probes(rng):
    def away_from_zero(shape, margin):
        x = rng.uniform(-2, 2, shape)
        return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * margin, x)

    def via(kind, *fixed_shapes, x_shape, margin=0.0, **kw):
        def build():
            draw = away_from_zero(x_shape, margin) if margin else rng.uniform(-2, 2, x_shape)
            x0 = Tensor(draw)
            others = [Tensor(rng.uniform(-2, 2, s)) for s in fixed_shapes]
            probe_out = T._OPS[kind](x0, *others, **kw)
            fw = rng.uniform(-1, 1, probe_out.size)
            return (lambda t: _scalarize(T._OPS[kind](t, *others, **kw), fw)), x0

        return build

    mask = (rng.random((4, 3)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    labels = rng.integers(0, 3, 8)
    labels[5] = T.IGNORE_LABEL

    def ce_build():
        # x0 is both a map and the weights, so one check covers both pullbacks
        x0, other = Tensor(rng.uniform(-2, 2, (4, 3))), Tensor(rng.uniform(-2, 2, (2, 2, 3)))
        return (lambda t: T.softmax_cross_entropy([t, other], t, labels, DEFAULT_ALPHA)), x0

    def concat_build():
        x0 = Tensor(rng.uniform(-2, 2, (2, 3)))
        other = Tensor(rng.uniform(-2, 2, (3, 3)))
        fw = rng.uniform(-1, 1, 15)
        return (lambda t: _scalarize(T.concat([t, other]), fw)), x0

    return {
        "add": via("add", (5,), x_shape=(5,)),
        "mul": via("mul", (5,), x_shape=(5,)),
        "scale": via("scale", x_shape=(4,), alpha=-1.7),
        "div_scalar": via("div_scalar", x_shape=(4,), denom=3.0),
        "relu": via("relu", x_shape=(6,), margin=1e-3),
        "sigmoid": via("sigmoid", x_shape=(6,)),
        "linear": via("linear", (4, 3), (3,), x_shape=(4,)),
        "reshape": via("reshape", x_shape=(6,), shape=(2, 3)),
        "concat": concat_build,
        "take_row": via("take_row", x_shape=(3, 4), index=1),
        "conv2d": via("conv2d", (3, 3, 2, 2), (2,), x_shape=(4, 4, 2)),
        "masked_sum": via("masked_sum", x_shape=(4, 3, 2), mask=mask),
        "softmax_cross_entropy": ce_build,
    }


def run_op_checks(trials: int) -> list[tuple[str, GradCheckReport]]:
    """Worst report per op kind over the given number of randomized probes."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    results = []
    for kind in T.op_kinds():
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        probes = _op_probes(rng)
        worst = None
        for _ in range(trials):
            f, x0 = probes[kind]()
            report = gradient_check(f, x0)
            if worst is None or report.max_rel_err > worst.max_rel_err:
                worst = report
        results.append((kind, worst))
    return results


def run_end_to_end_check() -> list[tuple[str, GradCheckReport]]:
    """Check d(dual loss)/d(theta) for every trainable tensor on a fixed batch
    of four 8x8 scenes, an 8-channel two-layer backbone and five classes."""
    c, h, w, batch, n_classes = 8, 8, 8, 4, 5
    rng = np.random.default_rng(0)
    backbone = init_backbone(c, 2, (0, 1))
    net = init_gamma_net(c, (0, 2))
    weights0 = rng.uniform(-1, 1, (n_classes, c))
    images = [Tensor(rng.random((h, w, 3))) for _ in range(batch)]
    masks = [rng.integers(0, n_classes, (h, w)) for _ in range(batch)]
    masks[0][0, :2] = 255  # exercise the ignore path
    class_ids = tuple(range(n_classes))
    split = FakeSplit((1,), (2,))
    support = tuple(range(batch // 2))
    query = tuple(range(batch // 2, batch))

    params = named_parameters(backbone, Tensor(weights0), net)

    def loss_with(name: str, probe: Tensor) -> Tensor:
        named = {n: Tensor(t.data, requires_grad=t.requires_grad) for n, t in params}
        named[name] = probe
        bb, wt, gn = parameters_from_named(named)
        feats = [extract_features(bb, img) for img in images]
        updated, _ = build_updated_classifier(
            wt, class_ids, gn,
            [feats[i] for i in support], [masks[i] for i in support], split,
        )
        loss, _ = dual_loss(wt, updated, feats, masks, query, class_ids)
        return loss

    return [(name, gradient_check(lambda t, n=name: loss_with(n, t), x)) for name, x in params]
