"""Binary checkpoint format with a trailing CRC32.

Layout (all integers little-endian):

    magic "CAPL" | u8 version (2)
    u32 n_classes, then per class: u32 id (< 255) | u8 role (0 base, 1 novel)
    u32 meta_len | meta JSON utf-8 holding variant, converged_gamma, amp_gamma
    u32 n_tensors, then per tensor: u16 name_len | name utf-8 | u8 dtype
                                    (0 = f64, 1 = f32) | u8 ndim | u32 dims...
                                    | raw little-endian payload
    u32 crc32 of every preceding byte

The width is the classifier rows' width and the cosine scale is always
``prototypes.DEFAULT_ALPHA``, so neither is stored. No other version is read.

Tensors are stored as 64-bit reals by default; ``store_f32`` halves the file
at the cost of rounding every value to 32-bit precision on save.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .backbone import IN_CHANNELS, BackboneParams
from .errors import FormatError, ProtosegError, RangeError
from .model import EvalModel, from_train_state
from .netpbm import atomic_write, read_bytes
from .prototypes import (
    ROLE_BASE, ROLE_NOVEL, GammaNet, check_gamma, make_classifier, named_parameters,
    parameters_from_named,
)
from .tensor import IGNORE_LABEL, Tensor
from .training import VARIANT_KINDS, TrainConfig, TrainState, make_variant

MAGIC = b"CAPL"
VERSION = 2
_ROLE_CODE = {ROLE_BASE: 0, ROLE_NOVEL: 1}
_CODE_ROLE = {v: k for k, v in _ROLE_CODE.items()}


def save_checkpoint(
    path: str,
    model: EvalModel,
    store_f32: bool = False,
    extra_tensors: list[tuple[str, np.ndarray]] | None = None,
) -> None:
    buf = io.BytesIO()
    clf = model.classifier
    buf.write(MAGIC + struct.pack("<BI", VERSION, clf.num_classes))
    for cid in clf.class_ids:
        buf.write(struct.pack("<IB", cid, _ROLE_CODE[clf.roles[cid]]))

    meta = {
        "variant": model.variant_kind,
        "converged_gamma": model.converged_gamma,
        "amp_gamma": model.amp_gamma,
        **model.meta,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)

    params = named_parameters(model.backbone, Tensor(model.classifier.weights), model.gammanet)
    named = [(n, t.data) for n, t in params] + list(extra_tensors or [])
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        raise FormatError("duplicate tensor names")
    buf.write(struct.pack("<I", len(named)))
    for name, arr in named:
        nb = name.encode()
        dtype_code = 1 if store_f32 else 0
        payload = arr.astype("<f4" if store_f32 else "<f8").tobytes()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<BB", dtype_code, arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(payload)

    body = buf.getvalue()
    atomic_write(path, body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: text field is not UTF-8") from exc


def _read_all(path: str) -> dict:
    blob = read_bytes(path)
    if len(blob) < len(MAGIC) + 4:
        raise FormatError(f"{path}: file too small to be a checkpoint")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise FormatError(f"{path}: CRC mismatch, file is corrupt")

    r = _Reader(body, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic")
    (version,) = r.unpack("<B")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")

    (n_classes,) = r.unpack("<I")
    class_ids, roles = [], {}
    for _ in range(n_classes):
        cid, role_code = r.unpack("<IB")
        if cid >= IGNORE_LABEL:
            raise FormatError(f"{path}: class id {cid} outside [0, {IGNORE_LABEL - 1}]")
        if role_code not in _CODE_ROLE:
            raise FormatError(f"{path}: unknown role code {role_code}")
        class_ids.append(cid)
        roles[cid] = _CODE_ROLE[role_code]

    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(r.text(meta_len))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad meta block: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta block must be a JSON object")

    (n_tensors,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        dtype_code, ndim = r.unpack("<BB")
        if dtype_code not in (0, 1):
            raise FormatError(f"{path}: unknown dtype code {dtype_code}")
        dims = r.unpack(f"<{ndim}I") if ndim else ()
        count = math.prod(dims)
        itemsize = 8 if dtype_code == 0 else 4
        raw = r.take(count * itemsize)
        arr = np.frombuffer(raw, dtype="<f8" if dtype_code == 0 else "<f4")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name}")
        try:
            # a zero dim leaves no payload, yet numpy still refuses a shape
            # whose other dims overflow its size, such as (0, 2**32-1, 2**32-1)
            tensors[name] = arr.astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise FormatError(f"{path}: bad shape {dims} for tensor {name}: {exc}") from exc

    return {
        "path": path,
        "class_ids": class_ids,
        "roles": roles,
        "meta": meta,
        "tensors": tensors,
    }


def _params_from(doc: dict, trainable: bool) -> tuple[BackboneParams, Tensor, GammaNet | None]:
    """The backbone, classifier weights and gate stored in a parsed checkpoint,
    checked to fit together: one classifier row per class, a chain of square
    odd kernels from the image's channels to the rows' width, and a gate of
    that width."""
    path = doc["path"]
    named = {n: Tensor(arr, requires_grad=trainable) for n, arr in doc["tensors"].items()}
    try:
        backbone, weights, gammanet = parameters_from_named(named)
    except KeyError as exc:
        raise FormatError(f"{path}: missing tensor {exc}") from exc
    if weights.data.ndim != 2 or weights.shape[0] != len(doc["class_ids"]):
        raise FormatError(f"{path}: classifier rows disagree with class table")
    c, cin = weights.shape[1], IN_CHANNELS
    for i, (kernel, bias) in enumerate(backbone.layers):
        k = kernel.shape[0] if kernel.shape else 0
        if kernel.shape != (k, k, cin, c) or k % 2 == 0 or bias.shape != (c,):
            raise FormatError(
                f"{path}: backbone layer {i} has kernel {kernel.shape} and bias {bias.shape}, "
                f"expected an odd square kernel from {cin} to {c} channels"
            )
        cin = c
    gate_shapes = [(2 * c, c), (c,), (c, 1), (1,)]
    if gammanet is not None and [t.shape for _, t in gammanet.tensors()] != gate_shapes:
        raise FormatError(f"{path}: gate tensors do not have the shapes {gate_shapes}")
    return backbone, weights, gammanet


def _check_meta_gamma(path: str, key: str, value) -> None:
    try:
        check_gamma(value)
    except RangeError as exc:
        raise FormatError(f"{path}: bad {key}: {exc}") from exc


def load_checkpoint(path: str) -> EvalModel:
    doc = _read_all(path)
    meta = doc["meta"]
    backbone, weights, gammanet = _params_from(doc, trainable=False)
    try:
        classifier = make_classifier(doc["class_ids"], weights.data, doc["roles"])
    except ProtosegError as exc:
        raise FormatError(f"{path}: bad class table: {exc}") from exc

    known = ("variant", "converged_gamma", "amp_gamma")
    try:
        variant, converged, amp = (meta[k] for k in known)
    except KeyError as exc:
        raise FormatError(f"{path}: meta block has no {exc}") from exc
    if variant not in VARIANT_KINDS:
        raise FormatError(f"{path}: unknown variant {variant!r}")
    if converged is not None:
        _check_meta_gamma(path, "converged_gamma", converged)
    _check_meta_gamma(path, "amp_gamma", amp)

    return EvalModel(
        backbone=backbone,
        classifier=classifier,
        gammanet=gammanet,
        variant_kind=variant,
        converged_gamma=converged,
        amp_gamma=amp,
        # a training snapshot is for load_train_state alone
        meta={k: v for k, v in meta.items() if k not in known + ("train_state",)},
    )


# ---------------------------------------------------------------------------
# resumable training snapshots
# ---------------------------------------------------------------------------


def save_train_state(path: str, state, store_f32: bool = False) -> None:
    """Persist a training run so it can continue bitwise-identically: model
    tensors plus momentum buffers ("opt.*") and generator states in the meta.
    The loss curve is not kept: a resumed run's curve holds its own steps."""
    model = from_train_state(state)
    model.meta["train_state"] = {
        "step": state.step,
        "config": asdict(state.config),
        "rng_batches": state.rng_batches.bit_generator.state,
        "rng_steps": state.rng_steps.bit_generator.state,
        "gamma_steps": state.gamma_steps,
    }
    extra = [(f"opt.{name}", vel) for name, vel in sorted(state.velocities.items())]
    save_checkpoint(path, model, store_f32=store_f32, extra_tensors=extra)


_TRAIN_STATE_SCHEMA = {
    "step": int,
    "config": dict,
    "rng_batches": dict,
    "rng_steps": dict,
    "gamma_steps": list,
}


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def load_train_state(path: str):
    """Rebuild a TrainState from a snapshot written by save_train_state."""
    doc = _read_all(path)
    meta = doc["meta"]
    saved = meta.get("train_state")
    if saved is None:
        raise FormatError(f"{path}: checkpoint carries no training state to resume")
    if not isinstance(saved, dict):
        raise FormatError(f"{path}: training state must be a JSON object")
    for key, kind in _TRAIN_STATE_SCHEMA.items():
        if not isinstance(saved.get(key), kind) or isinstance(saved[key], bool):
            raise FormatError(f"{path}: training state needs {kind.__name__} {key!r}")
    try:
        config = TrainConfig(**saved["config"])
        variant = make_variant(meta["variant"])
        rng_batches = _generator(saved["rng_batches"])
        rng_steps = _generator(saved["rng_steps"])
        for g in saved["gamma_steps"]:
            check_gamma(g)  # each entry is a step's mean gate value
    except (ProtosegError, TypeError, ValueError, KeyError, OverflowError) as exc:
        raise FormatError(f"{path}: bad training state: {exc}") from exc
    if not 0 <= saved["step"] <= config.steps:
        raise FormatError(f"{path}: training state step {saved['step']} outside [0, {config.steps}]")
    if len(saved["gamma_steps"]) > saved["step"]:
        raise FormatError(f"{path}: training state has more gate means than steps")
    backbone, weights, gammanet = _params_from(doc, trainable=True)
    if ROLE_NOVEL in doc["roles"].values():
        raise FormatError(f"{path}: a registered checkpoint cannot resume training")
    velocities = {n[len("opt.") :]: a for n, a in doc["tensors"].items() if n.startswith("opt.")}
    params = named_parameters(backbone, weights, gammanet) if saved["step"] > 0 else []
    if {n: v.shape for n, v in velocities.items()} != {n: t.shape for n, t in params}:
        raise FormatError(f"{path}: momentum buffers do not match the parameters at this step")

    return TrainState(
        config=config,
        variant=variant,
        backbone=backbone,
        class_ids=tuple(doc["class_ids"]),
        weights=weights,
        gammanet=gammanet,
        rng_batches=rng_batches,
        rng_steps=rng_steps,
        step=saved["step"],
        velocities=velocities,
        gamma_steps=[float(g) for g in saved["gamma_steps"]],
    )
