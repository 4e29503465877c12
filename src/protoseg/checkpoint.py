"""Binary checkpoint format with a trailing CRC32.

Layout (all integers little-endian):

    magic "CAPL" | u8 version | u8 endian flag (1 = little) | u16 reserved
    u32 embed_dim | f64 alpha
    u32 n_classes, then per class: u32 id | u8 role (0 base, 1 novel)
                                   | u16 name_len | name utf-8
    u32 meta_len | meta JSON utf-8
    u32 n_tensors, then per tensor: u16 name_len | name utf-8 | u8 dtype
                                    (0 = f64, 1 = f32) | u8 ndim | u32 dims...
                                    | raw little-endian payload
    u32 crc32 of every preceding byte

Tensors are stored as 64-bit reals by default; ``store_f32`` halves the file
at the cost of rounding every value to 32-bit precision on save.
"""

from __future__ import annotations

import io
import json
import math
import re
import struct
import zlib

import numpy as np

from .backbone import BackboneParams
from .errors import FormatError, IoError, ProtosegError
from .model import EvalModel
from .netpbm import atomic_write
from .prototypes import GammaNet, ROLE_BASE, ROLE_NOVEL, make_classifier
from .tensor import Tensor

MAGIC = b"CAPL"
VERSION = 1
_ROLE_CODE = {ROLE_BASE: 0, ROLE_NOVEL: 1}
_CODE_ROLE = {v: k for k, v in _ROLE_CODE.items()}


def _named_tensors(model: EvalModel) -> list[tuple[str, np.ndarray]]:
    named = [(name, t.data) for name, t in model.backbone.tensors()]
    named.append(("classifier.weights", model.classifier.weights))
    if model.gammanet is not None:
        named.extend((name, t.data) for name, t in model.gammanet.tensors())
    return named


def save_checkpoint(
    path: str,
    model: EvalModel,
    store_f32: bool = False,
    extra_tensors: list[tuple[str, np.ndarray]] | None = None,
) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<BBH", VERSION, 1, 0))
    buf.write(struct.pack("<I", model.classifier.embed_dim))
    buf.write(struct.pack("<d", model.classifier.alpha))

    clf = model.classifier
    buf.write(struct.pack("<I", clf.num_classes))
    for cid in clf.class_ids:
        name = model.name_of(cid).encode()
        buf.write(struct.pack("<IBH", cid, _ROLE_CODE[clf.roles[cid]], len(name)))
        buf.write(name)

    meta = {
        "variant": model.variant_kind,
        "converged_gamma": model.converged_gamma,
        "amp_gamma": model.amp_gamma,
        **model.meta,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)

    named = _named_tensors(model) + list(extra_tensors or [])
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
    try:
        blob = open(path, "rb").read()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 4:
        raise FormatError(f"{path}: file too small to be a checkpoint")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise FormatError(f"{path}: CRC mismatch, file is corrupt")

    r = _Reader(body, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, endian, _ = r.unpack("<BBH")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if endian != 1:
        raise FormatError(f"{path}: unsupported byte order flag {endian}")
    (embed_dim,) = r.unpack("<I")
    (alpha,) = r.unpack("<d")

    (n_classes,) = r.unpack("<I")
    class_ids, roles, names = [], {}, {}
    for _ in range(n_classes):
        cid, role_code, name_len = r.unpack("<IBH")
        if role_code not in _CODE_ROLE:
            raise FormatError(f"{path}: unknown role code {role_code}")
        class_ids.append(cid)
        roles[cid] = _CODE_ROLE[role_code]
        names[cid] = r.text(name_len)

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
            tensors[name] = arr.astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise FormatError(f"{path}: bad shape {dims} for tensor {name}: {exc}") from exc

    return {
        "path": path,
        "embed_dim": embed_dim,
        "alpha": alpha,
        "class_ids": class_ids,
        "roles": roles,
        "names": names,
        "meta": meta,
        "tensors": tensors,
    }


def _params_from(doc: dict, trainable: bool) -> tuple[BackboneParams, Tensor, GammaNet | None]:
    """The backbone, classifier weights and gate stored in a parsed checkpoint."""
    path, tensors = doc["path"], doc["tensors"]

    def tensor(name: str) -> Tensor:
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        return Tensor(tensors[name], requires_grad=trainable)

    layer_ids = sorted(
        {
            int(m.group(1))
            for t in tensors
            if (m := re.fullmatch(r"backbone\.(\d+)\.kernel", t))
        }
    )
    if not layer_ids or layer_ids != list(range(len(layer_ids))):
        raise FormatError(f"{path}: incomplete backbone tensor set")
    layers = [(tensor(f"backbone.{i}.kernel"), tensor(f"backbone.{i}.bias")) for i in layer_ids]
    weights = tensor("classifier.weights")
    if weights.data.ndim != 2 or weights.shape[0] != len(doc["class_ids"]):
        raise FormatError(f"{path}: classifier rows disagree with class table")
    gammanet = None
    if "gamma.w1" in tensors:
        gammanet = GammaNet(*(tensor(f"gamma.{n}") for n in ("w1", "b1", "w2", "b2")))
    return BackboneParams(layers=layers, embed_dim=doc["embed_dim"]), weights, gammanet


def load_checkpoint(path: str) -> EvalModel:
    doc = _read_all(path)
    meta = doc["meta"]
    backbone, weights, gammanet = _params_from(doc, trainable=False)
    try:
        classifier = make_classifier(doc["class_ids"], weights.data, doc["roles"], doc["alpha"])
    except ProtosegError as exc:
        raise FormatError(f"{path}: bad class table: {exc}") from exc

    known = {"variant", "converged_gamma", "amp_gamma"}
    return EvalModel(
        backbone=backbone,
        classifier=classifier,
        gammanet=gammanet,
        variant_kind=meta.get("variant", "baseline"),
        converged_gamma=meta.get("converged_gamma"),
        amp_gamma=meta.get("amp_gamma", 0.5),
        class_names=doc["names"],
        meta={k: v for k, v in meta.items() if k not in known},
    )


# ---------------------------------------------------------------------------
# resumable training snapshots
# ---------------------------------------------------------------------------


def save_train_state(path: str, state, class_names=None, store_f32: bool = False) -> None:
    """Persist a training run so it can continue bitwise-identically: model
    tensors plus momentum buffers ("opt.*") and generator states in the meta."""
    from dataclasses import asdict

    from .model import from_train_state

    model = from_train_state(state, class_names)
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
    from .training import TrainConfig, TrainState, make_variant

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
        variant = make_variant(meta.get("variant", "baseline"))
        rng_batches = _generator(saved["rng_batches"])
        rng_steps = _generator(saved["rng_steps"])
        gamma_steps = [float(g) for g in saved["gamma_steps"]]
    except (ProtosegError, TypeError, ValueError, KeyError, OverflowError) as exc:
        raise FormatError(f"{path}: bad training state: {exc}") from exc
    backbone, weights, gammanet = _params_from(doc, trainable=True)

    return TrainState(
        config=config,
        variant=variant,
        backbone=backbone,
        class_ids=tuple(doc["class_ids"]),
        weights=weights,
        roles=dict(doc["roles"]),
        gammanet=gammanet,
        rng_batches=rng_batches,
        rng_steps=rng_steps,
        step=saved["step"],
        velocities={
            name[len("opt.") :]: arr
            for name, arr in doc["tensors"].items()
            if name.startswith("opt.")
        },
        gamma_steps=gamma_steps,
    )
