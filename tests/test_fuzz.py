"""Seeded mutation fuzzing of every loader: each mutant either loads or
raises a ProtosegError, never another exception."""

import json
import struct
import zlib

import numpy as np
import pytest

from protoseg.backbone import init_backbone
from protoseg.checkpoint import load_checkpoint, load_train_state, save_checkpoint, save_train_state
from protoseg.errors import ProtosegError
from protoseg.model import EvalModel
from protoseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from protoseg.prototypes import init_gamma_net, make_classifier
from protoseg.scenes import DatasetManifest, PairEntry, load_manifest
from protoseg.tensor import Tensor
from protoseg.training import TrainConfig, TrainData, init_state, make_variant, run_training_loop

MUTANTS = 1500
SPECIAL_BYTES = (0x00, 0x01, 0x22, 0x2C, 0x30, 0x7B, 0x7F, 0x80, 0xC3, 0xFF)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _mutate(blob: bytes, rng: np.random.Generator, crc: bool) -> bytes:
    """Overwrite, bit-flip, delete or insert 1-3 bytes; optionally re-seal the CRC."""
    body = bytearray(blob[:-4] if crc else blob)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(body)))
        how = int(rng.integers(0, 5))
        if how == 0:
            body[pos] = int(rng.integers(0, 256))
        elif how == 1:
            body[pos] ^= 1 << int(rng.integers(0, 8))
        elif how == 2:
            body[pos] = SPECIAL_BYTES[int(rng.integers(0, len(SPECIAL_BYTES)))]
        elif how == 3 and len(body) > 1:
            del body[pos]
        else:
            body.insert(pos, int(rng.integers(0, 256)))
    return _with_crc(bytes(body)) if crc else bytes(body)


def _escapes(tmp_path, name, blob, loaders, seed, crc=False):
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    escapes = []
    for i in range(MUTANTS):
        path.write_bytes(_mutate(blob, rng, crc))
        for loader in loaders:
            try:
                loader(str(path))
            except ProtosegError:
                pass
            except Exception as exc:  # any other exception is an escape
                escapes.append(f"mutant {i} via {loader.__name__}: {type(exc).__name__}: {exc}")
    return escapes


def _small_model() -> EvalModel:
    rng = np.random.default_rng(0)
    clf = make_classifier(
        [0, 1, 4], rng.uniform(-1, 1, (3, 2)), {0: "base", 1: "base", 4: "novel"}
    )
    return EvalModel(
        backbone=init_backbone(c=2, layers=1, seed=0),
        classifier=clf,
        gammanet=init_gamma_net(2, seed=1),
        variant_kind="capl",
        converged_gamma=0.6,
        meta={"seed": 7},
    )


def _small_train_state():
    rng = np.random.default_rng(0)
    images, masks = [], []
    for _ in range(4):
        images.append(Tensor(rng.uniform(0, 1, (4, 4, 3))))
        masks.append(rng.integers(0, 3, (4, 4)))
    data = TrainData(images, masks, (0, 1, 2))
    config = TrainConfig(batch_size=4, steps=2, seed=0, embed_dim=2, backbone_layers=1)
    return run_training_loop(init_state(config, data, make_variant("capl")), data)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_checkpoint_mutants_load_or_raise_protoseg_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _small_model(), store_f32=True)
    blob = open(path, "rb").read()
    assert _escapes(tmp_path, "mut.ckpt", blob, [load_checkpoint], seed=11, crc=True) == []


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_train_state_mutants_load_or_raise_protoseg_error(tmp_path):
    path = str(tmp_path / "s.ckpt")
    state = _small_train_state()
    assert state.velocities and state.gamma_steps
    save_train_state(path, state, store_f32=True)
    blob = open(path, "rb").read()
    loaders = [load_train_state, load_checkpoint]
    assert _escapes(tmp_path, "mut.ckpt", blob, loaders, seed=12, crc=True) == []


@pytest.mark.parametrize(
    "suffix, write, read, array",
    [
        ("ppm", write_ppm, read_ppm, np.linspace(0, 1, 2 * 3 * 3).reshape(2, 3, 3)),
        ("pgm", write_pgm, read_pgm, np.arange(6).reshape(2, 3)),
    ],
)
def test_netpbm_mutants_load_or_raise_protoseg_error(tmp_path, suffix, write, read, array):
    path = str(tmp_path / f"x.{suffix}")
    write(path, array)
    blob = open(path, "rb").read()
    assert _escapes(tmp_path, f"mut.{suffix}", blob, [read], seed=13) == []


def test_manifest_mutants_load_or_raise_protoseg_error(tmp_path):
    manifest = DatasetManifest(
        classes=[
            {"id": 0, "name": "background", "role": "base"},
            {"id": 1, "name": "class1", "role": "novel"},
        ],
        split_index=0,
        seed=3,
        train=[PairEntry("train_0000.ppm", "train_0000.pgm")],
        support_pool=[PairEntry("support_01_0000.ppm", "support_01_0000.pgm", novel_id=1)],
        test=[PairEntry("test_0000.ppm", "test_0000.pgm")],
    )
    blob = (json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n").encode()
    assert _escapes(tmp_path, "manifest.json", blob, [load_manifest], seed=14) == []
