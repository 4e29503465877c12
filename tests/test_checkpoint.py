"""Checkpoint format: round trips, CRC integrity, precision options."""

import struct
import zlib

import numpy as np
import pytest

from protoseg.backbone import init_backbone
from protoseg.checkpoint import load_checkpoint, load_train_state, save_checkpoint
from protoseg.errors import FormatError, IoError
from protoseg.model import EvalModel
from protoseg.prototypes import init_gamma_net, make_classifier


def _model(with_gamma=True, seed=0):
    rng = np.random.default_rng(seed)
    clf = make_classifier(
        [0, 2, 5],
        rng.uniform(-1, 1, (3, 6)),
        {0: "base", 2: "base", 5: "novel"},
        alpha=10.0,
    )
    return EvalModel(
        backbone=init_backbone(c=6, layers=2, seed=seed),
        classifier=clf,
        gammanet=init_gamma_net(6, seed=seed + 1) if with_gamma else None,
        variant_kind="capl" if with_gamma else "baseline",
        converged_gamma=0.7 if with_gamma else None,
        amp_gamma=0.5,
        class_names={0: "background", 2: "thing", 5: "rare"},
        meta={"seed": 7, "steps": 11},
    )


def test_round_trip_is_lossless(tmp_path):
    model = _model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.classifier.class_ids == model.classifier.class_ids
    assert back.classifier.roles == model.classifier.roles
    assert back.classifier.alpha == model.classifier.alpha
    assert np.array_equal(back.classifier.weights, model.classifier.weights)
    for (na, ta), (nb, tb) in zip(model.backbone.tensors(), back.backbone.tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    assert np.array_equal(back.gammanet.w1.data, model.gammanet.w1.data)
    assert back.variant_kind == "capl"
    assert back.converged_gamma == 0.7
    assert back.class_names[5] == "rare"
    assert back.meta["seed"] == 7


def test_baseline_checkpoint_has_no_gamma_tensors(tmp_path):
    path = str(tmp_path / "b.ckpt")
    save_checkpoint(path, _model(with_gamma=False))
    back = load_checkpoint(path)
    assert back.gammanet is None
    assert back.variant_kind == "baseline"


def test_save_is_deterministic(tmp_path):
    model = _model()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_single_byte_corruption_detected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _model())
    blob = bytearray(open(path, "rb").read())
    for offset in (5, len(blob) // 2, len(blob) - 6):
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0x40
        open(path, "wb").write(bytes(corrupted))
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_f32_storage_rounds_values(tmp_path):
    model = _model()
    path = str(tmp_path / "half.ckpt")
    save_checkpoint(path, model, store_f32=True)
    back = load_checkpoint(path)
    w64 = model.classifier.weights
    w32 = back.classifier.weights
    assert not np.array_equal(w64, w32)
    np.testing.assert_allclose(w32, w64, rtol=1e-6)
    assert np.array_equal(w32, w64.astype(np.float32).astype(np.float64))


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_checkpoint(str(tmp_path / "nope.ckpt"))


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    body = b"JUNK" + bytes(64)
    import struct
    import zlib

    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_save_onto_directory_raises_io_error_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(IoError):
        save_checkpoint(str(target), _model())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


def test_non_utf8_class_name_is_format_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _model())
    body = bytearray(open(path, "rb").read()[:-4])
    body[body.index(b"thing")] = 0xFF
    open(path, "wb").write(_with_crc(bytes(body)))
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(path)


def _train_state_meta() -> dict:
    from dataclasses import asdict

    from protoseg.training import TrainConfig

    return {
        "step": 3,
        "config": asdict(TrainConfig(batch_size=4, embed_dim=6, backbone_layers=2)),
        "rng_batches": np.random.default_rng(1).bit_generator.state,
        "rng_steps": np.random.default_rng(2).bit_generator.state,
        "gamma_steps": [0.5, 0.25],
    }


def _save_with_train_state(path: str, saved) -> None:
    model = _model()
    model.meta["train_state"] = saved
    save_checkpoint(path, model)


def test_train_state_meta_round_trips(tmp_path):
    path = str(tmp_path / "s.ckpt")
    _save_with_train_state(path, _train_state_meta())
    state = load_train_state(path)
    assert state.step == 3
    assert state.config.embed_dim == 6
    assert state.gamma_steps == [0.5, 0.25]
    assert state.rng_steps.bit_generator.state == np.random.default_rng(2).bit_generator.state
    assert all(t.requires_grad for _, t in state.parameters())


@pytest.mark.parametrize(
    "key, value",
    [
        ("config", None),
        ("step", None),
        ("rng_batches", None),
        ("rng_steps", None),
        ("gamma_steps", None),
        ("step", "3"),
        ("step", True),
        ("config", [4, 6]),
        ("config", {"batch_size": 4, "colour": "red"}),
        ("config", {"lr": float("nan")}),
        ("rng_batches", {"bit_generator": "PCG64"}),
        ("rng_steps", {"bit_generator": "MT19937x", "state": {}}),
        ("gamma_steps", ["half"]),
    ],
)
def test_train_state_schema_violations_are_format_errors(tmp_path, key, value):
    saved = _train_state_meta()
    if value is None:
        del saved[key]
    else:
        saved[key] = value
    path = str(tmp_path / "s.ckpt")
    _save_with_train_state(path, saved)
    with pytest.raises(FormatError):
        load_train_state(path)


def test_train_state_without_a_gate_bias_is_format_error(tmp_path):
    model = _model()
    model.meta["train_state"] = _train_state_meta()
    path = str(tmp_path / "s.ckpt")
    named = [(n, t.data) for n, t in model.gammanet.tensors() if n != "gamma.b2"]
    model.gammanet = None
    save_checkpoint(path, model, extra_tensors=named)
    for loader in (load_checkpoint, load_train_state):
        with pytest.raises(FormatError, match="gamma.b2"):
            loader(path)
