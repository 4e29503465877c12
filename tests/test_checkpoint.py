"""Checkpoint format: round trips, CRC integrity, precision options."""

import json
import math
import struct
import zlib

import numpy as np
import pytest

from protoseg.backbone import init_backbone
from protoseg.checkpoint import load_checkpoint, load_train_state, save_checkpoint
from protoseg.cli import main
from protoseg.errors import FormatError, IoError
from protoseg.model import EvalModel
from protoseg.netpbm import write_ppm
from protoseg.prototypes import init_gamma_net, make_classifier, named_parameters
from protoseg.tensor import Tensor


def _model(with_gamma=True, seed=0, role_of_5="novel"):
    rng = np.random.default_rng(seed)
    clf = make_classifier(
        [0, 2, 5],
        rng.uniform(-1, 1, (3, 6)),
        {0: "base", 2: "base", 5: role_of_5},
    )
    return EvalModel(
        backbone=init_backbone(c=6, layers=2, seed=seed),
        classifier=clf,
        gammanet=init_gamma_net(6, seed=seed + 1) if with_gamma else None,
        variant_kind="capl" if with_gamma else "baseline",
        converged_gamma=0.7 if with_gamma else None,
        amp_gamma=0.5,
        meta={"seed": 7, "steps": 11},
    )


def test_round_trip_is_lossless(tmp_path):
    model = _model()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.classifier.class_ids == model.classifier.class_ids
    assert back.classifier.roles == model.classifier.roles
    assert np.array_equal(back.classifier.weights, model.classifier.weights)
    for (na, ta), (nb, tb) in zip(model.backbone.tensors(), back.backbone.tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    assert np.array_equal(back.gammanet.w1.data, model.gammanet.w1.data)
    assert back.variant_kind == "capl"
    assert back.converged_gamma == 0.7
    assert back.meta["seed"] == 7

    # a walk written from the v2 layout alone: header, 5-byte class rows,
    # meta, tensor records and CRC, with every byte of the file consumed
    blob = open(path, "rb").read()
    assert blob[:4] == b"CAPL"
    pos = 4

    def take(fmt):
        nonlocal pos
        out = struct.unpack_from(fmt, blob, pos)
        pos += struct.calcsize(fmt)
        return out

    assert take("<B") == (2,)
    (n_classes,) = take("<I")
    assert [take("<IB") for _ in range(n_classes)] == [(0, 0), (2, 0), (5, 1)]
    (meta_len,) = take("<I")
    meta = json.loads(take(f"<{meta_len}s")[0].decode())
    assert meta == {"variant": "capl", "converged_gamma": 0.7, "amp_gamma": 0.5, "seed": 7, "steps": 11}
    (n_tensors,) = take("<I")
    tensors = {}
    for _ in range(n_tensors):
        (name_len,) = take("<H")
        (name,) = take(f"<{name_len}s")
        dtype_code, ndim = take("<BB")
        assert dtype_code == 0
        dims = take(f"<{ndim}I")
        (payload,) = take(f"<{8 * math.prod(dims)}s")
        tensors[name.decode()] = np.frombuffer(payload, dtype="<f8").reshape(dims)
    crc_end = pos
    assert take("<I") == (zlib.crc32(blob[:crc_end]) & 0xFFFFFFFF,)
    assert pos == len(blob)
    named = _named(model)
    assert list(tensors) == [n for n, _ in named]
    assert all(np.array_equal(tensors[n], t.data) for n, t in named)


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


def test_empty_tensor_with_an_oversized_shape_is_format_error(tmp_path):
    # a zero dim leaves no payload, but numpy cannot hold the shape at all
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _model(), extra_tensors=[("opt.x", np.zeros((0, 1, 1)))])
    body = bytearray(open(path, "rb").read()[:-4])
    dims = body.index(b"opt.x") + len(b"opt.x") + 2
    body[dims : dims + 12] = struct.pack("<3I", 0, 2**32 - 1, 2**32 - 1)
    open(path, "wb").write(_with_crc(bytes(body)))
    with pytest.raises(FormatError, match="bad shape"):
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


def _named(model):
    return named_parameters(model.backbone, Tensor(model.classifier.weights), model.gammanet)


def _save_with_train_state(path: str, saved, role_of_5="base", momentum=None) -> None:
    """A snapshot of a base-only model with one zero momentum buffer per
    parameter, or the given (name, array) buffers."""
    model = _model(role_of_5=role_of_5)
    model.meta["train_state"] = saved
    if momentum is None:
        momentum = [(f"opt.{n}", np.zeros(t.shape)) for n, t in _named(model)]
    save_checkpoint(path, model, extra_tensors=momentum)


def _delete_meta_key(path: str, key: str) -> None:
    """Drop one key from a checkpoint's meta block and reseal the CRC."""
    blob = open(path, "rb").read()
    (n_classes,) = struct.unpack_from("<I", blob, 5)
    start = 9 + 5 * n_classes
    (meta_len,) = struct.unpack_from("<I", blob, start)
    meta = json.loads(blob[start + 4 : start + 4 + meta_len].decode())
    del meta[key]
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    rest = blob[start + 4 + meta_len : -4]
    open(path, "wb").write(_with_crc(blob[:start] + struct.pack("<I", len(meta_bytes)) + meta_bytes + rest))


DELETED = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("variant", ["capl"]),
        ("converged_gamma", "0.5"),
        ("converged_gamma", 7.0),
        ("amp_gamma", None),
        pytest.param("variant", DELETED, id="variant-deleted"),
        pytest.param("converged_gamma", DELETED, id="converged_gamma-deleted"),
        pytest.param("amp_gamma", DELETED, id="amp_gamma-deleted"),
    ],
)
def test_bad_variant_meta_is_format_error(tmp_path, key, value):
    model = _model()
    path = str(tmp_path / "m.ckpt")
    if value is DELETED:
        save_checkpoint(path, model)
        _delete_meta_key(path, key)
    else:
        model.meta[key] = value  # written after, so in place of, the model's own field
        save_checkpoint(path, model)
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["converged_gamma", "amp_gamma"])
@pytest.mark.parametrize("value", [True, "0.5", 1.5, float("nan")])
def test_meta_gamma_that_check_gamma_rejects_exits_3(tmp_path, capsys, key, value):
    model = _model()
    model.meta[key] = value
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    image = str(tmp_path / "x.ppm")
    write_ppm(image, np.zeros((4, 4, 3)))
    assert main(["predict", "--model", path, "--image", image, "--out", str(tmp_path / "p.pgm")]) == 3
    assert key in capsys.readouterr().err


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
        ("step", -3),
        ("gamma_steps", [0.5, True]),
        ("gamma_steps", [0.5, float("nan")]),
        ("gamma_steps", [float("inf")]),
        ("gamma_steps", [0.5] * 4),  # one gate mean per step at most, and step is 3
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


@pytest.mark.parametrize(
    "step, role_of_5, momentum, config_extra",
    [
        pytest.param(3, "novel", None, {}, id="registered"),
        pytest.param(3, "base", [], {}, id="no_momentum"),
        pytest.param(
            3, "base", [("opt.classifier.weights", np.zeros((3, 6)))], {}, id="one_buffer"
        ),
        pytest.param(
            0, "base", [("opt.classifier.weights", np.zeros((3, 6)))], {}, id="step_0_buffer"
        ),
        pytest.param(
            3, "base", [(f"opt.{n}", np.zeros(2)) for n, _ in _named(_model())], {},
            id="buffer_shapes",
        ),
        # a snapshot from when the SGD recipe was part of the train config
        pytest.param(3, "base", None, {"momentum": 0.9}, id="config_with_momentum"),
        # no buffers, as at step 0, so only the sign of the step can reject it
        pytest.param(-3, "base", [], {}, id="negative_step"),
        pytest.param(3, "base", None, {"steps": 2}, id="step_past_the_configured_steps"),
    ],
)
def test_train_state_that_cannot_resume_is_format_error(
    tmp_path, step, role_of_5, momentum, config_extra
):
    saved = _train_state_meta()
    saved.update(step=step, config={**saved["config"], **config_extra})
    path = str(tmp_path / "s.ckpt")
    _save_with_train_state(path, saved, role_of_5, momentum)
    with pytest.raises(FormatError):
        load_train_state(path)


def test_train_state_without_a_variant_is_format_error(tmp_path):
    path = str(tmp_path / "s.ckpt")
    _save_with_train_state(path, _train_state_meta())
    _delete_meta_key(path, "variant")
    with pytest.raises(FormatError, match="variant"):
        load_train_state(path)


@pytest.mark.parametrize("loader", [load_checkpoint, load_train_state])
@pytest.mark.parametrize("cid", [255, 300])
def test_class_id_that_no_8bit_mask_holds_is_format_error(tmp_path, loader, cid):
    # 255 is the ignore label, and 300 does not fit in a mask at all
    model = _model()
    roles = {0: "base", 2: "base", cid: "base"}
    model.classifier = make_classifier([0, 2, cid], model.classifier.weights, roles)
    model.meta["train_state"] = _train_state_meta()
    momentum = [(f"opt.{n}", np.zeros(t.shape)) for n, t in _named(model)]
    path = str(tmp_path / "s.ckpt")
    save_checkpoint(path, model, extra_tensors=momentum)
    with pytest.raises(FormatError, match=f"class id {cid}"):
        loader(path)


def _replace_layer(i, kernel_shape, bias_shape=(6,)):
    def mutate(model):
        model.backbone.layers[i] = (Tensor(np.ones(kernel_shape)), Tensor(np.ones(bias_shape)))

    return mutate


def _narrow_classifier(model):
    clf = model.classifier
    model.classifier = make_classifier(clf.class_ids, clf.weights[:, :5], clf.roles)


def _narrow_gate(model):
    model.gammanet = init_gamma_net(3, seed=1)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_replace_layer(0, (2, 2, 3, 6)), id="even_kernel"),
        pytest.param(_replace_layer(0, (3, 5, 3, 6)), id="non_square_kernel"),
        pytest.param(_replace_layer(0, (3, 3, 4, 6)), id="first_kernel_not_from_rgb"),
        pytest.param(_replace_layer(1, (3, 3, 5, 6)), id="broken_chain"),
        pytest.param(_replace_layer(1, (3, 3, 6, 6), bias_shape=(5,)), id="bias_width"),
        pytest.param(_replace_layer(1, (3, 3, 6, 5), bias_shape=(5,)), id="last_cout"),
        pytest.param(_replace_layer(1, (3, 3)), id="flat_kernel"),
        pytest.param(_narrow_classifier, id="classifier_narrower_than_backbone"),
        pytest.param(_narrow_gate, id="gate_narrower_than_backbone"),
    ],
)
def test_checkpoint_with_inconsistent_shapes_is_format_error(tmp_path, mutate):
    model = _model()
    mutate(model)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    with pytest.raises(FormatError):
        load_checkpoint(path)


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
