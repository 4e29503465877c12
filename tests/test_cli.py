"""Command-line surface: smoke runs, exit codes, byte-level determinism."""

import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest

from protoseg import errors, gradcheck
from protoseg.checkpoint import load_checkpoint, load_train_state, save_checkpoint
from protoseg.cli import main
from protoseg.errors import ConfigError, FormatError, ProtosegError
from protoseg.netpbm import read_pgm
from protoseg.prototypes import DEFAULT_ALPHA, class_name
from protoseg.scenes import load_manifest


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


SCENE_CFG = {
    "scene": {
        "height": 24,
        "width": 24,
        "shapes_min": 1,
        "shapes_max": 3,
        "train_scenes": 12,
        "support_per_class": 4,
        "test_scenes": 6,
        "noise": 0.04,
        "seed": 5,
    }
}
TRAIN_CFG = {
    "train": {
        "batch_size": 4,
        "steps": 12,
        "lr": 0.05,
        "seed": 2,
        "embed_dim": 8,
        "backbone_layers": 2,
    }
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    scene_cfg = root / "scene.json"
    scene_cfg.write_text(json.dumps(SCENE_CFG))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))
    bad_lr_cfg = root / "bad_lr.json"
    bad_lr_cfg.write_text(json.dumps({"train": {"lr": -1}}))
    bad_embed_cfg = root / "bad_embed.json"
    bad_embed_cfg.write_text(json.dumps({"train": {"embed_dim": 1}}))
    bad_layers_cfg = root / "bad_layers.json"
    bad_layers_cfg.write_text(json.dumps({"train": {"backbone_layers": 0}}))
    bad_scene_cfg = root / "bad_scene.json"
    bad_scene_cfg.write_text(json.dumps({"scene": {"bogus": 1, "height": "x"}, **TRAIN_CFG}))
    data_dir = root / "data"
    assert main(["synth", "--config", str(scene_cfg), "--out", str(data_dir)]) == 0
    manifest = str(data_dir / "split0" / "manifest.json")
    ckpt = str(root / "capl.ckpt")
    assert (
        main(
            [
                "train", "--config", str(train_cfg), "--data", manifest,
                "--variant", "capl", "--out", ckpt,
            ]
        )
        == 0
    )
    return {
        "root": root,
        "scene_cfg": str(scene_cfg),
        "train_cfg": str(train_cfg),
        "bad_lr_cfg": str(bad_lr_cfg),
        "bad_embed_cfg": str(bad_embed_cfg),
        "bad_layers_cfg": str(bad_layers_cfg),
        "bad_scene_cfg": str(bad_scene_cfg),
        "data_dir": str(data_dir),
        "manifest": manifest,
        "ckpt": ckpt,
    }


def test_synth_writes_four_splits(workspace):
    for i in range(4):
        assert os.path.exists(os.path.join(workspace["data_dir"], f"split{i}", "manifest.json"))


def test_synth_rerun_is_byte_identical(workspace, tmp_path):
    again = str(tmp_path / "data2")
    assert main(["synth", "--config", workspace["scene_cfg"], "--out", again]) == 0
    split0 = os.path.join(workspace["data_dir"], "split0")
    for name in sorted(os.listdir(split0)):
        assert sha(os.path.join(split0, name)) == sha(os.path.join(again, "split0", name)), name


def test_bad_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scene": {,}}')
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_non_utf8_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"scene": {"seed": "\xff"}}')
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_utf8_config_is_read_as_utf8_under_the_c_locale(tmp_path):
    # the child decodes with ASCII as its locale encoding; the config is UTF-8
    cfg = tmp_path / "cafe.json"
    scene = {**SCENE_CFG["scene"], "train_scenes": 2, "support_per_class": 1, "test_scenes": 1}
    cfg.write_bytes(json.dumps({"_comment": "café — 24²", "scene": scene},
                               ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(inspect.getfile(main)))
    run = subprocess.run(
        [sys.executable, "-m", "protoseg.cli", "synth", "--config", str(cfg),
         "--out", str(tmp_path / "data")],
        env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "LC_ALL": "C"},
        capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "data" / "split3" / "manifest.json").exists()


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scene": {"heigth": 24}}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_one_config_file_serves_synth_train_and_ablate(workspace, tmp_path, capsys):
    # every command that reads --config builds and checks both sections
    both = tmp_path / "both.json"
    both.write_text(json.dumps({**SCENE_CFG, **TRAIN_CFG}))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(both), "--out", str(data)]) == 0
    manifest = str(data / "split0" / "manifest.json")
    assert sha(manifest) == sha(workspace["manifest"])
    ckpt = str(tmp_path / "capl.ckpt")
    assert main(["train", "--config", str(both), "--data", manifest, "--out", ckpt]) == 0
    assert sha(ckpt) == sha(workspace["ckpt"])
    assert main(["ablate", "--config", str(both), "--data", manifest, "--variants", "baseline",
                 "--shots-list", "1", "--seeds", "123", "--cache", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "ab.csv")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SCENE_CFG, "train": {**TRAIN_CFG["train"], "lr": -1.0}}))
    capsys.readouterr()
    out = tmp_path / "never"
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 2
    assert "learning rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_protocol_config_section_exits_2(workspace, tmp_path, command, capsys):
    # no code reads a "protocol" section, so it is as unknown as any other
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "protocol": {}}))
    out = tmp_path / "never"
    args = [command, "--config", str(cfg), "--data", workspace["manifest"], "--out", str(out)]
    if command == "ablate":
        args += ["--cache", str(tmp_path / "cache")]
    assert main(args) == 2
    assert "unknown config sections: ['protocol']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("train_scenes", 2.5),
        ("noise", "x"),
        ("seed", 1.5),
        ("noise", -0.1),
        ("context_tint", float("nan")),
        ("height", True),
    ],
)
def test_bad_scene_value_exits_2_and_writes_nothing(tmp_path, key, value):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"scene": {**SCENE_CFG["scene"], key: value}}))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("side", [8, 9])
def test_a_scene_side_below_ten_exits_2_and_writes_nothing(tmp_path, side, capsys):
    # a triangle's span reaches 9, so a smaller side has no room to place one
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"scene": {"height": side, "width": side}}))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert "at least 10" in capsys.readouterr().err
    assert not out.exists()


def test_ten_by_ten_scenes_build(tmp_path):
    cfg = tmp_path / "s.json"
    scene = {"height": 10, "width": 10, "train_scenes": 40, "support_per_class": 10, "test_scenes": 20}
    cfg.write_text(json.dumps({"scene": scene}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    for split in range(4):
        manifest = load_manifest(str(tmp_path / "data" / f"split{split}" / "manifest.json"))
        assert len(manifest.train) == 40 and len(manifest.test) == 20
        assert read_pgm(os.path.join(manifest.base_dir, manifest.test[0].mask)).shape == (10, 10)


def test_bad_train_value_exits_2_before_training(workspace, tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "lr": -1.0}}))
    out = tmp_path / "never.ckpt"
    args = ["train", "--config", str(cfg), "--data", workspace["manifest"], "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()


def test_train_smoke_single_step_is_loadable(workspace, tmp_path):
    out = str(tmp_path / "one.ckpt")
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "steps": 1}}))
    assert (
        main(
            ["train", "--config", str(cfg), "--data", workspace["manifest"],
             "--variant", "baseline", "--out", out]
        )
        == 0
    )
    model = load_checkpoint(out)
    assert model.variant_kind == "baseline"
    assert os.path.exists(out + ".curve.csv")


def test_train_with_an_unwritable_curve_exits_3_and_writes_no_checkpoint(workspace, tmp_path):
    # the curve is written before the snapshot, so its failure leaves no --out
    out = tmp_path / "m.ckpt"
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "steps": 1}}))
    (tmp_path / "curve").mkdir()
    assert main(["train", "--config", str(cfg), "--data", workspace["manifest"],
                 "--out", str(out), "--curve", str(tmp_path / "curve")]) == 3
    assert not out.exists()


def test_gamma_tensor_presence_differs_by_variant(workspace, tmp_path):
    base = str(tmp_path / "base.ckpt")
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "steps": 2}}))
    main(["train", "--config", str(cfg), "--data", workspace["manifest"],
          "--variant", "baseline", "--out", base])
    assert load_checkpoint(base).gammanet is None
    assert load_checkpoint(workspace["ckpt"]).gammanet is not None


def test_train_reruns_are_byte_identical(workspace, tmp_path):
    out = str(tmp_path / "again.ckpt")
    assert (
        main(
            ["train", "--config", workspace["train_cfg"], "--data", workspace["manifest"],
             "--variant", "capl", "--out", out]
        )
        == 0
    )
    assert sha(out) == sha(workspace["ckpt"])


def test_interrupted_training_resumes_to_identical_state(workspace, tmp_path):
    part = str(tmp_path / "part.ckpt")
    full = str(tmp_path / "full.ckpt")
    args = ["train", "--config", workspace["train_cfg"], "--data", workspace["manifest"],
            "--variant", "capl"]
    assert main(args + ["--out", part, "--stop-after", "6"]) == 0
    assert main(["train", "--data", workspace["manifest"], "--resume", part,
                 "--out", full]) == 0
    assert sha(full) == sha(workspace["ckpt"])
    # the snapshot carries no curve, so the resumed curve holds steps 6 on,
    # each row (floats written by repr) the uninterrupted run's to the bit
    header, *uninterrupted = open(workspace["ckpt"] + ".curve.csv").read().splitlines()
    assert open(full + ".curve.csv").read().splitlines() == [header, *uninterrupted[6:]]
    assert uninterrupted[6].startswith("6,")


@pytest.mark.parametrize("files", ["present", "absent"])
def test_negative_stop_after_exits_2_before_any_file_is_read(workspace, tmp_path, capsys, monkeypatch, files):
    def no_read(*args):
        raise AssertionError("the manifest was read")

    if files == "present":
        monkeypatch.setattr("protoseg.cli.load_manifest", no_read)
    out = str(tmp_path / "out.ckpt")
    data, cfg = workspace["manifest"], workspace["train_cfg"]
    if files == "absent":
        data, cfg = str(tmp_path / "absent.json"), str(tmp_path / "absent.json")
    code = main(["train", "--config", cfg, "--data", data, "--out", out, "--stop-after", "-3"])
    assert code == 2 and "--stop-after" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("files", ["present", "absent"])
def test_resume_with_a_config_exits_2_before_any_file_is_read(workspace, tmp_path, capsys, files):
    # the snapshot carries its own config; another one would be ignored
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "steps": 99, "lr": 5.0}}))
    out = str(tmp_path / "out.ckpt")
    data, snapshot = workspace["manifest"], workspace["ckpt"]
    if files == "absent":
        data, snapshot = str(tmp_path / "absent.json"), str(tmp_path / "absent.ckpt")
    code = main(["train", "--config", str(cfg), "--data", data, "--resume", snapshot,
                 "--out", out])
    assert code == 2 and "--config" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_resume_from_a_missing_snapshot_exits_3_before_the_train_pairs_are_read(
    workspace, tmp_path, monkeypatch
):
    def no_read(*args):
        raise AssertionError("the train pairs were read")

    monkeypatch.setattr("protoseg.cli.load_train_data", no_read)
    out = str(tmp_path / "out.ckpt")
    code = main(["train", "--data", workspace["manifest"], "--resume", str(tmp_path / "absent.ckpt"),
                 "--out", out])
    assert code == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags, message",
    [(["--variant", "baseline"], "--variant"), (["--stop-after", "3"], "--stop-after")],
)
def test_resume_checks_its_flags_against_the_snapshot_before_the_manifest(
    workspace, tmp_path, capsys, flags, message
):
    # the capl snapshot has run all 12 steps, so stopping after 3 is too late
    out = str(tmp_path / "out.ckpt")
    code = main(["train", "--data", str(tmp_path / "absent.json"), "--resume", workspace["ckpt"],
                 "--out", out, *flags])
    assert code == 2 and message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_resume_from_snapshot_without_a_bias_exits_3(workspace, tmp_path, monkeypatch):
    from protoseg.backbone import BackboneParams
    from protoseg.checkpoint import load_train_state, save_train_state

    state = load_train_state(workspace["ckpt"])
    full = BackboneParams.tensors
    monkeypatch.setattr(
        BackboneParams,
        "tensors",
        lambda self: [(n, t) for n, t in full(self) if n != "backbone.0.bias"],
    )
    broken = str(tmp_path / "broken.ckpt")
    save_train_state(broken, state)
    monkeypatch.undo()
    out = str(tmp_path / "out.ckpt")
    code = main(["train", "--data", workspace["manifest"], "--resume", broken, "--out", out])
    assert code == 3
    assert not os.path.exists(out)


def test_register_adds_novel_rows(workspace, tmp_path):
    out = str(tmp_path / "reg.ckpt")
    assert (
        main(
            ["register", "--model", workspace["ckpt"], "--data", workspace["manifest"],
             "--shots", "1", "--seed", "123", "--out", out]
        )
        == 0
    )
    model = load_checkpoint(out)
    assert {c for c, role in model.classifier.roles.items() if role == "novel"} == {1, 2}
    assert model.classifier.num_classes == 9
    again = str(tmp_path / "reg2.ckpt")
    main(["register", "--model", workspace["ckpt"], "--data", workspace["manifest"],
          "--shots", "1", "--seed", "123", "--out", again])
    assert sha(out) == sha(again)


def test_a_registered_checkpoint_carries_no_training_snapshot(workspace, tmp_path, capsys):
    out = str(tmp_path / "reg.ckpt")
    assert main(["register", "--model", workspace["ckpt"], "--data", workspace["manifest"],
                 "--shots", "1", "--out", out]) == 0
    assert b'"train_state"' in open(workspace["ckpt"], "rb").read()
    assert b'"train_state"' not in open(out, "rb").read()
    assert "train_state" not in load_checkpoint(workspace["ckpt"]).meta
    capsys.readouterr()
    assert main(["train", "--data", workspace["manifest"], "--resume", out,
                 "--out", str(tmp_path / "more.ckpt")]) == 3
    assert "no training state" in capsys.readouterr().err
    assert not (tmp_path / "more.ckpt").exists()


def test_register_exit_5_when_pool_exhausted(workspace, tmp_path):
    code = main(
        ["register", "--model", workspace["ckpt"], "--data", workspace["manifest"],
         "--shots", "99", "--seed", "1", "--out", str(tmp_path / "x.ckpt")]
    )
    assert code == 5


def test_predict_writes_mask_and_logits(workspace, tmp_path):
    manifest = load_manifest(workspace["manifest"])
    image = os.path.join(os.path.dirname(workspace["manifest"]), manifest.test[0].image)
    mask_out = str(tmp_path / "pred.pgm")
    logits_out = str(tmp_path / "logits.bin")
    assert (
        main(
            ["predict", "--model", workspace["ckpt"], "--image", image,
             "--out", mask_out, "--logits", logits_out]
        )
        == 0
    )
    pred = read_pgm(mask_out)
    assert pred.shape == (24, 24)
    blob = open(logits_out, "rb").read()
    h, w, n = struct.unpack("<III", blob[:12])
    assert (h, w, n) == (24, 24, 7)
    logits = np.frombuffer(blob[12:], dtype="<f4").reshape(h, w, n)
    assert np.isfinite(logits).all()
    ids = np.array(sorted(load_checkpoint(workspace["ckpt"]).classifier.class_ids))
    assert np.array_equal(ids[np.argmax(logits, axis=-1)], pred)


def test_predict_with_unwritable_logits_exits_3_and_writes_no_mask(workspace, tmp_path):
    # the logits are written before the mask, so their failure leaves no --out
    image = os.path.join(os.path.dirname(workspace["manifest"]), "test_0000.ppm")
    (tmp_path / "logits").mkdir()
    assert main(["predict", "--model", workspace["ckpt"], "--image", image,
                 "--out", str(tmp_path / "pred.pgm"), "--logits", str(tmp_path / "logits")]) == 3
    assert not (tmp_path / "pred.pgm").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("synth", "--out"), ("train", "--out"), ("train", "--curve"), ("eval", "--model"),
     ("eval", "--data"), ("predict", "--model"), ("predict", "--image"), ("predict", "--out"),
     ("register", "--model")],
)
def test_a_path_holding_a_nul_byte_exits_3_and_writes_nothing(
    workspace, tmp_path, capsys, command, flag
):
    # open() raises ValueError, not OSError, for such a path; only an
    # in-process caller can pass one, since a real argv cannot hold a NUL
    out, manifest, ckpt = str(tmp_path / "out"), workspace["manifest"], workspace["ckpt"]
    image = os.path.join(os.path.dirname(manifest), "test_0000.ppm")
    argv = {
        "synth": ["--config", workspace["scene_cfg"], "--out", out],
        "train": ["--config", workspace["train_cfg"], "--data", manifest, "--out", out,
                  "--curve", str(tmp_path / "curve.csv")],
        "eval": ["--model", ckpt, "--data", manifest, "--shots", "1", "--seeds", "1",
                 "--report", out],
        "predict": ["--model", ckpt, "--image", image, "--out", out],
        "register": ["--model", ckpt, "--data", manifest, "--shots", "1", "--out", out],
    }[command]
    argv[argv.index(flag) + 1] = str(tmp_path / "a\0b")
    if flag == "--out" and command == "train":
        argv = argv[:-2]  # the default curve path holds the NUL too
    assert main([command] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "null byte" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_predict_missing_model_exits_3(workspace, tmp_path):
    code = main(
        ["predict", "--model", str(tmp_path / "absent.ckpt"),
         "--image", "x.ppm", "--out", str(tmp_path / "m.pgm")]
    )
    assert code == 3


def _as_v1(blob: bytes) -> bytes:
    """A v2 checkpoint rewritten by hand in the retired v1 layout, CRC
    resealed: a byte order flag, a reserved u16, embed_dim and the cosine
    scale after the version, and each class row followed by its name."""
    (n_classes,) = struct.unpack_from("<I", blob, 5)
    rows = b""
    for i in range(n_classes):
        cid, role = struct.unpack_from("<IB", blob, 9 + 5 * i)
        name = class_name(cid).encode()
        rows += struct.pack("<IBH", cid, role, len(name)) + name
    embed_dim = TRAIN_CFG["train"]["embed_dim"]
    header = b"CAPL" + struct.pack("<BBHIdI", 1, 1, 0, embed_dim, DEFAULT_ALPHA, n_classes)
    body = header + rows + blob[9 + 5 * n_classes : -4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize("command", ["predict", "register", "eval", "train"])
def test_v1_checkpoint_exits_3_and_writes_nothing(workspace, tmp_path, capsys, command):
    # v1 is never read: a v1 file is rejected by its version alone
    old = str(tmp_path / "v1.ckpt")
    open(old, "wb").write(_as_v1(open(workspace["ckpt"], "rb").read()))
    for loader in (load_checkpoint, load_train_state):
        with pytest.raises(FormatError, match="unsupported version 1"):
            loader(old)
    manifest, out = workspace["manifest"], str(tmp_path / "out")
    image = os.path.join(os.path.dirname(manifest), load_manifest(manifest).test[0].image)
    args = {
        "predict": ["predict", "--model", old, "--image", image, "--out", out],
        "register": ["register", "--model", old, "--data", manifest, "--shots", "1", "--out", out],
        "eval": ["eval", "--model", old, "--data", manifest, "--report", out],
        "train": ["train", "--resume", old, "--data", manifest, "--out", out],
    }[command]
    assert main(args) == 3
    assert "unsupported version 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["v1.ckpt"]


def test_eval_gfs_report(workspace, tmp_path):
    report_path = str(tmp_path / "report.json")
    assert (
        main(
            ["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"],
             "--protocol", "gfs", "--shots", "1", "--seeds", "123,321",
             "--report", report_path]
        )
        == 0
    )
    doc = json.loads(open(report_path).read())
    assert doc["seeds"] == [123, 321]
    assert doc["config"]["shots"] == 1
    assert 0.0 <= doc["mean"]["total"] <= 1.0
    again = str(tmp_path / "report2.json")
    main(["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"],
          "--protocol", "gfs", "--shots", "1", "--seeds", "123,321", "--report", again])
    assert sha(report_path) == sha(again)


def test_eval_base_only_without_shots(workspace, tmp_path):
    report_path = str(tmp_path / "base_only.json")
    assert (
        main(
            ["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"],
             "--protocol", "gfs", "--report", report_path]
        )
        == 0
    )
    doc = json.loads(open(report_path).read())
    assert doc["mean"]["novel"] is None
    assert doc["seeds"] == [None]


def test_eval_fs_protocol(workspace, tmp_path):
    report_path = str(tmp_path / "fs.json")
    assert (
        main(
            ["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"],
             "--protocol", "fs", "--shots", "1", "--episodes", "4",
             "--report", report_path]
        )
        == 0
    )
    doc = json.loads(open(report_path).read())
    assert "class_miou" in doc
    assert doc["episodes"] == 4
    again = str(tmp_path / "fs2.json")
    main(["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"],
          "--protocol", "fs", "--shots", "1", "--episodes", "4", "--report", again])
    assert sha(report_path) == sha(again)


def test_eval_without_seeds_uses_the_canonical_seeds(workspace, tmp_path):
    base = ["eval", "--model", workspace["ckpt"], "--data", workspace["manifest"], "--shots", "1"]
    gfs = str(tmp_path / "gfs.json")
    assert main(base + ["--report", gfs]) == 0
    assert json.loads(open(gfs).read())["seeds"] == [123, 321, 456, 654, 999]
    fs, fs_123 = str(tmp_path / "fs.json"), str(tmp_path / "fs_123.json")
    fs_args = base + ["--protocol", "fs", "--episodes", "4"]
    assert main(fs_args + ["--report", fs]) == 0
    assert main(fs_args + ["--seeds", "123", "--report", fs_123]) == 0
    assert json.loads(open(fs).read())["seed"] == 123
    assert sha(fs) == sha(fs_123)


def test_ablate_single_variant(workspace, tmp_path):
    out = str(tmp_path / "ab.csv")
    assert (
        main(
            ["ablate", "--config", workspace["train_cfg"], "--data", workspace["manifest"],
             "--variants", "baseline", "--shots-list", "1", "--seeds", "123",
             "--cache", str(tmp_path / "cache"), "--out", out]
        )
        == 0
    )
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "variant,shots,seed,base,novel,total"
    assert len(lines) == 2


def test_ablate_cache_under_a_file_exits_3(workspace, tmp_path):
    code = main(
        ["ablate", "--config", workspace["train_cfg"], "--data", workspace["manifest"],
         "--variants", "baseline", "--shots-list", "1", "--seeds", "123",
         "--cache", os.path.join(workspace["ckpt"], "sub"), "--out", str(tmp_path / "ab.csv")]
    )
    assert code == 3
    assert not os.path.exists(tmp_path / "ab.csv")


@pytest.mark.parametrize(
    "command, flags",
    [
        pytest.param("ablate", ("--shots-list", "1,x"), id="ablate-shots-list-not-int"),
        pytest.param("ablate", ("--shots-list", "0"), id="ablate-shots-list-zero"),
        pytest.param("ablate", ("--seeds", ","), id="ablate-seeds-empty"),
        pytest.param("ablate", ("--variants", ","), id="ablate-variants-empty"),
        pytest.param("eval", ("--seeds", ","), id="eval-seeds-empty"),
        pytest.param(
            "eval", ("--protocol", "fs", "--shots", "1", "--seeds", ","), id="fs-seeds-empty"
        ),
        pytest.param("eval", ("--seeds", ""), id="eval-seeds-blank"),
        pytest.param(
            "eval", ("--protocol", "fs", "--shots", "1", "--seeds", ""), id="fs-seeds-blank"
        ),
        pytest.param(
            "eval", ("--protocol", "fs", "--shots", "1", "--seeds", "7,8"), id="fs-two-seeds"
        ),
        pytest.param("eval", ("--shots", "0"), id="eval-shots-zero"),
        pytest.param("eval", ("--protocol", "fs"), id="fs-without-shots"),
        pytest.param(
            "eval", ("--protocol", "fs", "--shots", "1", "--episodes", "0"), id="fs-episodes-zero"
        ),
        pytest.param("eval", ("--shots", "1", "--gamma", "1.5"), id="eval-gamma-above-one"),
        pytest.param("eval", ("--gamma", "nan"), id="eval-gamma-nan"),
        pytest.param("register", ("--seed", "-1"), id="register-seed-negative"),
        pytest.param("register", ("--shots", "0"), id="register-shots-zero"),
        pytest.param("register", ("--gamma", "1.5"), id="register-gamma-above-one"),
        pytest.param("train", (), id="train-config-lr-negative"),
        pytest.param("train", ("--config", "bad_embed_cfg"), id="train-config-embed-dim-one"),
        pytest.param("train", ("--config", "bad_layers_cfg"), id="train-config-layers-zero"),
        pytest.param("ablate", ("--config", "bad_embed_cfg"), id="ablate-config-embed-dim-one"),
        pytest.param("ablate", ("--config", "bad_layers_cfg"), id="ablate-config-layers-zero"),
        pytest.param("train", ("--config", "bad_scene_cfg"), id="train-config-bad-scene"),
        pytest.param("ablate", ("--config", "bad_scene_cfg"), id="ablate-config-bad-scene"),
    ],
)
def test_bad_list_or_shot_flag_exits_2_and_writes_nothing(workspace, tmp_path, command, flags):
    # neither the manifest nor the model exists: exit 2 rather than 3 shows
    # the flags are checked before any file is read; a workspace key among
    # the flags names a config, and a repeated --config overrides the first
    data = str(tmp_path / "absent" / "manifest.json")
    model = str(tmp_path / "absent.ckpt")
    out = str(tmp_path / "out")
    if command == "ablate":
        args = ["ablate", "--config", workspace["train_cfg"], "--data", data, "--out", out,
                "--cache", str(tmp_path / "cache")]
    elif command == "register":
        args = ["register", "--model", model, "--data", data, "--shots", "1", "--out", out]
    elif command == "train":
        args = ["train", "--config", workspace["bad_lr_cfg"], "--data", data, "--out", out]
    else:
        args = ["eval", "--model", model, "--data", data, "--report", out]
    assert main(args + [workspace.get(f, f) for f in flags]) == 2
    assert os.listdir(tmp_path) == []


def test_gradcheck_passes_and_corruption_fails():
    assert main(["gradcheck", "--trials", "2"]) == 0
    with gradcheck.corrupted_op("sigmoid"):
        assert main(["gradcheck", "--trials", "2"]) == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_gradcheck_without_trials_exits_2_before_any_check(trials, capsys):
    assert main(["gradcheck", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "trials" in err


def test_corrupting_an_unknown_op_kind_is_unsupported():
    # the kind names a test hook's target, never outside input
    with pytest.raises(KeyError):
        with gradcheck.corrupted_op("fft"):
            pass


SHOTS = ("--shots", "1")


@pytest.mark.parametrize(
    "command, variant, gamma, protocol_args",
    [pytest.param(c, "convg_gamma", "1.5", SHOTS, id=c) for c in ("register", "eval")]
    + [
        pytest.param(c, v, "0.3", SHOTS, id=f"{c}-{v}")
        for c in ("register", "eval")
        for v in ("capl", "capl_tr", "baseline", "amp_gamma")
    ]
    + [
        # paths that register through no gate still reject the value
        pytest.param("eval", "convg_gamma", "1.5", ("--protocol", "fs", *SHOTS), id="eval-fs"),
        pytest.param("eval", "convg_gamma", "1.5", (), id="eval-base_only"),
    ],
)
def test_out_of_range_gamma_on_a_fixed_gamma_variant_exits_2(
    workspace, tmp_path, command, variant, gamma, protocol_args
):
    fixed = str(tmp_path / "fixed.ckpt")
    save_checkpoint(fixed, replace(load_checkpoint(workspace["ckpt"]), variant_kind=variant))
    flag = "--out" if command == "register" else "--report"
    args = [command, "--model", fixed, "--data", workspace["manifest"], *protocol_args, flag]
    out = str(tmp_path / "out")
    code = main(args + [out, "--gamma", gamma])
    if variant == "amp_gamma":  # the one in-range case: --gamma sets the amp gate
        plain = str(tmp_path / "plain")
        assert code == 0 and main(args + [plain]) == 0
        if command == "register":
            a, b = load_checkpoint(out), load_checkpoint(plain)
            assert (a.amp_gamma, b.amp_gamma) == (0.3, 0.5)
            assert not np.array_equal(a.classifier.weights, b.classifier.weights)
        else:
            assert sha(out) != sha(plain)
        return
    assert code == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "snapshot", ["registered", "without_momentum", "class_id_255", "class_id_300"]
)
def test_resume_from_a_snapshot_that_cannot_continue_exits_3(workspace, tmp_path, snapshot):
    from protoseg.checkpoint import load_train_state, save_train_state

    part = str(tmp_path / "part.ckpt")
    assert main(["train", "--config", workspace["train_cfg"], "--data", workspace["manifest"],
                 "--variant", "capl", "--out", part, "--stop-after", "3"]) == 0
    bad = str(tmp_path / "bad.ckpt")
    if snapshot == "registered":
        assert main(["register", "--model", part, "--data", workspace["manifest"],
                     "--shots", "1", "--out", bad]) == 0
    else:
        state = load_train_state(part)
        if snapshot == "without_momentum":
            state.velocities.clear()
        else:  # renumber the last base class out of the 8-bit class range
            state.class_ids = state.class_ids[:-1] + (int(snapshot.rsplit("_", 1)[1]),)
        save_train_state(bad, state)
    out = str(tmp_path / "out.ckpt")
    code = main(["train", "--data", workspace["manifest"], "--resume", bad, "--out", out])
    assert code == 3
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".curve.csv")


def test_train_out_of_memory_exits_2(workspace, tmp_path, monkeypatch, capsys):
    # the config is accepted; numpy's refusal of the first allocation is
    # stood in for, so nothing large is allocated
    def refuse(*args):
        raise MemoryError("Unable to allocate 201. GiB for an array")

    monkeypatch.setattr("protoseg.training.init_backbone", refuse)
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "embed_dim": 10**9}}))
    out = tmp_path / "never.ckpt"
    args = ["train", "--config", str(cfg), "--data", workspace["manifest"], "--out", str(out)]
    assert main(args) == 2
    assert "out of memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["baseline", "capl"])
def test_train_numeric_blowup_exits_4(workspace, tmp_path, variant):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "steps": 5, "lr": 1e160}}))
    with np.errstate(all="ignore"):
        code = main(
            ["train", "--config", str(cfg), "--data", workspace["manifest"],
             "--variant", variant, "--out", str(tmp_path / "hot.ckpt")]
        )
    assert code == 4


EXIT_CODES = {
    "ProtosegError": 1,
    "ShapeError": 1,
    "ConfigError": 2,
    "RangeError": 2,
    "IoError": 3,
    "FormatError": 3,
    "NumericalError": 4,
    "DataError": 5,
    "EmptyMaskError": 5,
    "GenerationError": 5,
    "DegenerateError": 5,
    "DegenerateBatchError": 5,
}


def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys):
    codes = {}
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if not (issubclass(cls, ProtosegError) and cls.__module__ == errors.__name__):
            continue

        def fail(args, cls=cls):
            raise cls("injected")

        monkeypatch.setattr("protoseg.cli.cmd_gradcheck", fail)
        codes[name] = main(["gradcheck"])
        assert capsys.readouterr().err == "error: injected\n"
    assert codes == EXIT_CODES


DROP = object()


@pytest.mark.parametrize(
    "where, value",
    [
        pytest.param(("classes", 1), 5, id="class-not-an-object"),
        pytest.param(("classes", 1, "role"), DROP, id="class-without-role"),
        pytest.param(("classes", 1, "role"), "other", id="class-role-unknown"),
        pytest.param(("classes", 1, "id"), "x", id="class-id-not-an-integer"),
        pytest.param(("classes", 1, "id"), True, id="class-id-a-bool"),
        pytest.param(("classes", 1, "name"), 7, id="class-name-not-a-string"),
        pytest.param(("classes",), "abc", id="classes-a-string"),
        pytest.param(("classes",), {}, id="classes-an-object"),
        pytest.param(("splits", "test", 0, "image"), 5, id="test-image-not-a-string"),
        pytest.param(("splits", "test", 0, "mask"), None, id="test-mask-not-a-string"),
        pytest.param(("splits", "test", 0, "image"), "a\u0000b.ppm", id="test-image-with-a-nul-byte"),
        pytest.param(("splits", "support_pool", 0, "novel_id"), "q", id="novel-id-not-an-integer"),
        pytest.param(("classes", 5, "id"), 3, id="class-id-duplicated"),
        pytest.param(("classes", 8, "id"), 300, id="class-id-above-an-8-bit-mask"),
        pytest.param(("classes", 8, "id"), 255, id="class-id-the-ignore-label"),
        pytest.param(("classes", 8, "id"), -1, id="class-id-negative"),
        pytest.param(("split_index",), 3.7, id="split-index-a-float"),
        pytest.param(("split_index",), "0", id="split-index-a-string"),
        pytest.param(("split_index",), True, id="split-index-a-bool"),
        pytest.param(("seed",), 3.7, id="seed-a-float"),
        pytest.param(("seed",), "3", id="seed-a-string"),
        pytest.param(("seed",), True, id="seed-a-bool"),
    ],
)
def test_malformed_manifest_entry_exits_2(workspace, tmp_path, where, value):
    with open(workspace["manifest"]) as f:
        doc = json.load(f)
    *parents, key = where
    node = doc
    for step in parents:
        node = node[step]
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="malformed manifest"):
        load_manifest(str(bad))
    out = tmp_path / "out"
    assert main(["train", "--config", workspace["train_cfg"], "--data", str(bad),
                 "--out", str(out)]) == 2
    assert main(["eval", "--model", workspace["ckpt"], "--data", str(bad),
                 "--report", str(out)]) == 2
    assert not out.exists()


THREAD_RERUN = """
import sys
from protoseg.cli import main

manifest, train_cfg, image, out = sys.argv[1:]
ckpt, reg = f"{out}/m.ckpt", f"{out}/reg.ckpt"
assert main(["train", "--config", train_cfg, "--data", manifest, "--variant", "capl", "--out", ckpt]) == 0
assert main(["register", "--model", ckpt, "--data", manifest, "--shots", "2", "--out", reg]) == 0
assert main(["predict", "--model", reg, "--image", image, "--out", f"{out}/pred.pgm",
             "--logits", f"{out}/logits.bin"]) == 0
"""


def test_train_register_predict_are_byte_identical_at_one_and_two_blas_threads(tmp_path):
    # the acceptance shapes (64x64 maps, batch 8, 16 channels) are large
    # enough for OpenBLAS to split its GEMMs across the second thread
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"scene": {"train_scenes": 16, "support_per_class": 3,
                                           "test_scenes": 2, "seed": 3}}))
    train = tmp_path / "train.json"
    train.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "batch_size": 8, "steps": 6,
                                           "embed_dim": 16, "backbone_layers": 3}}))
    assert main(["synth", "--config", str(scene), "--out", str(tmp_path / "data")]) == 0
    split = tmp_path / "data" / "split0"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(inspect.getfile(main)))}
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        run = subprocess.run(
            [sys.executable, "-c", THREAD_RERUN, str(split / "manifest.json"), str(train),
             str(split / "test_0000.ppm"), str(out)],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests[threads] = {p.name: sha(p) for p in sorted(out.iterdir())}
    assert len(digests["1"]) == 5
    assert digests["1"] == digests["2"]
