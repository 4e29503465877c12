"""Command-line surface: smoke runs, exit codes, byte-level determinism."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from protoseg.checkpoint import load_checkpoint
from protoseg.cli import main
from protoseg.netpbm import read_pgm
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


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scene": {"heigth": 24}}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_bad_train_value_exits_2_before_training(workspace, tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"train": {**TRAIN_CFG["train"], "amp_gamma": 1.5}}))
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
    assert set(model.classifier.ids_with_role("novel")) == {1, 2}
    assert model.classifier.num_classes == 9
    again = str(tmp_path / "reg2.ckpt")
    main(["register", "--model", workspace["ckpt"], "--data", workspace["manifest"],
          "--shots", "1", "--seed", "123", "--out", again])
    assert sha(out) == sha(again)


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


def test_predict_missing_model_exits_3(workspace, tmp_path):
    code = main(
        ["predict", "--model", str(tmp_path / "absent.ckpt"),
         "--image", "x.ppm", "--out", str(tmp_path / "m.pgm")]
    )
    assert code == 3


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


def test_gradcheck_passes_and_corruption_fails():
    assert main(["gradcheck", "--trials", "2"]) == 0
    assert main(["gradcheck", "--trials", "2", "--corrupt-op", "sigmoid"]) == 1


def test_train_numeric_blowup_exits_4(workspace, tmp_path):
    cfg = tmp_path / "hot.json"
    cfg.write_text(
        json.dumps(
            {"train": {**TRAIN_CFG["train"], "steps": 5, "lr": 1e160, "clip_grad_norm": 0.0}}
        )
    )
    with np.errstate(all="ignore"):
        code = main(
            ["train", "--config", str(cfg), "--data", workspace["manifest"],
             "--variant", "baseline", "--out", str(tmp_path / "hot.ckpt")]
        )
    assert code == 4
