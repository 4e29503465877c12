"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 5-8 share a session-scoped pipeline that builds the default
four-fold ContextShapes dataset, trains the three underlying schemes per fold
(baseline, fake-novel-only, full rehearsal) at the acceptance training
configuration, and evaluates the variant grid over the five canonical
support-sampling seeds. Set PROTOSEG_ACCEPT_DIR to persist that work between
runs while iterating.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import protoseg.tensor as T
from protoseg.backbone import extract_features
from protoseg.cli import main as cli_main
from protoseg.gradcheck import run_end_to_end_check, run_op_checks
from protoseg.metrics import ConfusionMatrix, iou_per_class, miou
from protoseg.model import EvalModel
from protoseg.prototypes import (
    DEFAULT_ALPHA,
    SupportSample,
    SupportSet,
    classify,
    gamma_forward,
    init_gamma_net,
    masked_sum_part,
    mean_of_shots,
    pixel_weighted_combine,
    register_novel_classes,
)
from protoseg.protocols import model_for_variant, run_gfs_protocol, write_ablation_csv
from protoseg.scenes import SceneConfig, build_dataset, load_manifest, load_pair, sample_support_set
from protoseg.tensor import IGNORE_LABEL, Tensor
from protoseg.training import TrainConfig, VARIANT_KINDS

SEEDS = (123, 321, 456, 654, 999)
ACCEPT_SCENE = SceneConfig()  # the default ContextShapes 4-fold setup
ACCEPT_TRAIN = TrainConfig(
    batch_size=8, steps=300, lr=0.1, seed=0, embed_dim=16, backbone_layers=3
)
POINT = 0.01  # one mIoU point on the [0, 1] scale


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@dataclass
class Grid:
    manifests: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)  # (fold, kind) -> EvalModel
    reports: dict = field(default_factory=dict)  # (fold, kind, shots) -> MetricsReport
    comparison_seconds: float = 0.0  # dataset + baseline/capl training + their K=5 eval

    def mean_total(self, kind: str, shots) -> float:
        return float(np.mean([self.reports[(f, kind, shots)].total_miou for f in range(4)]))

    def mean_novel(self, kind: str, shots) -> float:
        return float(np.mean([self.reports[(f, kind, shots)].novel_miou for f in range(4)]))

    def mean_base_only(self, kind: str) -> float:
        return float(np.mean([self.reports[(f, kind, None)].base_miou for f in range(4)]))


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    root = os.environ.get("PROTOSEG_ACCEPT_DIR") or str(tmp_path_factory.mktemp("accept"))
    os.makedirs(root, exist_ok=True)
    cache = os.path.join(root, "cache")
    g = Grid()
    comparison = 0.0
    for fold in range(4):
        out = os.path.join(root, f"split{fold}")
        t0 = time.time()
        if not os.path.exists(os.path.join(out, "manifest.json")):
            build_dataset(ACCEPT_SCENE, fold, out)
        manifest = load_manifest(os.path.join(out, "manifest.json"))
        g.manifests[fold] = manifest
        comparison += time.time() - t0
        # baseline and capl first so the criterion-5 comparison timer charges
        # their training to them (later variants reuse cached checkpoints)
        ordered = ("baseline", "capl") + tuple(
            k for k in VARIANT_KINDS if k not in ("baseline", "capl")
        )
        for kind in ordered:
            t0 = time.time()
            model = model_for_variant(kind, manifest, ACCEPT_TRAIN, cache)
            g.models[(fold, kind)] = model
            g.reports[(fold, kind, 5)] = run_gfs_protocol(model, manifest, 5, SEEDS)
            elapsed = time.time() - t0
            if kind in ("baseline", "capl"):
                comparison += elapsed
        t0 = time.time()
        g.reports[(fold, "capl", 1)] = run_gfs_protocol(g.models[(fold, "capl")], manifest, 1, SEEDS)
        for kind in ("baseline", "capl"):
            g.reports[(fold, kind, None)] = run_gfs_protocol(
                g.models[(fold, kind)], manifest, None, SEEDS
            )
    g.comparison_seconds = comparison
    return g


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    op_reports = run_op_checks(trials=100)
    e2e_reports = run_end_to_end_check()
    elapsed = time.time() - t0
    failures = [k for k, r in op_reports + e2e_reports if not r.passed]
    worst = max(r.max_rel_err for _, r in op_reports + e2e_reports)
    ok = not failures and elapsed < 120.0
    announce(
        1,
        ok,
        f"{len(op_reports)} op kinds + {len(e2e_reports)} end-to-end tensors at rel tol 1e-4, "
        f"worst {worst:.2e}, {elapsed:.0f}s (< 120s)",
    )
    assert not failures, f"gradient failures: {failures}"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. pooling oracle equivalence
# ---------------------------------------------------------------------------


def _loop_pool(features, mask):
    h, w, c = features.shape
    acc = np.zeros(c)
    n = 0
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                acc = acc + features[y, x]
                n += 1
    return acc, n


def _context(supports, features, base_class):
    parts = (masked_sum_part(f, s.mask == base_class) for s, f in zip(supports.samples, features))
    return pixel_weighted_combine(parts, features[0].shape[-1])


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    exact = True
    for _ in range(25):
        feats = rng.uniform(-2, 2, (7, 6, 5))
        mask = (rng.random((7, 6)) < 0.4).astype(int)
        if mask.sum() == 0:
            mask[0, 0] = 1
        want, n = _loop_pool(feats, mask)
        got = mean_of_shots([masked_sum_part(Tensor(feats), mask)]).data
        exact &= bool(np.array_equal(got, want / n))

    # shot-level mean vs pixel-weighted mean on unequal pixel counts
    f1 = np.zeros((1, 4, 2))
    f1[0, 0] = [1.0, 0.0]
    f2 = np.zeros((1, 4, 2))
    f2[0, 1:] = [3.0, 0.0]
    m1 = np.full((1, 4), 255)
    m1[0, 0] = 3
    m2 = np.full((1, 4), 255)
    m2[0, 1:] = 3
    supports = SupportSet(
        [
            SupportSample(Tensor(np.zeros((1, 4, 3))), m1, 9),
            SupportSample(Tensor(np.zeros((1, 4, 3))), m2, 9),
        ]
    )
    parts = [masked_sum_part(Tensor(f1), m1 == 3), masked_sum_part(Tensor(f2), m2 == 3)]
    shot_mean = mean_of_shots(parts).data
    pixel_mean, count = _context(supports, [Tensor(f1), Tensor(f2)], 3)
    case = (
        np.array_equal(shot_mean, [2.0, 0.0])
        and np.array_equal(pixel_mean.data, [2.5, 0.0])
        and count == 4
    )

    # accumulate matches a flat pixel loop exactly on random data
    for _ in range(10):
        fa = rng.uniform(-2, 2, (3, 5, 4))
        fb = rng.uniform(-2, 2, (3, 5, 4))
        ma = rng.integers(0, 3, (3, 5))
        mb = rng.integers(0, 3, (3, 5))
        sup = SupportSet(
            [
                SupportSample(Tensor(np.zeros((3, 5, 3))), ma, 9),
                SupportSample(Tensor(np.zeros((3, 5, 3))), mb, 9),
            ]
        )
        vec, n = _context(sup, [Tensor(fa), Tensor(fb)], 1)
        acc_a, n_a = _loop_pool(fa, ma == 1)
        acc_b, n_b = _loop_pool(fb, mb == 1)
        if n_a + n_b:
            exact &= bool(np.array_equal(vec.data, (acc_a + acc_b) / (n_a + n_b)))
        else:
            exact &= n == 0 and not vec.data.any()

    ok = exact and case
    announce(2, ok, "pooling matches per-pixel loop oracles exactly; [2,0]-vs-[2.5,0] case holds")
    assert exact and case


# ---------------------------------------------------------------------------
# 3. degeneracy: gamma == 1 and no base pixels reduces to the baseline path
# ---------------------------------------------------------------------------


def test_criterion_3_degeneracy(grid):
    manifest = grid.manifests[0]
    model = grid.models[(0, "capl")]
    supports = sample_support_set(manifest, 2, seed=123)
    for sample in supports.samples:  # strip everything but the declared novel class
        keep = sample.mask == sample.novel_class
        sample.mask = np.where(keep, sample.mask, IGNORE_LABEL)

    enriched_path = register_novel_classes(model.classifier, 1.0, model.backbone, supports)
    baseline_path = register_novel_classes(model.classifier, None, model.backbone, supports)
    identical = True
    for entry in manifest.test[:40]:
        image, _ = load_pair(manifest, entry)
        feats = extract_features(model.backbone, image)
        pred_a, logits_a = classify(enriched_path, feats)
        pred_b, logits_b = classify(baseline_path, feats)
        identical &= bool(np.array_equal(pred_a, pred_b))
        identical &= bool(np.array_equal(logits_a, logits_b))
    announce(3, identical, "gamma=1 + base-free supports gives bitwise-identical predictions")
    assert identical


# ---------------------------------------------------------------------------
# 4. bounds and invariances
# ---------------------------------------------------------------------------


def test_criterion_4_bounds_and_invariance(grid):
    manifest = grid.manifests[0]
    model = grid.models[(0, "capl")]
    clf = model.classifier
    alpha = DEFAULT_ALPHA

    bounded = True
    invariant = True
    rng = np.random.default_rng(4)
    for entry in manifest.test[:20]:
        image, _ = load_pair(manifest, entry)
        feats = extract_features(model.backbone, image)
        pred, logits = classify(clf, feats)
        bounded &= bool((logits >= -alpha).all() and (logits <= alpha).all())
        for s in (0.01, 3.0, 250.0):
            scaled_pred, _ = classify(clf, Tensor(feats.data * s))
            invariant &= bool(np.array_equal(pred, scaled_pred))

    in_open_interval = True
    count = 0
    for seed in range(10):
        net = init_gamma_net(c=16, seed=seed)
        for _ in range(1000):
            g = gamma_forward(
                net, Tensor(rng.uniform(-2, 2, 16)), Tensor(rng.uniform(-2, 2, 16))
            ).item()
            in_open_interval &= 0.0 < g < 1.0
            count += 1

    ok = bounded and invariant and in_open_interval
    announce(
        4,
        ok,
        f"logits within [-{alpha:g}, {alpha:g}]; argmax scale-invariant; "
        f"gamma in (0,1) on {count} random inputs",
    )
    assert bounded and invariant and in_open_interval


# ---------------------------------------------------------------------------
# 5-8. directional reproductions on the default 4-fold setup
# ---------------------------------------------------------------------------


def test_criterion_5_capl_beats_baseline(grid):
    capl = grid.mean_total("capl", 5)
    base = grid.mean_total("baseline", 5)
    gap = capl - base
    ok = gap >= 2 * POINT and grid.comparison_seconds < 1800
    announce(
        5,
        ok,
        f"K=5 total mIoU: capl {capl:.4f} vs baseline {base:.4f} "
        f"(gap {gap / POINT:+.1f} points, needs >= 2; comparison work "
        f"{grid.comparison_seconds:.0f}s < 1800s)",
    )
    assert gap >= 2 * POINT
    assert grid.comparison_seconds < 1800


def test_criterion_6_shot_trend(grid):
    novel5 = grid.mean_novel("capl", 5)
    novel1 = grid.mean_novel("capl", 1)
    ok = novel5 >= novel1
    announce(
        6,
        ok,
        f"capl novel mIoU: K=5 {novel5:.4f} >= K=1 {novel1:.4f} "
        f"({(novel5 - novel1) / POINT:+.1f} points)",
    )
    assert novel5 >= novel1


def test_criterion_7_ablation_ordering(grid, tmp_path):
    means = {kind: grid.mean_total(kind, 5) for kind in VARIANT_KINDS}
    tie = 0.5 * POINT
    ordering = {
        "capl >= capl_tr": means["capl"] >= means["capl_tr"] - tie,
        "capl >= capl_te": means["capl"] >= means["capl_te"] - tie,
        "capl_tr >= baseline": means["capl_tr"] >= means["baseline"] - tie,
        "capl_te >= baseline": means["capl_te"] >= means["baseline"] - tie,
    }

    rows = []
    for fold in range(4):
        for kind in VARIANT_KINDS:
            for sm in grid.reports[(fold, kind, 5)].per_seed:
                rows.append(
                    {
                        "variant": kind,
                        "shots": 5,
                        "seed": sm.seed,
                        "base": sm.base_miou,
                        "novel": sm.novel_miou,
                        "total": sm.total_miou,
                    }
                )
    csv_path = str(tmp_path / "ablation.csv")
    write_ablation_csv(rows, csv_path)

    inversions = [
        f"{a} < {b} ({means[a]:.4f} vs {means[b]:.4f})"
        for a, b in [
            ("capl", "capl_tr"), ("capl", "capl_te"), ("capl", "amp_gamma"),
            ("capl", "convg_gamma"), ("capl_tr", "baseline"), ("capl_te", "baseline"),
        ]
        if means[a] < means[b]
    ]
    ok = all(ordering.values()) and len(rows) == len(VARIANT_KINDS) * 4 * len(SEEDS)
    grid_str = " ".join(f"{k}={v:.4f}" for k, v in sorted(means.items(), key=lambda kv: -kv[1]))
    announce(
        7,
        ok,
        f"6-variant grid emitted ({len(rows)} rows); {grid_str}; "
        f"inversions: {inversions or 'none'}",
    )
    assert all(ordering.values()), ordering
    assert len(rows) == len(VARIANT_KINDS) * 4 * len(SEEDS)


def test_criterion_8_base_preservation(grid):
    capl = grid.mean_base_only("capl")
    base = grid.mean_base_only("baseline")
    delta = capl - base
    ok = abs(delta) <= 1 * POINT and base >= 0.85
    announce(
        8,
        ok,
        f"base-only mIoU: capl {capl:.4f} vs baseline {base:.4f} "
        f"(delta {delta / POINT:+.2f} points, |delta| <= 1; baseline >= 0.85)",
    )
    assert abs(delta) <= 1 * POINT
    assert base >= 0.85  # trained baseline segments held-out base scenes well


def test_trained_model_prediction_quality(grid):
    """Converged model predictions mostly match the labels on a train scene."""
    manifest = grid.manifests[0]
    model = grid.models[(0, "capl")]
    image, truth = load_pair(manifest, manifest.train[0])
    feats = extract_features(model.backbone, image)
    pred, _ = classify(model.classifier, feats)
    valid = truth != IGNORE_LABEL
    accuracy = float((pred[valid] == truth[valid]).mean())
    assert accuracy >= 0.9, f"train-scene pixel accuracy {accuracy:.3f}"


# ---------------------------------------------------------------------------
# 9. byte-level determinism of every command
# ---------------------------------------------------------------------------


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_criterion_9_command_determinism(tmp_path):
    scene = {
        "scene": {
            "height": 24, "width": 24, "shapes_min": 1, "shapes_max": 3,
            "train_scenes": 10, "support_per_class": 4, "test_scenes": 5,
            "noise": 0.05, "seed": 3,
        }
    }
    train = {
        "train": {
            "batch_size": 4, "steps": 6, "lr": 0.05, "seed": 1,
            "embed_dim": 8, "backbone_layers": 2,
        }
    }
    scene_cfg = tmp_path / "scene.json"
    scene_cfg.write_text(json.dumps(scene))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(train))

    hashes = {}
    for run in ("a", "b"):
        base = tmp_path / run
        os.makedirs(base)
        data = str(base / "data")
        assert cli_main(["synth", "--config", str(scene_cfg), "--out", data]) == 0
        manifest = os.path.join(data, "split0", "manifest.json")
        ckpt = str(base / "m.ckpt")
        assert cli_main(
            ["train", "--config", str(train_cfg), "--data", manifest,
             "--variant", "capl", "--out", ckpt]
        ) == 0
        reg = str(base / "reg.ckpt")
        assert cli_main(
            ["register", "--model", ckpt, "--data", manifest, "--shots", "1",
             "--seed", "123", "--out", reg]
        ) == 0
        test_image = os.path.join(data, "split0", "test_0000.ppm")
        mask = str(base / "pred.pgm")
        logits = str(base / "logits.bin")
        assert cli_main(
            ["predict", "--model", reg, "--image", test_image, "--out", mask,
             "--logits", logits]
        ) == 0
        report = str(base / "report.json")
        assert cli_main(
            ["eval", "--model", ckpt, "--data", manifest, "--protocol", "gfs",
             "--shots", "1", "--seeds", "123,321", "--report", report]
        ) == 0
        outputs = [ckpt, ckpt + ".curve.csv", reg, mask, logits, report]
        outputs += [
            os.path.join(data, "split0", name)
            for name in sorted(os.listdir(os.path.join(data, "split0")))
        ]
        hashes[run] = [(os.path.relpath(p, base), _sha(p)) for p in outputs]

    ok = hashes["a"] == hashes["b"]
    announce(9, ok, f"{len(hashes['a'])} artifacts byte-identical across reruns")
    assert hashes["a"] == hashes["b"]


# ---------------------------------------------------------------------------
# 10. metric correctness on constructed confusion matrices
# ---------------------------------------------------------------------------


def test_criterion_10_metric_correctness():
    tol = 1e-12
    checks = []

    # (a) hand case with ignore pixels excluded
    truth = np.array([[0, 0, 1], [1, 2, 2], [0, 1, 255]])
    pred = np.array([[0, 1, 1], [1, 2, 0], [0, 1, 2]])
    cm = ConfusionMatrix([0, 1, 2]).accumulate(pred, truth)
    roles = {0: "base", 1: "base", 2: "novel"}
    # IoU: 0 -> 2/(2+1+1)=0.5, 1 -> 3/4 (one FP), 2 -> 1/2
    checks.append(abs(miou(cm, roles, "all") - (0.5 + 0.75 + 0.5) / 3) < tol)
    checks.append(abs(miou(cm, roles, "base") - (0.5 + 0.75) / 2) < tol)
    checks.append(abs(miou(cm, roles, "novel") - 0.5) < tol)
    checks.append(cm.total == 8)  # one ignore pixel skipped

    # (b) always-background collapse
    truth = np.zeros((10, 10), dtype=int)
    truth[:, 5:] = 1
    cm = ConfusionMatrix([0, 1]).accumulate(np.zeros_like(truth), truth)
    checks.append(abs(miou(cm, {0: "base", 1: "base"}, "all") - 0.25) < tol)

    # (c) zero-union class excluded from the mean
    cm = ConfusionMatrix([0, 1, 7]).accumulate(np.array([[0, 0]]), np.array([[0, 1]]))
    per = iou_per_class(cm)
    checks.append(per[7] is None)
    checks.append(abs(miou(cm, {0: "base", 1: "base", 7: "base"}, "all") - 0.25) < tol)

    ok = all(checks)
    announce(10, ok, f"{len(checks)} hand-computed identities at 1e-12, ignore and zero-union handled")
    assert all(checks)
