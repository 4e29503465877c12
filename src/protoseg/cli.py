"""Command-line surface: dataset synthesis, training, registration, prediction,
evaluation, the ablation grid, and the gradient audit.

Every command is a pure function of its flags, config, and input files, so
reruns produce byte-identical outputs. Exit codes: 0 ok, 2 config, 3
io/format, 4 numeric, 5 data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import struct
import sys

import numpy as np

from . import gradcheck
from .backbone import extract_features
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    ConfigError,
    DataError,
    DegenerateError,
    EmptyMaskError,
    FormatError,
    GenerationError,
    IoError,
    NumericalError,
    ProtosegError,
)
from .netpbm import atomic_write, read_ppm, write_pgm
from .prototypes import classify
from .protocols import (
    DEFAULT_FS_EPISODES,
    DEFAULT_SEEDS,
    register_for_variant,
    run_ablation,
    run_fs_protocol,
    run_gfs_protocol,
    report_to_json,
    write_ablation_csv,
)
from .scenes import NUM_SPLITS, SceneConfig, build_dataset, load_manifest, sample_support_set
from .tensor import Tensor
from .training import (
    TrainConfig,
    VARIANT_KINDS,
    load_train_data,
    make_variant,
    write_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_DATA = 5

_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    ((IoError, FormatError), EXIT_IO),
    (NumericalError, EXIT_NUMERIC),
    ((DataError, EmptyMaskError, DegenerateError, GenerationError), EXIT_DATA),
)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON, not UTF-8 ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return doc


def _section(doc: dict, name: str, cls):
    """Build a config dataclass from a JSON section, rejecting unknown keys."""
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields) - {"_comment"}
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k != "_comment"}
    if cls is SceneConfig and "cooc" in kwargs:
        raise ConfigError("co-occurrence rules are derived per split; do not set them directly")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in config section {name!r}: {exc}") from exc


def _known_sections(doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed - {"_comment"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")


def _parse_seeds(raw: str | None):
    if not raw:
        return DEFAULT_SEEDS
    try:
        return tuple(int(s) for s in raw.replace(" ", "").split(",") if s)
    except ValueError as exc:
        raise ConfigError(f"bad seed list {raw!r}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    doc = _load_config(args.config)
    _known_sections(doc, {"scene"})
    scene = _section(doc, "scene", SceneConfig)
    for split in range(NUM_SPLITS):
        out = os.path.join(args.out, f"split{split}")
        build_dataset(scene, split, out)
        print(os.path.join(out, "manifest.json"))
    return EXIT_OK


def cmd_train(args) -> int:
    from .checkpoint import load_train_state, save_train_state
    from .training import init_state, run_training_loop

    manifest = load_manifest(args.data)
    data = load_train_data(manifest)
    names = {int(c["id"]): c["name"] for c in manifest.classes}
    if args.resume:
        state = load_train_state(args.resume)
        if args.variant and args.variant != state.variant.kind:
            raise ConfigError(
                f"--variant {args.variant} disagrees with resumed checkpoint "
                f"({state.variant.kind})"
            )
    else:
        doc = _load_config(args.config)
        _known_sections(doc, {"scene", "train", "protocol"})
        config = _section(doc, "train", TrainConfig)
        state = init_state(config, data, make_variant(args.variant or "capl"))
    until = None
    if args.stop_after is not None:
        if args.stop_after < state.step:
            raise ConfigError("--stop-after is before the resumed step")
        until = args.stop_after
    run_training_loop(state, data, until=until)
    save_train_state(args.out, state, names, store_f32=args.f32)
    write_curve(state, args.curve or f"{args.out}.curve.csv")
    print(args.out)
    return EXIT_OK


def cmd_register(args) -> int:
    model = load_checkpoint(args.model)
    manifest = load_manifest(args.data)
    if args.gamma is not None:
        model.converged_gamma = args.gamma
    supports = sample_support_set(manifest, args.shots, args.seed)
    clf = register_for_variant(model, supports, args.min_pixels)
    names = dict(model.class_names)
    for cid in clf.ids_with_role("novel"):
        names.setdefault(cid, f"class{cid}")
    registered = dataclasses.replace(
        model,
        classifier=clf,
        class_names=names,
        meta={**model.meta, "registered_shots": args.shots, "registered_seed": args.seed},
    )
    save_checkpoint(args.out, registered, store_f32=args.f32)
    print(args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    image = Tensor(read_ppm(args.image))
    feats = extract_features(model.backbone, image)
    pred, logits = classify(model.classifier, feats)
    write_pgm(args.out, pred)
    if args.logits:
        h, w, n = logits.shape
        atomic_write(args.logits, struct.pack("<III", h, w, n) + logits.astype("<f4").tobytes())
    print(args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    manifest = load_manifest(args.data)
    if args.gamma is not None:
        model.converged_gamma = args.gamma
    seeds = _parse_seeds(args.seeds)
    if args.protocol == "gfs":
        report = run_gfs_protocol(model, manifest, args.shots, seeds, args.min_pixels)
        payload = report_to_json(
            report,
            {
                "protocol": "gfs",
                "shots": args.shots,
                "variant": model.variant_kind,
                "split_index": manifest.split_index,
            },
        )
    else:
        if not args.shots:
            raise ConfigError("the fs protocol requires --shots")
        result = run_fs_protocol(
            model, manifest, args.shots, args.episodes, seeds[0]
        )
        result["variant"] = model.variant_kind
        result["split_index"] = manifest.split_index
        payload = json.dumps(result, indent=2, sort_keys=True) + "\n"
    atomic_write(args.report, payload.encode())
    print(args.report)
    return EXIT_OK


def cmd_ablate(args) -> int:
    doc = _load_config(args.config)
    _known_sections(doc, {"scene", "train", "protocol"})
    config = _section(doc, "train", TrainConfig)
    manifest = load_manifest(args.data)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        make_variant(v)  # validate early
    shots_list = [int(s) for s in args.shots_list.replace(" ", "").split(",") if s]
    rows = run_ablation(
        manifest,
        shots_list,
        variants,
        _parse_seeds(args.seeds),
        config,
        cache_dir=args.cache,
    )
    write_ablation_csv(rows, args.out)
    print(args.out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    def run():
        all_ok = True
        for kind, report in gradcheck.run_op_checks(trials=args.trials):
            print(f"op {kind:<24} {report}")
            all_ok &= report.passed
        for name, report in gradcheck.run_end_to_end_check():
            print(f"loss d/d {name:<18} {report}")
            all_ok &= report.passed
        return all_ok

    if args.corrupt_op:
        with gradcheck.corrupted_op(args.corrupt_op):
            ok = run()
    else:
        ok = run()
    print("gradient audit:", "pass" if ok else "FAIL")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoseg",
        description="Few-shot semantic segmentation on synthetic scenes "
        "with prototype imprinting and context-aware fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the 4-fold ContextShapes dataset")
    p.add_argument("--config", help="JSON config with a 'scene' section")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train base classes for one split")
    p.add_argument("--config", help="JSON config with a 'train' section")
    p.add_argument("--data", required=True, help="manifest.json of the split")
    p.add_argument("--variant", choices=VARIANT_KINDS, help="default: capl")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--curve", help="loss curve CSV (default: <out>.curve.csv)")
    p.add_argument("--resume", help="continue from a training snapshot")
    p.add_argument("--stop-after", type=int, help="halt after this many total steps")
    p.add_argument("--f32", action="store_true", help="store tensors as 32-bit")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("register", help="imprint novel classes from K supports")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", type=float, help="override the fixed fusion weight")
    p.add_argument("--min-pixels", type=int, default=1)
    p.add_argument("--f32", action="store_true")
    p.set_defaults(fn=cmd_register)

    p = sub.add_parser("predict", help="segment one PPM image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="predicted mask PGM")
    p.add_argument("--logits", help="optional raw logits dump")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", choices=("gfs", "fs"), default="gfs")
    p.add_argument("--shots", type=int, help="omit for a base-only gfs pass")
    p.add_argument("--seeds", help="comma-separated support-sampling seeds")
    p.add_argument("--episodes", type=int, default=DEFAULT_FS_EPISODES)
    p.add_argument("--gamma", type=float, help="fixed fusion weight override")
    p.add_argument("--min-pixels", type=int, default=1)
    p.add_argument("--report", required=True, help="output report.json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate a variant grid")
    p.add_argument("--config", help="JSON config with a 'train' section")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default=",".join(VARIANT_KINDS))
    p.add_argument("--shots-list", default="1,5,10")
    p.add_argument("--seeds")
    p.add_argument("--cache", help="checkpoint cache directory")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all ops")
    p.add_argument("--trials", type=int, default=gradcheck.DEFAULT_TRIALS)
    p.add_argument("--corrupt-op", help="testing hook: break one op kind")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProtosegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
