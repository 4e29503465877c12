"""Command-line surface: dataset synthesis, training, registration, prediction,
evaluation, the ablation grid, and the gradient audit.

Every command is a pure function of its flags, config, and input files, so
reruns produce byte-identical outputs. A command returns 0, or 1 for a failed
gradient audit; a ``ProtosegError`` returns its class's ``exit_code`` (2
config, 3 io/format, 4 numeric, 5 data, 1 otherwise).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import struct
import sys

from . import gradcheck
from .backbone import extract_features
from .checkpoint import load_checkpoint, load_train_state, save_checkpoint, save_train_state
from .errors import ConfigError, ProtosegError
from .netpbm import atomic_write, read_json, read_ppm, write_pgm
from .prototypes import check_gamma, classify
from .protocols import (
    register_for_variant,
    run_ablation,
    run_fs_protocol,
    run_gfs_protocol,
    report_to_json,
    with_fixed_gamma,
    write_ablation_csv,
)
from .scenes import NUM_SPLITS, SceneConfig, build_dataset, load_manifest, sample_support_set
from .tensor import Tensor
from .training import (
    TrainConfig,
    VARIANT_KINDS,
    init_state,
    load_train_data,
    make_variant,
    run_training_loop,
    write_curve,
)

# the protocols' defaults: gfs averages five support-sampling seeds, fs
# scores 500 episodes, and the gradient audit draws five probes per op kind
DEFAULT_SEEDS = (123, 321, 456, 654, 999)
DEFAULT_FS_EPISODES = 500
DEFAULT_TRIALS = 5
SEEDS = ",".join(map(str, DEFAULT_SEEDS))


def _load_config(path: str | None) -> dict:
    return {} if path is None else read_json(path)


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
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in config section {name!r}: {exc}") from exc


def _known_sections(doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed - {"_comment"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")


def _int_list(raw: str, flag: str, least: int) -> tuple[int, ...]:
    """The integers of a comma-separated flag; a ``ConfigError`` for a
    non-integer, an empty list or a value below ``least``."""
    try:
        values = tuple(int(s) for s in raw.replace(" ", "").split(",") if s)
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list {raw!r}") from exc
    if not values or min(values) < least:
        raise ConfigError(f"{flag} needs one or more integers >= {least}, got {raw!r}")
    return values


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
    return 0


def cmd_train(args) -> int:
    if args.resume and args.config:
        raise ConfigError("--resume continues the snapshot's own config; drop --config")
    if args.stop_after is not None and args.stop_after < 0:
        raise ConfigError(f"--stop-after needs an integer >= 0, got {args.stop_after}")
    # the snapshot, or the config, is read and checked before the dataset
    if args.resume:
        state = load_train_state(args.resume)
        if args.variant and args.variant != state.variant.kind:
            raise ConfigError(
                f"--variant {args.variant} disagrees with resumed checkpoint "
                f"({state.variant.kind})"
            )
        if args.stop_after is not None and args.stop_after < state.step:
            raise ConfigError("--stop-after is before the resumed step")
    else:
        doc = _load_config(args.config)
        _known_sections(doc, {"scene", "train"})
        config = _section(doc, "train", TrainConfig)
    data = load_train_data(load_manifest(args.data))
    if not args.resume:
        state = init_state(config, data, make_variant(args.variant or "capl"))
    run_training_loop(state, data, until=args.stop_after)
    save_train_state(args.out, state)
    write_curve(state, args.curve or f"{args.out}.curve.csv")
    print(args.out)
    return 0


def cmd_register(args) -> int:
    # every flag is checked before the checkpoint or manifest is read
    if args.shots < 1:
        raise ConfigError(f"--shots needs an integer >= 1, got {args.shots}")
    if args.seed < 0:
        raise ConfigError(f"--seed needs an integer >= 0, got {args.seed}")
    if args.gamma is not None:
        check_gamma(args.gamma)
    model = load_checkpoint(args.model)
    if args.gamma is not None:
        model = with_fixed_gamma(model, args.gamma)
    manifest = load_manifest(args.data)
    supports = sample_support_set(manifest, args.shots, args.seed)
    registered = dataclasses.replace(
        model,
        classifier=register_for_variant(model, supports),
        meta={**model.meta, "registered_shots": args.shots, "registered_seed": args.seed},
    )
    save_checkpoint(args.out, registered)
    print(args.out)
    return 0


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
    return 0


def cmd_eval(args) -> int:
    if args.seeds is None:
        seeds = DEFAULT_SEEDS if args.protocol == "gfs" else DEFAULT_SEEDS[:1]
    else:
        seeds = _int_list(args.seeds, "--seeds", 0)
        if args.protocol == "fs" and len(seeds) > 1:
            raise ConfigError(f"the fs protocol takes one seed, got --seeds {args.seeds!r}")
    if args.shots is not None and args.shots < 1:
        raise ConfigError("--shots must be >= 1; omit it for a base-only gfs pass")
    if args.protocol == "fs" and args.shots is None:
        raise ConfigError("the fs protocol requires --shots")
    if args.protocol == "fs" and args.episodes < 1:
        raise ConfigError(f"--episodes needs an integer >= 1, got {args.episodes}")
    if args.gamma is not None:
        check_gamma(args.gamma)
    model = load_checkpoint(args.model)
    if args.gamma is not None:
        model = with_fixed_gamma(model, args.gamma)
    manifest = load_manifest(args.data)
    if args.protocol == "gfs":
        report = run_gfs_protocol(model, manifest, args.shots, seeds)
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
        result = run_fs_protocol(
            model, manifest, args.shots, args.episodes, seeds[0]
        )
        result["variant"] = model.variant_kind
        result["split_index"] = manifest.split_index
        payload = json.dumps(result, indent=2, sort_keys=True) + "\n"
    atomic_write(args.report, payload.encode())
    print(args.report)
    return 0


def cmd_ablate(args) -> int:
    doc = _load_config(args.config)
    _known_sections(doc, {"scene", "train"})
    config = _section(doc, "train", TrainConfig)
    shots_list = _int_list(args.shots_list, "--shots-list", 1)
    seeds = _int_list(args.seeds, "--seeds", 0)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"--variants names no variant: {args.variants!r}")
    for v in variants:
        make_variant(v)  # validate early
    manifest = load_manifest(args.data)
    rows = run_ablation(manifest, shots_list, variants, seeds, config, args.cache)
    write_ablation_csv(rows, args.out)
    print(args.out)
    return 0


def cmd_gradcheck(args) -> int:
    ok = True
    for kind, report in gradcheck.run_op_checks(args.trials):
        print(f"op {kind:<24} {report}")
        ok &= report.passed
    for name, report in gradcheck.run_end_to_end_check():
        print(f"loss d/d {name:<18} {report}")
        ok &= report.passed
    print("gradient audit:", "pass" if ok else "FAIL")
    return 0 if ok else 1


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
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("register", help="imprint novel classes from K supports")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", type=float, help="fixed gate of capl_te, convg_gamma or amp_gamma")
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
    p.add_argument(
        "--seeds",
        help=f"comma-separated support-sampling seeds (default: {SEEDS} for gfs; "
        f"fs takes one, default {DEFAULT_SEEDS[0]})",
    )
    p.add_argument("--episodes", type=int, default=DEFAULT_FS_EPISODES)
    p.add_argument("--gamma", type=float, help="fixed gate of capl_te, convg_gamma or amp_gamma")
    p.add_argument("--report", required=True, help="output report.json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate a variant grid")
    p.add_argument("--config", help="JSON config with a 'train' section")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default=",".join(VARIANT_KINDS))
    p.add_argument("--shots-list", default="1,5,10")
    p.add_argument("--seeds", default=SEEDS)
    p.add_argument("--cache", required=True, help="checkpoint cache: each scheme trains once")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all ops")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except MemoryError as exc:
            # sizes no allocation can hold, such as a train embed_dim of 10**9
            raise ConfigError(f"out of memory, lower the config's sizes: {exc}") from exc
    except ProtosegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
