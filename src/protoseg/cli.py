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


def _load_config(path: str | None) -> dict:
    """The ``scene`` and ``train`` sections, each built into its config
    dataclass from the JSON file at ``path`` (all defaults without one), so
    one file serves every command. An unknown section or key, or a bad value
    in either section, is a ``ConfigError``."""
    sections = {"scene": SceneConfig, "train": TrainConfig}
    doc = {} if path is None else read_json(path)
    unknown = set(doc) - set(sections) - {"_comment"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    built = {}
    for name, cls in sections.items():
        raw = doc.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        kwargs = {k: v for k, v in raw.items() if k != "_comment"}
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
        try:
            built[name] = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad value in config section {name!r}: {exc}") from exc
    return built


def _ints(flag: str, least: int, many: bool):
    """An argparse ``type=`` for an integer flag, or for a comma-separated
    list of integers if ``many``: a non-integer, an empty list or a value
    below ``least`` is a ``ConfigError``, which ``main`` turns into exit 2."""

    def parse(raw: str):
        items = raw.replace(" ", "").split(",") if many else [raw]
        try:
            values = tuple(int(s) for s in items if s)
        except ValueError:
            values = ()
        if not values or min(values) < least:
            wanted = "one or more integers" if many else "an integer"
            raise ConfigError(f"{flag} needs {wanted} >= {least}, got {raw!r}")
        return values if many else values[0]

    return parse


def _gamma(raw: str) -> float:
    """The ``type=`` of ``--gamma``: a number that ``check_gamma`` accepts."""
    try:
        gamma = float(raw)
    except ValueError as exc:
        raise ConfigError(f"--gamma needs a number, got {raw!r}") from exc
    check_gamma(gamma)
    return gamma


def _variants(raw: str) -> tuple[str, ...]:
    """The ``type=`` of ``--variants``: kinds that ``make_variant`` knows."""
    kinds = tuple(make_variant(v.strip()).kind for v in raw.split(",") if v.strip())
    if not kinds:
        raise ConfigError(f"--variants names no variant: {raw!r}")
    return kinds


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    scene = _load_config(args.config)["scene"]
    for split in range(NUM_SPLITS):
        out = os.path.join(args.out, f"split{split}")
        build_dataset(scene, split, out)
        print(os.path.join(out, "manifest.json"))
    return 0


def cmd_train(args) -> int:
    if args.resume and args.config:
        raise ConfigError("--resume continues the snapshot's own config; drop --config")
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
        config = _load_config(args.config)["train"]
    data = load_train_data(load_manifest(args.data))
    if not args.resume:
        state = init_state(config, data, make_variant(args.variant or "capl"))
    run_training_loop(state, data, until=args.stop_after)
    # the side file goes first, so a failed write leaves no --out behind
    write_curve(state, args.curve or f"{args.out}.curve.csv")
    save_train_state(args.out, state)
    print(args.out)
    return 0


def cmd_register(args) -> int:
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
    if args.logits:  # the side file first, so a failed write leaves no mask
        h, w, n = logits.shape
        atomic_write(args.logits, struct.pack("<III", h, w, n) + logits.astype("<f4").tobytes())
    write_pgm(args.out, pred)
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    seeds = args.seeds or (DEFAULT_SEEDS if args.protocol == "gfs" else DEFAULT_SEEDS[:1])
    if args.protocol == "fs" and (args.shots is None or len(seeds) > 1):
        raise ConfigError(f"fs needs --shots and one seed, got --shots {args.shots}, seeds {seeds}")
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
    config = _load_config(args.config)["train"]
    manifest = load_manifest(args.data)
    rows = run_ablation(manifest, args.shots_list, args.variants, args.seeds, config, args.cache)
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
    p.add_argument("--config", help="JSON config with 'scene' and 'train' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train base classes for one split")
    p.add_argument("--config", help="JSON config with 'scene' and 'train' sections")
    p.add_argument("--data", required=True, help="manifest.json of the split")
    p.add_argument("--variant", choices=VARIANT_KINDS, help="default: capl")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--curve", help="loss curve CSV (default: <out>.curve.csv)")
    p.add_argument("--resume", help="continue from a training snapshot")
    p.add_argument("--stop-after", type=_ints("--stop-after", 0, False),
                   help="halt after this many total steps")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("register", help="imprint novel classes from K supports")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--shots", type=_ints("--shots", 1, False), required=True)
    p.add_argument("--seed", type=_ints("--seed", 0, False), default=DEFAULT_SEEDS[0])
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", type=_gamma, help="fixed gate of capl_te, convg_gamma or amp_gamma")
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
    p.add_argument("--shots", type=_ints("--shots", 1, False), help="omit for a base-only gfs pass")
    p.add_argument(
        "--seeds",
        type=_ints("--seeds", 0, True),
        help="comma-separated support-sampling seeds (default: "
        f"{','.join(map(str, DEFAULT_SEEDS))} for gfs; fs takes one, default {DEFAULT_SEEDS[0]})",
    )
    p.add_argument("--episodes", type=_ints("--episodes", 1, False), default=DEFAULT_FS_EPISODES)
    p.add_argument("--gamma", type=_gamma, help="fixed gate of capl_te, convg_gamma or amp_gamma")
    p.add_argument("--report", required=True, help="output report.json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate a variant grid")
    p.add_argument("--config", help="JSON config with 'scene' and 'train' sections")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", type=_variants, default=VARIANT_KINDS)
    p.add_argument("--shots-list", type=_ints("--shots-list", 1, True), default=(1, 5, 10))
    p.add_argument("--seeds", type=_ints("--seeds", 0, True), default=DEFAULT_SEEDS)
    p.add_argument("--cache", required=True, help="checkpoint cache: each scheme trains once")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all ops")
    p.add_argument("--trials", type=_ints("--trials", 1, False), default=DEFAULT_TRIALS)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
