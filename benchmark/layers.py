"""Per-layer metrics derived from the spans of a traced run.

Time metrics come from span durations; a span's self time is its duration
minus the part of it that its children cover. Each metric is normalised by
the unit its layer works in on the traced workload: per train step on
``train_capl``, per extracted image on ``eval_fewshot`` and per round on
``data_io`` for the tensor, backbone, training, netpbm and checkpoint-bytes
numbers; per call, seed or shot where the name says so.
"""

from __future__ import annotations

from collections import defaultdict

from seams import INFO, LAYER, NAME, PARENT, T0, T1

TENSOR_KINDS = ("conv2d", "softmax_cross_entropy", "l2_normalize", "masked_sum", "matmul", "relu")
BACKBONE_LAYERS = 3
ROUND = "bench.round"
PER_UNIT = {
    "train_capl": "training.train_step",
    "eval_fewshot": "backbone.extract",
    "data_io": ROUND,
}


def _spec():
    ms, n = ("ms", "lower"), ("count", "lower")
    spec = []
    for kind in TENSOR_KINDS + ("other",):
        spec += [(f"tensor.{kind}.fwd_ms", *ms), (f"tensor.{kind}.bwd_ms", *ms), (f"tensor.{kind}.calls", *n)]
    spec += [
        ("tensor.backward_ms", *ms),
        ("tensor.tape_records", *n),
        ("tensor.conv2d.flop", "flop", "lower"),
        ("tensor.conv2d.gflop_per_s", "GFLOP/s", "higher"),
        ("tensor.op_coverage", "ratio", "higher"),
        ("backbone.extract_ms", *ms),
    ]
    for i in range(BACKBONE_LAYERS):
        spec += [(f"backbone.layer{i}.fwd_ms", *ms), (f"backbone.layer{i}.bwd_ms", *ms)]
    spec += [
        ("training.batch_ms", *ms),
        ("training.forward_ms", *ms),
        ("training.rehearsal_ms", *ms),
        ("training.loss_ms", *ms),
        ("training.update_ms", *ms),
        ("training.fake_novel_classes", "count", "higher"),
        ("training.fake_context_classes", "count", "higher"),
        ("prototypes.register_ms", *ms),
        ("prototypes.register_extract_ms", *ms),
        ("prototypes.classify_ms", *ms),
        ("prototypes.gamma_calls", *n),
        ("prototypes.enriched_rows", "count", "higher"),
        ("protocols.gfs_extract_s", "s", "lower"),
        ("protocols.gfs_seed_s", "s", "lower"),
        ("protocols.fs_shot_ms", *ms),
        ("protocols.fs_shot_extractions", *n),
        ("protocols.fs_distinct_shot_ratio", "ratio", "higher"),
        ("metrics.accumulate_ms", *ms),
        ("metrics.accumulate_calls", *n),
        ("scenes.generate_ms", *ms),
        ("scenes.build_dataset_s", "s", "lower"),
        ("scenes.load_pair_ms", *ms),
        ("scenes.sample_support_ms", *ms),
        ("netpbm.write_ms", *ms),
        ("netpbm.read_ms", *ms),
        ("netpbm.bytes_written", "B", "lower"),
        ("netpbm.bytes_read", "B", "lower"),
        ("checkpoint.save_ms", *ms),
        ("checkpoint.load_ms", *ms),
        ("checkpoint.train_state_save_ms", *ms),
        ("checkpoint.train_state_load_ms", *ms),
        ("checkpoint.bytes", "B", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return tuple(spec)


PER_LAYER = _spec()  # (name, unit, better), in report order


def _ms(span) -> float:
    return (span[T1] - span[T0]) / 1e6


def durations(spans, name: str) -> list[float]:
    """Durations in seconds of every span called ``name``."""
    return [(s[T1] - s[T0]) / 1e9 for s in spans if s[NAME] == name]


def _ancestor(span, names):
    p = span[PARENT]
    while p is not None:
        if p[NAME] in names:
            return p
        p = p[PARENT]
    return None


def _merge(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _overlap(merged, lo, hi) -> int:
    return sum(max(0, min(b, hi) - max(a, lo)) for a, b in merged if a < hi and b > lo)


def self_times(spans) -> dict[str, float]:
    """Total self time in ms per span name: duration minus the part covered
    by the span's children (children on worker threads may overlap)."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[T0], s[T1]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = _merge(children.get(id(s), ()))
        out[s[NAME]] += (s[T1] - s[T0] - _overlap(kids, s[T0], s[T1])) / 1e6
    return dict(out)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(spans, workload: str, untraced_unit: float, traced_unit: float) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from one traced loop's spans."""
    by = defaultdict(list)
    for s in spans:
        by[s[NAME]].append(s)
    units = len(by[PER_UNIT[workload]])

    def per(total):
        return total / units if units else 0.0

    m: dict[str, float] = {}
    fwd, bwd, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    layer_fwd, layer_bwd = defaultdict(float), defaultdict(float)
    records = flop = conv_ms = 0
    op_intervals = []
    for s in spans:
        name = s[NAME]
        if not name.startswith("tensor.") or name == "tensor.backward":
            continue
        op_intervals.append((s[T0], s[T1]))
        if name.endswith(".bwd"):
            kind = name[len("tensor.") : -len(".bwd")]
            bwd[kind if kind in TENSOR_KINDS else "other"] += _ms(s)
            layer_bwd[s[LAYER]] += _ms(s)
            flop += s[INFO]
        else:
            kind = name[len("tensor.") :]
            group = kind if kind in TENSOR_KINDS else "other"
            fwd[group] += _ms(s)
            calls[group] += 1
            layer_fwd[s[LAYER]] += _ms(s)
            flop += s[INFO][0]
            records += s[INFO][1]
        if kind == "conv2d":
            conv_ms += _ms(s)
    for kind in TENSOR_KINDS + ("other",):
        m[f"tensor.{kind}.fwd_ms"] = per(fwd[kind])
        m[f"tensor.{kind}.bwd_ms"] = per(bwd[kind])
        m[f"tensor.{kind}.calls"] = per(calls[kind])
    m["tensor.backward_ms"] = per(sum(_ms(s) for s in by["tensor.backward"]))
    m["tensor.tape_records"] = per(records)
    m["tensor.conv2d.flop"] = per(flop)
    m["tensor.conv2d.gflop_per_s"] = flop / conv_ms / 1e6 if conv_ms else 0.0
    scope = by["training.train_step"] if workload == "train_capl" else by[ROUND]
    merged = _merge(op_intervals)
    scope_ns = sum(s[T1] - s[T0] for s in scope)
    covered = sum(_overlap(merged, s[T0], s[T1]) for s in scope)
    m["tensor.op_coverage"] = covered / scope_ns if scope_ns else 0.0

    m["backbone.extract_ms"] = per(sum(_ms(s) for s in by["backbone.extract"]))
    for i in range(BACKBONE_LAYERS):
        m[f"backbone.layer{i}.fwd_ms"] = per(layer_fwd[i])
        m[f"backbone.layer{i}.bwd_ms"] = per(layer_bwd[i])

    steps = by["training.train_step"]
    step_backward = {id(s[PARENT]): s for s in by["tensor.backward"] if s[PARENT] is not None}
    forward = update = 0.0
    for step in steps:
        b = step_backward.get(id(step))
        if b is not None:
            forward += (b[T0] - step[T0]) / 1e6
            update += (step[T1] - b[T1]) / 1e6
    splits = by["training.select_fake_classes"]
    m["training.batch_ms"] = per(sum(_ms(s) for s in by["training.partition_batch"]))
    m["training.forward_ms"] = per(forward)
    m["training.rehearsal_ms"] = per(
        sum(_ms(s) for s in splits + by["training.build_updated_classifier"])
    )
    m["training.loss_ms"] = per(sum(_ms(s) for s in by["training.dual_loss"]))
    m["training.update_ms"] = per(update)
    m["training.fake_novel_classes"] = per(sum(s[INFO][0] for s in splits))
    m["training.fake_context_classes"] = per(sum(s[INFO][1] for s in splits))

    registers = by["prototypes.register_novel_classes"]
    reg = {"prototypes.register_novel_classes"}
    n_reg = len(registers)
    m["prototypes.register_ms"] = _mean([_ms(s) for s in registers])
    m["prototypes.register_extract_ms"] = (
        sum(_ms(s) for s in by["backbone.extract"] if _ancestor(s, reg)) / n_reg if n_reg else 0.0
    )
    m["prototypes.classify_ms"] = _mean([_ms(s) for s in by["prototypes.classify"]])
    for metric, name in (("gamma_calls", "gamma_forward"), ("enriched_rows", "fuse_prototype")):
        hits = sum(1 for s in by[f"prototypes.{name}"] if _ancestor(s, reg))
        m[f"prototypes.{metric}"] = hits / n_reg if n_reg else 0.0

    gfs_calls = by["protocols.run_gfs_protocol"]
    gfs = {"protocols.run_gfs_protocol"}
    extracts_in, seeds_in, acc_in = defaultdict(list), defaultdict(list), defaultdict(list)
    for s in by["backbone.extract"]:
        if (g := _ancestor(s, gfs)) is not None and not _ancestor(s, reg):
            extracts_in[id(g)].append((s[T0], s[T1]))
    for s in by["scenes.sample_support_set"]:
        if (g := _ancestor(s, gfs)) is not None:
            seeds_in[id(g)].append(s)
    for s in by["metrics.accumulate"]:
        if (g := _ancestor(s, gfs)) is not None:
            acc_in[id(g)].append(s)
    n_gfs = len(gfs_calls)
    extract_ns = sum(
        _overlap(_merge(extracts_in[id(g)]), g[T0], g[T1]) for g in gfs_calls
    )
    n_seeds = sum(len(seeds_in[id(g)]) for g in gfs_calls)
    seed_ns = sum(g[T1] - min(s[T0] for s in seeds_in[id(g)]) for g in gfs_calls if seeds_in[id(g)])
    m["protocols.gfs_extract_s"] = extract_ns / 1e9 / n_gfs if n_gfs else 0.0
    m["protocols.gfs_seed_s"] = seed_ns / 1e9 / n_seeds if n_seeds else 0.0

    fs_calls = by["protocols.run_fs_protocol"]
    fs = {"protocols.run_fs_protocol"}
    shot_ms, shots, distinct = 0.0, defaultdict(int), defaultdict(set)
    for s in by["scenes.load_pair"]:
        if s[INFO] is not None and (f := _ancestor(s, fs)) is not None:
            shot_ms += _ms(s)
            distinct[id(f)].add(s[INFO])
    for s in by["backbone.extract"]:
        if s[INFO] == "shot" and (f := _ancestor(s, fs)) is not None:
            shot_ms += _ms(s)
            shots[id(f)] += 1
    n_shots = sum(shots.values())
    m["protocols.fs_shot_ms"] = shot_ms / n_shots if n_shots else 0.0
    m["protocols.fs_shot_extractions"] = n_shots / len(fs_calls) if fs_calls else 0.0
    m["protocols.fs_distinct_shot_ratio"] = _mean(
        [len(distinct[id(f)]) / shots[id(f)] for f in fs_calls if shots[id(f)]]
    )

    acc = [s for g in gfs_calls for s in acc_in[id(g)]]
    m["metrics.accumulate_ms"] = sum(_ms(s) for s in acc) / n_gfs if n_gfs else 0.0
    m["metrics.accumulate_calls"] = len(acc) / n_gfs if n_gfs else 0.0

    m["scenes.generate_ms"] = _mean([_ms(s) for s in by["scenes.generate_scene"]])
    m["scenes.build_dataset_s"] = _mean([_ms(s) / 1e3 for s in by["scenes.build_dataset"]])
    m["scenes.load_pair_ms"] = _mean([_ms(s) for s in by["scenes.load_pair"]])
    m["scenes.sample_support_ms"] = _mean([_ms(s) for s in by["scenes.sample_support_set"]])
    m["netpbm.write_ms"] = _mean([_ms(s) for s in by["netpbm.write"]])
    m["netpbm.read_ms"] = _mean([_ms(s) for s in by["netpbm.read"]])
    m["netpbm.bytes_written"] = per(sum(s[INFO] for s in by["netpbm.write"]))
    m["netpbm.bytes_read"] = per(sum(s[INFO] for s in by["netpbm.read"]))

    state_save = {"checkpoint.train_state_save"}
    saves = [s for s in by["checkpoint.save"] if not _ancestor(s, state_save)]
    m["checkpoint.save_ms"] = _mean([_ms(s) for s in saves])
    m["checkpoint.load_ms"] = _mean([_ms(s) for s in by["checkpoint.load"]])
    m["checkpoint.train_state_save_ms"] = _mean([_ms(s) for s in by["checkpoint.train_state_save"]])
    m["checkpoint.train_state_load_ms"] = _mean([_ms(s) for s in by["checkpoint.train_state_load"]])
    m["checkpoint.bytes"] = per(sum(s[INFO] for s in saves + by["checkpoint.train_state_save"]))

    m["trace.overhead_pct"] = (traced_unit / untraced_unit - 1.0) * 100.0
    return m
