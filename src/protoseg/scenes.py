"""ContextShapes: a deterministic synthetic segmentation dataset.

Scenes are 2-6 colored shapes (rectangles, disks, triangles) over a textured
background; later shapes occlude earlier ones and a one-pixel ignore band
separates regions. Each potential novel class has a partner base class it
co-occurs with at a configured probability, and partner shapes drift toward
the novel class's color when they co-occur, so context genuinely changes
appearance. Foreground classes are evenly divided into four splits for
cross-validation; the split under test supplies the novel classes and
everything else (plus background) stays base.

Every scene derives its own generator stream from (seed, split, partition,
index), so builds are byte-identical regardless of generation order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, GenerationError, IoError
from .netpbm import atomic_write, read_pgm, read_ppm, write_pgm, write_ppm
from .prototypes import ROLE_BASE, ROLE_NOVEL, SupportSample, SupportSet
from .tensor import IGNORE_LABEL, Tensor

NUM_SPLITS = 4
MIN_SHAPE_PIXELS = 16
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class CoocRule:
    partner: int
    prob: float


@dataclass(frozen=True)
class SceneConfig:
    height: int = 64
    width: int = 64
    num_foreground: int = 8
    shapes_min: int = 2
    shapes_max: int = 6
    cooc_prob: float = 0.8
    cooc_partner_offset: int = 2
    context_tint: float = 0.35
    color_jitter: float = 0.08
    noise: float = 0.08
    train_scenes: int = 400
    support_per_class: int = 40
    test_scenes: int = 200
    seed: int = 0
    # resolved per split by build_dataset: novel id -> CoocRule
    cooc: dict[int, CoocRule] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_foreground < NUM_SPLITS:
            raise ConfigError("need at least one foreground class per split")
        if self.num_foreground % NUM_SPLITS != 0:
            raise ConfigError("foreground classes must divide evenly into 4 splits")
        if not 0.0 <= self.cooc_prob <= 1.0:
            raise ConfigError(f"co-occurrence probability {self.cooc_prob} outside [0, 1]")
        if self.height < 8 or self.width < 8:
            raise ConfigError("images must be at least 8x8")
        if self.shapes_min < 0 or self.shapes_max < self.shapes_min:
            raise ConfigError("bad shapes-per-image range")

    @property
    def novel_per_split(self) -> int:
        return self.num_foreground // NUM_SPLITS

    def novel_ids(self, split_index: int) -> tuple[int, ...]:
        if not 0 <= split_index < NUM_SPLITS:
            raise ConfigError(f"split index {split_index} outside 0..{NUM_SPLITS - 1}")
        k = self.novel_per_split
        return tuple(range(split_index * k + 1, split_index * k + k + 1))

    def base_ids(self, split_index: int) -> tuple[int, ...]:
        novel = set(self.novel_ids(split_index))
        return tuple(
            [0] + [c for c in range(1, self.num_foreground + 1) if c not in novel]
        )

    def partner_of(self, class_id: int) -> int:
        return ((class_id - 1 + self.cooc_partner_offset) % self.num_foreground) + 1

    def resolved_for_split(self, split_index: int) -> "SceneConfig":
        rules = {
            u: CoocRule(self.partner_of(u), self.cooc_prob)
            for u in self.novel_ids(split_index)
        }
        for u, rule in rules.items():
            if rule.partner in rules:
                raise ConfigError(
                    f"partner {rule.partner} of novel class {u} is novel in the same split"
                )
        return replace(self, cooc=rules)


def hsv_to_rgb(h: float, s: float, v: float) -> np.ndarray:
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return np.array(rgb)


def palette(config: SceneConfig) -> np.ndarray:
    """Row per class id: gray background, a hue wheel for foreground classes."""
    colors = np.zeros((config.num_foreground + 1, 3))
    colors[0] = (0.45, 0.45, 0.45)
    for c in range(1, config.num_foreground + 1):
        colors[c] = hsv_to_rgb((c - 1) / config.num_foreground, 0.65, 0.85)
    return colors


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------


def _raster_shape(kind: int, rng, h: int, w: int) -> np.ndarray | None:
    """Boolean footprint of one random shape, or None if degenerate."""
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == 0:  # rectangle
        rh = int(rng.integers(3, max(4, h // 5) + 1))
        rw = int(rng.integers(3, max(4, w // 5) + 1))
        cy = int(rng.integers(rh, h - rh))
        cx = int(rng.integers(rw, w - rw))
        hit = (np.abs(yy - cy) <= rh) & (np.abs(xx - cx) <= rw)
    elif kind == 1:  # disk
        r = int(rng.integers(3, max(4, min(h, w) // 5) + 1))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        hit = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    else:  # triangle
        span = int(rng.integers(8, max(9, min(h, w) // 2) + 1))
        oy = int(rng.integers(0, h - span))
        ox = int(rng.integers(0, w - span))
        pts = rng.integers(0, span, (3, 2)) + [oy, ox]

        def side(p, q):
            return (q[1] - p[1]) * (yy - p[0]) - (q[0] - p[0]) * (xx - p[1])

        d1, d2, d3 = side(pts[0], pts[1]), side(pts[1], pts[2]), side(pts[2], pts[0])
        neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
        pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
        hit = ~(neg & pos)
    if int(hit.sum()) < MIN_SHAPE_PIXELS:
        return None
    return hit


def _ignore_band(labels: np.ndarray) -> np.ndarray:
    """Mark pixels whose 4-neighborhood crosses a label edge as ignore."""
    out = labels.copy()
    edge = np.zeros(labels.shape, dtype=bool)
    edge[:-1, :] |= labels[:-1, :] != labels[1:, :]
    edge[1:, :] |= labels[1:, :] != labels[:-1, :]
    edge[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    edge[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    out[edge] = IGNORE_LABEL
    return out


def generate_scene(
    config: SceneConfig,
    allowed_classes,
    rng: np.random.Generator,
    require_visible=(),
) -> tuple[Tensor, np.ndarray]:
    """Render one scene; the mask matches the rendered geometry exactly.

    Co-occurrence rules fire for any present class with an entry in
    ``config.cooc`` whose partner is allowed: on success the partner must be
    visible (and is tinted toward the novel color); otherwise the partner is
    kept out of the scene entirely, so the empirical co-occurrence rate
    equals the configured probability.
    """
    allowed = set(int(a) for a in allowed_classes)
    if not allowed:
        raise ConfigError("allowed_classes must not be empty")
    base_require = set(int(r) for r in require_visible)
    if not base_require <= allowed:
        raise GenerationError("required class is not allowed in this scene")
    h, w = config.height, config.width
    colors = palette(config)
    candidates = sorted(c for c in allowed if c != 0)

    last_error = "no attempt made"
    for _ in range(MAX_ATTEMPTS):
        n_shapes = int(rng.integers(config.shapes_min, config.shapes_max + 1))
        if not candidates:
            n_shapes = 0
        classes = [int(rng.choice(candidates)) for _ in range(n_shapes)]

        required = set(base_require)
        tinted: dict[int, int] = {}  # partner -> novel it co-occurs with
        forbidden: set[int] = set()
        for u in sorted(set(classes) & set(config.cooc)):
            rule = config.cooc[u]
            if rule.partner not in allowed:
                continue
            required.add(u)
            if rng.random() < rule.prob:
                required.add(rule.partner)
                tinted[rule.partner] = u
                if rule.partner not in classes:
                    # reuse a free slot to stay within the shapes-per-image
                    # range; never displace a required or rule-bearing class
                    slot = next(
                        (
                            j
                            for j, c in enumerate(classes)
                            if c not in required and c not in config.cooc
                        ),
                        None,
                    )
                    if slot is None:
                        classes.append(rule.partner)
                    else:
                        classes[slot] = rule.partner
            else:
                forbidden.add(rule.partner)
        if forbidden:
            safe = [c for c in candidates if c not in forbidden and c not in config.cooc]
            safe = safe or [c for c in candidates if c not in forbidden]
            classes = [
                int(rng.choice(safe)) if c in forbidden else c for c in classes
            ]

        labels = np.zeros((h, w), dtype=np.int64)
        image = np.tile(colors[0], (h, w, 1))
        ok = True
        for cls in classes:
            hit = None
            for _retry in range(8):
                hit = _raster_shape(int(rng.integers(0, 3)), rng, h, w)
                if hit is not None:
                    break
            if hit is None:
                ok = False
                last_error = "could not place a non-degenerate shape"
                break
            labels[hit] = cls
            color = colors[cls]
            if cls in tinted:
                # co-occurring partners fade toward the background shade, so
                # their trained appearance no longer matches and enrichment
                # from supports has something real to recover
                color = (1 - config.context_tint) * color + config.context_tint * colors[0]
            color = color + config.color_jitter * rng.uniform(-1, 1, 3)
            image[hit] = np.clip(color, 0.0, 1.0)
        if not ok:
            continue

        masked = _ignore_band(labels)
        visible = set(np.unique(masked)) - {IGNORE_LABEL}
        if not required <= visible:
            last_error = f"classes {sorted(required - visible)} not visible"
            continue

        image = image + rng.normal(0.0, config.noise, image.shape)
        return Tensor(np.clip(image, 0.0, 1.0)), masked

    raise GenerationError(f"scene generation failed after {MAX_ATTEMPTS} attempts: {last_error}")


# ---------------------------------------------------------------------------
# dataset build, manifest, support sampling
# ---------------------------------------------------------------------------


@dataclass
class PairEntry:
    image: str
    mask: str
    novel_id: int | None = None


@dataclass
class DatasetManifest:
    classes: list[dict]
    split_index: int
    seed: int
    train: list[PairEntry]
    support_pool: list[PairEntry]
    test: list[PairEntry]
    base_dir: str = "."

    @property
    def roles(self) -> dict[int, str]:
        return {int(c["id"]): c["role"] for c in self.classes}

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(int(c["id"]) for c in self.classes))

    def ids_with_role(self, role: str) -> tuple[int, ...]:
        return tuple(sorted(int(c["id"]) for c in self.classes if c["role"] == role))

    def to_json(self) -> dict:
        def entries(items):
            out = []
            for e in items:
                d = {"image": e.image, "mask": e.mask}
                if e.novel_id is not None:
                    d["novel_id"] = e.novel_id
                out.append(d)
            return out

        return {
            "classes": self.classes,
            "split_index": self.split_index,
            "seed": self.seed,
            "splits": {
                "train": entries(self.train),
                "support_pool": entries(self.support_pool),
                "test": entries(self.test),
            },
        }


def _scene_rng(seed: int, split: int, partition: int, *extra) -> np.random.Generator:
    return np.random.default_rng((seed, split, partition, *extra))


def build_dataset(config: SceneConfig, split_index: int, out_dir: str) -> DatasetManifest:
    """Write train/support/test scenes plus manifest.json for one split."""
    cfg = config.resolved_for_split(split_index)
    novel = cfg.novel_ids(split_index)
    base = cfg.base_ids(split_index)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    def emit(name: str, image: Tensor, mask: np.ndarray) -> tuple[str, str]:
        write_ppm(os.path.join(out_dir, f"{name}.ppm"), image.data)
        write_pgm(os.path.join(out_dir, f"{name}.pgm"), mask)
        return f"{name}.ppm", f"{name}.pgm"

    train_entries = []
    allowed_train = set(base)
    for i in range(cfg.train_scenes):
        image, mask = generate_scene(cfg, allowed_train, _scene_rng(cfg.seed, split_index, 0, i))
        novel_px = np.isin(mask, novel).sum()
        if novel_px:
            raise GenerationError("novel class leaked into a train scene")
        train_entries.append(PairEntry(*emit(f"train_{i:04d}", image, mask)))

    support_entries = []
    allowed_all = set(base) | set(novel)
    for u in novel:
        allowed_u = set(base) | {u}
        for i in range(cfg.support_per_class):
            image, mask = generate_scene(
                cfg,
                allowed_u,
                _scene_rng(cfg.seed, split_index, 1, u, i),
                require_visible={u},
            )
            img_path, mask_path = emit(f"support_{u:02d}_{i:04d}", image, mask)
            support_entries.append(PairEntry(img_path, mask_path, novel_id=u))

    test_entries = []
    for i in range(cfg.test_scenes):
        image, mask = generate_scene(cfg, allowed_all, _scene_rng(cfg.seed, split_index, 2, i))
        test_entries.append(PairEntry(*emit(f"test_{i:04d}", image, mask)))

    classes = [{"id": 0, "name": "background", "role": ROLE_BASE}]
    for c in range(1, cfg.num_foreground + 1):
        role = ROLE_NOVEL if c in novel else ROLE_BASE
        classes.append({"id": c, "name": f"class{c}", "role": role})

    manifest = DatasetManifest(
        classes=classes,
        split_index=split_index,
        seed=cfg.seed,
        train=train_entries,
        support_pool=support_entries,
        test=test_entries,
        base_dir=out_dir,
    )
    payload = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    atomic_write(os.path.join(out_dir, "manifest.json"), payload.encode())
    return manifest


def load_manifest(path: str) -> DatasetManifest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON, not UTF-8 ({exc.reason})") from exc

    def entries(items):
        return [
            PairEntry(e["image"], e["mask"], e.get("novel_id")) for e in items
        ]

    try:
        return DatasetManifest(
            classes=doc["classes"],
            split_index=int(doc["split_index"]),
            seed=int(doc["seed"]),
            train=entries(doc["splits"]["train"]),
            support_pool=entries(doc["splits"]["support_pool"]),
            test=entries(doc["splits"]["test"]),
            base_dir=os.path.dirname(os.path.abspath(path)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed manifest ({exc})") from exc


def load_pair(manifest: DatasetManifest, entry: PairEntry) -> tuple[Tensor, np.ndarray]:
    image = read_ppm(os.path.join(manifest.base_dir, entry.image))
    mask = read_pgm(os.path.join(manifest.base_dir, entry.mask))
    return Tensor(image), mask


def sample_support_set(manifest: DatasetManifest, k: int, seed: int) -> SupportSet:
    """Draw K support scenes per novel class, uniformly without replacement."""
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    novel_ids = manifest.ids_with_role(ROLE_NOVEL)
    if not novel_ids:
        raise DataError("manifest declares no novel classes")
    rng = np.random.default_rng(seed)
    samples = []
    for u in novel_ids:
        pool = [e for e in manifest.support_pool if e.novel_id == u]
        if len(pool) < k:
            raise DataError(f"support pool for class {u} has {len(pool)} < K={k} scenes")
        chosen = rng.choice(len(pool), size=k, replace=False)
        for idx in sorted(int(i) for i in chosen):
            image, mask = load_pair(manifest, pool[idx])
            samples.append(SupportSample(image, mask, u))
    return SupportSet(samples)
