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
index), so builds are byte-identical regardless of generation order. Each
shape is rastered inside its own box: rectangles and disks are drawn to fit
the image and a triangle inside its span-sided window, except a zero-area
triangle, whose footprint (a line, or every pixel) is rastered full-size.
"""

from __future__ import annotations

import colorsys
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, GenerationError, check_field_types
from .netpbm import atomic_write, make_dirs, read_json, read_pgm, read_ppm, write_pgm, write_ppm
from .prototypes import ROLE_BASE, ROLE_NOVEL, SupportSample, SupportSet, class_name
from .tensor import IGNORE_LABEL, Tensor

NUM_SPLITS = 4
MIN_SHAPE_PIXELS = 16
MAX_ATTEMPTS = 64


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

    def __post_init__(self):
        check_field_types(self)
        if not NUM_SPLITS <= self.num_foreground < IGNORE_LABEL:  # an 8-bit mask holds the ids
            raise ConfigError(f"num_foreground must be in [{NUM_SPLITS}, {IGNORE_LABEL - 1}]")
        if self.num_foreground % NUM_SPLITS != 0:
            raise ConfigError("foreground classes must divide evenly into 4 splits")
        if not 0.0 <= self.cooc_prob <= 1.0:
            raise ConfigError(f"co-occurrence probability {self.cooc_prob} outside [0, 1]")
        if self.height < 10 or self.width < 10:  # a triangle's span reaches 9
            raise ConfigError(f"height and width must be at least 10, got {self.height}x{self.width}")
        if self.shapes_min < 0 or self.shapes_max < self.shapes_min:
            raise ConfigError("bad shapes-per-image range")
        if self.noise < 0:
            raise ConfigError(f"noise must be non-negative, got {self.noise}")
        if not 0.0 <= self.context_tint <= 1.0:
            raise ConfigError(f"context_tint {self.context_tint} outside [0, 1]")
        for name in ("train_scenes", "support_per_class", "test_scenes", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for split in range(NUM_SPLITS):
            for u in self.novel_ids(split):
                if self.partner_of(u) in self.novel_ids(split):
                    raise ConfigError(f"partner {self.partner_of(u)} of class {u} is novel too")

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


def palette(config: SceneConfig) -> np.ndarray:
    """Row per class id: gray background, a hue wheel for foreground classes."""
    return _palette(config.num_foreground).copy()


@functools.cache
def _palette(num_foreground: int) -> np.ndarray:
    colors = np.zeros((num_foreground + 1, 3))
    colors[0] = (0.45, 0.45, 0.45)
    for c in range(1, num_foreground + 1):
        colors[c] = colorsys.hsv_to_rgb((c - 1) / num_foreground, 0.65, 0.85)
    colors.flags.writeable = False
    return colors


def present_ids(mask: np.ndarray) -> np.ndarray:
    """A mask's distinct ids, ascending: one 256-bin count, or ``np.unique`` past 0-255."""
    flat = mask.reshape(-1)
    if flat.size and 0 <= flat.min() and flat.max() <= IGNORE_LABEL:
        return np.flatnonzero(np.bincount(flat, minlength=IGNORE_LABEL + 1))
    return np.unique(flat)


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------


def _raster_shape(kind: int, rng, h: int, w: int):
    """One random shape as (box, hit): two slices of the image and the boolean
    footprint inside them, or None below ``MIN_SHAPE_PIXELS`` pixels. A
    triangle's box is its window, but a zero-area one's is the whole image:
    its footprint, the line through its points or every pixel, leaves it."""
    if kind == 0:  # rectangle
        rh = int(rng.integers(3, max(4, h // 5) + 1))
        rw = int(rng.integers(3, max(4, w // 5) + 1))
        cy = int(rng.integers(rh, h - rh))
        cx = int(rng.integers(rw, w - rw))
        box = slice(cy - rh, cy + rh + 1), slice(cx - rw, cx + rw + 1)
        return box, np.ones((2 * rh + 1, 2 * rw + 1), dtype=bool)
    if kind == 1:  # disk
        r = int(rng.integers(3, max(4, min(h, w) // 5) + 1))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        d = np.arange(-r, r + 1)
        box = slice(cy - r, cy + r + 1), slice(cx - r, cx + r + 1)
        return box, d[:, None] ** 2 + d**2 <= r * r
    # triangle
    span = int(rng.integers(8, max(9, min(h, w) // 2) + 1))
    oy = int(rng.integers(0, h - span))
    ox = int(rng.integers(0, w - span))
    (y0, x0), (y1, x1), (y2, x2) = rng.integers(0, span, (3, 2)).tolist()
    box, yy, xx = np.s_[oy : oy + span, ox : ox + span], np.arange(span)[:, None], np.arange(span)
    if (y1 - y0) * (x2 - x0) == (x1 - x0) * (y2 - y0):  # zero area: a line or every pixel
        box, yy, xx = np.s_[:, :], np.arange(h)[:, None] - oy, np.arange(w) - ox
    d1 = (x1 - x0) * (yy - y0) - (y1 - y0) * (xx - x0)
    d2 = (x2 - x1) * (yy - y1) - (y2 - y1) * (xx - x1)
    d3 = (x0 - x2) * (yy - y2) - (y0 - y2) * (xx - x2)
    hit = ~(((d1 < 0) | (d2 < 0) | (d3 < 0)) & ((d1 > 0) | (d2 > 0) | (d3 > 0)))
    if int(hit.sum()) < MIN_SHAPE_PIXELS:
        return None
    return box, hit


def _ignore_band(labels: np.ndarray) -> np.ndarray:
    """The int64 mask, with pixels whose 4-neighborhood crosses a label edge as ignore."""
    edge = np.zeros(labels.shape, dtype=bool)
    down = labels[:-1, :] != labels[1:, :]
    right = labels[:, :-1] != labels[:, 1:]
    edge[:-1, :] |= down
    edge[1:, :] |= down
    edge[:, :-1] |= right
    edge[:, 1:] |= right
    out = labels.astype(np.int64)
    out[edge] = IGNORE_LABEL
    return out


def generate_scene(
    config: SceneConfig,
    novel_ids,
    allowed_classes,
    rng: np.random.Generator,
    require_visible=(),
) -> tuple[Tensor, np.ndarray]:
    """Render one scene; the mask matches the rendered geometry exactly.

    Each present novel class whose partner (``config.partner_of``) is allowed
    co-occurs with it at ``config.cooc_prob``: on success the partner must be
    visible (and is tinted toward the background shade); otherwise the
    partner is kept out of the scene entirely, so the empirical co-occurrence
    rate equals the configured probability.
    """
    novel = set(int(u) for u in novel_ids)
    allowed = set(int(a) for a in allowed_classes)
    if not allowed:
        raise ConfigError("allowed_classes must not be empty")
    base_require = set(int(r) for r in require_visible)
    if not base_require <= allowed:
        raise GenerationError("required class is not allowed in this scene")
    h, w = config.height, config.width
    colors = _palette(config.num_foreground)
    candidates = sorted(c for c in allowed if c != 0)

    last_error = "no attempt made"
    for _ in range(MAX_ATTEMPTS):
        n_shapes = int(rng.integers(config.shapes_min, config.shapes_max + 1))
        if not candidates:
            n_shapes = 0
        classes = [candidates[rng.integers(0, len(candidates))] for _ in range(n_shapes)]

        required = set(base_require)
        tinted: dict[int, int] = {}  # partner -> novel it co-occurs with
        forbidden: set[int] = set()
        for u in sorted(set(classes) & novel):
            partner = config.partner_of(u)
            if partner not in allowed:
                continue
            required.add(u)
            if rng.random() < config.cooc_prob:
                required.add(partner)
                tinted[partner] = u
                if partner not in classes:
                    # reuse a free slot to stay within the shapes-per-image
                    # range; never displace a required or novel class
                    slot = next(
                        (
                            j
                            for j, c in enumerate(classes)
                            if c not in required and c not in novel
                        ),
                        None,
                    )
                    if slot is None:
                        classes.append(partner)
                    else:
                        classes[slot] = partner
            else:
                forbidden.add(partner)
        if forbidden:
            safe = [c for c in candidates if c not in forbidden and c not in novel]
            safe = safe or [c for c in candidates if c not in forbidden]
            classes = [safe[rng.integers(0, len(safe))] if c in forbidden else c for c in classes]

        labels = np.zeros((h, w), dtype=np.uint8)
        image = np.tile(colors[0], (h, w, 1))
        ok = True
        for cls in classes:
            shape = None
            for _retry in range(8):
                shape = _raster_shape(int(rng.integers(0, 3)), rng, h, w)
                if shape is not None:
                    break
            if shape is None:
                ok = False
                last_error = "could not place a non-degenerate shape"
                break
            box, hit = shape
            labels[box][hit] = cls
            color = colors[cls]
            if cls in tinted:
                # co-occurring partners fade toward the background shade, so
                # their trained appearance no longer matches and enrichment
                # from supports has something real to recover
                color = (1 - config.context_tint) * color + config.context_tint * colors[0]
            color = color + config.color_jitter * rng.uniform(-1, 1, 3)
            image[box][hit] = np.clip(color, 0.0, 1.0)
        if not ok:
            continue

        masked = _ignore_band(labels)
        visible = set(present_ids(masked).tolist()) - {IGNORE_LABEL}
        if not required <= visible:
            last_error = f"classes {sorted(required - visible)} not visible"
            continue

        image += rng.normal(0.0, config.noise, image.shape)
        return Tensor(np.clip(image, 0.0, 1.0, out=image)), masked

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

    def ids_with_role(self, role: str) -> tuple[int, ...]:
        return tuple(sorted(int(c["id"]) for c in self.classes if c["role"] == role))

    def support_pool_for(self, novel_id: int, k: int) -> list[PairEntry]:
        """The pool scenes made for ``novel_id``; a ``DataError`` if fewer than ``k``."""
        pool = [e for e in self.support_pool if e.novel_id == novel_id]
        if len(pool) < k:
            raise DataError(f"support pool for class {novel_id} has {len(pool)} < K={k} scenes")
        return pool

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


def build_dataset(config: SceneConfig, split_index: int, out_dir: str) -> DatasetManifest:
    """Write train/support/test scenes plus manifest.json for one split."""
    novel = config.novel_ids(split_index)
    base = config.base_ids(split_index)
    make_dirs(out_dir)

    def scene_rng(partition: int, *index) -> np.random.Generator:
        return np.random.default_rng((config.seed, split_index, partition, *index))

    def emit(name: str, image: Tensor, mask: np.ndarray) -> tuple[str, str]:
        write_ppm(os.path.join(out_dir, f"{name}.ppm"), image.data)
        write_pgm(os.path.join(out_dir, f"{name}.pgm"), mask)
        return f"{name}.ppm", f"{name}.pgm"

    train_entries = []
    allowed_train = set(base)
    for i in range(config.train_scenes):
        image, mask = generate_scene(config, novel, allowed_train, scene_rng(0, i))
        if not set(novel).isdisjoint(present_ids(mask).tolist()):
            raise GenerationError("novel class leaked into a train scene")
        train_entries.append(PairEntry(*emit(f"train_{i:04d}", image, mask)))

    support_entries = []
    allowed_all = set(base) | set(novel)
    for u in novel:
        allowed_u = set(base) | {u}
        for i in range(config.support_per_class):
            image, mask = generate_scene(
                config, novel, allowed_u, scene_rng(1, u, i), require_visible={u}
            )
            img_path, mask_path = emit(f"support_{u:02d}_{i:04d}", image, mask)
            support_entries.append(PairEntry(img_path, mask_path, novel_id=u))

    test_entries = []
    for i in range(config.test_scenes):
        image, mask = generate_scene(config, novel, allowed_all, scene_rng(2, i))
        test_entries.append(PairEntry(*emit(f"test_{i:04d}", image, mask)))

    classes = [
        {"id": c, "name": class_name(c), "role": ROLE_NOVEL if c in novel else ROLE_BASE}
        for c in range(config.num_foreground + 1)
    ]

    manifest = DatasetManifest(
        classes=classes,
        split_index=split_index,
        seed=config.seed,
        train=train_entries,
        support_pool=support_entries,
        test=test_entries,
        base_dir=out_dir,
    )
    payload = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    atomic_write(os.path.join(out_dir, "manifest.json"), payload.encode())
    return manifest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_manifest(path: str) -> DatasetManifest:
    """Read a split's manifest; a ``ConfigError`` for any class or scene
    entry the program cannot use."""
    doc = read_json(path)

    def entries(items):
        out = [PairEntry(e["image"], e["mask"], e.get("novel_id")) for e in items]
        for e in out:
            if not (isinstance(e.image, str) and isinstance(e.mask, str)
                    and (e.novel_id is None or _is_int(e.novel_id))):
                raise ValueError(f"bad scene entry {e}")
        return out

    try:
        classes = doc["classes"]
        if not isinstance(classes, list) or not all(
            isinstance(c, dict) and _is_int(c.get("id")) and 0 <= c["id"] < IGNORE_LABEL
            and isinstance(c.get("name"), str) and c.get("role") in (ROLE_BASE, ROLE_NOVEL)
            for c in classes
        ) or len({c["id"] for c in classes}) != len(classes):
            raise ValueError(f"classes must be a list of objects with a distinct integer id in "
                             f"[0, {IGNORE_LABEL - 1}], a string name and a base or novel role")
        if not (_is_int(doc["split_index"]) and _is_int(doc["seed"])):
            raise ValueError("split_index and seed must be integers")
        return DatasetManifest(
            classes=classes,
            split_index=doc["split_index"],
            seed=doc["seed"],
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
    if mask.shape != image.shape[:2]:
        raise DataError(f"mask {entry.mask} is {mask.shape} but its image is {image.shape[:2]}")
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
        pool = manifest.support_pool_for(u, k)
        chosen = rng.choice(len(pool), size=k, replace=False)
        for idx in sorted(int(i) for i in chosen):
            image, mask = load_pair(manifest, pool[idx])
            samples.append(SupportSample(image, mask, u))
    return SupportSet(samples)
