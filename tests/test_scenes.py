"""Scene generator, dataset builder, file formats."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from protoseg.errors import ConfigError, DataError, FormatError, GenerationError
from protoseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from protoseg.scenes import (
    MIN_SHAPE_PIXELS,
    DatasetManifest,
    PairEntry,
    SceneConfig,
    _raster_shape,
    build_dataset,
    generate_scene,
    load_manifest,
    load_pair,
    palette,
    sample_support_set,
)
from protoseg.tensor import IGNORE_LABEL


SMALL = SceneConfig(
    height=32,
    width=32,
    train_scenes=6,
    support_per_class=3,
    test_scenes=4,
    seed=7,
)


# ---------------------------------------------------------------------------
# netpbm
# ---------------------------------------------------------------------------


def test_mask_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    mask = rng.integers(0, 9, (17, 13))
    mask[0, :] = 255
    path = str(tmp_path / "m.pgm")
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path), mask)


def test_image_round_trip_at_8bit_quantization(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((9, 11, 3))
    path = str(tmp_path / "i.ppm")
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12
    write_ppm(str(tmp_path / "i2.ppm"), back)
    assert open(path, "rb").read() == open(str(tmp_path / "i2.ppm"), "rb").read()


def test_wrong_magic_raises(tmp_path):
    path = str(tmp_path / "bad.ppm")
    open(path, "wb").write(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(FormatError):
        read_ppm(path)


def test_sixteen_bit_pgm_rejected(tmp_path):
    path = str(tmp_path / "deep.pgm")
    open(path, "wb").write(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        read_pgm(path)


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "short.pgm")
    open(path, "wb").write(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(FormatError):
        read_pgm(path)


def test_header_comments_accepted(tmp_path):
    path = str(tmp_path / "c.pgm")
    open(path, "wb").write(b"P5\n# a comment\n2 1\n255\n\x03\x04")
    assert np.array_equal(read_pgm(path), [[3, 4]])


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------


def test_background_only_scene():
    image, mask = generate_scene(SMALL, (), {0}, np.random.default_rng(3))
    assert np.array_equal(np.unique(mask), [0])
    assert image.shape == (32, 32, 3)
    assert (image.data >= 0).all() and (image.data <= 1).all()


def test_generation_is_deterministic_per_stream():
    a = generate_scene(SMALL, (), {0, 1, 2, 3}, np.random.default_rng(11))
    b = generate_scene(SMALL, (), {0, 1, 2, 3}, np.random.default_rng(11))
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1], b[1])


def test_masks_use_only_allowed_ids_and_ignore():
    for seed in range(12):
        _, mask = generate_scene(SMALL, (), {0, 2, 5}, np.random.default_rng(seed))
        present = set(np.unique(mask))
        assert present <= {0, 2, 5, IGNORE_LABEL}


def test_ignore_band_separates_regions():
    found_band = False
    for seed in range(10):
        _, mask = generate_scene(SMALL, (), {0, 1, 4}, np.random.default_rng(seed))
        if (mask == IGNORE_LABEL).any():
            found_band = True
            break
    assert found_band


def test_required_class_not_allowed_raises():
    with pytest.raises(GenerationError):
        generate_scene(SMALL, (), {0, 1}, np.random.default_rng(0), require_visible={5})


def test_cooc_prob_one_always_pairs():
    cfg = replace(SMALL, cooc_prob=1.0)
    allowed = set(range(9))
    containing = 0
    paired = 0
    partner = cfg.partner_of(1)
    for i in range(300):
        _, mask = generate_scene(cfg, cfg.novel_ids(0), allowed, np.random.default_rng((5, i)))
        present = set(np.unique(mask))
        if 1 in present:
            containing += 1
            if partner in present:
                paired += 1
    assert containing > 30
    assert paired == containing


def test_cooc_frequency_within_five_points():
    cfg = SMALL  # novels {1, 2} in split 0, prob 0.8
    allowed = set(range(9))
    containing = 0
    paired = 0
    partner = cfg.partner_of(1)
    for i in range(600):
        _, mask = generate_scene(cfg, cfg.novel_ids(0), allowed, np.random.default_rng((6, i)))
        present = set(np.unique(mask))
        if 1 in present:
            containing += 1
            if partner in present:
                paired += 1
    assert containing >= 100
    rate = paired / containing
    assert abs(rate - cfg.cooc_prob) <= 0.05


def _full_grid_raster_shape(kind: int, rng, h: int, w: int) -> np.ndarray | None:
    """The footprint oracle: each shape rastered over the whole image."""
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


def _painted(shape, h: int, w: int) -> np.ndarray | None:
    """A boxed shape painted onto an empty image, as generate_scene paints it."""
    if shape is None:
        return None
    box, hit = shape
    out = np.zeros((h, w), dtype=bool)
    assert out[box].shape == hit.shape
    out[box][hit] = True
    return out


def _same(a, b) -> bool:
    return a is None and b is None or a is not None and b is not None and np.array_equal(a, b)


@pytest.mark.parametrize("h, w", [(10, 10), (24, 24), (64, 64), (80, 48)])
@pytest.mark.parametrize("kind", [0, 1, 2])
def test_boxed_shapes_equal_the_full_grid_oracle_and_draw_alike(kind, h, w):
    ours, oracle = np.random.default_rng((kind, h, w)), np.random.default_rng((kind, h, w))
    whole_image_boxes = 0
    for _ in range(2000):
        shape = _raster_shape(kind, ours, h, w)
        assert _same(_painted(shape, h, w), _full_grid_raster_shape(kind, oracle, h, w))
        assert ours.bit_generator.state == oracle.bit_generator.state
        whole_image_boxes += shape is not None and shape[1].shape == (h, w)
    # only a zero-area triangle is rastered over the whole image; the draws
    # keep some wherever a line across the image reaches MIN_SHAPE_PIXELS
    assert bool(whole_image_boxes) == (kind == 2 and min(h, w) >= MIN_SHAPE_PIXELS)


class _Scripted:
    """A generator stand-in that hands out the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size=None):
        value = np.asarray(self.draws.pop(0))
        assert value.shape == (size or ()) and (low <= value).all() and (value < high).all()
        return value if size else int(value)


@pytest.mark.parametrize(
    "pts",
    [
        [[3, 3], [3, 3], [3, 3]],  # coincident: every pixel
        [[1, 2], [1, 2], [6, 5]],  # two coincide: the line through both points
        [[4, 0], [4, 7], [4, 3]],  # a whole row
        [[0, 2], [7, 2], [3, 2]],  # a whole column
        [[0, 0], [7, 7], [2, 2]],  # a diagonal that leaves its window
        [[0, 0], [1, 3], [2, 6]],  # a line with too few pixels: None
        [[0, 0], [0, 1], [1, 0]],  # a non-degenerate triangle too small: None
        [[0, 0], [7, 1], [2, 7]],
    ],
)
@pytest.mark.parametrize("h, w", [(10, 10), (24, 24), (80, 48)])
def test_forced_triangles_paint_the_oracle_footprint(pts, h, w):
    draws = (8, 1, 1, pts)
    got = _painted(_raster_shape(2, _Scripted(*draws), h, w), h, w)
    assert _same(got, _full_grid_raster_shape(2, _Scripted(*draws), h, w))


def test_partner_assignment_leaves_split():
    cfg = SceneConfig()
    for split in range(4):
        novel = set(cfg.novel_ids(split))
        for u in novel:
            assert cfg.partner_of(u) not in novel


# ---------------------------------------------------------------------------
# dataset build
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ds") / "split0")
    manifest = build_dataset(SMALL, 0, out)
    return out, manifest


def test_split_zero_roles(built):
    _, manifest = built
    assert manifest.ids_with_role("novel") == (1, 2)
    assert manifest.ids_with_role("base") == (0, 3, 4, 5, 6, 7, 8)


def test_train_masks_contain_no_novel_pixels(built):
    _, manifest = built
    for entry in manifest.train:
        _, mask = load_pair(manifest, entry)
        assert not np.isin(mask, manifest.ids_with_role("novel")).any()


def test_all_split_masks_use_registered_ids(built):
    _, manifest = built
    legal = {c["id"] for c in manifest.classes} | {IGNORE_LABEL}
    for entry in manifest.train + manifest.support_pool + manifest.test:
        _, mask = load_pair(manifest, entry)
        assert set(np.unique(mask)) <= legal


def test_support_entries_contain_their_novel_class(built):
    _, manifest = built
    for entry in manifest.support_pool:
        _, mask = load_pair(manifest, entry)
        assert (mask == entry.novel_id).any()


def test_rebuild_is_byte_identical(tmp_path, built):
    out, manifest = built
    out2 = str(tmp_path / "again")
    build_dataset(SMALL, 0, out2)
    for name in sorted(os.listdir(out)):
        a = open(os.path.join(out, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest(), name


@pytest.mark.parametrize(
    "config, split, digest",
    [
        pytest.param(  # 15 of its 1,222 triangles have zero area and are painted
            SceneConfig(), 0, "adb0f05a56764ea851ac17490f839ab2fccaf44af27cd795d95a02ecc2084086",
            id="default-split0",
        ),
        pytest.param(
            SceneConfig(height=32, width=32, train_scenes=40, support_per_class=10, test_scenes=30, seed=5),
            1, "b6ff47c2165f0ed67a26738d88b0eb66a8380fba444bf7955d69d75cd30007ea", id="32x32-split1",
        ),
        pytest.param(
            SceneConfig(height=80, width=48, cooc_prob=0.3, train_scenes=40, support_per_class=10,
                        test_scenes=30, seed=9),
            2, "90f5ee43a042a19473f7851b30b89c0af5b46e6d6c95465f146dd2000a8a9eef", id="80x48-split2",
        ),
    ],
)
def test_split_bytes_are_pinned(tmp_path, config, split, digest):
    # every file of the split, names included, as the full-grid generator wrote it
    build_dataset(config, split, str(tmp_path))
    sha = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        sha.update(name.encode())
        sha.update((tmp_path / name).read_bytes())
    assert sha.hexdigest() == digest


def test_manifest_round_trip(built):
    out, manifest = built
    loaded = load_manifest(os.path.join(out, "manifest.json"))
    assert loaded.split_index == 0
    assert loaded.classes == manifest.classes
    assert len(loaded.support_pool) == len(manifest.support_pool)
    assert loaded.support_pool[0].novel_id is not None


def test_non_utf8_manifest_is_config_error(built, tmp_path):
    out, _ = built
    raw = open(os.path.join(out, "manifest.json"), "rb").read()
    path = tmp_path / "manifest.json"
    path.write_bytes(raw.replace(b"class1", b"class\xff", 1))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_manifest(str(path))


@pytest.mark.parametrize("mask_shape", [(20, 24), (24, 20), (28, 28)])
def test_load_pair_rejects_a_mask_shaped_unlike_its_image(tmp_path, mask_shape):
    write_ppm(str(tmp_path / "i.ppm"), np.zeros((24, 24, 3)))
    write_pgm(str(tmp_path / "m.pgm"), np.zeros(mask_shape, dtype=np.int64))
    manifest = DatasetManifest([], 0, 0, [], [], [], base_dir=str(tmp_path))
    with pytest.raises(DataError, match="m.pgm"):
        load_pair(manifest, PairEntry("i.ppm", "m.pgm"))


def test_sample_support_set(built):
    out, _ = built
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    s1 = sample_support_set(manifest, 1, seed=123)
    assert len(s1.samples) == 2  # one per novel class
    assert s1.novel_ids() == (1, 2)
    again = sample_support_set(manifest, 1, seed=123)
    assert [s.image.data.tobytes() for s in s1.samples] == [
        s.image.data.tobytes() for s in again.samples
    ]
    other = sample_support_set(manifest, 2, seed=321)
    assert len(other.samples) == 4
    with pytest.raises(DataError):
        sample_support_set(manifest, 99, seed=0)


def test_palette_rows():
    cfg = SceneConfig()
    colors = palette(cfg)
    assert colors.shape == (9, 3)
    assert (colors >= 0).all() and (colors <= 1).all()
    # distinct foreground colors
    for i in range(1, 9):
        for j in range(i + 1, 9):
            assert np.abs(colors[i] - colors[j]).max() > 0.05


def test_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(num_foreground=6)  # not divisible by 4
    with pytest.raises(ConfigError):
        SceneConfig(cooc_prob=1.5)
    with pytest.raises(ConfigError, match="novel too"):
        SceneConfig(cooc_partner_offset=1)  # pairs novel classes 1 and 2 of split 0
    with pytest.raises(ConfigError):
        SceneConfig().novel_ids(4)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("test_scenes", -1),
        ("support_per_class", -2),
        ("context_tint", 1.5),
        ("color_jitter", float("inf")),
        pytest.param("noise", 10**400, id="noise-huge_int"),
        pytest.param("num_foreground", 256, id="num_foreground-beyond-an-8-bit-mask"),
        ("height", 9),
        ("width", 8),
    ],
)
def test_scene_config_rejects_bad_values_at_construction(field, value):
    with pytest.raises(ConfigError, match=field):
        SceneConfig(**{field: value})
