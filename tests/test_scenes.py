"""Scene generator, dataset builder, file formats."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from protoseg.errors import ConfigError, DataError, FormatError, GenerationError
from protoseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from protoseg.scenes import (
    SceneConfig,
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
    image, mask = generate_scene(SMALL, {0}, np.random.default_rng(3))
    assert np.array_equal(np.unique(mask), [0])
    assert image.shape == (32, 32, 3)
    assert (image.data >= 0).all() and (image.data <= 1).all()


def test_generation_is_deterministic_per_stream():
    a = generate_scene(SMALL, {0, 1, 2, 3}, np.random.default_rng(11))
    b = generate_scene(SMALL, {0, 1, 2, 3}, np.random.default_rng(11))
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1], b[1])


def test_masks_use_only_allowed_ids_and_ignore():
    for seed in range(12):
        _, mask = generate_scene(SMALL, {0, 2, 5}, np.random.default_rng(seed))
        present = set(np.unique(mask))
        assert present <= {0, 2, 5, IGNORE_LABEL}


def test_ignore_band_separates_regions():
    found_band = False
    for seed in range(10):
        _, mask = generate_scene(SMALL, {0, 1, 4}, np.random.default_rng(seed))
        if (mask == IGNORE_LABEL).any():
            found_band = True
            break
    assert found_band


def test_required_class_not_allowed_raises():
    with pytest.raises(GenerationError):
        generate_scene(SMALL, {0, 1}, np.random.default_rng(0), require_visible={5})


def test_cooc_prob_one_always_pairs():
    cfg = replace(SMALL, cooc_prob=1.0).resolved_for_split(0)
    allowed = set(range(9))
    containing = 0
    paired = 0
    partner = cfg.cooc[1].partner
    for i in range(300):
        _, mask = generate_scene(cfg, allowed, np.random.default_rng((5, i)))
        present = set(np.unique(mask))
        if 1 in present:
            containing += 1
            if partner in present:
                paired += 1
    assert containing > 30
    assert paired == containing


def test_cooc_frequency_within_five_points():
    cfg = SMALL.resolved_for_split(0)  # novels {1, 2}, prob 0.8
    allowed = set(range(9))
    containing = 0
    paired = 0
    partner = cfg.cooc[1].partner
    for i in range(600):
        _, mask = generate_scene(cfg, allowed, np.random.default_rng((6, i)))
        present = set(np.unique(mask))
        if 1 in present:
            containing += 1
            if partner in present:
                paired += 1
    assert containing >= 100
    rate = paired / containing
    assert abs(rate - cfg.cooc_prob) <= 0.05


def test_partner_assignment_leaves_split():
    cfg = SceneConfig()
    for split in range(4):
        resolved = cfg.resolved_for_split(split)
        novel = set(cfg.novel_ids(split))
        for u, rule in resolved.cooc.items():
            assert u in novel
            assert rule.partner not in novel


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
    legal = set(manifest.class_ids) | {IGNORE_LABEL}
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


def test_manifest_round_trip(built):
    out, manifest = built
    loaded = load_manifest(os.path.join(out, "manifest.json"))
    assert loaded.split_index == 0
    assert loaded.class_ids == manifest.class_ids
    assert len(loaded.support_pool) == len(manifest.support_pool)
    assert loaded.support_pool[0].novel_id is not None


def test_non_utf8_manifest_is_config_error(built, tmp_path):
    out, _ = built
    raw = open(os.path.join(out, "manifest.json"), "rb").read()
    path = tmp_path / "manifest.json"
    path.write_bytes(raw.replace(b"class1", b"class\xff", 1))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_manifest(str(path))


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
    with pytest.raises(ConfigError):
        SceneConfig().novel_ids(4)
