"""Feature extractor: shape preservation, determinism, gradients."""

import numpy as np
import pytest

from protoseg.backbone import BackboneParams, extract_features, init_backbone
from protoseg.errors import ConfigError, ShapeError
from protoseg.gradcheck import _scalarize, gradient_check
from protoseg.tensor import Tensor
from protoseg.training import TrainConfig


def test_zero_weights_zero_image_give_zero_features():
    params = init_backbone(c=4, layers=2, seed=0)
    for kernel, bias in params.layers:
        kernel.data[:] = 0.0
        bias.data[:] = 0.0
    out = extract_features(params, Tensor(np.zeros((8, 8, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((8, 8, 4)))


def test_single_pixel_single_layer_matches_scalar_oracle():
    params = init_backbone(c=2, layers=1, seed=3)
    image = np.array([[[0.2, 0.5, 0.9]]])
    out = extract_features(params, Tensor(image))
    kernel = params.layers[0][0].data
    # only the kernel center touches the single pixel (zero padding elsewhere);
    # the extractor sees the centered image
    centered = image - 0.5
    expected = np.zeros(2)
    for oc in range(2):
        acc = params.layers[0][1].data[oc]
        for ic in range(3):
            acc += centered[0, 0, ic] * kernel[1, 1, ic, oc]
        expected[oc] = acc
    np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("h,w", [(8, 8), (9, 13), (16, 10)])
def test_spatial_shape_preserved(h, w):
    params = init_backbone(c=5, layers=3, seed=1)
    rng = np.random.default_rng(0)
    out = extract_features(params, Tensor(rng.random((h, w, 3))))
    assert out.shape == (h, w, 5)
    assert np.isfinite(out.data).all()


def test_init_is_deterministic_and_seed_sensitive():
    a = init_backbone(c=6, layers=2, seed=42)
    b = init_backbone(c=6, layers=2, seed=42)
    c = init_backbone(c=6, layers=2, seed=43)
    for (ka, _), (kb, _) in zip(a.layers, b.layers):
        assert np.array_equal(ka.data, kb.data)
    assert not np.array_equal(a.layers[0][0].data, c.layers[0][0].data)


def test_init_layer_shapes():
    params = init_backbone(c=32, layers=3, seed=0)
    shapes = [kernel.shape for kernel, _ in params.layers]
    assert shapes == [(3, 3, 3, 32), (3, 3, 32, 32), (3, 3, 32, 32)]


def test_init_rejects_tiny_embed_dim():
    # the sizes init_backbone builds from are bounded where the config is parsed
    with pytest.raises(ConfigError, match="embed_dim must be >= 2"):
        TrainConfig(embed_dim=1)
    with pytest.raises(ConfigError, match="backbone_layers must be >= 1"):
        TrainConfig(backbone_layers=0)


def test_channel_mismatch_raises():
    params = init_backbone(c=4, layers=1, seed=0)
    with pytest.raises(ShapeError):
        extract_features(params, Tensor(np.zeros((8, 8, 4))))


def test_parameter_gradients_pass_finite_difference_check():
    rng = np.random.default_rng(9)
    image = rng.random((8, 8, 3))
    params = init_backbone(c=3, layers=2, seed=7)
    fw = rng.uniform(-1, 1, 8 * 8 * 3)

    for li in range(len(params.layers)):
        for pi in range(2):
            probe_init = params.layers[li][pi]

            def f(t, li=li, pi=pi):
                trial = BackboneParams(
                    layers=[
                        (
                            t if (i == li and pi == 0) else Tensor(k.data),
                            t if (i == li and pi == 1) else Tensor(b.data),
                        )
                        for i, (k, b) in enumerate(params.layers)
                    ],
                )
                out = extract_features(trial, Tensor(image))
                return _scalarize(out, fw)

            report = gradient_check(f, probe_init)
            assert report.passed, f"layer {li} param {pi}: {report}"
