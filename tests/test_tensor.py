"""Tensor core: forward examples, pullbacks vs finite differences, tape behavior."""

import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import protoseg.tensor as T
from protoseg import gradcheck
from protoseg.errors import ConfigError, DegenerateBatchError, NumericalError, ShapeError
from protoseg.gradcheck import _op_probes, gradient_check
from protoseg.gradcheck import _scalarize as scalarize
from protoseg.tensor import Tape, Tensor, backward


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------


def test_relu_example():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_l2_normalize_345_triangle():
    out, _ = T.unit(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)


def test_conv2d_1x1_hand_case():
    # hand multiply-accumulate: 2 * 3 + bias 1 = 7
    x = Tensor(np.array([[[2.0]]]))
    k = Tensor(np.array([3.0]).reshape(1, 1, 1, 1))
    b = Tensor(np.array([1.0]))
    out = T.conv2d(x, k, b)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 7.0


def conv2d_loop_oracle(x, k, b):
    """Direct multiply-accumulate convolution, zero padding, stride 1."""
    h, w, cin = x.shape
    kk, _, _, cout = k.shape
    pad = kk // 2
    out = np.zeros((h, w, cout))
    for oy in range(h):
        for ox in range(w):
            for oc in range(cout):
                acc = b[oc]
                for dy in range(kk):
                    for dx in range(kk):
                        iy, ix = oy + dy - pad, ox + dx - pad
                        if 0 <= iy < h and 0 <= ix < w:
                            for ic in range(cin):
                                acc += x[iy, ix, ic] * k[dy, dx, ic, oc]
                out[oy, ox, oc] = acc
    return out


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (5, 6, 3))
    k = rng.uniform(-2, 2, (3, 3, 3, 4))
    b = rng.uniform(-2, 2, 4)
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b))
    np.testing.assert_allclose(out.data, conv2d_loop_oracle(x, k, b), rtol=1e-12, atol=1e-12)


def conv2d_backward_loop_oracle(x, k, g):
    """Direct-loop pullback of conv2d_loop_oracle: (dx, dk, db)."""
    h, w, cin = x.shape
    kk, _, _, cout = k.shape
    pad = kk // 2
    dx, dk, db = np.zeros_like(x), np.zeros_like(k), np.zeros(cout)
    for oy in range(h):
        for ox in range(w):
            for oc in range(cout):
                go = g[oy, ox, oc]
                db[oc] += go
                for dy in range(kk):
                    for dxx in range(kk):
                        iy, ix = oy + dy - pad, ox + dxx - pad
                        if 0 <= iy < h and 0 <= ix < w:
                            dx[iy, ix, :] += go * k[dy, dxx, :, oc]
                            dk[dy, dxx, :, oc] += go * x[iy, ix, :]
    return dx, dk, db


def _conv2d_pullback(x, k, b, g, x_requires_grad=True):
    xt = Tensor(x, requires_grad=x_requires_grad)
    kt, bt = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        T.conv2d(xt, kt, bt)
    (record,) = tape.records
    return {id(t): grad for t, grad in record.backward(g)}, xt, kt, bt


@pytest.mark.parametrize("cin", [3, 16])
@pytest.mark.parametrize("ksize", [3, 5])
def test_conv2d_backward_matches_loop_oracle(cin, ksize):
    rng = np.random.default_rng(100 * cin + ksize)
    x = rng.uniform(-2, 2, (5, 6, cin))
    k = rng.uniform(-2, 2, (ksize, ksize, cin, 4))
    b = rng.uniform(-2, 2, 4)
    g = rng.uniform(-1, 1, (5, 6, 4))
    grads, xt, kt, bt = _conv2d_pullback(x, k, b, g)
    dx, dk, db = conv2d_backward_loop_oracle(x, k, g)
    np.testing.assert_allclose(grads[id(xt)], dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[id(kt)], dk, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[id(bt)], db, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c", [1, 3, 16])
def test_im2col_equals_windows_of_the_padded_array(k, c, dtype):
    a = np.random.default_rng(10 * k + c).uniform(-2, 2, (5, 7, c)).astype(dtype)
    p = k // 2
    padded = np.pad(a, ((p, p), (p, p), (0, 0)))
    want = sliding_window_view(padded, (k, k, c)).reshape(5 * 7, k * k * c)
    got = T._im2col(a, k)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_conv2d_skips_dx_for_input_without_grad():
    rng = np.random.default_rng(21)
    x = rng.uniform(-2, 2, (6, 5, 3))
    k = rng.uniform(-2, 2, (3, 3, 3, 4))
    b = rng.uniform(-2, 2, 4)
    g = rng.uniform(-1, 1, (6, 5, 4))
    with_dx, xt, kt, bt = _conv2d_pullback(x, k, b, g)
    without_dx, xc, kc, bc = _conv2d_pullback(x, k, b, g, x_requires_grad=False)
    assert id(xc) not in without_dx and len(without_dx) == 2
    assert np.array_equal(without_dx[id(kc)], with_dx[id(kt)])
    assert np.array_equal(without_dx[id(bc)], with_dx[id(bt)])


# ---------------------------------------------------------------------------
# precision: a float32 input runs the op in float32, parameters stay float64
# ---------------------------------------------------------------------------


def test_tensor_keeps_float32_and_converts_everything_else_to_float64():
    assert Tensor(np.zeros(3, np.float32)).data.dtype == np.float32
    for data in (np.arange(3), np.array([True, False]), [1, 2], 3, np.zeros(2, np.float16)):
        assert Tensor(data).data.dtype == np.float64


def test_backward_casts_each_gradient_to_its_tensor_dtype():
    # float32 activations times float64 weights give float64 products; the
    # activations' gradient is cast back to float32, the weights' stays float64
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, w)
        loss = scalarize(y, np.ones(6))
    dx, dw = backward(tape, loss, [x, w])
    assert y.data.dtype == np.float64
    assert dx.dtype == np.float32 and dw.dtype == np.float64


@pytest.mark.parametrize("cin", [3, 16])
def test_float32_conv2d_matches_loop_oracle_at_float32_tolerance(cin):
    rng = np.random.default_rng(300 + cin)
    x = rng.uniform(-2, 2, (5, 6, cin)).astype(np.float32)
    k = rng.uniform(-2, 2, (3, 3, cin, 4))
    b = rng.uniform(-2, 2, 4)
    g = rng.uniform(-1, 1, (5, 6, 4)).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    kt, bt = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = T.conv2d(xt, kt, bt)
        loss = scalarize(out, g.reshape(-1))
    gx, gk, gb = backward(tape, loss, [xt, kt, bt])
    assert out.data.dtype == np.float32 and gx.dtype == np.float32
    assert gk.dtype == np.float64 and gb.dtype == np.float64
    # the float64 oracles run on the same float32 values
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    dx, dk, db = conv2d_backward_loop_oracle(x64, k, g64)
    tol = dict(rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(out.data, conv2d_loop_oracle(x64, k, b), **tol)
    np.testing.assert_allclose(gx, dx, **tol)
    np.testing.assert_allclose(gk, dk, **tol)
    np.testing.assert_allclose(gb, db, **tol)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((4, 4, 2)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((2, 2, 2, 3))), Tensor(np.zeros(3)))  # even kernel
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((3, 3, 5, 3))), Tensor(np.zeros(3)))  # channel mismatch


def test_masked_sum_matches_pixel_loop_bitwise():
    rng = np.random.default_rng(11)
    feats = rng.uniform(-2, 2, (9, 7, 5))
    mask = (rng.random((9, 7)) < 0.4).astype(np.int64)
    out = T.masked_sum(Tensor(feats), mask)
    acc = np.zeros(5)
    for y in range(9):
        for x in range(7):
            if mask[y, x]:
                acc = acc + feats[y, x]
    assert np.array_equal(out.data, acc)


def test_masked_sum_empty_mask_is_zero_vector():
    out = T.masked_sum(Tensor(np.ones((3, 3, 4))), np.zeros((3, 3)))
    np.testing.assert_array_equal(out.data, np.zeros(4))


@pytest.mark.parametrize("pattern", ["empty", "single", "all"])
@pytest.mark.parametrize("c", [1, 5])
def test_masked_sum_edge_masks_match_pixel_loop_bitwise(pattern, c):
    # c == 1 pins the row-order reduction: a plain sum(axis=0) over one
    # channel is pairwise and fails the all-set case
    feats = np.random.default_rng(13).uniform(-2, 2, (8, 6, c))
    mask = {
        "empty": np.zeros((8, 6), dtype=bool),
        "single": np.arange(48).reshape(8, 6) == 29,
        "all": np.ones((8, 6), dtype=bool),
    }[pattern]
    out = T.masked_sum(Tensor(feats), mask)
    acc = np.zeros(c)
    for y in range(8):
        for x in range(6):
            if mask[y, x]:
                acc = acc + feats[y, x]
    assert np.array_equal(out.data, acc)


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(3)
    v = rng.uniform(-2, 2, (50, 8))
    out, _ = T.unit(v)
    norms = np.linalg.norm(out, axis=-1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_l2_normalize_subepsilon_maps_to_zero():
    v = np.array([1e-9, -1e-9, 0.0])
    out, _ = T.unit(v)
    np.testing.assert_array_equal(out, np.zeros(3))


ALPHA = 10.0
AXES = Tensor(np.eye(2))  # two unit prototype rows along the axes


def test_softmax_cross_entropy_known_value():
    # single pixel on the first axis, true class 0, logits (10, 0): CE = ln(1 + e^-10)
    loss = T.softmax_cross_entropy([Tensor([[2.0, 0.0]])], AXES, np.array([0]), ALPHA)
    np.testing.assert_allclose(loss.item(), np.log1p(np.exp(-10.0)), rtol=1e-9)


def test_softmax_cross_entropy_ignores_labelled_pixels():
    rows = Tensor(np.array([[3.0, 1.0], [0.0, 9.0]]))
    only_first = T.softmax_cross_entropy([rows], AXES, np.array([0, 255]), ALPHA)
    both = T.softmax_cross_entropy([Tensor(np.array([[3.0, 1.0]]))], AXES, np.array([0]), ALPHA)
    assert only_first.item() == both.item()
    with pytest.raises(DegenerateBatchError):
        T.softmax_cross_entropy([rows], AXES, np.array([255, 255]), ALPHA)


@pytest.mark.parametrize("ignored", [False, True])
def test_softmax_cross_entropy_backward_matches_fresh_softmax_bitwise(ignored):
    # the cross entropy half of the fused op, on class-major (k, n) logits
    rng = np.random.default_rng(17)
    z = rng.uniform(-4, 4, (20, 3))
    labels = rng.integers(0, 3, 20)
    if ignored:
        labels[5:8] = T.IGNORE_LABEL
    _, pullback = T._cross_entropy(np.ascontiguousarray(z.T), labels)
    dz = pullback(np.array(0.7))

    valid = labels != T.IGNORE_LABEL
    zv = z[valid]
    ez = np.exp(zv - zv.max(axis=1, keepdims=True))
    probs = ez / ez.sum(axis=1, keepdims=True)
    probs[np.arange(len(zv)), labels[valid]] -= 1.0
    expected = np.zeros_like(z)
    expected[valid] = probs * (0.7 / int(valid.sum()))
    assert np.array_equal(dz, expected.T)


# ---------------------------------------------------------------------------
# backward examples
# ---------------------------------------------------------------------------


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        xx = T.mul(x, x)
        loss = scalarize(xx, np.ones(2))
    (dx,) = backward(tape, loss, [x])
    np.testing.assert_array_equal(dx, [2.0, 4.0])
    assert tape.records == []


def test_backward_sigmoid_at_zero():
    x = Tensor(np.array(0.0), requires_grad=True)
    with Tape() as tape:
        y = T.sigmoid(x)
    (dx,) = backward(tape, y, [x])
    np.testing.assert_allclose(dx, 0.25, rtol=0, atol=1e-15)


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.relu(x)
    with pytest.raises(ShapeError):
        backward(tape, y, [x])


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2, 2, (4, 4, 2))
    k0 = rng.uniform(-1, 1, (3, 3, 2, 3))
    grads = []
    for _ in range(2):
        x = Tensor(x0, requires_grad=True)
        k = Tensor(k0, requires_grad=True)
        with Tape() as tape:
            y = T.relu(T.conv2d(x, k, Tensor(np.zeros(3))))
            loss = scalarize(y, np.linspace(-1, 1, y.size))
        grads.append(backward(tape, loss, [x, k]))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_unused_leaf_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        a = scalarize(T.mul(x, x), np.ones(2))
        _dead = T.relu(y)  # on the tape but not part of the loss
        loss = a
    dx, dy = backward(tape, loss, [x, y])
    np.testing.assert_array_equal(dx, [2.0, 4.0])
    np.testing.assert_array_equal(dy, [0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_gives_zeros_of_its_own_dtype_to_a_tensor_off_the_tape(dtype):
    x = Tensor([1.0, 2.0], requires_grad=True)
    stranger = Tensor(np.ones((2, 3), dtype), requires_grad=True)
    with Tape() as tape:
        loss = scalarize(T.relu(x), np.ones(2))
    (d,) = backward(tape, loss, [stranger])
    assert d.dtype == dtype and d.shape == (2, 3) and not d.any()


def test_tape_records_are_topologically_ordered():
    # each record pulls back only to the leaf or to an earlier record's
    # output, so a reverse replay meets every consumer before its producer
    x = Tensor([1.0, -1.0], requires_grad=True)
    with Tape() as tape:
        a = T.relu(x)
        b = T.add(a, x)
        c = T.mul(b, b)
    assert [rec.output for rec in tape.records] == [a, b, c]
    seen = {id(x)}
    for rec in tape.records:
        assert {id(t) for t, _ in rec.backward(np.ones(2))} <= seen
        seen.add(id(rec.output))


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(ConfigError):
            with Tape():
                pass


# ---------------------------------------------------------------------------
# gradient_check and the finite-difference property over every op kind
# ---------------------------------------------------------------------------


def test_gradient_check_polynomial():
    report = gradient_check(lambda t: scalarize(T.mul(t, t), np.ones(3)), Tensor([1.0, 2.0, 3.0]))
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_gradient_check_softmax_ce():
    rng = np.random.default_rng(0)
    rows = Tensor(rng.uniform(-2, 2, (6, 3)))
    weights = Tensor(rng.uniform(-2, 2, (4, 3)))
    labels = rng.integers(0, 4, 6)
    report = gradient_check(lambda t: T.softmax_cross_entropy([t], weights, labels, ALPHA), rows)
    assert report.passed
    report = gradient_check(lambda t: T.softmax_cross_entropy([rows], t, labels, ALPHA), weights)
    assert report.passed


def test_gradient_check_nonfinite_function():
    def bad(t):
        return T.scale(scalarize(T.mul(t, t), np.ones(2)), np.inf)

    with pytest.raises(NumericalError):
        gradient_check(bad, Tensor([1.0, 1.0]))


def test_gradient_check_detects_wrong_gradient():
    # relu composed so a corrupted pullback would be caught; emulate by
    # comparing against a deliberately shifted function.
    def shifted(t):
        return T.add(scalarize(T.mul(t, t), np.ones(2)), scalarize(T.relu(t), np.full(2, 0.001)))

    report = gradient_check(shifted, Tensor([1.0, 2.0]))
    assert report.passed  # shifted is still consistent with itself

    class Lying:
        """f evaluates one function but the recorded pullback is for another."""

        def __call__(self, t):
            square = scalarize(T.mul(t, t), np.ones(2))
            return square if t.requires_grad else T.scale(square, 1.5)

    report = gradient_check(Lying(), Tensor([1.0, 2.0]))
    assert not report.passed


@pytest.mark.parametrize("kind", sorted(T.op_kinds()))
def test_every_op_kind_passes_finite_difference_check(kind):
    # the audit's own probe table, drawn from the audit's per-kind seed
    probes = _op_probes(np.random.default_rng(zlib.crc32(kind.encode())))
    assert kind in probes, f"no finite-difference probe for op kind {kind}"
    trials = 100
    for _ in range(trials):
        f, x0 = probes[kind]()
        report = gradient_check(f, x0)
        assert report.tol == 1e-4
        assert report.passed, f"{kind}: {report}"


def test_the_op_kinds_are_what_one_rehearsal_tape_records(monkeypatch):
    # the audit's end-to-end batch rehearses a fake-novel and a fake-context
    # class; probing the classifier weights tapes every parameter, and that
    # tape holds every op kind and no other
    def record(f, x):
        with Tape() as tape:
            f(Tensor(x.data, requires_grad=True))
        return tuple(sorted({rec.kind for rec in tape.records}))

    monkeypatch.setattr(gradcheck, "gradient_check", record)
    kinds = dict(gradcheck.run_end_to_end_check())["classifier.weights"]
    assert kinds == T.op_kinds()
    assert len(T.op_kinds()) == 13
