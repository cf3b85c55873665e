"""Unit tests for convolution and pooling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import conv as conv_module
from repro.autograd import (
    Tensor,
    avg_pool2d,
    check_gradients,
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Straightforward loop reference used as the gold standard."""
    n, c_in, h, width = x.shape
    c_out, c_in_g, kh, kw = w.shape
    sh = sw = stride
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = conv_output_size(h, kh, sh, padding)
    ow = conv_output_size(width, kw, sw, padding)
    out = np.zeros((n, c_out, oh, ow))
    in_per_group = c_in // groups
    out_per_group = c_out // groups
    for img in range(n):
        for oc in range(c_out):
            g = oc // out_per_group
            for i in range(oh):
                for j in range(ow):
                    patch = x_padded[img, g * in_per_group:(g + 1) * in_per_group,
                                     i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[img, oc, i, j] = (patch * w[oc]).sum()
            if b is not None:
                out[img, oc] += b[oc]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_depthwise_matches_naive_grouped(self, rng):
        x = rng.standard_normal((2, 4, 6, 6))
        w = rng.standard_normal((4, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=4)
        expected = naive_conv2d(x, w, None, stride=1, padding=1, groups=4)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_grouped_conv(self, rng):
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((6, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), padding=1, groups=2)
        expected = naive_conv2d(x, w, None, stride=1, padding=1, groups=2)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_1x1_conv(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        out = conv2d(Tensor(x), Tensor(w))
        assert out.shape == (2, 5, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_groups_must_divide_channels(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 1, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, groups=2)


class TestConvBackward:
    def test_gradients_against_numerical(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.2, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
        check_gradients(lambda x, w, b: conv2d(x, w, b, stride=2, padding=1), [x, w, b])

    def test_depthwise_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 1, 3, 3)) * 0.2, requires_grad=True)
        check_gradients(lambda x, w: conv2d(x, w, padding=1, groups=3), [x, w])

    def test_bias_gradient_is_spatial_sum(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        conv2d(x, w, b, padding=1).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 2 * 4 * 4))


#: bound at import, so the ``paths_taken`` spies never see the reference's own call
im2col_path = conv_module._conv_im2col


def reference_conv2d(x, w, b, stride, padding, groups, g):
    """Forward and all four gradients from the im2col path, called directly."""
    out, grad_x, grad_w = im2col_path(x, w, stride, padding, groups)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out, grad_x(g), grad_w(g), g.sum(axis=(0, 2, 3))


def assert_matches_reference(x, w, b, stride, padding, groups, g_of, compare):
    """``conv2d`` vs the reference for the upstream gradient ``g_of(out.shape)``."""
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    tb = None if b is None else Tensor(b, requires_grad=True)
    out = conv2d(tx, tw, tb, stride=stride, padding=padding, groups=groups)
    g = g_of(out.shape)
    out.backward(g)
    expected = reference_conv2d(x, w, b, stride, padding, groups, g)
    got = (out.data, tx.grad, tw.grad, None if tb is None else tb.grad)
    for actual, desired in zip(got, expected):
        if actual is not None:
            compare(actual, desired)


def close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12)


@pytest.fixture
def paths_taken(monkeypatch):
    """Names of the ``conv2d`` algorithms run, in call order."""
    taken = []
    for name in ("pointwise", "depthwise", "im2col"):
        fn = getattr(conv_module, f"_conv_{name}")
        monkeypatch.setattr(
            conv_module, f"_conv_{name}",
            lambda *args, _fn=fn, _name=name: (taken.append(_name), _fn(*args))[1])
    return taken


#: label -> (groups, C_out) for a 4-channel input
GROUPINGS = {"dense": (1, 6), "depthwise": (4, 4), "multiplier2": (4, 8), "grouped": (2, 6)}


class TestConvPaths:
    """The pointwise and depthwise paths against the im2col reference."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_sweep_matches_reference_and_numerical(self, rng, paths_taken, grouping, kernel,
                                                   stride, padding, bias):
        groups, c_out = GROUPINGS[grouping]
        x = rng.standard_normal((2, 4, 5, 4))
        w = rng.standard_normal((c_out, 4 // groups, kernel, kernel)) * 0.3
        b = rng.standard_normal(c_out) if bias else None
        assert_matches_reference(x, w, b, (stride, stride), (padding, padding), groups,
                                 rng.standard_normal, close)
        if grouping == "dense" and (kernel, stride, padding) == (1, 1, 0):
            assert paths_taken == ["pointwise"]
        else:
            assert paths_taken == ["depthwise" if grouping == "depthwise" else "im2col"]
        np.testing.assert_allclose(
            conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                   stride=stride, padding=padding, groups=groups).data,
            naive_conv2d(x, w, b, stride=stride, padding=padding, groups=groups), atol=1e-10)
        tensors = [Tensor(a, requires_grad=True) for a in (x, w) + ((b,) if bias else ())]
        check_gradients(lambda *t: conv2d(*t, stride=stride, padding=padding, groups=groups),
                        tensors)

    @pytest.mark.parametrize("stride,padding,groups,c_out,expected", [
        (1, 0, 1, 5, "pointwise"),
        (2, 0, 1, 5, "im2col"),      # strided 1x1 subsamples: not a plain GEMM over x
        (1, 1, 1, 5, "im2col"),      # padded 1x1 grows the output
        (1, 0, 3, 3, "depthwise"),   # 1x1 depthwise is a per-channel scale
        (1, 0, 3, 6, "im2col"),      # depth multiplier 2
    ])
    def test_1x1_dispatch_boundaries(self, rng, paths_taken, stride, padding, groups, c_out,
                                     expected):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((c_out, 3 // groups, 1, 1))
        assert_matches_reference(x, w, None, (stride, stride), (padding, padding), groups,
                                 rng.standard_normal, close)
        assert paths_taken == [expected]

    def test_single_channel_3x3_is_depthwise(self, rng, paths_taken):
        conv2d(Tensor(rng.standard_normal((1, 1, 4, 4))),
               Tensor(rng.standard_normal((1, 1, 3, 3))))
        assert paths_taken == ["depthwise"]

    @pytest.mark.parametrize("groups,c_out,kernel,stride,padding", [
        (1, 6, 1, 1, 0),   # pointwise
        (4, 4, 3, 1, 1),   # depthwise
        (4, 4, 3, 2, 1),   # depthwise, strided
        (1, 6, 3, 1, 1),   # the reference against itself: order-independent too
    ])
    def test_power_of_two_grid_is_bit_identical(self, rng, groups, c_out, kernel, stride,
                                                padding):
        """Integers times a power of two (what a quantized graph feeds a
        convolution): every product and partial sum is exact in float64, so
        summation order cannot matter and the paths agree to the bit."""
        def grid(shape, frac_bits):
            return rng.integers(-127, 128, size=shape) * 2.0 ** -frac_bits

        x = grid((2, 4, 6, 5), 5)
        w = grid((c_out, 4 // groups, kernel, kernel), 7)
        b = grid((c_out,), 12)
        assert_matches_reference(x, w, b, (stride, stride), (padding, padding), groups,
                                 lambda shape: grid(shape, 3), np.testing.assert_array_equal)

    def test_backward_does_not_write_into_its_inputs(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((3, 1, 3, 3))
        b = rng.standard_normal(3)
        g = rng.standard_normal((2, 3, 5, 5))
        kept = [a.copy() for a in (x, w, b, g)]
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv2d(tx, tw, tb, padding=1, groups=3)
        out.backward(g)
        out.backward(g)  # closures are pure: a second pass accumulates the same values
        for array, original in zip((x, w, b, g), kept):
            np.testing.assert_array_equal(array, original)
        expected = reference_conv2d(x, w, b, (1, 1), (1, 1), 3, g)
        close(tx.grad, 2 * expected[1])
        close(tw.grad, 2 * expected[2])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 2), groups=st.integers(1, 3),
       in_per_group=st.integers(1, 2), multiplier=st.integers(1, 2),
       kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       extra=st.tuples(st.integers(0, 3), st.integers(0, 3)), bias=st.booleans())
def test_conv2d_matches_im2col_reference_on_random_shapes(data, n, groups, in_per_group,
                                                          multiplier, kernel, stride, padding,
                                                          extra, bias):
    c_in = groups * in_per_group
    c_out = groups * (in_per_group if multiplier == 1 else multiplier)
    h, w = (max(1, k - 2 * p) + e for k, p, e in zip(kernel, padding, extra))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    assert_matches_reference(
        rng.standard_normal((n, c_in, h, w)), rng.standard_normal((c_out, in_per_group, *kernel)),
        rng.standard_normal(c_out) if bias else None, stride, padding, groups,
        rng.standard_normal, close)


class TestIm2Col:
    def test_im2col_shape(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 3, 3, 3, 6, 6)

    def test_col2im_adjointness(self, rng):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.standard_normal((1, 2, 5, 5))
        cols = im2col(x, (3, 3), (2, 2), (1, 1))
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (3, 3), (2, 2), (1, 1))).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_conv_output_size(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 1) == 4
        assert conv_output_size(7, 2, 2, 0) == 3


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), kernel_size=2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradient_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avg_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_avg_pool_numerical_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda t: avg_pool2d(t, 2, stride=2), [x])

    def test_max_pool_stride_padding(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        out = max_pool2d(x, kernel_size=3, stride=2, padding=1)
        assert out.shape == (1, 1, 3, 3)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(x), keepdims=False)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), atol=1e-12)
        out_keep = global_avg_pool2d(Tensor(x), keepdims=True)
        assert out_keep.shape == (2, 3, 1, 1)
