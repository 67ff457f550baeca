"""Property-based tests (hypothesis) for the ``max_pool2d`` kernel.

The kernel folds ``np.maximum`` over one strided view per window offset and
recomputes the gradient routing from the saved input and output.  These
properties pin it bit for bit (``.view(np.uint8)``, never ``allclose``):

* against a brute-force window loop: the output is ``np.maximum`` folded over
  the window in row-major order; the gradient goes to the window's first
  maximal element, or its first NaN; exactly tiling pools assign it (an
  upstream ``-0.0`` survives), other geometries add it per window offset in
  row-major order, starting from +0.0, as ``col2im`` does;
* against the seed kernel (``legacy_kernels``, im2col + argmax +
  ``put_along_axis`` + ``col2im``) on unpadded inputs;
* padded pools pad with -inf, so a border window's maximum is its largest
  real element.

Inputs stress the tie and NaN rules: post-ReLU ties at ±0.0, all-equal
windows, windows with one or two NaNs, and upstream gradients holding -0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

# (kernel, stride, (H, W)): tiling 2x2/s2 and 3x3/s3, overlapping 3x3/s1,
# non-tiling 2x2 on 7x7, overlapping and non-tiling 3x3/s2.
GEOMETRIES = [
    (2, 2, (8, 8)),
    (3, 3, (9, 9)),
    (3, 1, (7, 7)),
    (2, 2, (7, 7)),
    (3, 2, (9, 9)),
]
PATTERNS = ["relu_ties", "all_equal", "nan_windows", "small_pool"]


def _make_input(rng, shape, dtype, pattern, kernel, stride):
    if pattern == "relu_ties":
        x = np.maximum(rng.standard_normal(shape), 0.0)
        x[rng.random(shape) < 0.3] = -0.0
    elif pattern == "all_equal":
        # Every window holds equal values: constant blocks, zeros of either
        # sign counting as equal.
        if rng.random() < 0.5:
            x = rng.choice([0.0, -0.0], size=shape)
        else:
            x = np.full(shape, rng.choice([-1.5, 0.0, 2.0]))
    elif pattern == "nan_windows":
        x = rng.standard_normal(shape)
        n, c, h, w = shape
        out_h, out_w = (h - kernel) // stride + 1, (w - kernel) // stride + 1
        for _ in range(rng.integers(1, 4)):
            # One or two NaNs in a random window.
            a, b = rng.integers(out_h), rng.integers(out_w)
            for _ in range(rng.integers(1, 3)):
                r = a * stride + rng.integers(kernel)
                s = b * stride + rng.integers(kernel)
                x[rng.integers(n), rng.integers(c), r, s] = np.nan
    else:
        x = rng.choice([0.0, -0.0, 1.0, 1.0, 2.0, np.nan], size=shape)
    return x.astype(dtype)


def _make_grad(rng, shape, dtype):
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.3] = -0.0
    g[rng.random(shape) < 0.1] = 0.0
    return g.astype(dtype)


def _reference(x, grad, kernel, stride, padding):
    """Brute-force window loop, vectorised only over (N, C)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    tiling = stride == kernel and padding == 0 and h % kernel == 0 and w % kernel == 0

    def cells(a, b):
        """Real (unpadded) input cells of window (a, b), row-major."""
        for i in range(kernel):
            for j in range(kernel):
                r, s = a * stride + i - padding, b * stride + j - padding
                if 0 <= r < h and 0 <= s < w:
                    yield i, j, r, s

    out = np.empty((n, c, out_h, out_w), x.dtype)
    winner = {}
    for a in range(out_h):
        for b in range(out_w):
            elems = [(i, j, x[:, :, r, s]) for i, j, r, s in cells(a, b)]
            value = elems[0][2]
            for _, _, e in elems[1:]:
                value = np.maximum(value, e)
            out[:, :, a, b] = value
            first = np.full((n, c), -1)
            for k, (_, _, e) in enumerate(elems):
                is_max = np.where(np.isnan(value), np.isnan(e), e == value)
                first[(first < 0) & is_max] = k
            winner[a, b] = [(i, j, first == k) for k, (i, j, _) in enumerate(elems)]

    dx = np.zeros(x.shape, grad.dtype)
    for oi in range(kernel):
        for oj in range(kernel):
            for a in range(out_h):
                for b in range(out_w):
                    for i, j, hit in winner[a, b]:
                        if (i, j) != (oi, oj):
                            continue
                        r, s = a * stride + i - padding, b * stride + j - padding
                        g = np.where(hit, grad[:, :, a, b], 0)
                        if tiling:
                            dx[:, :, r, s] = g
                        else:
                            dx[:, :, r, s] += g
    return out, dx


def _run(x, grad, kernel, stride, padding=0, legacy=False):
    t = Tensor(x.copy(), requires_grad=True, dtype=x.dtype)
    if legacy:
        with F.legacy_kernels():
            out = F.max_pool2d(t, kernel, stride, padding)
    else:
        out = F.max_pool2d(t, kernel, stride, padding)
    assert not np.shares_memory(out.data, t.data)
    out.backward(grad)
    return out.data, np.ascontiguousarray(t.grad)


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint8), np.ascontiguousarray(expected).view(np.uint8)
    )


pool_cases = st.tuples(
    st.sampled_from(GEOMETRIES),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(PATTERNS),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)


@given(pool_cases)
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_and_seed_kernel_bitwise(case):
    (kernel, stride, hw), dtype, pattern, n, c, seed = case
    rng = np.random.default_rng(seed)
    x = _make_input(rng, (n, c) + hw, dtype, pattern, kernel, stride)
    out_shape = (n, c, (hw[0] - kernel) // stride + 1, (hw[1] - kernel) // stride + 1)
    grad = _make_grad(rng, out_shape, dtype)

    out, dx = _run(x, grad, kernel, stride)
    ref_out, ref_dx = _reference(x, grad, kernel, stride, 0)
    _assert_bitwise(out, ref_out)
    _assert_bitwise(dx, ref_dx)

    seed_out, seed_dx = _run(x, grad, kernel, stride, legacy=True)
    _assert_bitwise(out, seed_out)
    if kernel == stride and hw[0] % kernel == 0:
        # The seed kernel's col2im adds into +0.0, turning an upstream -0.0
        # into +0.0; the tiling pool assigns, keeping it.  Adding +0.0 maps
        # -0.0 to +0.0 and leaves every other value as is.
        dx = dx + dtype(0.0)
    _assert_bitwise(dx, seed_dx)


@given(
    st.sampled_from([(2, 2), (3, 1), (3, 2)]),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_padded_pool_matches_brute_force(geometry, dtype, seed):
    kernel, stride = geometry
    rng = np.random.default_rng(seed)
    x = _make_input(rng, (2, 2, 7, 6), dtype, "relu_ties", kernel, stride) - dtype(0.5)
    out_shape = (2, 2, (7 + 2 - kernel) // stride + 1, (6 + 2 - kernel) // stride + 1)
    grad = _make_grad(rng, out_shape, dtype)
    out, dx = _run(x, grad, kernel, stride, padding=1)
    ref_out, ref_dx = _reference(x, grad, kernel, stride, 1)
    _assert_bitwise(out, ref_out)
    _assert_bitwise(dx, ref_dx)


def test_padding_is_negative_infinity():
    x = -np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
    out = F.max_pool2d(Tensor(x), 2, 2, padding=1)
    expected = [[-1, -2, -4], [-5, -6, -8], [-13, -14, -16]]
    np.testing.assert_array_equal(out.data[0, 0], expected)
    _assert_bitwise(out.data, _reference(x, np.zeros(out.shape), 2, 2, 1)[0])


@pytest.mark.parametrize("kernel", [1, 2])
def test_output_never_aliases_input(kernel):
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    out = F.max_pool2d(x, kernel)
    assert not np.shares_memory(out.data, x.data)


def test_no_grad_forward_records_nothing():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
    with nn.no_grad():
        out = F.max_pool2d(x, 2)
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()
    np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])


def test_maxpool_repr_shows_stride_and_padding():
    assert repr(nn.MaxPool2d(2)) == "MaxPool2d(kernel_size=2, stride=2, padding=0)"
    assert repr(nn.MaxPool2d(3, stride=1, padding=1)) == "MaxPool2d(kernel_size=3, stride=1, padding=1)"
