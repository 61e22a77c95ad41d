import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csnewton.problems import (
    _ELLIPSES,
    add_noise_to_psnr,
    make_itv_instance,
    make_l1_dense_instance,
    psnr,
    relative_error,
    shepp_logan,
)


def test_phantom_range_and_background():
    img = shepp_logan(64, 64)
    assert img.shape == (64, 64)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img[0, 0] == 0.0  # corner lies outside the head ellipse


def test_phantom_center_value():
    # hand-derived from the ellipse table: only the two head ellipses cover
    # the origin, 1.0 - 0.8 = 0.2
    for n in (64, 256):
        img = shepp_logan(n, n)
        assert abs(img[n // 2, n // 2] - 0.2) <= 1e-12


def _parent_shepp_logan(n1, n2):
    """The full-grid rasterizer the bounding-box one replaced, kept verbatim
    as the bit-for-bit reference: every ellipse tested on every pixel."""
    xs = 2.0 * (np.arange(n2) + 0.5) / n2 - 1.0
    ys = 1.0 - 2.0 * (np.arange(n1) + 0.5) / n1
    X, Y = np.meshgrid(xs, ys)
    img = np.zeros((n1, n2))
    for amp, a, b, x0, y0, phi_deg in _ELLIPSES:
        phi = math.radians(phi_deg)
        xr = (X - x0) * math.cos(phi) + (Y - y0) * math.sin(phi)
        yr = -(X - x0) * math.sin(phi) + (Y - y0) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += amp
    return np.clip(img, 0.0, 1.0)


@pytest.mark.parametrize(
    "n1,n2", [(16, 16), (16, 17), (17, 300), (100, 37), (128, 128), (255, 256), (1024, 1024)]
)
def test_phantom_is_the_full_grid_phantom_bit_for_bit(n1, n2):
    assert np.array_equal(shepp_logan(n1, n2), _parent_shepp_logan(n1, n2))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(16, 200), st.integers(16, 200))
def test_phantom_matches_the_full_grid_phantom_at_any_shape(n1, n2):
    assert np.array_equal(shepp_logan(n1, n2), _parent_shepp_logan(n1, n2))


def test_phantom_rejects_tiny():
    with pytest.raises(ValueError):
        shepp_logan(8, 8)


def test_psnr_hand_cases():
    base = np.zeros((10, 10))
    assert abs(psnr(base + 0.1, base) - 20.0) <= 1e-12
    assert abs(psnr(base + 0.01, base) - 40.0) <= 1e-12
    assert psnr(base, base) == math.inf
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))


def test_relative_error_cases():
    x = np.array([1.0, 2.0, -1.0])
    assert relative_error(x, x) == 0.0
    assert abs(relative_error(2 * x, x) - 1.0) <= 1e-15
    assert abs(relative_error(np.zeros(3), x) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        relative_error(x, np.zeros(3))


def test_noise_hits_target_psnr_exactly():
    img = shepp_logan(32, 32)
    noisy = add_noise_to_psnr(img, 22.2, seed=1)
    assert abs(psnr(noisy, img) - 22.2) <= 1e-9


def test_noise_deterministic_and_inf_passthrough():
    img = shepp_logan(32, 32)
    a = add_noise_to_psnr(img, 15.0, seed=9)
    b = add_noise_to_psnr(img, 15.0, seed=9)
    np.testing.assert_array_equal(a, b)
    clean = add_noise_to_psnr(img, math.inf, seed=9)
    np.testing.assert_array_equal(clean, img)
    assert clean is not img


def test_itv_instance_full_mask_noiseless_recovers():
    img = shepp_logan(16, 16)
    inst = make_itv_instance(img, 1.0, math.inf, seed=0)
    # full orthonormal sampling: adjoint inverts the measurement exactly
    np.testing.assert_allclose(
        inst.A.adjoint_apply(inst.b).reshape((16, 16), order="F"), img, atol=1e-12
    )


def test_itv_instance_quarter_mask_reproducible():
    img = shepp_logan(16, 16)
    a = make_itv_instance(img, 0.25, 22.2, seed=4)
    b = make_itv_instance(img, 0.25, 22.2, seed=4)
    assert a.A.rows == 64
    # the constant row is always sampled: a flat image keeps its mean
    assert a.A.apply(np.ones(256))[0] == pytest.approx(16.0)
    np.testing.assert_array_equal(a.b, b.b)


def test_itv_instance_measurement_consistency():
    img = shepp_logan(16, 16)
    inst = make_itv_instance(img, 0.25, 22.2, seed=4)
    noisy = add_noise_to_psnr(img, 22.2, seed=4)
    np.testing.assert_array_equal(inst.b, inst.A.apply(noisy.ravel(order="F")))


def test_itv_instance_rejects_bad_ratio():
    with pytest.raises(ValueError):
        make_itv_instance(shepp_logan(16, 16), 0.0, math.inf, seed=0)


@pytest.mark.parametrize("ratio", [0.0, 2.0, math.nan])
def test_l1_dense_instance_rejects_bad_ratio(ratio):
    # as make_itv_instance does, rather than draw a 1 x n or 2n x n A
    with pytest.raises(ValueError, match=re.escape("sampling_ratio must lie in (0, 1]")):
        make_l1_dense_instance(32, ratio, seed=0)


def test_l1_dense_instance_draws_frame_then_a_then_x():
    n, seed = 12, 5
    inst = make_l1_dense_instance(n, 0.5, seed)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    a = rng.standard_normal((6, n)) / math.sqrt(n)
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(inst.ground_truth, x)
    np.testing.assert_array_equal(inst.b, a @ x)
    np.testing.assert_allclose(inst.W.adjoint_apply(x), q @ x, rtol=1e-13, atol=1e-13)
    assert (inst.A.rows, inst.A.cols, inst.W.rows, inst.W.cols) == (6, n, n, 2 * n)
    assert (inst.n1, inst.n2) == (n, 1)
    # a Parseval frame: W W* = I
    np.testing.assert_allclose(inst.W.apply(inst.W.adjoint_apply(x)), x, atol=1e-12)
    assert inst.W.curvature_diagonals is None
