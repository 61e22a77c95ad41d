"""Reproducible reconstruction problem instances and quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linops import LinearOperator, SamplingMask, make_gradient2d, make_mask, make_partial_dct2

__all__ = [
    "ProblemInstance",
    "shepp_logan",
    "add_noise_to_psnr",
    "psnr",
    "relative_error",
    "make_itv_instance",
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
    ground_truth: Optional[np.ndarray]
    noise: Optional[np.ndarray]
    seed: int
    n1: int
    n2: int
    mask: Optional[SamplingMask] = None


def shepp_logan(n1: int, n2: int) -> np.ndarray:
    """Analytic rasterization of the ten-ellipse head phantom.

    Pixel centres live on [-1, 1]^2 with row 0 at the top; intensities
    use the high-contrast table and the result is clipped to [0, 1].
    """
    if n1 < 16 or n2 < 16:
        raise ValueError("phantom needs at least 16 pixels per side")
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
    force_dc: bool = True,
) -> ProblemInstance:
    """Total-variation instance: 2D gradient dictionary, partial DCT
    measurements of the noisy image.

    The mask always keeps coefficient 0 (the transform's constant row)
    unless ``force_dc=False``: the gradient dictionary annihilates
    constants, so the image mean is observable only through that row and
    dropping it leaves a singular problem.
    """
    image = np.asarray(image, dtype=np.float64)
    n1, n2 = image.shape
    n = n1 * n2
    if not 0.0 < sampling_ratio <= 1.0:
        raise ValueError("sampling_ratio must lie in (0, 1]")
    m = max(1, round(sampling_ratio * n))
    mask = make_mask(n, m, seed + 1, include_first=force_dc)
    A = make_partial_dct2(n1, n2, mask)
    W = make_gradient2d(n1, n2)
    noisy = add_noise_to_psnr(image, target_psnr, seed)
    b = A.apply(noisy.ravel(order="F"))
    return ProblemInstance(
        A=A,
        W=W,
        b=b,
        ground_truth=image.copy(),
        noise=noisy - image,
        seed=seed,
        n1=n1,
        n2=n2,
        mask=mask,
    )
