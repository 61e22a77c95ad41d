"""Matrix-free linear operators for measurement and analysis maps.

Every operator is a pair of callables (``apply``, ``adjoint_apply``) plus
declared dimensions.  ``apply`` maps the input space (length ``cols``) to
the output space (length ``rows``); ``adjoint_apply`` goes the other way
and implements the conjugate transpose, so that for all u, v

    <apply(u), v> = <u, adjoint_apply(v)>

with the conjugate inner product ``vdot`` in the complex case.

Conventions for the 2D discrete-gradient dictionary:
  * images are stacked column-major, pixel p = r + c*n1, and stay flat:
    kernels slice the flat vector (the partial DCT views it as a C-order
    (n2, n1) array), so no Fortran-order copy of an image is made;
  * ``adjoint_apply(x)`` returns horizontal forward differences in the
    real part and vertical forward differences in the imaginary part;
  * forward differences are zero at the trailing column/row (Neumann
    boundary), which makes the dense analysis matrix rank n-1.

The partial DCT is the measurement operator A, and the Newton matrix
applies A^T A in every PCG iteration, so its cost is paid thousands of
times per solve.  For images with both sides below 128 it is two dense
matrix products with cached DCT-II matrices, which beat ``dctn``'s FFT at
those sizes; larger images keep ``dctn`` (timings in
:func:`make_partial_dct2`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.fft import dct, dctn, idctn
from scipy.sparse import dia_array

__all__ = [
    "LinearOperator",
    "SamplingMask",
    "make_mask",
    "make_gradient2d",
    "make_partial_dct2",
    "make_dense_dictionary",
    "stencil_matrix",
    "dense_columns",
]


@dataclass(frozen=True)
class LinearOperator:
    """A linear map available only through its action.

    Parameters
    ----------
    rows, cols : int
        Output and input dimensions of ``apply``.
    apply : callable
        Maps a length-``cols`` vector to a length-``rows`` vector.
    adjoint_apply : callable
        Maps a length-``rows`` vector to a length-``cols`` vector;
        implements the conjugate transpose of ``apply``.
    fast_synth_real : callable
        Re(``apply(p + i q)``) for real p, q.  A dictionary W supplies
        ``apply``, ``adjoint_apply`` and ``fast_synth_real``, and
        optionally ``curvature_diagonals``; A needs neither kernel.  The
        analysis of a real v is ``adjoint_apply(v)`` itself, whose real
        and imaginary parts are its two channels r and i.
    curvature_diagonals : callable, optional
        ``curvature_diagonals(d1, d4, d23)`` returns ``(offsets, diags)``,
        the nonzero upper diagonals of the real symmetric S with
        S v = fast_synth_real(d1*r + d23*i, d4*i + d23*r), when S is a
        stencil of a few diagonals: ``offsets`` is strictly increasing and
        starts at 0, and row k of ``diags`` holds S[j - offsets[k], j] at
        column j (the LAPACK band layout, zero for j < offsets[k]).  When
        present, the Newton system applies S as one sparse product
        (:func:`stencil_matrix`) instead of W* and ``fast_synth_real``,
        and the exact banded preconditioner copies the diagonals into its
        band; the 2D gradient has it.
    """

    rows: int
    cols: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    curvature_diagonals: Optional[
        Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[List[int], np.ndarray]]
    ] = field(default=None, repr=False)
    fast_synth_real: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    # always None; the benchmark's tracer still wraps it by name
    fast_analysis_parts: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("operator dimensions must be positive")


@dataclass(frozen=True)
class SamplingMask:
    """Strictly increasing, duplicate-free row indices."""

    selected_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.selected_indices, dtype=np.int64)
        object.__setattr__(self, "selected_indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("mask must be a nonempty 1D index array")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("mask indices must be strictly increasing")
        if idx[0] < 0:
            raise ValueError("mask indices must be nonnegative")

    def __len__(self) -> int:
        return int(self.selected_indices.size)


def make_mask(n: int, m: int, seed: int) -> SamplingMask:
    """Index 0 plus m - 1 distinct indices drawn from [1, n).

    Uses numpy's PCG64 generator so masks are reproducible from the seed.
    Index 0 is always selected: the first row of the partial DCT spans the
    constant vector, and without it the measurement operator does not see
    the image mean, which a TV problem then cannot determine.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    rest = rng.choice(np.arange(1, n), size=m - 1, replace=False)
    return SamplingMask(np.sort(np.concatenate(([0], rest))))


# ---------------------------------------------------------------------------
# 2D discrete gradient (complex encoding)
# ---------------------------------------------------------------------------


def _grad2d_channels(x: np.ndarray, n1: int, n2: int) -> Tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical forward differences as two real images."""
    h, v = np.empty(n1 * n2), np.empty(n1 * n2)
    np.subtract(x[n1:], x[:-n1], out=h[:-n1])
    np.subtract(x[1:], x[:-1], out=v[:-1])
    h[-n1:] = 0.0
    v[n1 - 1 :: n1] = 0.0
    return h, v


def _grad2d_analysis(x: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Forward differences of a column-stacked image, horizontal -> real,
    vertical -> imaginary, zero at the trailing column/row."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("the 2D gradient acts on real images, got a complex vector")
    h, v = _grad2d_channels(x, n1, n2)
    out = np.empty(n1 * n2, dtype=np.complex128)
    out.real = h
    out.imag = v
    return out


def _grad2d_synth_channels(p: np.ndarray, q: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Real part of the synthesis of channel pair (p, q): the negative
    divergence built from the transposed difference stencils."""
    qz = q.copy()
    qz[n1 - 1 :: n1] = 0.0  # vertical differences stop at the trailing row
    out = np.zeros(n1 * n2)
    out[:-n1] -= p[:-n1]
    out[n1:] += p[:-n1]
    out[:-1] -= qz[:-1]
    out[1:] += qz[:-1]
    return out


def _grad2d_synthesis(z: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Adjoint of :func:`_grad2d_analysis`."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(n1 * n2, dtype=np.complex128)
    out.real = _grad2d_synth_channels(z.real, z.imag, n1, n2)
    out.imag = _grad2d_synth_channels(z.imag, -z.real, n1, n2)
    return out


def _grad2d_curvature_diagonals(d1, d4, d23, n1: int, n2: int) -> Tuple[List[int], np.ndarray]:
    """Upper diagonals of S = Dh^T d1 Dh + Dv^T d4 Dv + Dh^T d23 Dv + Dv^T d23 Dh
    for W* = Dh + i Dv: the 7-diagonal stencil, upper offsets 0, 1, n1-1, n1.
    At n1 = 2 offsets 1 and n1-1 coincide, and their terms add into one row."""
    ah, av, ac = d1.copy(), d4.copy(), d23.copy()
    # Dh rows leave the image at the trailing column, Dv rows at the trailing row
    ah[-n1:] = ac[-n1:] = 0.0
    av[n1 - 1 :: n1] = ac[n1 - 1 :: n1] = 0.0
    offsets = sorted({0, 1, n1 - 1, n1})
    diags = np.zeros((len(offsets), n1 * n2))
    row = dict(zip(offsets, diags))
    h, v = ah.copy(), av.copy()
    h[n1:] += ah[:-n1]
    v[1:] += av[:-1]
    # the four terms of S add up left to right; the rounding, and with it
    # the banded preconditioner's PCG trajectory, depends on that order
    row[0][:] = h + v + ac + ac
    # entry (i, i + k) of S is stored at column i + k of row k
    row[1][1:] -= av[:-1] + ac[:-1]
    row[n1 - 1][n1:] += ac[:-n1]
    row[n1][n1:] -= ah[:-n1] + ac[:-n1]
    return offsets, diags


def stencil_matrix(offsets, diags: np.ndarray) -> dia_array:
    """S as a sparse DIA matrix, for the symmetric S whose upper diagonals
    ``(offsets, diags)`` a ``curvature_diagonals`` kernel returns; the
    lower diagonals are the upper ones moved left."""
    n = diags.shape[1]
    lower = np.zeros((len(offsets) - 1, n))
    for row, k, upper in zip(lower, offsets[1:], diags[1:]):
        row[: n - k] = upper[k:]
    data = np.concatenate((diags, lower))
    return dia_array((data, [*offsets, *(-k for k in offsets[1:])]), shape=(n, n))


def make_gradient2d(n1: int, n2: int) -> LinearOperator:
    """Complex 2D discrete-gradient dictionary for an n1 x n2 image.

    ``adjoint_apply`` computes the analysis map (the gradient itself) of a
    real image and raises ValueError on a complex one; ``apply`` is the
    synthesis map.  The dense analysis matrix is square, complex and has
    rank n1*n2 - 1 (constants are in its kernel).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("gradient2d needs both image dimensions >= 2")
    n = n1 * n2
    return LinearOperator(
        rows=n,
        cols=n,
        apply=lambda z: _grad2d_synthesis(z, n1, n2),
        adjoint_apply=lambda x: _grad2d_analysis(x, n1, n2),
        curvature_diagonals=lambda d1, d4, d23: _grad2d_curvature_diagonals(d1, d4, d23, n1, n2),
        fast_synth_real=lambda p, q: _grad2d_synth_channels(p, q, n1, n2),
    )


# ---------------------------------------------------------------------------
# Partial orthonormal 2D DCT
# ---------------------------------------------------------------------------


# Sides below this evaluate the 2D DCT as two dense matrix products; at 128
# and above the O(n log n) transform wins (see make_partial_dct2).
DCT_MATMUL_BELOW = 128


@functools.lru_cache(maxsize=None)
def _dct_matrix(length: int) -> np.ndarray:
    """The orthonormal DCT-II matrix of one side, C @ v == dct(v, norm="ortho").

    Read-only, because every operator of that side shares the cached array.
    Only sides below ``DCT_MATMUL_BELOW`` reach the cache, so it holds at
    most 127 matrices of at most 129 kB each.
    """
    mat = dct(np.eye(length), axis=0, norm="ortho")
    mat.flags.writeable = False
    return mat


def make_partial_dct2(n1: int, n2: int, mask: SamplingMask) -> LinearOperator:
    """Row selection of the orthonormal 2D DCT-II of a column-stacked image,
    transformed as a C-order (n2, n1) view down each image column first.
    Any image size works: ``dctn`` needs no power-of-two length.

    When both sides are below ``DCT_MATMUL_BELOW`` (128) the transform is
    two dense products with the cached DCT-II matrices, C2 X C1^T, and its
    inverse C2^T Y C1; larger images use ``dctn``/``idctn``.  One forward
    transform, mask multiply and inverse transform of a square image took,
    in µs, FFT against products (median of three runs on a 2-vCPU KVM
    guest, one BLAS thread): side 32: 66 vs 18, 48: 97 vs 33, 64: 138 vs
    62, 96: 266 vs 195, 128: 474 vs 479, 160: 710 vs 793, 192: 759 vs
    1462, 256: 1796 vs 4007.  The products cost O(side) per pixel against
    the FFT's O(log side), so they stop paying at 128.  They agree with
    ``dctn`` to rounding (about 1e-15 relative), not bit for bit.
    """
    n = n1 * n2
    idx = mask.selected_indices
    if idx[-1] >= n:
        raise ValueError("mask indices exceed image size")
    m = len(mask)

    if max(n1, n2) < DCT_MATMUL_BELOW:
        c1, c2 = _dct_matrix(n1), _dct_matrix(n2)

        def forward(image):
            return c2 @ image @ c1.T

        def inverse(coef):
            return c2.T @ coef @ c1

    else:

        def forward(image):
            return dctn(image, axes=(1, 0), norm="ortho")

        def inverse(coef):
            return idctn(coef, axes=(1, 0), norm="ortho")

    def apply(x):
        return forward(np.asarray(x, dtype=np.float64).reshape((n2, n1))).ravel()[idx]

    def adjoint_apply(v):
        full = np.zeros(n)
        full[idx] = v
        return inverse(full.reshape((n2, n1))).ravel()

    return LinearOperator(rows=m, cols=n, apply=apply, adjoint_apply=adjoint_apply)


# ---------------------------------------------------------------------------
# Dense operators and helpers
# ---------------------------------------------------------------------------


def make_dense_dictionary(entries: np.ndarray) -> LinearOperator:
    """Wrap an explicit matrix: the l1-dense frame, oracles and unit tests.
    Complex entries make a complex128 dictionary, any others a float64 one."""
    mat = np.asarray(entries, dtype=np.complex128 if np.iscomplexobj(entries) else np.float64)
    if mat.ndim != 2:
        raise ValueError("entries must be a 2D array")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("entries must be finite")
    rows, cols = mat.shape
    adj = mat.conj().T

    def synth_real(p, q):
        # a real matrix has no imaginary channel: Re(W (p + i q)) = W p
        return np.real(mat @ (p + 1j * q)) if np.iscomplexobj(mat) else mat @ p

    return LinearOperator(
        rows=rows,
        cols=cols,
        apply=lambda z: mat @ z,
        adjoint_apply=lambda x: adj @ x,
        fast_synth_real=synth_real,
    )


def dense_columns(action: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """The matrix of a linear action on real length-n vectors, such as an
    operator's ``apply``, one unit vector at a time; its rows and dtype
    are those of the action's output (oracle and dense-diagnostic use
    only)."""
    out = None
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        col = action(e)
        if out is None:
            out = np.empty((col.size, n), dtype=col.dtype)
        out[:, j] = col
        e[j] = 0.0
    return out

