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
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.fft import dctn, idctn
from scipy.sparse import dia_array

__all__ = [
    "LinearOperator",
    "SamplingMask",
    "make_mask",
    "make_gradient2d",
    "make_partial_dct2",
    "make_dense_dictionary",
    "make_zero_operator",
    "estimate_delta",
    "stencil_matrix",
    "to_dense",
]


@dataclass(frozen=True)
class LinearOperator:
    """A linear map available only through its action.

    Parameters
    ----------
    rows, cols : int
        Output and input dimensions of ``apply``.
    field : {"real", "complex"}
        Codomain scalar field of ``apply``.
    apply : callable
        Maps a length-``cols`` vector to a length-``rows`` vector.
    adjoint_apply : callable
        Maps a length-``rows`` vector to a length-``cols`` vector;
        implements the conjugate transpose of ``apply``.
    curvature_band : callable, optional
        ``curvature_band(d1, d4, d23, out=None)`` writes the LAPACK
        upper-band storage of the real symmetric S with
        S v = synth_real(op, d1*r + d23*i, d4*i + d23*r), where
        (r, i) = analysis_parts(op, v), into ``out`` (a Fortran-order array
        of the band's shape, whose old contents are overwritten) or into a
        new Fortran-order array, and returns it.  Required by the exact
        banded preconditioner; ``None`` where S is not cheap to write down.
    curvature_diagonals : callable, optional
        ``curvature_diagonals(d1, d4, d23)`` returns ``(offsets, diags)``,
        the nonzero upper diagonals of the same S when it is a stencil of a
        few diagonals: ``offsets`` is strictly increasing and starts at 0,
        and row k of ``diags`` holds S[j - offsets[k], j] at column j (the
        LAPACK band layout, zero for j < offsets[k]).  When present, the
        Newton system assembles S once with :func:`stencil_matrix` and
        applies it as one sparse product instead of an analysis and a
        synthesis; the 2D gradient has it, dense dictionaries do not.
    """

    rows: int
    cols: int
    field: str
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    curvature_band: Optional[Callable[..., np.ndarray]] = field(default=None, repr=False)
    curvature_diagonals: Optional[
        Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[List[int], np.ndarray]]
    ] = field(default=None, repr=False)
    # optional fast kernels; semantics fixed by the module helpers below
    fast_synth_real: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    fast_analysis_parts: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("operator dimensions must be positive")
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")


def synth_real(op: LinearOperator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re( op.apply(p + i q) ) for real p, q, using a fast kernel if present."""
    if op.fast_synth_real is not None:
        return op.fast_synth_real(p, q)
    out = op.apply(p + 1j * q)
    return np.real(out) if np.iscomplexobj(out) else out


def analysis_parts(op: LinearOperator, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of op.adjoint_apply(v) for real v, via a fast kernel if present."""
    if op.fast_analysis_parts is not None:
        return op.fast_analysis_parts(v)
    u = op.adjoint_apply(v)
    if np.iscomplexobj(u):
        return np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
    return u, np.zeros_like(u)


@dataclass(frozen=True)
class SamplingMask:
    """Strictly increasing, duplicate-free row indices plus the seed used."""

    selected_indices: np.ndarray
    seed: int

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


def make_mask(n: int, m: int, seed: int, include_first: bool = False) -> SamplingMask:
    """Draw m distinct indices from [0, n) without replacement.

    Uses numpy's PCG64 generator so masks are reproducible from the seed.
    With ``include_first`` index 0 is always selected; partial transforms
    whose first row spans the constant vector need it so that the
    measurement operator sees the image mean.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    if include_first:
        rest = rng.choice(np.arange(1, n), size=m - 1, replace=False)
        idx = np.concatenate(([0], rest))
    else:
        idx = rng.choice(n, size=m, replace=False)
    return SamplingMask(np.sort(idx), seed)


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
        hr, vr = _grad2d_channels(x.real, n1, n2)
        hi, vi = _grad2d_channels(x.imag, n1, n2)
        return (hr - vi) + 1j * (hi + vr)
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


def _band_storage(out: Optional[np.ndarray], shape: Tuple[int, int]) -> np.ndarray:
    """``out`` zeroed, or a new zero Fortran-order array of ``shape``.

    A new band is an anonymous memory map, not a heap block: a band is
    large (17 MB at 128x128) and outlives many small arrays, and a freed
    heap block of that size is split by later small allocations, so the
    next band extends the heap and the peak RSS creeps up with every
    band freed.  Unmapped, its pages go straight back to the system.
    """
    if out is None:
        pages = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(np.float64).itemsize)
        return np.frombuffer(pages, dtype=np.float64).reshape(shape, order="F")
    if out.shape != shape or not out.flags.f_contiguous:
        raise ValueError(f"band storage must be a Fortran-order {shape} array")
    out[...] = 0.0
    return out


def _grad2d_curvature_band(d1, d4, d23, n1: int, n2: int, out=None) -> np.ndarray:
    """LAPACK upper band of the stencil S, bandwidth n1."""
    offsets, diags = _grad2d_curvature_diagonals(d1, d4, d23, n1, n2)
    ab = _band_storage(out, (n1 + 1, n1 * n2))
    for k, row in zip(offsets, diags):
        ab[n1 - k] = row
    return ab


def stencil_matrix(offsets, diags: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> dia_array:
    """scale*S + shift*I as a sparse DIA matrix, for the symmetric S whose
    upper diagonals ``(offsets, diags)`` a ``curvature_diagonals`` kernel
    returns; the lower diagonals are the upper ones moved left."""
    n = diags.shape[1]
    lower = np.zeros((len(offsets) - 1, n))
    for row, k, upper in zip(lower, offsets[1:], diags[1:]):
        row[: n - k] = upper[k:]
    data = np.concatenate((diags, lower))
    if scale != 1.0:
        data *= scale
    data[0] += shift
    return dia_array((data, [*offsets, *(-k for k in offsets[1:])]), shape=(n, n))


def make_gradient2d(n1: int, n2: int) -> LinearOperator:
    """Complex 2D discrete-gradient dictionary for an n1 x n2 image.

    ``adjoint_apply`` computes the analysis map (the gradient itself);
    ``apply`` is the synthesis map.  The dense analysis matrix is square,
    complex and has rank n1*n2 - 1 (constants are in its kernel).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("gradient2d needs both image dimensions >= 2")
    n = n1 * n2
    return LinearOperator(
        rows=n,
        cols=n,
        field="complex",
        apply=lambda z: _grad2d_synthesis(z, n1, n2),
        adjoint_apply=lambda x: _grad2d_analysis(x, n1, n2),
        curvature_band=lambda d1, d4, d23, out=None: _grad2d_curvature_band(
            d1, d4, d23, n1, n2, out
        ),
        curvature_diagonals=lambda d1, d4, d23: _grad2d_curvature_diagonals(d1, d4, d23, n1, n2),
        fast_synth_real=lambda p, q: _grad2d_synth_channels(p, q, n1, n2),
        fast_analysis_parts=lambda v: _grad2d_channels(v, n1, n2),
    )


# ---------------------------------------------------------------------------
# Partial orthonormal 2D DCT
# ---------------------------------------------------------------------------


def make_partial_dct2(n1: int, n2: int, mask: SamplingMask) -> LinearOperator:
    """Row selection of the orthonormal 2D DCT-II of a column-stacked image,
    transformed as a C-order (n2, n1) view down each image column first.
    Any image size works: ``dctn`` needs no power-of-two length."""
    n = n1 * n2
    idx = mask.selected_indices
    if idx[-1] >= n:
        raise ValueError("mask indices exceed image size")
    m = len(mask)

    def apply(x):
        image = np.asarray(x, dtype=np.float64).reshape((n2, n1))
        return dctn(image, axes=(1, 0), norm="ortho").ravel()[idx]

    def adjoint_apply(v):
        full = np.zeros(n)
        full[idx] = v
        return idctn(full.reshape((n2, n1)), axes=(1, 0), norm="ortho").ravel()

    return LinearOperator(rows=m, cols=n, field="real", apply=apply, adjoint_apply=adjoint_apply)


# ---------------------------------------------------------------------------
# Dense operators and helpers
# ---------------------------------------------------------------------------


def make_dense_dictionary(entries: np.ndarray, field: str = "real") -> LinearOperator:
    """Wrap an explicit matrix; used for small oracles and unit tests."""
    mat = np.asarray(entries, dtype=np.complex128 if field == "complex" else np.float64)
    if mat.ndim != 2:
        raise ValueError("entries must be a 2D array")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("entries must be finite")
    rows, cols = mat.shape
    re, im = mat.real, mat.imag

    def curvature_band(d1, d4, d23, out=None):
        cross = (re * d23) @ im.T
        s = (re * d1) @ re.T + (im * d4) @ im.T - cross - cross.T
        i, j = np.triu_indices(rows)  # full band: (i, j) at ab[rows - 1 + i - j, j]
        ab = _band_storage(out, (rows, rows))
        ab[rows - 1 + i - j, j] = s[i, j]
        return ab

    return LinearOperator(
        rows=rows,
        cols=cols,
        field=field,
        apply=lambda z: mat @ z,
        adjoint_apply=lambda x: mat.conj().T @ x,
        curvature_band=curvature_band,
    )


def make_zero_operator(rows: int, cols: int) -> LinearOperator:
    """The zero map; handy for isolating regularizer-only behaviour."""
    return LinearOperator(
        rows=rows,
        cols=cols,
        field="real",
        apply=lambda x: np.zeros(rows),
        adjoint_apply=lambda v: np.zeros(cols),
    )


def to_dense(op: LinearOperator) -> np.ndarray:
    """Materialize an operator column by column (test/oracle use only)."""
    dtype = np.complex128 if op.field == "complex" else np.float64
    out = np.empty((op.rows, op.cols), dtype=dtype)
    e = np.zeros(op.cols)
    for j in range(op.cols):
        e[j] = 1.0
        out[:, j] = op.apply(e)
        e[j] = 0.0
    return out


def estimate_delta(A: LinearOperator, iterations: int = 50) -> float:
    """Power-iteration estimate of || A A^T - I ||_2 for a real operator.

    The returned value is nondecreasing in ``iterations`` and approaches
    the spectral norm from below (norm-ratio estimate on the symmetric
    matrix A A^T - I, fixed deterministic start vector).
    """
    if A.field != "real":
        raise ValueError("row-orthogonality estimate is defined for real operators")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    def action(v):
        return A.apply(A.adjoint_apply(v)) - v

    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(A.rows)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iterations):
        w = action(v)
        norm = np.linalg.norm(w)
        if norm == 0.0 or norm < 1e-300:
            return 0.0
        est = norm
        v = w / norm
    return float(est)
