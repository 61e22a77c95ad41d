"""The shifted curvature preconditioner c*sym(Bt) + rho*I.

The measurement part A^T A of the Newton matrix has a modest spectrum for
nearly row-orthogonal A, while the smoothed-regularizer part dominates as
mu shrinks.  Replacing A^T A by rho*I (``RHO`` = 0.5, the one shift of
every mode here and of ``spectrum_report``) therefore keeps the dominant
term and yields a target that is either

  * factorized with a symmetric banded Cholesky.  Its LAPACK lower band
    is written here from the Newton system's stencil, the upper diagonals
    of sym(Bt) (2D gradients give a 7-diagonal stencil with the
    pixel-column stride as bandwidth); a system without one fills a full
    band from the columns of its matrix-free ``symb_matvec``.
  * applied approximately by a fixed number of CG sweeps.  When the
    dictionary has a ``curvature_diagonals`` stencil (2D gradients) they
    run on the Jacobi-scaled target S^{-1/2} N S^{-1/2}, S the diagonal
    of N = c*sym(Bt) + rho*I, assembled once per system with unit
    diagonal and the stencil's offsets, and the action is
    z = s * CG(s * r) with s = S^{-1/2}: Jacobi-preconditioned CG on N,
    each sweep one sparse product.  Otherwise they are plain CG sweeps on
    N applied matrix-free through ``symb_matvec`` (an analysis, a
    diagonal scaling and a synthesis).

The band is written and factorized in place, in the storage of the
previous factor when the caller passes that preconditioner as
``previous``, as the solver does from each outer iteration to the next,
so one band's storage serves a whole continuation stage.  Only sym(Bt)
is checked for finite values, not the band or the back-solve's input:
PCG rejects a non-finite preconditioned residual itself.  A factor that
fails means the duals were invalid and raises ``LinAlgError``; no larger
shift is tried.

The inner count is capped at ``TRUNCATED_CG_SWEEPS`` (15, the CLI's
``cg15``); the sweeps stop sooner only once the inner residual is at
round-off, ``TRUNCATED_CG_ETA`` relative.  Both keep the approximate
application deterministic, but zero-start CG is not linear in r: its step
lengths depend on r.  Its ``Preconditioner`` is
therefore not ``linear``, and the solver runs outer PCG with the flexible
recurrence (see ``krylov``; Notay, "Flexible conjugate gradients", SIAM
J. Sci. Comput. 22(4), 2000).  The preconditioner counts the inner CG
iterations of all its applications in ``sweeps``.  A target whose
diagonal is not positive and finite means the duals were invalid and
raises ``LinAlgError``; an inner sweep that meets nonpositive curvature
raises ``krylov.NegativeCurvatureError``.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh, eigvalsh

from .krylov import pcg_solve
from .linops import dense_columns, stencil_matrix

__all__ = [
    "Preconditioner",
    "build_for_system",
    "SpectrumReport",
    "spectrum_report",
    "theorem_bound",
    "RHO",
]

TRUNCATED_CG_SWEEPS = 15
# Inner CG stops at this relative residual, at round-off, not at 0: on a
# target it solves in fewer sweeps, such as a multiple of the identity
# (the l1-dense Parseval frame at x = 0), further sweeps drive the
# residual to underflow until p^T op(p) = 0.0 aborts the solve.  No
# benchmark solve reaches it within 15 sweeps.
TRUNCATED_CG_ETA = 1e-12
# The shift rho of the target c*sym(Bt) + rho*I.  Outer/PCG iterations of
# the benchmark solves at instance seeds 0 and 1, tv128_exact; tv64_cg15:
#   rho 0.1   28/392, 26/383;  44/3052, 39/2255
#   rho 0.25  24/351, 27/342;  40/2102, 35/1496
#   rho 0.5   24/372, 25/334;  34/1256, 30/1280
#   rho 1.0   25/471, 24/406;  30/1296, 32/1268
RHO = 0.5
SPECTRUM_MAX_N = 4096  # largest n of spectrum_report, which works on dense n x n matrices


@dataclass
class Preconditioner:
    """A fixed action z -> approx (c*sym(Bt) + rho*I)^{-1} z: linear SPD
    for ``exact_banded``, deterministic but nonlinear for ``truncated_cg``."""

    action: Optional[Callable[[np.ndarray], np.ndarray]]
    rebuilds: int = 0  # always 0; the benchmark's tracer still reports it
    linear: bool = True  # False for truncated_cg: outer PCG must then be flexible
    sweeps: int = 0  # inner CG iterations run by all applications so far
    band: Optional[np.ndarray] = None  # the banded Cholesky factor, exact_banded only


def build_for_system(
    system, mode: str, previous: Optional[Preconditioner] = None
) -> Preconditioner:
    """Build the preconditioner for one Newton system (duck-typed
    ``NewtonSystem`` from the solver module).  ``previous``, the last
    system's preconditioner, is used up: it has no band and no action
    afterwards, and ``exact_banded`` writes its band into the storage of
    ``previous.band`` when there is one, of the same shape."""
    band = None
    if previous is not None:
        band, previous.band, previous.action = previous.band, None, None
    if mode == "none":
        return Preconditioner(None)

    if mode == "truncated_cg":
        n_action, s = _jacobi_scaled_target(system)
        pre = Preconditioner(None, linear=False)
        # weak, so that pre and its action form no cycle: with one, every
        # stage's last preconditioner outlived its solve until a collection
        counted = weakref.proxy(pre)

        def apply_approx(r):
            inner = pcg_solve(n_action, s * r, None, TRUNCATED_CG_ETA, cap=TRUNCATED_CG_SWEEPS)
            counted.sweeps += inner.iterations
            return s * inner.solution

        pre.action = apply_approx
        return pre

    if mode == "exact_banded":
        band = _target_band(system, band)
        try:
            cb = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"exact_banded: c*sym(Bt) + rho*I is not positive definite ({err})"
            ) from err
        return Preconditioner(
            lambda r: cho_solve_banded((cb, True), r, check_finite=False), band=cb
        )

    raise ValueError(f"unknown preconditioner mode {mode!r}")


def _band_storage(out: Optional[np.ndarray], shape: Tuple[int, int]) -> np.ndarray:
    """``out`` zeroed, or a new zero Fortran-order array of ``shape``.

    A new band is an anonymous memory map, not a heap block: a band is
    large (17 MB at 128x128) and outlives many small arrays, and a freed
    heap block of that size is split by later small allocations, so the
    next band extends the heap and the peak RSS creeps up with every
    band freed.  Unmapped, its pages go straight back to the system.
    Re-measured on the lower-storage factor: with a plain ``np.zeros``
    band in its place, tv128_exact's peak RSS was 103.5 and 102.6 MB
    against 90.1 and 89.7 MB with the map (two alternated 20 s benchmark
    runs each, 2-vCPU guest), so the map stays.
    """
    if out is None:
        pages = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(np.float64).itemsize)
        return np.frombuffer(pages, dtype=np.float64).reshape(shape, order="F")
    if out.shape != shape or not out.flags.f_contiguous:
        raise ValueError(f"band storage must be a Fortran-order {shape} array")
    out[...] = 0.0
    return out


def _target_band(system, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The LAPACK lower band of c*sym(Bt) + rho*I, written into ``out``
    (see :func:`_band_storage`).  With a stencil the bandwidth is its
    largest offset and each of its diagonals is scaled into the band once;
    without one the band is full, filled from the columns of sym(Bt).

    LAPACK's ``dpbtrf`` factors a 128x128 image's band faster from lower
    storage than from upper: medians of seven 58 and 76 ms against 92 and
    93 ms in two alternated rounds on a 2-vCPU Xeon guest with one BLAS
    thread.  The back-solve is no slower (3.4 and 5.3 against 5.0 and
    4.8 ms)."""
    c, n = system.obj.c, system.obj.n
    if system.stencil is not None:
        offsets, symb = system.stencil
        kd = offsets[-1]
    else:
        symb = dense_columns(system.symb_matvec, n)
        kd = n - 1
    if not np.all(np.isfinite(symb)):
        raise ValueError("exact_banded: sym(Bt) is not finite")
    band = _band_storage(out, (kd + 1, n))
    if system.stencil is not None:
        # entry (i, i + k) is at column i + k of the stencil's row k and,
        # as its mirror (i + k, i), at column i of the band's row k
        for k, row in zip(offsets, symb):
            np.multiply(row[k:], c, out=band[k, : n - k])
    else:
        i, j = np.triu_indices(n)
        band[j - i, i] = c * symb[i, j]
    band[0] += RHO
    return band


def _jacobi_scaled_target(system):
    """(action, s) for the inner CG of ``truncated_cg``: the target
    N = c*sym(Bt) + rho*I scaled to S^{-1/2} N S^{-1/2}, with S its
    diagonal and s = S^{-1/2}, when the system has a stencil; otherwise
    N's matrix-free action and s = 1."""
    c = system.obj.c
    if system.stencil is None:
        return (lambda v: c * system.symb_matvec(v) + RHO * v), 1.0
    offsets, diags = system.stencil
    target = c * diags
    target[0] += RHO
    if not np.all((target[0] > 0.0) & (target[0] < np.inf)):
        raise np.linalg.LinAlgError(
            "truncated_cg: the diagonal of c*sym(Bt) + rho*I is not positive and finite"
        )
    s = 1.0 / np.sqrt(target[0])
    target[0] = 1.0
    # entry (i, i + k) is stored at column i + k of row k
    for k, row in zip(offsets[1:], target[1:]):
        row[k:] *= s[k:] * s[:-k]
    ntilde = stencil_matrix(offsets, target)
    return (lambda v: ntilde @ v), s


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    """Dense spectra of one Newton system and its preconditioned form.

    ``kernel_residuals[i]`` measures how much of the i-th preconditioned
    eigenvector survives the analysis rows with small Huber diagonal
    (the set where D_i >= nu): near-zero means the eigenvector sits in
    the kernel branch of the clustering bound, for which only the looser
    ``bound_kernel`` applies.
    """

    raw_eigs: np.ndarray
    precond_eigs: np.ndarray
    sigma: int
    delta: float
    chi: float
    bound: float
    bound_kernel: float
    kernel_residuals: np.ndarray


def theorem_bound(chi: float, denom: float) -> float:
    return 0.5 * (chi + 1.0 + np.sqrt(5.0 * chi**2 - 2.0 * chi + 1.0)) / denom


def spectrum_report(system, nu: float) -> SpectrumReport:
    """Eigenvalues of one Newton system's Bhat and of its form
    preconditioned by c*sym(Bt) + RHO*I, plus the clustering-bound
    ingredients, all computed densely (n <= ``SPECTRUM_MAX_N``): delta
    is ||A A^T - I||_2 from the dense A."""
    obj = system.obj
    n = obj.n
    if n > SPECTRUM_MAX_N:
        raise ValueError(f"dense spectrum limited to n <= {SPECTRUM_MAX_N}, got {n}")

    bd = dense_columns(system.bhat_matvec, n)
    nd = obj.c * dense_columns(system.symb_matvec, n) + RHO * np.eye(n)
    bd = 0.5 * (bd + bd.T)
    nd = 0.5 * (nd + nd.T)

    raw_eigs = eigvalsh(bd)
    pre_eigs, vecs = eigh(bd, nd)

    d = system.d
    sigma = int(np.sum(d < nu))
    outside = d >= nu  # complement of the small-diagonal set
    ad = dense_columns(obj.A.apply, n)
    delta = float(np.max(np.abs(eigvalsh(ad @ ad.T) - 1.0)))
    chi = 1.0 + delta - RHO

    wd = dense_columns(obj.W.apply, obj.W.cols)
    lam_min = 0.0
    if np.any(outside):
        wc = wd[:, outside]
        gram = np.real(wc @ wc.conj().T)
        evals = eigvalsh(gram)
        tol = max(1e-12, float(np.max(np.abs(evals))) * 1e-10)
        positive = evals[evals > tol]
        if positive.size:
            lam_min = float(positive[0])

    bound = theorem_bound(chi, obj.c * obj.mu**2 * nu**3 * lam_min + RHO)
    bound_kernel = theorem_bound(chi, RHO)

    analysis = wd.conj().T @ vecs  # W* v for every eigenvector
    denom = np.linalg.norm(vecs, axis=0)
    kernel_residuals = np.linalg.norm(analysis[outside, :], axis=0) / np.maximum(denom, 1e-300)

    return SpectrumReport(
        raw_eigs=raw_eigs,
        precond_eigs=pre_eigs,
        sigma=sigma,
        delta=delta,
        chi=chi,
        bound=float(bound),
        bound_kernel=float(bound_kernel),
        kernel_residuals=kernel_residuals,
    )
