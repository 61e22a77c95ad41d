"""The shifted curvature preconditioner c*sym(Bt) + rho*I.

The measurement part A^T A of the Newton matrix has a modest spectrum for
nearly row-orthogonal A, while the smoothed-regularizer part dominates as
mu shrinks.  Replacing A^T A by rho*I therefore keeps the dominant term
and yields a target that is either

  * factorized with a symmetric banded Cholesky when the dictionary's
    ``curvature_band`` kernel writes the LAPACK band of sym(Bt) from the
    Newton system's diagonals (2D gradients give a 7-diagonal stencil with
    the pixel-column stride as bandwidth), or
  * applied approximately by a fixed number of plain CG iterations on the
    Newton system's ``ntilde_action``: one sparse product of the target,
    assembled once per system, when the dictionary has a
    ``curvature_diagonals`` stencil (2D gradients), and an analysis, a
    diagonal scaling and a synthesis otherwise.

The band is shifted and factorized in place, in the storage of the
previous factor when the caller hands it over (``release_band``), as the
solver does from each outer iteration to the next, so one band's storage
serves a whole continuation stage.  The factor's input is
checked for finite values, the back-solve's is not: PCG rejects a
non-finite preconditioned residual itself.

The fixed inner count keeps the approximate application (numerically) a
fixed linear action within one outer PCG solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh, eigvalsh

from .krylov import pcg_solve
from .linops import estimate_delta, to_dense

__all__ = [
    "Preconditioner",
    "build_for_system",
    "SpectrumReport",
    "spectrum_report",
    "theorem_bound",
]

_MAX_SHIFT_DOUBLINGS = 60


@dataclass
class Preconditioner:
    """A fixed SPD linear action z -> approx (c*sym(Bt) + rho*I)^{-1} z."""

    mode: str
    rho: float
    action: Optional[Callable[[np.ndarray], np.ndarray]]
    rebuilds: int = 0
    inner: int = 0
    band: Optional[np.ndarray] = None  # the banded Cholesky factor, exact_banded only

    def release_band(self) -> Optional[np.ndarray]:
        """Hand the factor's storage to the next build, which overwrites it;
        this preconditioner has no action afterwards."""
        band, self.band, self.action = self.band, None, None
        return band


def build_for_system(
    system, mode: str, rho: float, inner: int = 15, band: Optional[np.ndarray] = None
) -> Preconditioner:
    """Build the preconditioner for one Newton system (duck-typed
    ``NewtonSystem`` from the solver module).  ``exact_banded`` writes its
    band into ``band`` when given, the storage of a released factor of the
    same shape; the other modes ignore it."""
    if mode == "none":
        return Preconditioner("none", rho, None)

    if mode == "truncated_cg":
        n_action = system.ntilde_action(rho)

        def apply_approx(r):
            return pcg_solve(n_action, r, None, eta=0.0, cap=inner).solution

        return Preconditioner("truncated_cg", rho, apply_approx, inner=inner)

    if mode == "exact_banded":
        write_band = system.obj.W.curvature_band
        if write_band is None:
            raise ValueError("exact banded preconditioning needs a dictionary "
                             "with a curvature band kernel (2D gradient or dense)")
        c = system.obj.c
        rho_eff = rho
        for rebuilds in range(_MAX_SHIFT_DOUBLINGS):
            # the factor overwrites the band, so each shift rewrites it
            # into the same storage
            band = write_band(system.d1, system.d4, system.d23, out=band)
            band *= c
            band[-1] += rho_eff
            try:
                cb = cholesky_banded(band, overwrite_ab=True, lower=False)
                break
            except np.linalg.LinAlgError:
                rho_eff *= 2.0
        else:
            raise np.linalg.LinAlgError("banded factorization failed at every shift")

        return Preconditioner(
            "exact_banded",
            rho_eff,
            lambda r: cho_solve_banded((cb, False), r, check_finite=False),
            rebuilds=rebuilds,
            band=cb,
        )

    raise ValueError(f"unknown preconditioner mode {mode!r}")


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
    nu: float
    delta: float
    chi: float
    bound: float
    bound_kernel: float
    kernel_residuals: np.ndarray


def theorem_bound(chi: float, denom: float) -> float:
    return 0.5 * (chi + 1.0 + np.sqrt(5.0 * chi**2 - 2.0 * chi + 1.0)) / denom


def spectrum_report(system, rho: float, nu: float) -> SpectrumReport:
    """Eigenvalues of one Newton system's Bhat and of its preconditioned
    form, plus the clustering-bound ingredients, all computed densely
    (n <= 4096)."""
    obj = system.obj
    n = obj.n
    if n > 4096:
        raise ValueError(f"dense spectrum limited to n <= 4096, got {n}")

    bd = np.empty((n, n))
    nd = np.empty((n, n))
    ntilde = system.ntilde_action(rho)
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        bd[:, j] = system.bhat_matvec(e)
        nd[:, j] = ntilde(e)
        e[j] = 0.0
    bd = 0.5 * (bd + bd.T)
    nd = 0.5 * (nd + nd.T)

    raw_eigs = eigvalsh(bd)
    pre_eigs, vecs = eigh(bd, nd)

    d = system.d
    sigma = int(np.sum(d < nu))
    outside = d >= nu  # complement of the small-diagonal set
    delta = estimate_delta(obj.A, 50)
    chi = 1.0 + delta - rho

    wd = to_dense(obj.W)
    lam_min = 0.0
    if np.any(outside):
        wc = wd[:, outside]
        gram = np.real(wc @ wc.conj().T)
        evals = eigvalsh(gram)
        tol = max(1e-12, float(np.max(np.abs(evals))) * 1e-10)
        positive = evals[evals > tol]
        if positive.size:
            lam_min = float(positive[0])

    bound = theorem_bound(chi, obj.c * obj.mu**2 * nu**3 * lam_min + rho)
    bound_kernel = theorem_bound(chi, rho)

    analysis = wd.conj().T @ vecs  # W* v for every eigenvector
    denom = np.linalg.norm(vecs, axis=0)
    kernel_residuals = np.linalg.norm(analysis[outside, :], axis=0) / np.maximum(denom, 1e-300)

    return SpectrumReport(
        raw_eigs=raw_eigs,
        precond_eigs=pre_eigs,
        sigma=sigma,
        nu=nu,
        delta=delta,
        chi=chi,
        bound=float(bound),
        bound_kernel=float(bound_kernel),
        kernel_residuals=kernel_residuals,
    )
