"""Preconditioned conjugate gradients for symmetric positive-definite actions.

The iteration always starts from the zero vector.  That is load-bearing:
with a zero start the returned direction dx satisfies the energy identity
dx^T op(dx) = dx^T rhs at every iteration, which the outer Newton solver
uses to get the line-search curvature term without an extra matvec.

The stopping test is on the unpreconditioned residual, which the CG
recurrence tracks directly; it is recomputed explicitly every
``recheck_every`` iterations as a drift guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PcgOutcome", "NonFiniteError", "pcg_solve"]


class NonFiniteError(RuntimeError):
    """Raised when an operator or preconditioner action produces NaN/Inf."""


@dataclass
class PcgOutcome:
    solution: np.ndarray
    iterations: int
    converged: bool
    negative_curvature: bool = False
    max_residual_drift: float = 0.0


def pcg_solve(
    op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    eta: float = 0.1,
    cap: int = 200,
    recheck_every: int = 50,
) -> PcgOutcome:
    """Solve op(x) = rhs to ||op(x) - rhs|| <= eta * ||rhs||, zero start.

    Parameters
    ----------
    op : callable
        Symmetric positive-definite action on the relevant subspace.
    rhs : ndarray
        Right-hand side.
    precond : callable, optional
        Approximate inverse action; identity when omitted.  Must behave as
        a fixed linear operator for the duration of the solve.
    eta : float
        Relative residual tolerance in [0, 1).
    cap : int
        Iteration cap; ``converged=False`` when reached.
    recheck_every : int
        Period of the explicit-residual drift check.

    Returns
    -------
    PcgOutcome
        ``negative_curvature`` is set (and the solve stops) when a search
        direction p has p^T op(p) <= 0, which signals that the operator
        was assembled from invalid data.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return PcgOutcome(x, 0, True)

    r = rhs.copy()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    target = eta * rhs_norm
    max_drift = 0.0

    for k in range(1, cap + 1):
        q = op(p)
        pq = float(p @ q)
        if not np.isfinite(pq):
            raise NonFiniteError(f"non-finite curvature p^T op(p) at iteration {k}")
        if pq <= 0.0:
            return PcgOutcome(x, k - 1, False, negative_curvature=True,
                              max_residual_drift=max_drift)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if k % recheck_every == 0:
            r_true = rhs - op(x)
            drift = float(np.linalg.norm(r_true - r)) / max(1.0, float(np.linalg.norm(r_true)))
            max_drift = max(max_drift, drift)
            r = r_true
        res_norm = float(np.linalg.norm(r))
        if not np.isfinite(res_norm):
            raise NonFiniteError(f"non-finite residual at iteration {k}")
        if res_norm <= target:
            # gate the exit on the explicitly recomputed residual: the
            # recurrence may sit a hair below the threshold while the true
            # residual sits a hair above.  The recurrence itself is left
            # untouched so near-miss checks do not perturb conjugacy.
            r_true = rhs - op(x)
            drift = float(np.linalg.norm(r_true - r)) / max(1.0, float(np.linalg.norm(r_true)))
            max_drift = max(max_drift, drift)
            if float(np.linalg.norm(r_true)) <= target:
                return PcgOutcome(x, k, True, max_residual_drift=max_drift)
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NonFiniteError(f"non-finite preconditioned residual at iteration {k}")
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    return PcgOutcome(x, cap, False, max_residual_drift=max_drift)
