"""Preconditioned conjugate gradients for symmetric positive-definite actions.

The iteration starts from the zero vector.  The stopping test is on the
unpreconditioned residual, which the CG recurrence tracks directly.  It
is recomputed explicitly every ``RECHECK_EVERY`` iterations as a drift
guard, and when the recurrence meets the tolerance, to gate the exit;
one computation serves both.  The exit gate's op(x) is returned with x,
so a caller that needs x^T op(x), as the Newton solver's line search
does, gets it exactly and without another operator call.

With ``flexible=True`` each new search direction is the preconditioned
residual z minus its op-projections on the previous two directions
(Notay's flexible CG with truncation 2, FCG(2): "Flexible conjugate
gradients", SIAM J. Sci. Comput. 22(4), 2000), in place of the standard
p = z + beta*p.  The step length alpha = r^T z / p^T op(p) is the same
in both.  The standard recurrence keeps its directions conjugate only
when the preconditioner is a fixed linear SPD map; a nonlinear one, such
as a truncated inner CG, loses conjugacy, which the explicit
orthogonalization restores against the two latest directions (Golub &
Ye, SIAM J. Sci. Comput. 21(4), 1999).  With a linear preconditioner
both recurrences are the same method in exact arithmetic.  The solver
turns it on for a preconditioner that is not ``Preconditioner.linear``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PcgOutcome", "NonFiniteError", "NegativeCurvatureError", "pcg_solve"]

RECHECK_EVERY = 50


class NonFiniteError(RuntimeError):
    """Raised when an operator or preconditioner action produces NaN/Inf."""


class NegativeCurvatureError(RuntimeError):
    """Raised when a search direction p has p^T op(p) <= 0: the operator is
    not positive definite, which in the Newton solver means invalid duals."""


@dataclass
class PcgOutcome:
    solution: np.ndarray
    iterations: int
    converged: bool
    max_residual_drift: float = 0.0
    op_solution: Optional[np.ndarray] = None  # op(solution), set when converged


def pcg_solve(
    op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    eta: float = 0.1,
    *,
    cap: int,
    flexible: bool = False,
) -> PcgOutcome:
    """Solve op(x) = rhs to ||op(x) - rhs|| <= eta * ||rhs||, zero start.

    Parameters
    ----------
    op : callable
        Symmetric positive-definite action on the relevant subspace.
    rhs : ndarray
        Right-hand side.
    precond : callable, optional
        Approximate inverse action; identity when omitted.  It must be
        deterministic for the duration of the solve.  Plain PCG assumes it
        is also linear and symmetric positive definite; a nonlinear action
        such as a truncated inner CG needs ``flexible=True``.
    eta : float
        Relative residual tolerance in [0, 1).
    cap : int
        Iteration cap; ``converged=False`` when reached.
    flexible : bool
        Build each direction as z minus its op-projections on the previous
        two (FCG(2)) instead of z + beta*p; costs two more inner products
        and one more stored direction pair per iteration.  ``False`` runs
        the standard recurrence.

    Returns
    -------
    PcgOutcome
        ``op_solution`` is op(x) as the exit gate computed it, at every
        converged exit (zeros for a zero ``rhs``), and ``None`` otherwise.

    Raises
    ------
    NegativeCurvatureError
        When a search direction p has p^T op(p) <= 0, which signals that
        the operator was assembled from invalid data.
    NonFiniteError
        When p^T op(p), the residual or the preconditioned residual is not
        finite.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return PcgOutcome(x, 0, True, op_solution=np.zeros_like(rhs))

    r = rhs.copy()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    target = eta * rhs_norm
    max_drift = 0.0
    step = np.empty_like(rhs)  # alpha*p, then alpha*q: x and r update in place
    p_prev = q_prev = pq_prev = None  # the direction before p, op of it, their product

    for k in range(1, cap + 1):
        q = op(p)
        pq = float(p @ q)
        if not math.isfinite(pq):
            raise NonFiniteError(f"non-finite curvature p^T op(p) at iteration {k}")
        if pq <= 0.0:
            raise NegativeCurvatureError(f"nonpositive curvature p^T op(p) = {pq} at iteration {k}")
        alpha = rz / pq
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(q, alpha, out=step)
        # np.linalg.norm(r) is sqrt(r @ r); without a preconditioner r @ r is
        # also the next r^T z
        rr = float(r @ r)
        res_norm = math.sqrt(rr)
        recheck = k % RECHECK_EVERY == 0
        if recheck or res_norm <= target:
            # one explicit residual serves the periodic recheck and the exit
            # gate: the recurrence may sit a hair below the threshold while
            # the true residual sits a hair above.  Only a recheck replaces
            # the recurrence, so near-miss checks do not perturb conjugacy.
            op_x = op(x)
            r_true = rhs - op_x
            rr_true = float(r_true @ r_true)
            true_norm = math.sqrt(rr_true)
            max_drift = max(max_drift, float(np.linalg.norm(r_true - r)) / max(1.0, true_norm))
            if true_norm <= target:
                return PcgOutcome(x, k, True, max_residual_drift=max_drift, op_solution=op_x)
            if recheck:
                r, rr, res_norm = r_true, rr_true, true_norm
        if not math.isfinite(res_norm):
            raise NonFiniteError(f"non-finite residual at iteration {k}")
        if precond is None:
            z, rz_new = r, rr
        else:
            z = precond(r)
            rz_new = float(r @ z)
        if not math.isfinite(rz_new):
            raise NonFiniteError(f"non-finite preconditioned residual at iteration {k}")
        if flexible:
            p_new = z - (float(z @ q) / pq) * p
            if p_prev is not None:
                p_new -= (float(z @ q_prev) / pq_prev) * p_prev
            p_prev, q_prev, pq_prev, p = p, q, pq, p_new
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new

    return PcgOutcome(x, cap, False, max_residual_drift=max_drift)
