"""The previous ``pcg_solve`` loop, kept verbatim as the reference that the
allocation-light loop in ``csnewton.krylov`` must match bit for bit: the
same solution, iteration count, flags and residual drift, and the same
``NegativeCurvatureError`` on nonpositive curvature."""

from typing import Callable, Optional

import numpy as np

from csnewton.krylov import RECHECK_EVERY, NegativeCurvatureError, NonFiniteError, PcgOutcome


def reference_pcg_solve(
    op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    eta: float = 0.1,
    *,
    cap: int,
) -> PcgOutcome:
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
            raise NegativeCurvatureError(f"nonpositive curvature p^T op(p) = {pq} at iteration {k}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        res_norm = float(np.linalg.norm(r))
        recheck = k % RECHECK_EVERY == 0
        if recheck or res_norm <= target:
            # one explicit residual serves the periodic recheck and the exit
            # gate: the recurrence may sit a hair below the threshold while
            # the true residual sits a hair above.  Only a recheck replaces
            # the recurrence, so near-miss checks do not perturb conjugacy.
            r_true = rhs - op(x)
            true_norm = float(np.linalg.norm(r_true))
            max_drift = max(max_drift, float(np.linalg.norm(r_true - r)) / max(1.0, true_norm))
            if true_norm <= target:
                return PcgOutcome(x, k, True, max_residual_drift=max_drift)
            if recheck:
                r, res_norm = r_true, true_norm
        if not np.isfinite(res_norm):
            raise NonFiniteError(f"non-finite residual at iteration {k}")
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NonFiniteError(f"non-finite preconditioned residual at iteration {k}")
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    return PcgOutcome(x, cap, False, max_residual_drift=max_drift)
