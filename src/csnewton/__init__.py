"""Matrix-free Newton-Krylov reconstruction for compressed sensing with
coherent and redundant dictionaries (l1-analysis and isotropic TV)."""

from .continuation import ContinuationSchedule, Stage, make_schedule, run_continuation
from .krylov import PcgOutcome, pcg_solve
from .linops import (
    LinearOperator,
    SamplingMask,
    estimate_delta,
    make_dense_dictionary,
    make_gradient2d,
    make_mask,
    make_partial_dct2,
)
from .precond import Preconditioner, SpectrumReport, spectrum_report
from .problems import (
    ProblemInstance,
    add_noise_to_psnr,
    make_itv_instance,
    psnr,
    relative_error,
    shepp_logan,
)
from .smoothing import (
    SmoothedObjective,
    build_D,
    grad_psi,
    huber_value,
    objective_grad,
    objective_value,
)
from .solver import (
    IterationRecord,
    SolverConfig,
    SolverState,
    fresh_state,
    line_search,
    project_linf,
    solve_subproblem,
)

__version__ = "0.1.0"
