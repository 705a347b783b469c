"""Incremental gradient solvers for strongly convex finite sums, with the
numerical machinery to verify their convergence guarantees.

The package splits into problem containers (`problems`), index-selection
schemes (`samplers`), the solvers and run driver (`solvers`), persistence
(`data_io`), the analysis checks (`theory`), the sampling hardness floor
(`lower_bounds`), and a CLI (`cli`, console script `finito`).
"""

from types import ModuleType as _ModuleType

from .problems import (BigDataReport, FiniteSumProblem, LOGISTIC, LOSS_KINDS,
                       QuadraticProblem, ReferenceSolution, SQUARED,
                       StrongConvexityRequired, prox_operator)
from .samplers import (CYCLIC, IndexSampler, PERMUTED, SAMPLING_NAMES,
                       SamplingScheme, UNIFORM)
from .solvers import (DivergenceError, FinitoState, FullGradientState,
                      SagState, SolverConfig, SOLVER_TAGS, TraceRecord,
                      finito_first_pass_step, finito_init, finito_step,
                      reference_solve, run, run_with_state, sag_default_step,
                      sag_first_pass_step, sag_init, sag_step)
from .data_io import (CheckpointFormatError, LibsvmFormatError, SynthSpec,
                      TRACE_HEADER, TraceFormatError, checkpoint_load,
                      checkpoint_save, parse_libsvm, read_trace, synth_data,
                      synth_problem, write_trace)
from .theory import (Audit, CheckReport, LyapunovTerms, admissible_parameters,
                     convexity_suite, expected_decrease_check, finito_map,
                     initial_lyapunov, lyapunov_evaluate, pair_checks,
                     rate_bound, rate_certificate, rate_curve, strong_lb_check)
from .lower_bounds import (UnseenPoint, expected_unseen,
                           first_pass_floor_trace, floor_check,
                           make_worst_case, oracle_limited_suboptimality,
                           simulate_unseen, unseen_variance)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
