"""Direct-shooting optimal control by gradient flow in virtual time.

The solver parameterizes only the control, satisfies the dynamics by
time-marching integration, and drives the parameters (and optionally the
terminal time) along an ordinary differential equation in a virtual time
whose asymptotically stable equilibrium satisfies the parameterized
optimality conditions.  On top of the primal solution it reconstructs the
costates, the terminal-constraint multiplier, and the optimality residuals
that certify the result.
"""

from .errors import (ConfigurationError, DependentBasisError,
                     DerivativeMismatchError, DimensionError, DivergenceError,
                     DomainError, IntegrationError, MultiplierBoundWarning,
                     OcflowError, RankError, StepBudgetError)
from .integrate import DenseTrajectory, OdeSettings, integrate_ivp, replay_linear
from .quadrature import QuadratureSpec, simpson_points
from .problem import (Gains, OcpProblem, SolveReport, SolveTrace, TraceRow,
                      ValidationReport, simulate_control, validate_problem)
from .parameterization import (FORM1, FORM2, Parameterization, make_basis,
                               validate_independence)
from .sensitivity import (AdjointBundle, ThetaQuantities, assemble_form1,
                          assemble_form2, nlp_gradients, solve_adjoints, solve_state)
from .evolution import (EvolutionMode, EvolutionState, IterateEval, StopCriteria,
                        evaluate_iterate, evaluate_iterates, gradient_flow_generic,
                        lyapunov_diagnostic, multiplier, solve_evolution)
from .costate import (CostateTrajectory, OptimalityResiduals,
                      continuous_multiplier, optimality_residuals,
                      reconstruct_costate)
from .projection import (BasisSet, InnerProductSpec, DualResidualReport, project,
                         projected_stationarity_check, weighted_norm)
from .problems import (AnalyticOracle, BuiltinProblem, OracleErrors,
                       example1_analytic_report, get_problem, list_problems,
                       make_example1, make_example2, register_problem)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
