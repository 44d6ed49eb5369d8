"""Common fixed points for families of contractive-type mappings.

The package is layered: metric spaces and axiom checks (``metric_core``),
the contractive conditions and coefficient synthesis (``contraction``),
the certified alternating iteration (``solver``), reduction of three- and
four-mapping problems to two (``reduction``), instance generation with
ground truth (``oracle``), JSON problem files (``problem``), and a
command line (``cli``).
"""

from types import ModuleType as _ModuleType

from .errors import (
    BoundViolation,
    CofixError,
    ConditionViolated,
    DomainError,
    ExhaustiveOnInfinite,
    Infeasible,
    LiftDisagreement,
    LiftMismatch,
    NonInvertibleMapping,
    NonUniqueCoincidence,
    PreconditionError,
    RangeInclusionFailure,
    RepairFailure,
    SchemaError,
)
from .metric_core import (
    AxiomCheck,
    AxiomReport,
    Flavor,
    MetricSpace,
    Point,
    verify_metric_axioms,
)
from .contraction import (
    EXHAUSTIVE,
    AffineMapping,
    Arity,
    Coefficients,
    InclusionCheck,
    InclusionReport,
    MappingSet,
    SampledPairs,
    TableMapping,
    ViolationReport,
    check_condition,
    check_range_inclusions,
    identity_mapping,
    synthesize_coefficients,
)
from .solver import (
    IterationTrace,
    SolveReport,
    SolveStatus,
    UniquenessVerdict,
    apriori_error_bound,
    picard_solve,
    rate_constant,
    uniqueness_check,
)
from .reduction import (
    AffineSection,
    CoincidenceReport,
    CoincidenceSolutions,
    InducedPair,
    PipelineOptions,
    PipelineStatus,
    TableSection,
    WeakCompatibility,
    coincidence_points,
    induce,
    injective_restriction,
    is_weakly_compatible,
    lift_to_common_fixed_point,
    require_lift_agreement,
    solve_pipeline,
)
from .oracle import (
    CoincidenceClass,
    FuzzSummary,
    GeneratedInstance,
    InstanceRecipe,
    MappingMode,
    MetricMode,
    OracleResult,
    enumerate_fixed_points,
    generate_instance,
    metric_closure_repair,
    oracle_summary,
    run_fuzz,
)
from .problem import Problem, as_problem, load_problem, problem_to_dict

__version__ = "0.1.0"

# every public name imported above, submodules aside
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
