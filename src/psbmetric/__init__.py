"""Verification toolkit for partial S_b-metric spaces.

Checks the defining axioms on concrete spaces, builds and classifies the
induced topology on finite carriers, certifies interpolative contraction
inequalities, and runs Picard fixed-point iteration with diagnostics.
"""

from .errors import (
    DistanceOverflow,
    EmptySubfamily,
    IncompleteTable,
    InfeasibleExhaustive,
    InvalidArgument,
    InvalidExponents,
    NegativeValue,
    NotAFixedPoint,
    ParseError,
    PsbmError,
    UnknownBuiltin,
    UnknownPoint,
    WrongSpaceShape,
)
from .spaces import (
    AxiomReport,
    AxiomSet,
    BUILTIN_SPACES,
    FiniteCarrier,
    PartialSbSpace,
    Point,
    RegionCarrier,
    RuleMetric,
    TabulatedMetric,
    Violation,
    builtin_space,
    check_axioms,
    exhaustive_points,
    load_tabulated_space,
    parse_point,
    quintic,
    random_tabulated_space,
    random_valid_space,
    require_point,
    sample_carrier,
    tabulated_space,
)
from .topology import (
    CoverFamily,
    FiniteTopology,
    OpenBall,
    SeparationReport,
    ball_base_witness,
    generate_topology,
    is_connected,
    open_ball,
    separation_report,
    uncovered_witness,
    verify_topology_axioms,
    witness_candidates,
)
from .comparison import (
    BOYD_WONG,
    MATKOWSKI,
    ComparisonFn,
    ComparisonReport,
    PropertyCheck,
    builtin_comparison,
    check_boyd_wong_properties,
    check_matkowski_properties,
    load_piecewise,
    piecewise_linear,
)
from .contraction import (
    CaseRow,
    CaseTable,
    CertificateReport,
    InequalitySides,
    InterpolativeSpec,
    REFERENCE_BOUNDS,
    SelfMap,
    builtin_map,
    certify,
    fixed_points_bruteforce,
    map_from_table,
    ray_grid,
    reproduce_case_table,
    standard_spec,
    validate_exponents,
)
from .fixpoint import (
    IterationTrace,
    matkowski_envelope_check,
    picard_iterate,
    trace_to_csv,
    uniqueness_check,
    verify_fixed_point,
)
from .repro import run_repro
