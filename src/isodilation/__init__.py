"""Construction and numerical verification of m-isometric dilations.

The package builds the block dilation W = [T; U; S1; S2; ...] of an
expansive m-concave operator (or a 3-concave operator without expansivity),
verifies every checkable identity on exact truncation windows, and exposes
the whole flow through spec files and the `dilate` command line tool.
"""

from .__about__ import __version__
from .builder import (
    AssembledDilation,
    DilationModel,
    assemble_dilation,
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
    build_weights,
)
from .diagonal import (
    DiagonalModel,
    build_diagonal_model,
    defect_diagonal,
    dense_agreement_residual,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    HermitianityError,
    IllDefinedFormError,
    IsodilationError,
    NotInvertibleError,
    NotNegativeError,
    NotPsdError,
    PreconditionError,
    SpecError,
    SpecParseError,
    SpecValidationError,
    UnknownDemoError,
    WeightRuleError,
    WindowExhaustedError,
)
from .hermitian import (
    EigenDecomposition,
    HermitianMatrix,
    eigh,
    hermitian,
    psd_check,
    psd_root,
)
from .operators import (
    Classification,
    OperatorCorner,
    WeightRule,
    classify,
    defect_form,
    dense_corner,
    make_shift_corner,
)
from .pipeline import (
    DEMOS,
    PipelineResult,
    classify_spec,
    demo,
    demo_spec,
    emit_report,
    run_pipeline,
)
from .qsolver import QSolution, solve_q_shift_diagonal, solve_q_unitary, verify_q
from .specfile import OperatorSpecFile, emit_spec, parse_spec, spec_from_dict
from .tolerances import DEFAULT_SEED, DEFAULT_TOLERANCES, DEFAULT_TRIALS, Tolerances
from .verifier import (
    CheckResult,
    VerificationReport,
    check_criterion_identity,
    check_cumulative_polynomial,
    check_dilation_property,
    check_minimality,
    check_powers_formula,
    check_w_m_isometry,
    check_weight_shift_isometry,
    nonisomorphism_certificate,
    orbit_grams,
    remark_consistency,
)
