"""Stability analysis of periodic heterogeneous vehicle formations.

Builds decentralized flock models with two or three repeating agent
types, reduces the circle system to per-mode characteristic polynomials,
evaluates closed-form necessary stability conditions, simulates the line
system under two boundary-condition families, and validates the small-
mode root-curve geometry numerically.
"""

from .conditions import (
    ConditionClause,
    ConditionReport,
    E_func,
    Overall,
    conditions,
    necessary_condition_value,
)
from .errors import (
    BlowUp,
    BranchAmbiguity,
    ConstraintViolation,
    DegenerateLeadingCoefficient,
    FlockstabError,
    HypothesisViolated,
    InvalidTolerance,
    ShapeError,
    SizeError,
)
from .model import (
    AgentParams,
    AlphaBeta,
    Arrangement,
    BoundaryCondition,
    FlockSpec,
    SystemMatrix,
    alphas_betas,
    assemble_line,
    assemble_periodic,
    build_spec,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from .rootcurves import (
    Branch,
    RootCurve,
    TangencyReport,
    branch_curvature,
    orthogonality_angle,
    right_angle_deviation,
    tangency_report,
    track_branches,
)
from .simulation import (
    ScanPoint,
    ScanResult,
    Trajectory,
    TransientReport,
    scan_N,
    simulate,
    transient,
)
from .spectral import (
    ModePolynomial,
    Spectrum,
    Stability,
    StabilityVerdict,
    Witness,
    char_poly,
    classify,
    mode_polynomial,
    mode_roots,
    spectrum_periodic,
)

__version__ = "0.1.0"
