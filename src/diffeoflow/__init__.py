"""Grid-scale realizations of diffeomorphism groups of R^n.

The package turns displacements ``g`` with a decay class (compactly
supported, rapidly decreasing, square-integrable-to-all-orders, or merely
bounded) into computable group elements ``x + g(x)``: composition,
inversion, conjugation, jets with Faa di Bruno composition and reversion,
flows of time-dependent vector fields with certified bounds, and a decay
classifier that assigns the narrowest class the grid data supports.
"""

from .decay import (
    DecayClass,
    SeminormReport,
    ShellFit,
    class_from_name,
    classify_decay,
    extrapolation_for,
    widest,
)
from .descriptors import parse_scalar, parse_vector
from .errors import (
    DescriptorError,
    EngineError,
    FieldError,
    FileFormatError,
    FlowBlowupError,
    FlowDomainError,
    InsufficientAnnuliError,
    InversionError,
    JetError,
    NonDiffeoError,
    SingularJacobianError,
    UnderResolvedError,
    UnsupportedOrderError,
)
from .fields import (
    DisplacementField,
    Grid,
    ScalarField,
    partial_derivative,
    sample,
    sobolev_seminorm,
    sup_seminorm,
    weighted_seminorm,
)
from .flows import (
    FlowResult,
    TimeDependentVectorField,
    displacement_sup_bound,
    evolve,
    gronwall_bound,
    right_log_derivative,
    sobolev_tracking,
)
from .group import (
    Diffeo,
    compose,
    conjugate,
    invert,
    membership_check,
)
from .io import (
    read_diffeo,
    read_displacement,
    stable_json_dumps,
    write_diffeo,
    write_displacement,
    write_report,
    write_time_series_csv,
)
from .jets import (
    Jet,
    compose_jets,
    inverse_norm_bound,
    invert_jet,
    jet_from_displacement,
    ordered_compositions,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "DecayClass", "SeminormReport", "ShellFit", "class_from_name",
    "classify_decay", "extrapolation_for", "widest",
    "parse_scalar", "parse_vector",
    "EngineError", "DescriptorError", "FieldError", "UnsupportedOrderError",
    "InsufficientAnnuliError", "JetError", "SingularJacobianError",
    "NonDiffeoError", "UnderResolvedError", "InversionError",
    "FlowDomainError", "FlowBlowupError", "FileFormatError",
    "Grid", "ScalarField", "DisplacementField", "sample",
    "partial_derivative", "sup_seminorm", "weighted_seminorm", "sobolev_seminorm",
    "FlowResult", "TimeDependentVectorField", "evolve",
    "displacement_sup_bound", "gronwall_bound", "sobolev_tracking",
    "right_log_derivative",
    "Diffeo", "membership_check", "compose", "invert", "conjugate",
    "read_diffeo", "read_displacement", "stable_json_dumps", "write_diffeo",
    "write_displacement", "write_report", "write_time_series_csv",
    "Jet", "compose_jets", "invert_jet", "inverse_norm_bound",
    "jet_from_displacement", "ordered_compositions", "symmetrize",
    "__version__",
]
