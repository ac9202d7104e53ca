"""Corepresentations of continuous groups with an antilinear coset.

Build groups of the form G + a0*G from a matrix Lie group G and an
antilinear operation a0 with a0^2 = +-1, classify the coirrep as type a or
type b, extract the subgroup and coset infinitesimal generators, and verify
numerically how the three commutator families close and what the real
algebra dimension is.
"""

from .algebra import (
    AlgebraDimension,
    ClosureReport,
    algebra_dimension,
    closure_reports,
    field_bracket,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from .catalog import CATALOG_NAMES, catalog_entry
from .coirrep import Side, coirrep_matrix
from .config import ConfigError, GroupConfig, Tolerances, load_config, parse_config
from .group_core import (
    AntilinearExtension,
    CoirrepType,
    GroupElement,
    InconsistentExtensionError,
    LieGroupSpec,
    Linearity,
    a0_square_sign,
    classify_coirrep,
    compose,
    exp_curve,
)
from .infinitesimal import (
    DifferentiationError,
    GeneratorBasis,
    central_derivative,
    generator_basis,
)
from .report import RunReport, emit_machine, format_human, parse_machine, run_verification

__version__ = "0.1.0"

__all__ = [
    "AlgebraDimension",
    "AntilinearExtension",
    "CATALOG_NAMES",
    "ClosureReport",
    "CoirrepType",
    "ConfigError",
    "DifferentiationError",
    "GeneratorBasis",
    "GroupConfig",
    "GroupElement",
    "InconsistentExtensionError",
    "LieGroupSpec",
    "Linearity",
    "RunReport",
    "Side",
    "Tolerances",
    "a0_square_sign",
    "algebra_dimension",
    "catalog_entry",
    "central_derivative",
    "classify_coirrep",
    "closure_reports",
    "coirrep_matrix",
    "compose",
    "emit_machine",
    "exp_curve",
    "field_bracket",
    "format_human",
    "generator_basis",
    "load_config",
    "parse_config",
    "parse_machine",
    "run_verification",
    "sub_sub_closure_report",
    "verify_coset_coset_closure",
    "verify_mixed_closure",
]
