"""Exact Gelfand-Tsetlin realizations of simple sl_n modules.

From an integer partition this package enumerates Gelfand-Tsetlin patterns,
builds generator matrices over an exact field of rational combinations of
square roots, verifies the defining bracket relations, computes weights,
certifies simplicity by which patterns the lowering monomials reach (with
the exact basis-matrix rank as fallback), and constructs lowering-monomial
families with exact rank checks.
"""

from .monomials import (
    MonomialFamily,
    UnsupportedScheduleError,
    basis_matrix,
    family_from_json,
    family_to_json,
    monomial_family,
    rank,
)
from .operators import (
    GTModule,
    GeneratorSpec,
    InternalConsistencyError,
    OperatorMatrix,
    RelationReport,
    act_diag,
    act_lower,
    act_raise,
    commutator,
    general_element,
    matrix_from_json,
    matrix_market,
    matrix_to_json,
    operator_matrix,
    verify_sln_relations,
)
from .patterns import (
    GTPattern,
    Partition,
    PatternShapeError,
    dimension,
    enumerate_patterns,
    highest_pattern,
    validate,
)
from .raising import (
    CertificationError,
    GeneratorWord,
    RaiseOutcome,
    SimplicityReport,
    apply_word,
    canonical_row_order,
    raise_sum_to_highest,
    raising_word,
    simplicity_certificate,
    verify_raise,
)
from .scalars import RadicalScalar, sqrt_rational, squarefree_decompose
from .weights import (
    epsilon_string,
    fundamental_coords,
    fundamental_string,
    highest_weight,
    weight_decomposition,
    weight_from_json,
    weight_of,
    weight_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "GTModule",
    "GTPattern",
    "GeneratorSpec",
    "GeneratorWord",
    "InternalConsistencyError",
    "MonomialFamily",
    "OperatorMatrix",
    "Partition",
    "PatternShapeError",
    "RadicalScalar",
    "RaiseOutcome",
    "RelationReport",
    "SimplicityReport",
    "UnsupportedScheduleError",
    "act_diag",
    "act_lower",
    "act_raise",
    "apply_word",
    "basis_matrix",
    "canonical_row_order",
    "commutator",
    "dimension",
    "enumerate_patterns",
    "epsilon_string",
    "family_from_json",
    "family_to_json",
    "fundamental_coords",
    "fundamental_string",
    "general_element",
    "highest_pattern",
    "highest_weight",
    "matrix_from_json",
    "matrix_market",
    "matrix_to_json",
    "monomial_family",
    "operator_matrix",
    "raise_sum_to_highest",
    "raising_word",
    "rank",
    "simplicity_certificate",
    "sqrt_rational",
    "squarefree_decompose",
    "validate",
    "verify_raise",
    "verify_sln_relations",
    "weight_decomposition",
    "weight_from_json",
    "weight_of",
    "weight_to_json",
]
