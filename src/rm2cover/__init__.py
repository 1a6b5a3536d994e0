"""Exact nonlinearity analysis for Boolean functions of up to 7 variables.

The library recomputes second-order nonlinearities, coset-nonlinearity
profiles and concatenation bounds for a catalog of named 6-variable
functions, verifies the reported values claim by claim, and runs a
budgeted search for 7-variable functions of second-order nonlinearity
42 (a covering-radius lower-bound witness for the order-2 length-128
Reed-Muller code).
"""

from .core import (
    AnfPolynomial,
    TruthTable,
    WalshSpectrum,
    anf_from_truth_table,
    concatenate,
    degree,
    distance,
    nonlinearity,
    split,
    truth_table_from_anf,
    walsh_spectrum,
    weight,
)
from .affine import (
    AffineMap,
    EquivalenceResult,
    EquivalenceWitness,
    apply_affine,
    equivalence_search,
    is_invertible,
    random_affine_map,
)
from .quadratic import (
    FhSet,
    Nl2Result,
    NlProfile,
    QuadraticForm,
    coset_nonlinearities,
    coset_values,
    fh_set,
    level_set_outside,
    max_nl_over_quadratics,
    min_coset_nonlinearity,
    nfh_profile,
    second_order_nonlinearity,
)
from .catalog import catalog_anf, catalog_anf_string, catalog_function, catalog_names
from .claims import (
    ClaimResult,
    lemma2_conclusion_check,
    lemma2_hypothesis,
    proposition_spot_checks,
    summarize,
    verify_all,
    verify_nl2_values,
    verify_observation_1,
    verify_profile_claims,
    verify_remark_1,
)
from .search import SearchConfig, SearchRecord, SearchSummary, exact_nl2_7, witness_search

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AnfPolynomial",
    "ClaimResult",
    "EquivalenceResult",
    "EquivalenceWitness",
    "FhSet",
    "Nl2Result",
    "NlProfile",
    "QuadraticForm",
    "SearchConfig",
    "SearchRecord",
    "SearchSummary",
    "TruthTable",
    "WalshSpectrum",
    "anf_from_truth_table",
    "apply_affine",
    "catalog_anf",
    "catalog_anf_string",
    "catalog_function",
    "catalog_names",
    "concatenate",
    "coset_nonlinearities",
    "coset_values",
    "degree",
    "distance",
    "equivalence_search",
    "exact_nl2_7",
    "fh_set",
    "is_invertible",
    "lemma2_conclusion_check",
    "lemma2_hypothesis",
    "level_set_outside",
    "max_nl_over_quadratics",
    "min_coset_nonlinearity",
    "nfh_profile",
    "nonlinearity",
    "proposition_spot_checks",
    "random_affine_map",
    "second_order_nonlinearity",
    "split",
    "summarize",
    "truth_table_from_anf",
    "verify_all",
    "verify_nl2_values",
    "verify_observation_1",
    "verify_profile_claims",
    "verify_remark_1",
    "walsh_spectrum",
    "weight",
    "witness_search",
]
