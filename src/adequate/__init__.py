"""Finite semigroup computations around abundance, adequacy and adequate
transversals: starred Green's relations, classification predicates, the
transversal decomposition maps, the triple / spined / semidirect structure
builders, and the converse extraction round-trips.
"""

from .core import (
    BandClassification,
    FiniteSemigroup,
    Partition,
    band_class,
    direct_product,
    enumerate_congruences,
    enumerate_subsemigroups,
    find_isomorphism,
    generated_subsemigroup,
    quotient,
    restrict,
    validate_table,
)
from .greenstar import (
    AbundanceProfile,
    StarPlusMaps,
    StarRelations,
    abundance_profile,
    band_j_class,
    delta,
    green_relations,
    is_admissible,
    min_adequate_admissible_congruence,
    regular_and_inverses,
    star_plus,
    star_relations,
)
from .transversal import (
    TransversalDecomposition,
    TransversalProfile,
    audit_identities,
    canonical_inverse,
    find_adequate_transversals,
    is_star_subsemigroup,
    transversal_profile,
    verify_adequate_transversal,
)
from .construct import (
    ActionTable,
    BuiltSemigroup,
    StructureInput,
    build_quasi_ideal_w,
    build_semidirect,
    build_spined_product,
    build_w,
    canonical_alpha_beta,
    check_section4_specialization,
    validate_action_table,
    validate_structure_input,
)
from .decompose import (
    RoundtripReport,
    extract_action,
    extract_spined_factors,
    extract_structure,
    roundtrip,
)
from .catalog import catalog, standard_catalog
from .census import census_counts, enumerate_semigroups
