"""Near-MDS code constructions over GF(2^m) and their LRC optimality.

Twelve dimension-3 code families built from a quadratic evaluation block
plus fixed tail columns, with exact weight distributions, NMDS
classification, minimum-weight pairing, locality and bound checks.
"""

from .field import DEFAULT_MODULI, GF2m, poly_to_str
from .codes import (
    LinearCode,
    WeightDistribution,
    dual_distance_exact,
    macwilliams,
    matrix_to_text,
    min_weight_codewords,
    min_weight_dual_codewords,
    weight_distribution,
)
from .constructions import (
    CONSTRUCTION_IDS,
    CONSTRUCTIONS,
    build,
    expected_locality,
    expected_profile,
    m_constraint_ok,
    verify_construction,
)
from .classify import (
    CodeClass,
    check_min_weight_pairing,
    classify,
    nmds_dual_distribution_from_Ak,
    nmds_primal_distribution_from_Ank,
)
from .lrc import (
    LocalityReport,
    OptimalityReport,
    classify_lrc,
    cm_bound_dimension,
    k_opt_singleton,
    locality_of_code,
    locality_of_dual,
    repair_map,
    repair_value,
    singleton_like_bound,
)
