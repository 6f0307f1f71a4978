"""Decision forest laboratory.

Exact and Monte-Carlo tooling for decision forests over finite probe
spaces: evaluation and restriction, entropy and collision analysis,
probe-count smoothness, coupling experiments, and a verification harness
with seeded instance corpora and a CSV ledger.
"""

from .analysis import (
    ConditionalEntropyDetail,
    Distribution,
    IndependentEnsemble,
    OutcomeSet,
    collision_probability,
    conditional_entropy_detail,
    cube_distances_to_set,
    derive_seed,
    ensemble_collision_probability,
    entropy,
    hoeffding_halfwidth,
    monte_carlo_conditional_entropy,
    neighborhood,
    output_distribution,
    parse_distribution,
    sample_ensemble,
    sample_forest_outputs,
    tv_distance,
    tv_lower_bound_via_collision,
    uniform_ensemble,
)
from .forest import (
    DEFAULT_SET_BUDGET,
    DEFAULT_STATE_BUDGET,
    BucketStructure,
    BudgetError,
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    LipschitzReport,
    OutputSpace,
    QueryProfile,
    Transcript,
    UsageError,
    check_lipschitz,
    dumps_forest,
    eval_forest,
    eval_tree,
    expected_query_counts,
    forest_from_json,
    forest_to_json,
    is_bucketed,
    prune_on_query_set,
    query_profile,
    restrict,
)
from .harness import (
    CouplingSample,
    DepthReductionReport,
    RestrictionTrace,
    bucketed_dichotomy_experiment,
    collision_ensemble_report,
    containment_set,
    couple_accepting,
    coupled_sample,
    depth_reduction_step,
    enforce_avg_lipschitz,
    verify_at_least_two,
    verify_avg_to_tail_lipschitz,
    verify_chain_bound,
    verify_collision_tv,
    verify_entropy_deviation,
    verify_harper,
    verify_light_mass,
    verify_lipschitz_after_conditioning,
    verify_mixture_bound,
    verify_second_moment_tail,
    verify_sum_ratio_bound,
    verify_taylor_bound,
)
from .report import (
    LEDGER_HEADER,
    ExperimentReport,
    append_ledger,
    default_ledger_path,
    ledger_row,
)
from .samplers import (
    ForestGenSpec,
    ThorpSpec,
    coin_cell,
    random_forest,
    thorp_bucket_structure,
    thorp_forest,
    thorp_network_permutation,
    uniform_perm_distribution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
