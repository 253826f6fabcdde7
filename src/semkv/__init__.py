"""semkv: head-aware KV-cache compression over attention traces.

Classifies attention heads by how far their semantic vectors sit from the
layer's semantic center, allocates differentiated per-head cache budgets,
applies eviction policies, and measures the fidelity and memory cost of the
compressed cache against the full one.
"""

from .allocator import (
    BudgetPlan,
    MemoryFootprint,
    MiddleCount,
    PolicyKind,
    apply_policy,
    check_plans,
    expand_runs,
    middle_activation_count,
    pool_scores,
    runs_of,
    select_retained_runs,
)
from .contribution import (
    BoundSuiteReport,
    MHAInstance,
    contribution_bounds,
    head_contributions,
    head_contributions_longform,
    verify_bound_suite,
)
from .errors import (
    AllHeadsHeterogeneousError,
    CacheConsistencyError,
    DimensionError,
    EmptyInputError,
    InfeasibleBudgetError,
    ParameterError,
    PlanFormatError,
    SemkvError,
    TraceFormatError,
    TraceTruncationError,
    UnsupportedDtypeError,
)
from .harness import (
    FidelityReport,
    RunConfig,
    RunResult,
    build_eval_report,
    compress_run,
    export_pca_csv,
    export_report,
    fidelity_eval,
    load_trace_for,
    run_all,
)
from .linalg import (
    AttentionInputs,
    attention_weights,
    pca_2d,
    spectral_norm,
)
from .separator import (
    HeadClass,
    HeterogeneitySchedule,
    approx_semantic_vector,
    build_layer_profiles,
    classify_heads,
    head_distances,
    heterogeneous_schedule,
    semantic_vector_full,
    top_t_indices,
    window_column_scores,
)
from .trace import (
    AttentionTrace,
    SyntheticProfile,
    TraceHeader,
    clustered_planted_heads,
    gen_synthetic_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
