"""Graph-based approximate nearest neighbor search with probabilistic routing gates."""

from .errors import (
    AnnRouteError,
    CorruptionError,
    DegenerateInputError,
    FormatError,
    UsageError,
)
from .vecstore import (
    Dataset,
    Metric,
    PermutationPlan,
    apply_permutation,
    build_permutation,
    distance,
    load_fvecs,
    load_ivecs,
    normalize,
    save_fvecs,
    save_ivecs,
)
from .projections import (
    ProjectionEnsemble,
    QueryProjectionTable,
    RNG_ID,
    generate_ensemble,
    project_query,
)
from .routing import (
    EdgeMetaBlock,
    PartitionStats,
    RoutingConfig,
    RoutingMode,
    ScalarQuantizer,
    SimHashSketch,
    batch_peos_test,
    build_quantile_table,
    estimate_partition_stats,
    generate_simhash_hashes,
    required_m_rceos,
    simhash_sketch,
    w_reg_lower_bound,
)
from .hnsw import HnswIndex, brute_force_all, build_hnsw
from .edgestore import attach, edge_residual_avgs
from .query import AuditTrace, SearchParams, SearchStats, search
from .indexfile import load_index, save_index
from .bench import (
    AuditReport,
    BenchmarkSpec,
    RunResult,
    audit_guarantee,
    compute_recall,
    run_audit,
    run_sweep,
    synthetic_dataset,
)

__version__ = "0.1.0"
