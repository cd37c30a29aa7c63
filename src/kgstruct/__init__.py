"""Structural analysis of multi-relational knowledge graphs.

Ingest tab-separated edge lists, train translational embeddings, validate
them with per-relation similarity lists, compare relations three ways
(definition TF/IDF, entity-set overlap, embedding cosine), mine per-relation
substructure with k-means, and probe a relation/negation pair with
Unknown-pair sampling and cross-validated classification.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DataError,
    KgstructError,
    ParseError,
    TrainingDivergedError,
)
from .graph import (  # noqa: F401
    GraphStats,
    KnowledgeGraph,
    SplitSpec,
    compute_stats,
    filter_relations,
    parse_edge_file,
    sample_triples,
    write_generic_3col,
)
from .embedding import (  # noqa: F401
    EmbeddingTable,
    TrainConfig,
    hits_at_k,
    train,
)
from .validation import (  # noqa: F401
    RelationProfile,
    ValidationRecord,
    kl_divergence,
    similarity_lists,
    spearman_rho,
    validate_relation,
)
from .relsim import (  # noqa: F401
    DefinitionCorpus,
    NearestRelationTable,
    SimilarityMatrix,
    embedding_similarity_matrix,
    jaccard_overlap_matrix,
    mutual_nearest_pairs,
    nearest_relations,
    tfidf_similarity_matrix,
)
from .cluster import (  # noqa: F401
    ClusteringResult,
    ClusterQualityReport,
    KSelectionCurve,
    Projection2D,
    calinski_harabasz_index,
    cohesion_scores,
    davies_bouldin_index,
    k_selection_scores,
    lloyd_kmeans,
    pca_project_2d,
    quality_report,
    relation_point_set,
    sample_cluster_exemplars,
    separation_scores,
    silhouette_score,
)
from .classify import (  # noqa: F401
    CvReport,
    ForestConfig,
    LogisticConfig,
    cross_validate,
)
from .negation import (  # noqa: F401
    NegationStudyReport,
    PairUniverse,
    UnknownSample,
    assemble_dataset,
    build_pair_universe,
    run_negation_study,
    sample_unknown_pairs,
    tail_sampling_ratio,
)
from .synth import (  # noqa: F401
    GraphPlan,
    RelationPlan,
    demo_plan,
    desk_scale_plan,
    synthetic_graph,
)
from .report import (  # noqa: F401
    PipelineConfig,
    ReportBundle,
    emit_matrix_csv,
    run_pipeline,
)
