"""tailshare: head/tail task decomposition for long-tailed classification.

Splits a long-tailed single-label problem into a head task and a tail
task, trains them through a three-stage pipeline with a shared encoder,
and selects the shared depth and task weights by a computable
bias-variance proxy built from diagonal empirical Fisher statistics.
Exact information-theoretic oracles validate the proxy at desk scale.
"""

from .datagen import (
    GenConfig,
    LongTailDataset,
    MixtureGenerator,
    TaskSplit,
    build_generator,
    generate,
    holdout_split,
    load_csv,
    project_labels,
    sample_iid,
    save_csv,
    split_classes,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    MissingArtifactError,
    StructuralError,
    SupportError,
    TrainingDivergenceError,
)
from .infotheory import (
    DiscreteJoint,
    FactorizedConditional,
    conditional_mutual_information,
    decomposition_residual,
    decomposition_terms,
    kl,
    mutual_information,
    residual_sweep,
    taskwise_risk,
)
from .nn import Batch, ModelSpec, OptConfig, ParamVector, bce_loss_grad, forward, init_params, train
from .oracle import (
    AnchorStats,
    OracleReport,
    SweepReport,
    bernoulli_logit_anchor,
    grid_compare,
    spearman,
    weight_sweep,
)
from .pipeline import (
    AssembledModel,
    MetricsReport,
    PipelineResult,
    RunConfig,
    Stage1Result,
    TaskData,
    assemble,
    build_task_data,
    evaluate,
    full_run,
    logit_offsets,
    refine_decoders,
    select_structure,
    stage1,
    stage2,
    task_offsets,
)
from .proxy import (
    DiagFisher,
    GridSearchResult,
    MismatchVector,
    ProxyBreakdown,
    encoder_mismatch,
    estimate_diag_fisher,
    grid_search,
    proxy_eval,
)

__version__ = "0.1.0"
