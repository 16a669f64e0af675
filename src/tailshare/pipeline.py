"""Three-stage training: independent task training, proxy-based structure
selection, weighted joint training, and branch assembly.

Stage 1 trains the head task and the tail task separately from one shared
initialization seed and estimates their diagonal Fishers at the trained
parameters. The proxy grid then picks a shared depth and head weight.
Stage 2 retrains the full two-head network jointly with those weights,
again from the shared seed, and its leading trunk layers become the shared
encoder. Stage 3 splices that encoder onto the Stage-1 decoders without
any further training; an optional refinement pass may fine-tune only the
decoders afterwards with the encoder frozen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, StructuralError, TrainingDivergenceError
from .datagen import LongTailDataset, TaskSplit, project_labels, split_classes
from .nn import (
    Batch,
    ModelSpec,
    OptConfig,
    ParamVector,
    TrainResult,
    bce_losses,
    forward,
    init_params,
    train_stack,
)
from .proxy import DiagFisher, GridSearchResult, encoder_mismatch, estimate_diag_fisher, grid_search
from .tables import Record


@dataclass
class TaskData:
    """A dataset with its label projections, split, and adjustment priors."""

    features: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray
    split: TaskSplit
    priors: np.ndarray
    class_counts: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def batch(self) -> Batch:
        return Batch(self.features, self.z_a, self.z_b)


def build_task_data(
    dataset: LongTailDataset,
    split: TaskSplit | None = None,
    priors: np.ndarray | None = None,
) -> TaskData:
    """Project labels per the head/tail split.

    split and priors default to the dataset's own; oracle studies override
    them so resampled datasets keep one fixed task structure.
    """
    if split is None:
        split = split_classes(dataset.class_counts)
    if priors is None:
        priors = dataset.priors
    z_a, z_b = project_labels(dataset.labels, split)
    return TaskData(dataset.features, z_a, z_b, split, np.asarray(priors, float), dataset.class_counts)


def logit_offsets(priors: np.ndarray, tau: float) -> np.ndarray:
    """Per-class additive training offsets tau * log(prior)."""
    priors = np.asarray(priors, dtype=np.float64)
    if np.any(priors <= 0):
        raise DomainError("logit adjustment needs strictly positive class priors")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise DomainError("priors must sum to 1")
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    return tau * np.log(priors)


def task_offsets(priors: np.ndarray, tau: float, split: TaskSplit) -> tuple:
    """logit_offsets restricted to each group's columns, in group order."""
    full = logit_offsets(priors, tau)
    return full[list(split.head_classes)], full[list(split.tail_classes)]


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs besides the data itself."""

    spec: ModelSpec
    stage1_opt: OptConfig
    stage2_opt: OptConfig
    refine_opt: OptConfig | None = None
    init_seed: int = 0
    tau: float = 1.0
    logit_adjust: bool = True
    c_values: tuple | None = None
    w_values: tuple | None = None
    refine: bool = False
    warm_start_stage2: bool = False

    def __post_init__(self):
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        if self.refine and self.refine_opt is None:
            raise ConfigError("refine=True requires refine_opt")


def _offsets_for(cfg: RunConfig, td: TaskData) -> tuple:
    if not cfg.logit_adjust:
        return None, None
    return task_offsets(td.priors, cfg.tau, td.split)


@dataclass
class Stage1Result:
    params_a: ParamVector
    params_b: ParamVector
    fisher_a: DiagFisher
    fisher_b: DiagFisher
    losses_a: list
    losses_b: list


def _all_trained(results: list) -> list:
    """The members' TrainResults, or the first member's divergence raised."""
    for res in results:
        if isinstance(res, TrainingDivergenceError):
            raise res
    return results


def stage1(cfg: RunConfig, td: TaskData) -> Stage1Result:
    """Train each task independently from the shared init seed, then
    estimate the diagonal Fisher at each task's trained parameters.

    Both tasks train as one stack of two. Task-A training never reads z_b
    and vice versa (a zero task weight skips the other branch entirely).
    """
    init = init_params(cfg.spec, cfg.init_seed)
    offs = _offsets_for(cfg, td)
    res_a, res_b = _all_trained(train_stack(
        [init, init], cfg.spec, td.batch(), [(1.0, 0.0), (0.0, 1.0)], cfg.stage1_opt, offsets=offs))
    fisher_a = estimate_diag_fisher(res_a.params, cfg.spec, td.features, td.z_a, "A", offsets=offs[0])
    fisher_b = estimate_diag_fisher(res_b.params, cfg.spec, td.features, td.z_b, "B", offsets=offs[1])
    return Stage1Result(res_a.params, res_b.params, fisher_a, fisher_b,
                        res_a.epoch_losses, res_b.epoch_losses)


def select_structure(
    s1: Stage1Result,
    n_train: int,
    spec: ModelSpec,
    c_values=None,
    w_values=None,
) -> GridSearchResult:
    """Proxy grid search over (c, w_a) using the Stage-1 statistics."""
    mismatch = encoder_mismatch(s1.params_a, s1.params_b, spec.depth)
    return grid_search(s1.fisher_a, s1.fisher_b, mismatch, n_train, spec, c_values, w_values)


def stage2_stack(cfg: RunConfig, td: TaskData, w_values, s1: Stage1Result | None = None) -> list:
    """Weighted joint training of the full two-head network at every head
    weight in `w_values`, as one stack.

    Starts fresh from the shared init seed by default; with
    warm_start_stage2 the trunk and task-A head come from the Stage-1
    task-A solution and the task-B head from the task-B solution. Returns
    one TrainResult per weight, or the TrainingDivergenceError of a weight
    whose run diverged.
    """
    w_values = [float(w) for w in w_values]
    if not all(0.0 <= w <= 1.0 for w in w_values):
        raise ConfigError("w_a must lie in [0, 1]")
    if cfg.warm_start_stage2:
        if s1 is None:
            raise ConfigError("warm start requires the stage-1 result")
        start = s1.params_a.copy()
        start.block("head_b")[:] = s1.params_b.block("head_b")
    else:
        start = init_params(cfg.spec, cfg.init_seed)
    offs = _offsets_for(cfg, td)
    return train_stack([start] * len(w_values), cfg.spec, td.batch(),
                       [(w, 1.0 - w) for w in w_values], cfg.stage2_opt, offsets=offs)


def stage2(cfg: RunConfig, td: TaskData, w_a: float, s1: Stage1Result | None = None) -> TrainResult:
    """stage2_stack at one head weight; raises TrainingDivergenceError."""
    (res,) = _all_trained(stage2_stack(cfg, td, (w_a,), s1))
    return res


@dataclass
class AssembledModel:
    """Final two-branch predictor: shared encoder + task decoders.

    branch_a and branch_b are full parameter vectors whose first
    encoder_params(c) entries are bit-identical copies of the Stage-2
    encoder; everything past the slice comes from the Stage-1 task nets.
    """

    spec: ModelSpec
    c: int
    split: TaskSplit
    priors: np.ndarray
    branch_a: ParamVector
    branch_b: ParamVector

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        d = self.spec.encoder_params(self.c)
        if not np.array_equal(self.branch_a.values[:d], self.branch_b.values[:d]):
            raise StructuralError("branches must share the encoder slice bit-exactly")
        if self.priors.shape != (self.split.n_classes,):
            raise StructuralError("priors must give one value per class")

    def branch_logits(self, features: np.ndarray) -> tuple:
        feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return (
            forward(self.branch_a, self.spec, feats, "A"),
            forward(self.branch_b, self.spec, feats, "B"),
        )

    def scores(self, features: np.ndarray, posthoc_tau: float | None = None) -> np.ndarray:
        """Per-class logits mapped back to original class indices.

        posthoc_tau, when given, subtracts tau * log(prior) at inference
        (the post-hoc flavor of prior correction) instead of relying on
        training-time offsets.
        """
        s_a, s_b = self.branch_logits(features)
        out = np.empty((s_a.shape[0], self.split.n_classes), dtype=np.float64)
        out[:, list(self.split.head_classes)] = s_a
        out[:, list(self.split.tail_classes)] = s_b
        if posthoc_tau is not None:
            out = out - logit_offsets(self.priors, posthoc_tau)
        return out

    def predict(self, features: np.ndarray, posthoc_tau: float | None = None):
        """Argmax class per sample; exact ties resolve to the smallest index.

        A single feature vector yields a scalar class index.
        """
        single = np.asarray(features).ndim == 1
        picks = self.scores(features, posthoc_tau).argmax(axis=1)
        return int(picks[0]) if single else picks


def assemble(
    spec: ModelSpec,
    c: int,
    stage2_params: ParamVector,
    s1: Stage1Result,
    split: TaskSplit,
    priors: np.ndarray,
) -> AssembledModel:
    """Splice the Stage-2 encoder onto the Stage-1 decoders. No training."""
    if stage2_params.block_index != s1.params_a.block_index:
        raise StructuralError("stage-2 parameters come from a different architecture")
    d = spec.encoder_params(c)
    branch_a = s1.params_a.copy()
    branch_b = s1.params_b.copy()
    branch_a.values[:d] = stage2_params.values[:d]
    branch_b.values[:d] = stage2_params.values[:d]
    return AssembledModel(spec, c, split, np.asarray(priors, float), branch_a, branch_b)


def refine_decoders(
    model: AssembledModel,
    td: TaskData,
    opt: OptConfig,
    tau: float = 1.0,
    logit_adjust: bool = True,
) -> AssembledModel:
    """Fine-tune each branch's decoder blocks on its own task with the
    shared encoder frozen (bitwise unchanged); both branches train as one
    stack of two."""
    offs = task_offsets(td.priors, tau, td.split) if logit_adjust else (None, None)
    batch = td.batch()
    spec = model.spec
    dec_a = spec.decoder_block_names(model.c, "A")
    dec_b = spec.decoder_block_names(model.c, "B")
    res_a, res_b = _all_trained(train_stack(
        [model.branch_a, model.branch_b], spec, batch, [(1.0, 0.0), (0.0, 1.0)], opt,
        trainable=[dec_a, dec_b], offsets=offs))
    return AssembledModel(spec, model.c, model.split, model.priors, res_a.params, res_b.params)


@dataclass
class MetricsReport(Record):
    overall_accuracy: float
    head_accuracy: float
    tail_accuracy: float
    bce_a: float
    bce_b: float
    n_eval: int


def evaluate(model: AssembledModel, features: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Accuracy overall and per group, plus raw-logit task BCE."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    truth = labels.argmax(axis=1)
    picks = model.predict(features)
    correct = picks == truth
    head_rows = np.isin(truth, model.split.head_classes)
    tail_rows = np.isin(truth, model.split.tail_classes)
    z_a, z_b = project_labels(labels, model.split)
    s_a, s_b = model.branch_logits(features)
    return MetricsReport(
        overall_accuracy=float(correct.mean()),
        head_accuracy=float(correct[head_rows].mean()) if head_rows.any() else float("nan"),
        tail_accuracy=float(correct[tail_rows].mean()) if tail_rows.any() else float("nan"),
        bce_a=float(bce_losses(s_a, z_a).mean()),
        bce_b=float(bce_losses(s_b, z_b).mean()),
        n_eval=features.shape[0],
    )


@dataclass
class PipelineResult:
    task_data: TaskData
    stage1: Stage1Result
    selection: GridSearchResult
    stage2: TrainResult
    model: AssembledModel
    refined: bool
    metrics: MetricsReport | None


def full_run(
    cfg: RunConfig,
    dataset: LongTailDataset,
    eval_features: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
) -> PipelineResult:
    """All pipeline stages end to end on one dataset.

    Metrics are computed on the provided eval set when given, otherwise on
    the training data.
    """
    td = build_task_data(dataset)
    s1 = stage1(cfg, td)
    selection = select_structure(s1, td.n, cfg.spec, cfg.c_values, cfg.w_values)
    s2 = stage2(cfg, td, selection.w_star, s1)
    model = assemble(cfg.spec, selection.c_star, s2.params, s1, td.split, td.priors)
    refined = False
    if cfg.refine and cfg.refine_opt is not None and cfg.refine_opt.epochs > 0:
        model = refine_decoders(model, td, cfg.refine_opt, cfg.tau, cfg.logit_adjust)
        refined = True
    if eval_features is None:
        eval_features, eval_labels = dataset.features, dataset.labels
    metrics = evaluate(model, eval_features, eval_labels)
    return PipelineResult(td, s1, selection, s2, model, refined, metrics)
