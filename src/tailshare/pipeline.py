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
    _all_trained,
    _finite,
    bce_losses,
    forward_from,
    init_params,
    train_stack,
    trunk_activations,
)
from .proxy import DiagFisher, GridSearchResult, candidate_grid, estimate_diag_fisher, grid_search
from .tables import Record


@dataclass
class TaskData(Batch):
    """The checked batch of a dataset's features and head/tail label
    projections, plus the split behind them and the adjustment priors."""

    split: TaskSplit
    priors: np.ndarray

    def batch(self) -> Batch:
        """The record itself, which is already the batch."""
        return self


def build_task_data(
    dataset: LongTailDataset,
    split: TaskSplit | None = None,
    priors: np.ndarray | None = None,
) -> TaskData:
    """Project labels per the head/tail split into the batch every stage trains on.

    split and priors default to the dataset's own; oracle studies override
    them so resampled datasets keep one fixed task structure.
    """
    if split is None:
        split = split_classes(dataset.class_counts)
    if priors is None:
        priors = dataset.priors
    z_a, z_b = project_labels(dataset.labels, split)
    return TaskData(dataset.features, z_a, z_b, split, np.asarray(priors, float))


@dataclass(frozen=True)
class RunConfig:
    """Everything the stages need besides the data itself."""

    spec: ModelSpec
    stage1_opt: OptConfig
    stage2_opt: OptConfig
    refine_opt: OptConfig
    init_seed: int = 0
    tau: float = 1.0

    def __post_init__(self):
        if self.tau < 0:
            raise ConfigError(f"tau must be >= 0, got {self.tau}")


def class_offsets(tau: float, priors) -> np.ndarray | None:
    """Per-class additive training offsets tau * log(prior); None at tau 0
    (the plain loss). The priors must be positive and sum to 1, and a tau
    whose offsets overflow raises DomainError, without a warning."""
    if tau == 0:
        return None
    priors = np.asarray(priors, dtype=np.float64)
    if np.any(priors <= 0) or abs(priors.sum() - 1.0) > 1e-9:
        raise DomainError(f"logit adjustment needs positive class priors that sum to 1, got {priors}")
    with np.errstate(over="ignore"):
        full = tau * np.log(priors)
    if not _finite(full):
        raise DomainError(f"the offsets tau * log(prior) overflow at tau {tau} and prior {float(priors.min())}")
    return full


def _offsets_for(cfg: RunConfig, td: TaskData) -> tuple:
    """class_offsets at cfg.tau and td's priors, per group in group order;
    none at tau 0."""
    full = class_offsets(cfg.tau, td.priors)
    if full is None:
        return None, None
    return full[list(td.split.head_classes)], full[list(td.split.tail_classes)]


@dataclass
class Stage1Result:
    params_a: ParamVector
    params_b: ParamVector
    fisher_a: DiagFisher
    fisher_b: DiagFisher
    losses_a: list
    losses_b: list


def stage1(cfg: RunConfig, td: TaskData) -> Stage1Result:
    """Train each task independently from the shared init seed, then
    estimate the diagonal Fisher at each task's trained parameters
    (stage1_result).

    Both tasks train as one stack of two. Task-A training never reads z_b
    and vice versa (a zero task weight skips the other branch entirely).
    """
    init = init_params(cfg.spec, cfg.init_seed)
    res_a, res_b = _all_trained(train_stack(
        [init, init], cfg.spec, td, [(1.0, 0.0), (0.0, 1.0)], cfg.stage1_opt, offsets=_offsets_for(cfg, td)))
    return stage1_result(cfg, td, res_a, res_b)


def stage1_result(cfg: RunConfig, td: TaskData, res_a: TrainResult, res_b: TrainResult) -> Stage1Result:
    """The Stage1Result of the trained task-A and task-B networks: their
    parameters and epoch losses, and the diagonal Fisher of each at its
    own task. A Fisher that overflows raises DomainError, without a
    warning."""
    offs = _offsets_for(cfg, td)
    with np.errstate(over="ignore", invalid="ignore"):
        fisher_a = estimate_diag_fisher(res_a.params, cfg.spec, td.features, td.z_a, "A", offsets=offs[0])
        fisher_b = estimate_diag_fisher(res_b.params, cfg.spec, td.features, td.z_b, "B", offsets=offs[1])
    for name, fisher in (("fisher_a", fisher_a), ("fisher_b", fisher_b)):
        if not _finite(fisher.values):
            raise DomainError(f"{name} has a non-finite entry: the Stage-1 Fisher overflowed")
    return Stage1Result(res_a.params, res_b.params, fisher_a, fisher_b,
                        res_a.epoch_losses, res_b.epoch_losses)


def select_structure(
    s1: Stage1Result,
    n_train: int,
    spec: ModelSpec,
    c_values=None,
    w_values=None,
) -> GridSearchResult:
    """Proxy grid search over (c, w_a) using the Stage-1 statistics.
    grid_search takes each trunk layer's mismatch straight from the two
    parameter vectors, so no copy of the encoder is made: the table is
    grid_search over encoder_mismatch(s1.params_a, s1.params_b, L), bit
    for bit."""
    return grid_search(s1.fisher_a, s1.fisher_b, (s1.params_a, s1.params_b), n_train, spec,
                       c_values, w_values)


def stage2_stack(cfg: RunConfig, td: TaskData, w_values) -> list:
    """Weighted joint training of the full two-head network at every head
    weight in `w_values`, as one stack, from the shared init seed. Returns
    one TrainResult per weight, or the TrainingDivergenceError of a weight
    whose run diverged.
    """
    w_values = candidate_grid(cfg.spec, w_values=w_values)[1]
    start = init_params(cfg.spec, cfg.init_seed)
    offs = _offsets_for(cfg, td)
    return train_stack([start] * len(w_values), cfg.spec, td,
                       [(w, 1.0 - w) for w in w_values], cfg.stage2_opt, offsets=offs)


def stage2(cfg: RunConfig, td: TaskData, w_a: float, _s1=None) -> TrainResult:
    """stage2_stack at one head weight; raises TrainingDivergenceError.
    Stage 2 never reads Stage 1: a fourth argument is accepted and ignored,
    since the benchmark still passes its Stage1Result."""
    (res,) = _all_trained(stage2_stack(cfg, td, (w_a,)))
    return res


def fitted_split(spec: ModelSpec, split: TaskSplit) -> TaskSplit:
    """The split, refused unless its group sizes are the head widths."""
    if (len(split.head_classes), len(split.tail_classes)) != spec.head_dims:
        raise StructuralError(f"the split's group sizes must be the head widths {spec.head_dims}")
    return split


@dataclass
class AssembledModel:
    """Final two-branch predictor: shared encoder + task decoders.

    branch_a and branch_b are full parameter vectors whose first
    encoder_params(c) entries are bit-identical copies of the Stage-2
    encoder; everything past the slice comes from the Stage-1 task nets.
    It holds no priors: logit adjustment acts only in the training loss,
    so the model predicts from raw logits.
    """

    spec: ModelSpec
    c: int
    split: TaskSplit
    branch_a: ParamVector
    branch_b: ParamVector

    def __post_init__(self):
        d = self.spec.encoder_params(self.c)
        if not np.array_equal(self.branch_a.values[:d], self.branch_b.values[:d]):
            raise StructuralError("branches must share the encoder slice bit-exactly")
        fitted_split(self.spec, self.split)

    def decode(self, acts: list) -> tuple:
        """Both branches' logits from [x, h_1, ..., h_j], j >= c: the trunk
        activations (as trunk_activations gives them) of a network whose
        first c trunk blocks are the shared encoder. Both branches continue
        from h_c, the encoder's output, and each gets the bits of its own
        pass from layer 0; `acts` is left as it is."""
        return tuple(forward_from(branch, self.spec, acts[self.c], self.c, task)
                     for branch, task in ((self.branch_a, "A"), (self.branch_b, "B")))


def assemble(spec: ModelSpec, c: int, stage2_params: ParamVector, s1: Stage1Result,
             split: TaskSplit) -> AssembledModel:
    """Splice the Stage-2 encoder onto the Stage-1 decoders. No training."""
    if stage2_params.block_index != s1.params_a.block_index:
        raise StructuralError("stage-2 parameters come from a different architecture")
    d = spec.encoder_params(c)
    branch_a = s1.params_a.copy()
    branch_b = s1.params_b.copy()
    branch_a.values[:d] = stage2_params.values[:d]
    branch_b.values[:d] = stage2_params.values[:d]
    return AssembledModel(spec, c, split, branch_a, branch_b)


def refine_stack(models: list, td: TaskData, cfg: RunConfig) -> list:
    """Fine-tune each model's branches, each on its own task, under
    cfg.refine_opt and the offsets at cfg.tau, with the shared encoder of
    depth c frozen (bitwise unchanged): only the decoders train. Every
    branch of every model trains in one stack; each comes out as it would
    alone. Returns one entry per model: the refined model, or the
    TrainingDivergenceError of its first branch that diverged."""
    spec = models[0].spec
    starts, frozen = [], []
    for model in models:
        starts += [model.branch_a, model.branch_b]
        frozen += [model.c, model.c]
    results = train_stack(starts, spec, td, [(1.0, 0.0), (0.0, 1.0)] * len(models), cfg.refine_opt,
                          frozen=frozen, offsets=_offsets_for(cfg, td))
    refined = []
    for model, res_a, res_b in zip(models, results[::2], results[1::2]):
        failed = [res for res in (res_a, res_b) if isinstance(res, TrainingDivergenceError)]
        refined.append(failed[0] if failed else AssembledModel(
            spec, model.c, model.split, res_a.params, res_b.params))
    return refined


def refine_decoders(model: AssembledModel, td: TaskData, cfg: RunConfig) -> AssembledModel:
    """refine_stack for one model; raises TrainingDivergenceError."""
    (refined,) = _all_trained(refine_stack([model], td, cfg))
    return refined


@dataclass
class MetricsReport(Record):
    overall_accuracy: float
    head_accuracy: float
    tail_accuracy: float
    bce_a: float
    bce_b: float
    n_eval: int


def evaluate(model: AssembledModel, features: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Accuracy overall and per group, plus raw-logit task BCE. A sample's
    prediction is the argmax of both branches' logits in original class
    order; an exact tie goes to the smallest class index."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    truth = labels.argmax(axis=1)
    s_a, s_b = model.decode(trunk_activations(model.branch_a, model.spec, features))
    scores = np.empty((features.shape[0], model.split.n_classes))
    scores[:, list(model.split.head_classes)] = s_a
    scores[:, list(model.split.tail_classes)] = s_b
    correct = scores.argmax(axis=1) == truth
    head_rows = np.isin(truth, model.split.head_classes)
    tail_rows = np.isin(truth, model.split.tail_classes)
    z_a, z_b = project_labels(labels, model.split)
    return MetricsReport(
        overall_accuracy=float(correct.mean()),
        head_accuracy=float(correct[head_rows].mean()) if head_rows.any() else float("nan"),
        tail_accuracy=float(correct[tail_rows].mean()) if tail_rows.any() else float("nan"),
        bce_a=float(bce_losses(s_a, z_a).mean()),
        bce_b=float(bce_losses(s_b, z_b).mean()),
        n_eval=features.shape[0],
    )
