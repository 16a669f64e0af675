"""Monte-Carlo ground truth for the proxy: resampled pipeline runs scored
by the exact task-wise KL risk, compared against proxy totals by rank.

A study fixes one mixture generator, one evaluation sample of feature
points (drawn once, so grid cells differ only through training
randomness), and the head/tail split implied by the generator's priors.
Each resample draws a fresh i.i.d. training set and runs the pipeline
stages at every requested grid point; Stage 1 is shared across the whole
grid and each Stage-2 run is shared across shared-depth candidates, which
keeps full-grid studies tractable. When the two stages share one
optimizer (so one batch order), a resample makes one training call:
Stage 1's task-A and task-B nets are the Stage-2 stack's w_A = 1 and
w_A = 0 lanes, added to the stack when the grid lacks them.

Seed layout: the study seed drives the evaluation draws; resample m uses
data seed = seed + 1000 + m and shifts the stage shuffle seeds by m while
keeping the init seed fixed, so the measured randomness is the training
data (plus batch order), matching an expectation over training sets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, DomainError, TrainingDivergenceError
from .datagen import MixtureGenerator, sample_iid, split_classes
from .infotheory import _risk_targets, taskwise_risk
from .nn import _all_trained, _finite, trunk_activations
from .pipeline import (
    RunConfig,
    assemble,
    build_task_data,
    evaluate,
    refine_stack,
    select_structure,
    stage1,
    stage1_result,
    stage2_stack,
)
from .proxy import candidate_grid
from .tables import Record, write_csv

_RESAMPLE_SEED_OFFSET = 1000


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v; each run of tied values gets the mean of the
    ranks it spans, an exact integer or half-integer."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(new) - 1]
    return ranks


def spearman(x, y) -> float | None:
    """Spearman rank correlation: the Pearson correlation of the average
    ranks (ties share the mean of their ranks).

    Returns None (not 0) when either input is constant (its min equals
    its max) or too short for a correlation to be defined; non-finite
    input raises DomainError.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ConfigError("rank correlation needs equally long vectors")
    for name, v in (("x", x), ("y", y)):
        if not _finite(v):
            raise DomainError(f"rank correlation input {name} has non-finite values")
    if x.size < 2 or x.min() == x.max() or y.min() == y.max():
        return None
    return float(np.corrcoef(np.stack([_average_ranks(x), _average_ranks(y)]))[1, 0])


def _per_resample_config(run_cfg: RunConfig, m: int) -> RunConfig:
    """run_cfg with the shuffle seeds of all three optimizers shifted by m."""
    return replace(
        run_cfg,
        stage1_opt=replace(run_cfg.stage1_opt, seed=run_cfg.stage1_opt.seed + m),
        stage2_opt=replace(run_cfg.stage2_opt, seed=run_cfg.stage2_opt.seed + m),
        refine_opt=replace(run_cfg.refine_opt, seed=run_cfg.refine_opt.seed + m),
    )


@dataclass(frozen=True)
class Study(Record):
    """One study's settings, from the caller to every resample and into its
    report: the (C, w_A) grid, m_resamples training sets of n_train rows,
    the study seed, n_eval risk points, eval_per_class balanced rows per
    class for accuracy (None: no accuracy) and refine (the decoder
    fine-tune). How many workers run it is not a setting of the study."""

    c_values: tuple
    w_values: tuple
    m_resamples: int
    n_train: int
    seed: int
    n_eval: int
    eval_per_class: int | None = None
    refine: bool = False

    def __post_init__(self):
        for name, value in (("m_resamples", self.m_resamples), ("n_train", self.n_train), ("n_eval", self.n_eval)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.eval_per_class is not None and self.eval_per_class < 1:
            raise ConfigError(f"eval_per_class must be >= 1 to score accuracy, got {self.eval_per_class}")


def _run_resample(m: int, study: Study, gen, run_cfg, split, eval_points, targets, balanced) -> tuple:
    """Resample m: fresh data, shared Stage 1, all Stage-2 weights as one
    stack, per-c assembly. With equal stage optimizers Stage 1 is that
    stack's w_A = 1 and 0 lanes (one the grid lacks is added, and is no
    cell), and their divergence is Stage 1's.

    Returns (values[nc, nw, 4], stage1): each cell's risk, then its overall,
    head and tail accuracy, NaN where the cell failed. stage1 is resample
    0's Stage1Result, or its TrainingDivergenceError, and None for the
    other resamples. With study.refine every assembled model gets the
    decoder-only fine-tune before being measured, all of them as one
    stack; a cell whose fine-tune diverged stays NaN.

    The c = 0 model is the Stage-1 pair whatever the weight, so it is
    assembled, refined and scored once and copied into each column whose
    Stage 2 succeeded. Each Stage-2 trunk runs forward on the evaluation
    points once, and each cell's branches continue from its depth-c
    activations, which gives the risk a full forward pass would.
    """
    values = np.full((len(study.c_values), len(study.w_values), 4), np.nan)
    dataset = sample_iid(gen, study.n_train, study.seed + _RESAMPLE_SEED_OFFSET + m)
    td = build_task_data(dataset, split, gen.priors)
    cfg_m = _per_resample_config(run_cfg, m)
    w_values = tuple(study.w_values)
    try:
        if cfg_m.stage1_opt == cfg_m.stage2_opt:
            # On one batch order, Stage 2 at w_A = 1 and 0 is Stage 1's
            # task-A and task-B training, bit for bit: one stack trains both.
            lanes = w_values + tuple(w for w in (1.0, 0.0) if w not in w_values)
            trained = stage2_stack(cfg_m, td, lanes)
            s1 = stage1_result(cfg_m, td, *_all_trained([trained[lanes.index(w)] for w in (1.0, 0.0)]))
        else:
            s1 = stage1(cfg_m, td)
            trained = stage2_stack(cfg_m, td, w_values)
    except TrainingDivergenceError as err:
        return values, err if m == 0 else None
    spec = run_cfg.spec
    stage2_params = {wi: s2.params for wi, s2 in enumerate(trained[:len(w_values)])
                     if not isinstance(s2, TrainingDivergenceError)}
    cells = []   # (the rows and columns a model fills, model)
    zero_rows = [ci for ci, c in enumerate(study.c_values) if c == 0]
    if stage2_params and zero_rows:
        first = next(iter(stage2_params.values()))
        cells.append((np.ix_(zero_rows, list(stage2_params)),
                      assemble(spec, 0, first, s1, split)))
    for wi, params in stage2_params.items():
        cells += [((ci, wi), assemble(spec, c, params, s1, split))
                  for ci, c in enumerate(study.c_values) if c != 0]
    models = [model for _, model in cells]
    if study.refine and models:
        models = refine_stack(models, td, cfg_m)
    # Cells come weight by weight, so one weight's activations are kept.
    encoded = lru_cache(maxsize=1)(lambda wi: trunk_activations(stage2_params[wi], spec, eval_points))
    # As in training, overflow gives a non-finite risk (a failed cell), not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for (where, _), model in zip(cells, models):
            if isinstance(model, TrainingDivergenceError):
                continue
            acts = encoded(where[1]) if model.c else [eval_points]
            values[where + (0,)] = taskwise_risk(targets, model.decode(acts))
            if balanced is not None:
                rep = evaluate(model, *balanced)
                values[where + (slice(1, None),)] = rep.overall_accuracy, rep.head_accuracy, rep.tail_accuracy
    return values, s1 if m == 0 else None


def _collect_resamples(gen, run_cfg, study: Study, jobs: int) -> tuple:
    """Run every resample, on at most `jobs` worker processes (1 or less:
    in-process), against one evaluation sample drawn from the study seed:
    n_eval feature points, then, given eval_per_class, a balanced labeled
    set. Returns (values[M, nc, nw, 4], resample 0's Stage1Result or
    TrainingDivergenceError): _run_resample's values, one per resample.
    The true posterior at the evaluation points, and the risk targets
    built from it, are computed once for the study."""
    rng = np.random.default_rng(study.seed)
    eval_points = gen.sample_features(study.n_eval, rng)
    balanced = None if study.eval_per_class is None else gen.sample_balanced(study.eval_per_class, rng)
    split = split_classes(gen.priors)
    targets = _risk_targets(gen.posterior(eval_points), split)
    run = partial(_run_resample, study=study, gen=gen, run_cfg=run_cfg, split=split,
                  eval_points=eval_points, targets=targets, balanced=balanced)
    # One worker per resample at most: a fork-started pool forks every
    # worker when it opens.
    workers = min(jobs, study.m_resamples)
    if workers > 1:
        # Imported here: the pool's modules load only when a pool opens.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(study.m_resamples)))
    else:
        results = [run(m) for m in range(study.m_resamples)]
    return np.stack([r[0] for r in results]), results[0][1]


def _mean_stderr(values: np.ndarray) -> tuple:
    """Mean and standard error of the finite values along axis 0, by masked
    sums: the bits of np.nanmean and np.nanstd(ddof=1) / sqrt(n_ok) over
    the finite values. NaN where fewer than one (mean) or two (stderr)
    values are finite; finite values too large to sum or square give an
    infinite mean or stderr. No reduction warns."""
    ok = np.isfinite(values)
    n_ok = ok.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.where(ok, values, 0.0)
        mean = x.sum(axis=0) / n_ok
        dev = np.where(ok, x - mean, 0.0)
        stderr = np.sqrt((dev * dev).sum(axis=0) / (n_ok - 1)) / np.sqrt(n_ok)
    return np.where(n_ok > 0, mean, np.nan), np.where(n_ok > 1, stderr, np.nan), n_ok


class _Resampled:
    """A report's grid and validity, read from the study behind it."""

    c_values = property(lambda self: self.study.c_values)
    w_values = property(lambda self: self.study.w_values)

    @property
    def valid(self) -> np.ndarray:
        """Cells where at least 80% of the m_resamples succeeded (n_ok)."""
        return self.n_ok >= 0.8 * self.study.m_resamples


@dataclass
class OracleReport(_Resampled, Record):
    """Full-grid MC risks next to proxy totals, plus their rank agreement."""

    FORMAT = "tailshare-oracle-report-v2"

    study: Study
    risk_mean: np.ndarray
    risk_stderr: np.ndarray
    n_ok: np.ndarray
    proxy_total: np.ndarray
    spearman_rho: float | None
    oracle_best: tuple | None
    proxy_best: tuple

    def to_csv(self, path) -> None:
        write_csv(path, ("C", "w_A", "risk_mean", "risk_stderr", "proxy_total", "n_ok", "valid"),
                  zip(np.repeat(self.c_values, len(self.w_values)),
                      np.tile(self.w_values, len(self.c_values)), self.risk_mean.flat,
                      self.risk_stderr.flat, self.proxy_total.flat, self.n_ok.flat, self.valid.flat))


def compare(gen: MixtureGenerator, run_cfg: RunConfig, study: Study, jobs: int = 1) -> OracleReport:
    """Fill the study's oracle grid by resampling on at most `jobs` workers,
    compute the proxy grid from the first resample's Stage-1 run, and
    report Spearman rank agreement. Only the report's valid cells enter the
    correlation and the oracle argmin. The risk is always the renormalized
    task-wise KL, of the refined model when study.refine."""
    values, first_s1 = _collect_resamples(gen, run_cfg, study, jobs)
    risk_mean, risk_stderr, n_ok = _mean_stderr(values[..., 0])

    # Proxy grid from the first resample's own Stage-1 statistics.
    if isinstance(first_s1, TrainingDivergenceError):
        raise first_s1
    c_values, w_values = study.c_values, study.w_values
    grid = select_structure(first_s1, study.n_train, run_cfg.spec, c_values, w_values)
    proxy_total = np.array([row.total for row in grid.table]).reshape(len(c_values), -1)  # c, then w
    report = OracleReport(
        study=study, risk_mean=risk_mean, risk_stderr=risk_stderr, n_ok=n_ok.astype(np.int64),
        proxy_total=proxy_total, spearman_rho=None, oracle_best=None, proxy_best=(grid.c_star, grid.w_star),
    )
    valid = report.valid
    if valid.any():
        report.spearman_rho = spearman(proxy_total[valid], risk_mean[valid])
        masked = np.where(valid, risk_mean, np.inf)
        ci, wi = np.unravel_index(int(masked.argmin()), masked.shape)
        report.oracle_best = (c_values[ci], w_values[wi])
    return report


def grid_compare(
    gen: MixtureGenerator,
    run_cfg: RunConfig,
    c_values,
    w_values,
    m_resamples: int,
    n_train: int,
    seed: int = 0,
    n_eval: int = 2000,
    restrict: bool = True,
    jobs: int = 1,
) -> OracleReport:
    """compare on the Study of these settings, its grids resolved by candidate_grid.
    `restrict` stays only as the benchmark's call shape and must be True."""
    if restrict is not True:
        raise ConfigError(f"restrict must be True (the risk is renormalized), got {restrict!r}")
    c_values, w_values = candidate_grid(run_cfg.spec, c_values, w_values)
    return compare(gen, run_cfg, Study(c_values, w_values, m_resamples, n_train, seed, n_eval), jobs)


@dataclass
class SweepReport(_Resampled, Record):
    """Per-weight accuracy and risk at a fixed shared depth."""

    FORMAT = "tailshare-sweep-report-v2"

    study: Study
    overall_mean: np.ndarray
    overall_stderr: np.ndarray
    head_mean: np.ndarray
    head_stderr: np.ndarray
    tail_mean: np.ndarray
    tail_stderr: np.ndarray
    risk_mean: np.ndarray
    risk_stderr: np.ndarray
    n_ok: np.ndarray

    def to_csv(self, path) -> None:
        columns = ("overall_mean", "overall_stderr", "head_mean", "head_stderr", "tail_mean",
                   "tail_stderr", "risk_mean", "risk_stderr", "n_ok")
        write_csv(path, ("w_A",) + columns,
                  zip(self.w_values, *(getattr(self, name) for name in columns)))


def sweep(gen: MixtureGenerator, run_cfg: RunConfig, study: Study, jobs: int = 1) -> SweepReport:
    """Accuracy and risk as a function of the head weight at the study's
    (first) shared depth, resampled on at most `jobs` workers.

    Accuracy is measured on study.eval_per_class balanced rows per class
    (drawn once), the usual protocol when test-time class frequencies are
    uniform; risk uses feature draws from the training marginal. With
    study.refine every assembled model gets the decoder-only fine-tune
    before being measured: the accuracy of the deployable model, not of
    the raw splice."""
    values, _ = _collect_resamples(gen, run_cfg, study, jobs)
    mean, stderr, n_ok = _mean_stderr(values[:, 0])   # (nw, 4) each
    (risk_mean, o_mean, h_mean, t_mean), (risk_se, o_se, h_se, t_se) = mean.T, stderr.T
    return SweepReport(
        study=study, overall_mean=o_mean, overall_stderr=o_se, head_mean=h_mean, head_stderr=h_se,
        tail_mean=t_mean, tail_stderr=t_se, risk_mean=risk_mean, risk_stderr=risk_se,
        n_ok=n_ok[:, 0].astype(np.int64),
    )


def weight_sweep(
    gen: MixtureGenerator,
    run_cfg: RunConfig,
    c: int,
    w_values,
    m_resamples: int,
    n_train: int,
    seed: int = 0,
    n_eval: int = 2000,
    eval_per_class: int = 40,
    jobs: int = 1,
    refine: bool = False,
) -> SweepReport:
    """sweep on the Study of these settings at depth c, its grids resolved by
    candidate_grid; with refine_opt.epochs 0 the study records refine False."""
    c_values, w_values = candidate_grid(run_cfg.spec, (c,), w_values)
    return sweep(gen, run_cfg, Study(c_values, w_values, m_resamples, n_train, seed, n_eval, eval_per_class,
                                     refine and run_cfg.refine_opt.epochs > 0), jobs)


@dataclass
class AnchorStats:
    """MC mean KL risk of a well-specified logistic model vs d/(2N)."""

    mean: float
    stderr: float
    expected: float
    n_ok: int
    n_fail: int


def _newton_logistic(x: np.ndarray, z: np.ndarray):
    """Logistic-regression MLE by at most 100 Newton steps, stopped once
    every gradient entry is below 1e-12; None when it fails."""
    n, d = x.shape
    theta = np.zeros(d)
    for _ in range(100):
        u = x @ theta
        p = 1.0 / (1.0 + np.exp(-np.clip(u, -500, 500)))
        g = x.T @ (z - p) / n
        if np.max(np.abs(g)) < 1e-12:
            return theta
        w = np.maximum(p * (1.0 - p), 1e-12)
        h = (x * w[:, None]).T @ x / n
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        theta = theta + step
    return theta if np.max(np.abs(g)) < 1e-6 else None


def bernoulli_logit_anchor(
    n_params: int,
    n_train: int,
    m_resamples: int,
    seed: int = 0,
    n_eval: int = 20000,
) -> AnchorStats:
    """Classical-asymptotics sanity anchor.

    Data come from a logistic model with n_params coefficients (intercept
    plus Gaussian features), the MLE is computed exactly by Newton
    iteration, and the KL between true and fitted Bernoulli conditionals is
    averaged over a fixed feature sample. First-order theory puts the mean
    at d/(2N), so the MC mean should land inside a modest multiplicative
    band around it.
    """
    if n_params < 2:
        raise ConfigError("need at least an intercept and one feature")
    rng = np.random.default_rng(seed)
    d = n_params
    theta0 = rng.normal(size=d) * (1.2 / np.sqrt(d))
    eval_x = np.concatenate([np.ones((n_eval, 1)), rng.normal(size=(n_eval, d - 1))], axis=1)
    u0 = eval_x @ theta0
    p0 = 1.0 / (1.0 + np.exp(-u0))
    sp = np.logaddexp
    risks = []
    n_fail = 0
    for _ in range(m_resamples):
        x = np.concatenate([np.ones((n_train, 1)), rng.normal(size=(n_train, d - 1))], axis=1)
        z = (rng.random(n_train) < 1.0 / (1.0 + np.exp(-(x @ theta0)))).astype(np.float64)
        theta = _newton_logistic(x, z)
        if theta is None:
            n_fail += 1
            continue
        u1 = eval_x @ theta
        kl = p0 * (sp(0.0, -u1) - sp(0.0, -u0)) + (1.0 - p0) * (sp(0.0, u1) - sp(0.0, u0))
        risks.append(float(kl.mean()))
    risks = np.asarray(risks)
    mean, stderr, n_ok = _mean_stderr(risks)
    return AnchorStats(float(mean), float(stderr), d / (2.0 * n_train), int(n_ok), n_fail)
