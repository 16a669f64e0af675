"""Monte-Carlo ground truth for the proxy: resampled pipeline runs scored
by the exact task-wise KL risk, compared against proxy totals by rank.

A study fixes one mixture generator, one evaluation sample of feature
points (drawn once, so grid cells differ only through training
randomness), and the head/tail split implied by the generator's priors.
Each resample draws a fresh i.i.d. training set and runs the pipeline
stages at every requested grid point; Stage 1 is shared across the whole
grid and each Stage-2 run is shared across shared-depth candidates, which
keeps full-grid studies tractable.

Seed layout: the study seed drives the evaluation draws; resample m uses
data seed = seed + 1000 + m and shifts the stage shuffle seeds by m while
keeping the init seed fixed, so the measured randomness is the training
data (plus batch order), matching an expectation over training sets.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, DomainError, TrainingDivergenceError
from .datagen import MixtureGenerator, sample_iid, split_classes
from .infotheory import _risk_targets, taskwise_risk
from .nn import trunk_activations
from .pipeline import (
    RunConfig,
    assemble,
    build_task_data,
    evaluate,
    refine_stack,
    select_structure,
    stage1,
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
        if not np.isfinite(v).all():
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


def _run_resample(m: int, gen, run_cfg, split, eval_points, targets, balanced, c_values, w_values,
                  n_train: int, seed: int, refine: bool) -> tuple:
    """Resample m: fresh data, shared Stage 1, all Stage-2 weights as one
    stack, per-c assembly.

    Returns (risks[nc, nw], acc[nc, nw, 3], stage1); failed cells are
    NaN. stage1 is resample 0's Stage1Result, or its TrainingDivergenceError,
    and None for the other resamples. With refine=True every assembled model
    gets the decoder-only fine-tune before being measured, all of them as
    one stack; a cell whose fine-tune diverged stays NaN.

    The c = 0 model is the Stage-1 pair whatever the weight, so it is
    assembled, refined and scored once and copied into each column whose
    Stage 2 succeeded. Each Stage-2 trunk runs forward on the evaluation
    points once, and each cell's branches continue from its depth-c
    activations, which gives the risk a full forward pass would.
    """
    nc, nw = len(c_values), len(w_values)
    risks = np.full((nc, nw), np.nan)
    accs = np.full((nc, nw, 3), np.nan)
    dataset = sample_iid(gen, n_train, seed + _RESAMPLE_SEED_OFFSET + m)
    td = build_task_data(dataset, split, gen.priors)
    cfg_m = _per_resample_config(run_cfg, m)
    try:
        s1 = stage1(cfg_m, td)
    except TrainingDivergenceError as err:
        return risks, accs, err if m == 0 else None
    spec = run_cfg.spec
    stage2_params = {wi: s2.params for wi, s2 in enumerate(stage2_stack(cfg_m, td, w_values))
                     if not isinstance(s2, TrainingDivergenceError)}
    cells = []   # (the rows and columns a model fills, model)
    zero_rows = [ci for ci, c in enumerate(c_values) if c == 0]
    if stage2_params and zero_rows:
        first = next(iter(stage2_params.values()))
        cells.append((np.ix_(zero_rows, list(stage2_params)),
                      assemble(spec, 0, first, s1, split)))
    for wi, params in stage2_params.items():
        cells += [((ci, wi), assemble(spec, c, params, s1, split))
                  for ci, c in enumerate(c_values) if c != 0]
    models = [model for _, model in cells]
    if refine and models:
        models = refine_stack(models, td, cfg_m)
    # Cells come weight by weight, so one weight's activations are kept.
    encoded = lru_cache(maxsize=1)(lambda wi: trunk_activations(stage2_params[wi], spec, eval_points))
    # As in training, overflow gives a non-finite risk (a failed cell), not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for (where, _), model in zip(cells, models):
            if isinstance(model, TrainingDivergenceError):
                continue
            acts = encoded(where[1])[:model.c + 1] if model.c else [eval_points]
            risks[where] = taskwise_risk(targets, model.decode(acts))
            if balanced is not None:
                rep = evaluate(model, *balanced)
                accs[where] = (rep.overall_accuracy, rep.head_accuracy, rep.tail_accuracy)
    return risks, accs, s1 if m == 0 else None


def check_study(m_resamples: int, n_train: int, n_eval: int, eval_per_class: int | None = None) -> None:
    """Refuse a study without resamples, training rows or evaluation
    points, or, when it scores accuracy (eval_per_class given), without
    balanced rows."""
    if m_resamples < 1:
        raise ConfigError(f"m_resamples must be >= 1, got {m_resamples}")
    if n_train < 1:
        raise ConfigError(f"n_train (the train size) must be >= 1, got {n_train}")
    if n_eval < 1:
        raise ConfigError(f"n_eval (oracle.eval_points) must be >= 1, got {n_eval}")
    if eval_per_class is not None and eval_per_class < 1:
        raise ConfigError(f"eval_per_class must be >= 1 to score accuracy, got {eval_per_class}")


def _collect_resamples(
    gen, run_cfg, c_values, w_values, m_resamples, n_train, seed, n_eval, jobs,
    eval_per_class: int | None = None, refine: bool = False,
) -> tuple:
    """Run every resample against one evaluation sample drawn from the
    study seed: n_eval feature points, then, given eval_per_class, a
    balanced labeled set. Returns (risks[M, nc, nw], accs[M, nc, nw, 3],
    resample 0's Stage1Result or TrainingDivergenceError). The true
    posterior at the evaluation points, and the risk targets built from
    it, are computed once for the study."""
    check_study(m_resamples, n_train, n_eval, eval_per_class)
    rng = np.random.default_rng(seed)
    eval_points = gen.sample_features(n_eval, rng)
    balanced = None if eval_per_class is None else gen.sample_balanced(eval_per_class, rng)
    split = split_classes(gen.priors)
    targets = _risk_targets(gen.posterior(eval_points), split)
    run = partial(_run_resample, gen=gen, run_cfg=run_cfg, split=split, eval_points=eval_points,
                  targets=targets, balanced=balanced, c_values=c_values, w_values=w_values,
                  n_train=n_train, seed=seed, refine=refine)
    # One worker per resample at most: a fork-started pool forks every
    # worker when it opens.
    workers = min(jobs, m_resamples)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(m_resamples)))
    else:
        results = [run(m) for m in range(m_resamples)]
    risks = np.stack([r[0] for r in results])     # (M, nc, nw)
    accs = np.stack([r[1] for r in results])      # (M, nc, nw, 3)
    return risks, accs, results[0][2]


@np.errstate(over="ignore")
def _mean_stderr(values: np.ndarray) -> tuple:
    """Mean and standard error of the finite values along axis 0; NaN where
    fewer than one (mean) or two (stderr) values are finite. Slices without
    enough values are filled with zeros before the reductions and masked
    after, so numpy never sees an empty slice or a non-positive degree of
    freedom. Finite values too large to sum or square give an infinite
    mean or stderr, without a warning."""
    ok = np.isfinite(values)
    n_ok = ok.sum(axis=0)
    finite = np.where(ok, values, np.nan)
    mean = np.full(n_ok.shape, np.nan)
    stderr = np.full(n_ok.shape, np.nan)
    if len(values) > 0:
        mean = np.where(n_ok > 0, np.nanmean(np.where(n_ok > 0, finite, 0.0), axis=0), np.nan)
    if len(values) > 1:
        std = np.nanstd(np.where(n_ok > 1, finite, 0.0), axis=0, ddof=1)
        stderr = np.where(n_ok > 1, std / np.sqrt(np.maximum(n_ok, 1)), np.nan)
    return mean, stderr, n_ok


class _Resampled:
    @property
    def valid(self) -> np.ndarray:
        """Cells where at least 80% of the m_resamples succeeded (n_ok)."""
        return self.n_ok >= 0.8 * self.m_resamples


@dataclass
class OracleReport(_Resampled, Record):
    """Full-grid MC risks next to proxy totals, plus their rank agreement."""

    FORMAT = "tailshare-oracle-report-v1"

    c_values: tuple
    w_values: tuple
    risk_mean: np.ndarray
    risk_stderr: np.ndarray
    n_ok: np.ndarray
    m_resamples: int
    proxy_total: np.ndarray
    spearman_rho: float | None
    oracle_best: tuple | None
    proxy_best: tuple
    n_train: int
    n_eval: int
    seed: int

    def to_csv(self, path) -> None:
        write_csv(path, ("C", "w_A", "risk_mean", "risk_stderr", "proxy_total", "n_ok", "valid"),
                  zip(np.repeat(self.c_values, len(self.w_values)),
                      np.tile(self.w_values, len(self.c_values)), self.risk_mean.flat,
                      self.risk_stderr.flat, self.proxy_total.flat, self.n_ok.flat, self.valid.flat))


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
    """Fill the oracle grid by resampling, compute the proxy grid from the
    first resample's Stage-1 run, and report Spearman rank agreement.

    Only the report's valid cells enter the correlation and the oracle
    argmin. The risk is always the renormalized task-wise KL; `restrict`
    stays only as the benchmark's call shape and must be True.
    """
    if restrict is not True:
        raise ConfigError(f"restrict must be True (the risk is renormalized), got {restrict!r}")
    c_values, w_values = candidate_grid(run_cfg.spec, c_values, w_values)
    risks, _, first_s1 = _collect_resamples(gen, run_cfg, c_values, w_values, m_resamples,
                                            n_train, seed, n_eval, jobs)
    risk_mean, risk_stderr, n_ok = _mean_stderr(risks)

    # Proxy grid from the first resample's own Stage-1 statistics.
    if isinstance(first_s1, TrainingDivergenceError):
        raise first_s1
    grid = select_structure(first_s1, n_train, run_cfg.spec, c_values, w_values)
    proxy_total = np.array(
        [[grid.cell(c, w).total for w in w_values] for c in c_values], dtype=np.float64
    )
    report = OracleReport(
        c_values=c_values,
        w_values=w_values,
        risk_mean=risk_mean,
        risk_stderr=risk_stderr,
        n_ok=n_ok.astype(np.int64),
        m_resamples=m_resamples,
        proxy_total=proxy_total,
        spearman_rho=None,
        oracle_best=None,
        proxy_best=(grid.c_star, grid.w_star),
        n_train=n_train,
        n_eval=n_eval,
        seed=seed,
    )
    valid = report.valid
    if valid.any():
        report.spearman_rho = spearman(proxy_total[valid], risk_mean[valid])
        masked = np.where(valid, risk_mean, np.inf)
        ci, wi = np.unravel_index(int(masked.argmin()), masked.shape)
        report.oracle_best = (c_values[ci], w_values[wi])
    return report


@dataclass
class SweepReport(_Resampled, Record):
    """Per-weight accuracy and risk at a fixed shared depth."""

    FORMAT = "tailshare-sweep-report-v1"

    c: int
    w_values: tuple
    overall_mean: np.ndarray
    overall_stderr: np.ndarray
    head_mean: np.ndarray
    head_stderr: np.ndarray
    tail_mean: np.ndarray
    tail_stderr: np.ndarray
    risk_mean: np.ndarray
    risk_stderr: np.ndarray
    n_ok: np.ndarray
    m_resamples: int
    n_train: int
    seed: int

    def to_csv(self, path) -> None:
        columns = ("overall_mean", "overall_stderr", "head_mean", "head_stderr", "tail_mean",
                   "tail_stderr", "risk_mean", "risk_stderr", "n_ok")
        write_csv(path, ("w_A",) + columns,
                  zip(self.w_values, *(getattr(self, name) for name in columns)))


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
    """Accuracy and risk as a function of the head weight at fixed depth.

    Accuracy is measured on a balanced per-class evaluation set (drawn
    once), the usual protocol when test-time class frequencies are uniform;
    risk uses feature draws from the training marginal. With refine=True
    every assembled model gets the decoder-only fine-tune before being
    measured, which reads the accuracy of the deployable model rather than
    of the raw splice; with refine_opt.epochs 0 the fine-tune changes
    nothing.
    """
    (c,), w_values = candidate_grid(run_cfg.spec, (c,), w_values)
    risks, accs, _ = _collect_resamples(gen, run_cfg, (c,), w_values, m_resamples, n_train,
                                        seed, n_eval, jobs, eval_per_class, refine)
    risk_mean, risk_stderr, n_ok = _mean_stderr(risks[:, 0, :])
    o_mean, o_stderr, _ = _mean_stderr(accs[:, 0, :, 0])
    h_mean, h_stderr, _ = _mean_stderr(accs[:, 0, :, 1])
    t_mean, t_stderr, _ = _mean_stderr(accs[:, 0, :, 2])
    return SweepReport(
        c=c, w_values=w_values,
        overall_mean=o_mean, overall_stderr=o_stderr,
        head_mean=h_mean, head_stderr=h_stderr,
        tail_mean=t_mean, tail_stderr=t_stderr,
        risk_mean=risk_mean, risk_stderr=risk_stderr,
        n_ok=n_ok.astype(np.int64), m_resamples=m_resamples,
        n_train=n_train, seed=seed,
    )


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
