"""Exact information measures on small discrete spaces.

Everything here works in nats on explicit probability tables. The central
identity, which `residual_sweep` certifies by brute force over random
instances: for a true joint Q over (Y, Z_A, Z_B) and any factorized
conditional model P_A * P_B,

    D(Q_W || P_W) = D(Q_XA || P_XA) + D(Q_XB || P_XB) + I_Q(Z_A; Z_B | Y)

where P_W(y, a, b) = Q_Y(y) P_A(a|y) P_B(b|y) and P_Xt(y, t) = Q_Y(y) P_t(t|y).
The conditional mutual information term does not depend on the model, so
minimizing the joint divergence and minimizing the task-wise sum coincide.

The module also evaluates the task-wise KL risk of a trained two-branch
predictor against a generator with known posteriors (`taskwise_risk`).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StructuralError, SupportError
from .datagen import TaskSplit

# Floor applied before logarithms; keeps denormals out of log() without
# masking genuine support violations (those are checked explicitly).
_FLOOR = 1e-300


def _as_prob_array(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0):
        raise StructuralError(f"{name} has negative entries")
    return arr


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise p * log(p / q), zero where p = 0; SupportError where q
    vanishes and p does not. Callers sum over the alphabet axes."""
    support = p > 0
    if np.any(support & (q <= 0)):
        raise SupportError("q must be positive wherever p is")
    return np.where(
        support,
        p * (np.log(np.maximum(p, _FLOOR)) - np.log(np.maximum(q, _FLOOR))),
        0.0,
    )


def conditional_mutual_information(joint):
    """I(U; V | Y) in nats from a joint table with axes (Y, U, V), or from
    a stack of them on leading axes, which gives one value per table."""
    pj = _as_prob_array(joint, "joint")
    if pj.ndim < 3:
        raise StructuralError("conditional_mutual_information expects axes (Y, U, V)")
    p_y = pj.sum(axis=(-2, -1))
    p_yu = pj.sum(axis=-1)
    p_yv = pj.sum(axis=-2)
    num = pj * p_y[..., None, None]
    den = p_yu[..., :, None] * p_yv[..., None, :]
    support = pj > 0
    terms = np.where(
        support,
        pj * (np.log(np.maximum(num, _FLOOR)) - np.log(np.maximum(den, _FLOOR))),
        0.0,
    )
    return terms.sum(axis=(-3, -2, -1))


def _joint_tables(table) -> np.ndarray:
    """Joint tables with axes (..., Y, Z_A, Z_B), each non-negative and
    summing to 1 within 1e-12."""
    table = _as_prob_array(table, "joint table")
    if table.ndim < 3:
        raise StructuralError("joint table needs axes (Y, Z_A, Z_B)")
    if np.any(np.abs(table.sum(axis=(-3, -2, -1)) - 1.0) > 1e-12):
        raise StructuralError("joint table must sum to 1 within 1e-12")
    return table


def _conditional_tables(tab, name: str, rows=True) -> np.ndarray:
    """Conditional tables with axes (..., Y, outcomes), non-negative, whose
    rows sum to 1 within 1e-12 wherever `rows` (broadcast over the leading
    and Y axes) is true."""
    tab = _as_prob_array(tab, name)
    if tab.ndim < 2:
        raise StructuralError(f"{name} must be (|Y|, outcomes)")
    if np.any((np.abs(tab.sum(axis=-1) - 1.0) > 1e-12) & rows):
        raise StructuralError(f"every {name} row must sum to 1 within 1e-12")
    return tab


class DecompositionTerms(NamedTuple):
    """Each field is a scalar for one instance and an array over the leading
    axes for a stack of instances."""

    joint_kl: float
    task_a_kl: float
    task_b_kl: float
    cmi: float

    @property
    def residual(self) -> float:
        return self.joint_kl - self.task_a_kl - self.task_b_kl - self.cmi


def _terms(q: np.ndarray, p_a: np.ndarray, p_b: np.ndarray) -> DecompositionTerms:
    """All four pieces of the joint-vs-taskwise KL identity, from checked
    tables: the joint q with axes (..., Y, Z_A, Z_B) (`_joint_tables`) and
    the conditionals p_a and p_b with axes (..., Y, Z_A) and (..., Y, Z_B)
    (`_conditional_tables`). Each term is reduced over the trailing
    alphabet axes, so a stack of instances on leading axes gives an array
    over them. Zero-padded outcomes and Y rows add nothing."""
    q_y = q.sum(axis=(-2, -1))
    p_w = q_y[..., None, None] * p_a[..., :, None] * p_b[..., None, :]
    q_xa = q.sum(axis=-1)
    q_xb = q.sum(axis=-2)
    return DecompositionTerms(
        joint_kl=_kl_terms(q, p_w).sum(axis=(-3, -2, -1)),
        task_a_kl=_kl_terms(q_xa, q_y[..., None] * p_a).sum(axis=(-2, -1)),
        task_b_kl=_kl_terms(q_xb, q_y[..., None] * p_b).sum(axis=(-2, -1)),
        cmi=conditional_mutual_information(q),
    )


def _draw_tables(rng: np.random.Generator, max_y: int, max_a: int, max_b: int) -> tuple:
    """The (q, p_a, p_b) tables of one random instance with full support."""
    ny = int(rng.integers(2, max_y + 1))
    na = int(rng.integers(2, max_a + 1))
    nb = int(rng.integers(2, max_b + 1))
    q = rng.dirichlet(np.ones(ny * na * nb)).reshape(ny, na, nb)
    p_a = rng.dirichlet(np.ones(na), size=ny)
    p_b = rng.dirichlet(np.ones(nb), size=ny)
    return q, p_a, p_b


# Padded table entries residual_sweep evaluates in one array pass: 128
# instances at the default 4 x 4 x 4 bounds. Every instance is padded to
# the bounds, so counting entries rather than instances keeps a pass's
# memory fixed when the bounds grow.
_SWEEP_BLOCK_ENTRIES = 8192
# The most padded entries one instance may take (8 MiB of float64): larger
# bounds are refused before anything is drawn.
_SWEEP_MAX_ENTRIES = 1 << 20


def check_sweep(*named) -> None:
    """Refuse what residual_sweep cannot run, with a ConfigError. `named`
    holds its five inputs in order (trials, seed, max_y, max_a, max_b),
    each as a (name, value) pair, so that a refusal names an input as its
    caller knows it: trials >= 1, seed >= 0, each alphabet bound >= 2, and
    a product of the bounds of at most _SWEEP_MAX_ENTRIES."""
    (trials_name, trials), (seed_name, seed), *bounds = named
    if trials < 1:
        raise ConfigError(f"{trials_name} must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"{seed_name} must be >= 0, got {seed}")
    for name, bound in bounds:
        if bound < 2:
            raise ConfigError(f"{name} must be >= 2, got {bound}")
    names, values = zip(*bounds)
    if math.prod(values) > _SWEEP_MAX_ENTRIES:
        raise ConfigError(f"{' * '.join(names)} = {' * '.join(map(str, values))} = {math.prod(values)} "
                          f"table entries per instance, above the cap of {_SWEEP_MAX_ENTRIES}")


def residual_sweep(trials: int, seed: int, max_y: int = 4, max_a: int = 4, max_b: int = 4) -> float:
    """Max |residual| of the decomposition identity over `trials` random
    instances, the draws of repeated `_draw_tables` calls on one generator.
    Instances are zero-padded to the alphabet bounds and checked and
    evaluated a block at a time: every joint sums to 1 and every
    conditional row that an instance uses sums to 1 within 1e-12, no entry
    is negative, and the model is positive wherever the joint is. Inputs
    that check_sweep refuses raise its ConfigError."""
    check_sweep(("trials", trials), ("seed", seed), ("max_y", max_y), ("max_a", max_a), ("max_b", max_b))
    rng = np.random.default_rng(seed)
    block = max(1, _SWEEP_BLOCK_ENTRIES // (max_y * max_a * max_b))
    worst = 0.0
    for start in range(0, trials, block):
        n = min(block, trials - start)
        q = np.zeros((n, max_y, max_a, max_b))
        p_a = np.zeros((n, max_y, max_a))
        p_b = np.zeros((n, max_y, max_b))
        rows = np.zeros((n, max_y), dtype=bool)
        for i in range(n):
            q_i, a_i, b_i = _draw_tables(rng, max_y, max_a, max_b)
            ny, na, nb = q_i.shape
            q[i, :ny, :na, :nb] = q_i
            p_a[i, :ny, :na] = a_i
            p_b[i, :ny, :nb] = b_i
            rows[i, :ny] = True
        terms = _terms(_joint_tables(q), _conditional_tables(p_a, "p_a", rows),
                       _conditional_tables(p_b, "p_b", rows))
        worst = max(worst, float(np.abs(terms.residual).max()))
    return worst


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def group_outcome_log_probs(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities the Bernoulli-factorized branch assigns to the
    single-label-consistent outcomes, renormalized over that outcome set.

    Outcomes are the |t| one-hot vectors (in branch column order) followed
    by the all-zero vector. The product-Bernoulli probability of one-hot j
    is s(u_j) * prod_{m != j} (1 - s(u_m)) = exp(u_j + base) with
    base = sum_m log(1 - s(u_m)), and the all-zero outcome has exp(base).
    Renormalizing cancels base, which leaves a softmax over [u, 0].
    """
    u = np.asarray(logits, dtype=np.float64)
    ext = np.concatenate([u, np.zeros((u.shape[0], 1))], axis=1)
    return ext - _logsumexp(ext, axis=1)[:, None]


def _risk_targets(post: np.ndarray, split: TaskSplit) -> tuple:
    """Per task group, the true projected posterior q (group classes plus
    the all-zero outcome) and q * log q's log factor, from the posterior
    rows at the evaluation points. Studies that score many models on one
    evaluation sample build these once."""
    targets = []
    for classes in (split.head_classes, split.tail_classes):
        group = post[:, list(classes)]
        other = np.clip(1.0 - group.sum(axis=1, keepdims=True), 0.0, 1.0)
        q = np.concatenate([group, other], axis=1)
        targets.append((q, np.log(np.maximum(q, _FLOOR))))
    return tuple(targets)


def taskwise_risk(targets: tuple, logits: tuple) -> float:
    """Monte-Carlo average over the evaluation points of the per-task KL
    between the true projected posterior and the model's branch
    conditionals, from `_risk_targets` and the branch logits (s_a, s_b) at
    the same points.

    The true projected posterior over a group is a (|t|+1)-outcome
    distribution: mass on each group class plus the all-zero outcome that
    absorbs the other group. The model side is group_outcome_log_probs,
    the branch renormalized over the same outcomes.
    """
    total = 0.0
    for (q, log_q), s in zip(targets, logits):
        logp = group_outcome_log_probs(np.asarray(s, dtype=np.float64))
        terms = np.where(q > 0, q * (log_q - logp), 0.0)
        total += float(terms.sum(axis=1).mean())
    return total
