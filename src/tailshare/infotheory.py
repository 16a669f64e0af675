"""Exact information measures on small discrete spaces.

Everything here works in nats on explicit probability tables. The central
identity this module can certify by brute force: for a true joint Q over
(Y, Z_A, Z_B) and any factorized conditional model P_A * P_B,

    D(Q_W || P_W) = D(Q_XA || P_XA) + D(Q_XB || P_XB) + I_Q(Z_A; Z_B | Y)

where P_W(y, a, b) = Q_Y(y) P_A(a|y) P_B(b|y) and P_Xt(y, t) = Q_Y(y) P_t(t|y).
The conditional mutual information term does not depend on the model, so
minimizing the joint divergence and minimizing the task-wise sum coincide.

The module also evaluates the task-wise KL risk of a trained two-branch
predictor against a generator with known posteriors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import StructuralError, SupportError
from .datagen import MixtureGenerator, TaskSplit

# Floor applied before logarithms; keeps denormals out of log() without
# masking genuine support violations (those are checked explicitly).
_FLOOR = 1e-300


def _as_prob_array(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0):
        raise StructuralError(f"{name} has negative entries")
    return arr


def kl(p, q) -> float:
    """Kullback-Leibler divergence sum(p * log(p / q)) in nats.

    Terms with p(x) = 0 contribute zero. Raises SupportError when q
    vanishes somewhere p does not.
    """
    p = _as_prob_array(p, "p")
    q = _as_prob_array(q, "q")
    if p.shape != q.shape:
        raise StructuralError("p and q must share one alphabet")
    support = p > 0
    if np.any(support & (q <= 0)):
        raise SupportError("q must be positive wherever p is")
    terms = np.where(
        support,
        p * (np.log(np.maximum(p, _FLOOR)) - np.log(np.maximum(q, _FLOOR))),
        0.0,
    )
    return float(terms.sum())


def mutual_information(joint) -> float:
    """I(U; V) from a 2-D joint table, in nats."""
    pj = _as_prob_array(joint, "joint")
    if pj.ndim != 2:
        raise StructuralError("mutual_information expects a 2-D joint table")
    pu = pj.sum(axis=1)
    pv = pj.sum(axis=0)
    return kl(pj, np.outer(pu, pv))


def conditional_mutual_information(joint) -> float:
    """I(U; V | Y) from a 3-D joint table with axes (Y, U, V), in nats."""
    pj = _as_prob_array(joint, "joint")
    if pj.ndim != 3:
        raise StructuralError("conditional_mutual_information expects axes (Y, U, V)")
    p_y = pj.sum(axis=(1, 2))
    p_yu = pj.sum(axis=2)
    p_yv = pj.sum(axis=1)
    num = pj * p_y[:, None, None]
    den = p_yu[:, :, None] * p_yv[:, None, :]
    support = pj > 0
    terms = np.where(
        support,
        pj * (np.log(np.maximum(num, _FLOOR)) - np.log(np.maximum(den, _FLOOR))),
        0.0,
    )
    return float(terms.sum())


@dataclass
class DiscreteJoint:
    """Joint probability table over (Y, Z_A, Z_B) as label indices."""

    table: np.ndarray

    def __post_init__(self):
        self.table = _as_prob_array(self.table, "joint table")
        if self.table.ndim != 3:
            raise StructuralError("joint table needs axes (Y, Z_A, Z_B)")
        if abs(self.table.sum() - 1.0) > 1e-12:
            raise StructuralError("joint table must sum to 1 within 1e-12")

    @property
    def sizes(self) -> tuple:
        return self.table.shape


@dataclass
class FactorizedConditional:
    """Per-task conditional tables P_A(z_a | y) and P_B(z_b | y)."""

    p_a: np.ndarray
    p_b: np.ndarray

    def __post_init__(self):
        self.p_a = _as_prob_array(self.p_a, "p_a")
        self.p_b = _as_prob_array(self.p_b, "p_b")
        for name, tab in (("p_a", self.p_a), ("p_b", self.p_b)):
            if tab.ndim != 2:
                raise StructuralError(f"{name} must be (|Y|, outcomes)")
            if np.any(np.abs(tab.sum(axis=1) - 1.0) > 1e-12):
                raise StructuralError(f"every {name} row must sum to 1 within 1e-12")


class DecompositionTerms(NamedTuple):
    joint_kl: float
    task_a_kl: float
    task_b_kl: float
    cmi: float

    @property
    def residual(self) -> float:
        return self.joint_kl - self.task_a_kl - self.task_b_kl - self.cmi


def _coerce_instance(q, p) -> tuple:
    q_table = q.table if isinstance(q, DiscreteJoint) else DiscreteJoint(np.asarray(q)).table
    if not isinstance(p, FactorizedConditional):
        p = FactorizedConditional(p[0], p[1])
    p_a, p_b = p.p_a, p.p_b
    if q_table.shape[1] != p_a.shape[1] or q_table.shape[2] != p_b.shape[1]:
        raise StructuralError("conditional tables do not match the joint's label alphabets")
    if q_table.shape[0] != p_a.shape[0] or q_table.shape[0] != p_b.shape[0]:
        raise StructuralError("conditional tables do not match the joint's Y alphabet")
    return q_table, p_a, p_b


def decomposition_terms(q, p) -> DecompositionTerms:
    """All four pieces of the joint-vs-taskwise KL identity."""
    q_table, p_a, p_b = _coerce_instance(q, p)
    q_y = q_table.sum(axis=(1, 2))
    p_w = q_y[:, None, None] * p_a[:, :, None] * p_b[:, None, :]
    q_xa = q_table.sum(axis=2)
    q_xb = q_table.sum(axis=1)
    return DecompositionTerms(
        joint_kl=kl(q_table, p_w),
        task_a_kl=kl(q_xa, q_y[:, None] * p_a),
        task_b_kl=kl(q_xb, q_y[:, None] * p_b),
        cmi=conditional_mutual_information(q_table),
    )


def decomposition_residual(q, p) -> float:
    """Deviation from the joint-vs-taskwise identity; exact math gives zero,
    so anything beyond float noise signals a bug."""
    return decomposition_terms(q, p).residual


def random_instance(rng: np.random.Generator, max_y: int = 4, max_a: int = 4, max_b: int = 4):
    """One random (joint, factorized conditional) pair with full support."""
    ny = int(rng.integers(2, max_y + 1))
    na = int(rng.integers(2, max_a + 1))
    nb = int(rng.integers(2, max_b + 1))
    q = rng.dirichlet(np.ones(ny * na * nb)).reshape(ny, na, nb)
    p_a = rng.dirichlet(np.ones(na), size=ny)
    p_b = rng.dirichlet(np.ones(nb), size=ny)
    return DiscreteJoint(q), FactorizedConditional(p_a, p_b)


def residual_sweep(trials: int, seed: int, max_y: int = 4, max_a: int = 4, max_b: int = 4) -> float:
    """Max |residual| of the decomposition identity over random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        q, p = random_instance(rng, max_y, max_a, max_b)
        worst = max(worst, abs(decomposition_residual(q, p)))
    return worst


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def group_outcome_log_probs(logits: np.ndarray, restrict: bool = True) -> np.ndarray:
    """Log-probabilities the Bernoulli-factorized branch assigns to the
    single-label-consistent outcomes.

    Outcomes are the |t| one-hot vectors (in branch column order) followed
    by the all-zero vector. The product-Bernoulli probability of one-hot j
    is s(u_j) * prod_{m != j} (1 - s(u_m)) = exp(u_j + base) with
    base = sum_m log(1 - s(u_m)), and the all-zero outcome has exp(base).
    With restrict=True the outcome set is renormalized, which collapses to
    a softmax over [u, 0]; otherwise the raw product-Bernoulli masses are
    returned (they sum to <= 1 over this outcome subset).
    """
    u = np.asarray(logits, dtype=np.float64)
    ext = np.concatenate([u, np.zeros((u.shape[0], 1))], axis=1)
    if restrict:
        return ext - _logsumexp(ext, axis=1)[:, None]
    base = -np.logaddexp(0.0, u).sum(axis=1, keepdims=True)
    return ext + base


def taskwise_risk(
    gen: MixtureGenerator,
    split: TaskSplit,
    logits_fn: Callable,
    eval_points: np.ndarray,
    restrict: bool = True,
) -> float:
    """Monte-Carlo average over eval_points of the per-task KL between the
    true projected posterior and the model's branch conditionals.

    The true projected posterior over a group is a (|t|+1)-outcome
    distribution: mass on each group class plus the all-zero outcome that
    absorbs the other group. The model side comes from
    group_outcome_log_probs; restrict selects the renormalized (default)
    or raw product-Bernoulli variant.
    """
    eval_points = np.asarray(eval_points, dtype=np.float64)
    targets = _risk_targets(gen.posterior(eval_points), split)
    return _taskwise_risk(targets, logits_fn(eval_points), restrict)


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


def _taskwise_risk(targets: tuple, logits: tuple, restrict: bool) -> float:
    """taskwise_risk from _risk_targets and the branch logits (s_a, s_b) at
    the same points."""
    total = 0.0
    for (q, log_q), s in zip(targets, logits):
        logp = group_outcome_log_probs(np.asarray(s, dtype=np.float64), restrict)
        terms = np.where(q > 0, q * (log_q - logp), 0.0)
        total += float(terms.sum(axis=1).mean())
    return total
