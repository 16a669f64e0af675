"""Diagonal empirical Fisher estimation and the bias-variance proxy.

The proxy scores a candidate (shared depth c, head weight w_a) pair as

    encoder_variance + encoder_bias + decoder_variance

with, writing a_j / b_j for the two tasks' diagonal Fisher entries over
the encoder slice, wb = 1 - w_a, and N the training-set size:

    encoder_variance = (1/2N) * sum_j (a_j + b_j) (w_a^2 a_j + wb^2 b_j)
                                      / (w_a a_j + wb b_j)^2
    encoder_bias     = (1/2)  * sum_j delta_j^2 (wb^2 a_j + w_a^2 b_j)
    decoder_variance = (d_psi_A(c) + d_psi_B(c)) / (2N)

This is the diagonal specialization of the dense trace/quadratic-form
expressions; tests cross-check against an explicit dense-matrix evaluation
at small encoder dimension.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DataFormatError, DomainError, StructuralError
from .nn import (ModelSpec, ParamVector, _backward, _block_views, _check_params, _sigmoid,
                 _sum_batch, _task_index, _trunk_forward)
from .tables import write_csv

# Coordinates whose weighted Fisher combination falls below this are treated
# as dead parameters and skipped in the variance quotient.
DEAD_COORD_EPS = 1e-12

DEFAULT_W_GRID = tuple(i / 10 for i in range(11))


@dataclass
class DiagFisher:
    """Per-parameter average squared score gradients, aligned to a ParamVector."""

    values: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise StructuralError("Fisher values must be a flat vector")
        if np.any(self.values < 0):
            raise DomainError("Fisher entries must be nonnegative")


@dataclass
class MismatchVector:
    """Difference of the two tasks' trained encoder parameters at depth c."""

    delta: np.ndarray
    c: int

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.delta.ndim != 1:
            raise StructuralError("mismatch must be a flat vector")


@dataclass(frozen=True)
class ProxyBreakdown:
    c: int
    w_a: float
    encoder_variance: float
    encoder_bias: float
    decoder_variance: float
    total: float


@dataclass
class GridSearchResult:
    c_star: int
    w_star: float
    table: list
    c_values: tuple
    w_values: tuple

    def cell(self, c: int, w_a: float) -> ProxyBreakdown:
        for row in self.table:
            if row.c == c and row.w_a == w_a:
                return row
        raise KeyError(f"no grid cell ({c}, {w_a})")

    def best_for_c(self, c: int) -> ProxyBreakdown:
        rows = [row for row in self.table if row.c == c]
        if not rows:
            raise KeyError(f"no grid rows with c={c}")
        return min(rows, key=_selection_key)

    def to_csv(self, path) -> None:
        write_csv(path, ("C", "w_A", "encoder_variance", "encoder_bias", "decoder_variance", "total"),
                  map(astuple, self.table))


def estimate_diag_fisher(
    params: ParamVector,
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
    task: str,
    offsets: np.ndarray | None = None,
    chunk_size: int = 4096,
) -> DiagFisher:
    """Average squared per-sample score gradients of the task branch.

    For sample i the score w.r.t. the branch logits is z_i - sigmoid(u_i);
    per-sample weight gradients are rank-one (outer(h, delta)), so their
    squares accumulate as (h^2)^T (delta^2) without materializing per-sample
    gradients. The walk is the training step's (nn._backward on a stack of
    one) from the loss delta sigmoid(u) - z, the negated score, reduced
    squared; rows run in chunks of chunk_size. Blocks of the unused head
    stay zero.
    """
    _check_params(params, spec)
    t = _task_index(task)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise DataFormatError("cannot estimate Fisher from empty data")
    if features.ndim != 2 or features.shape[1] != spec.input_dim:
        raise StructuralError(f"features must be (n, {spec.input_dim}), got {features.shape}")
    if labels.shape[0] != n:
        raise StructuralError("label rows must match feature rows")
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.float64)
    depth = spec.depth
    blocks = _block_views(params.values[None, :], spec)
    w_h, b_h = blocks[depth + t]
    trunk_w_t = [w.swapaxes(1, 2) for w, _ in blocks[:depth]]
    acc = np.zeros((1, spec.param_count))
    acc_blocks = _block_views(acc, spec)
    for start in range(0, n, chunk_size):
        rows = slice(start, start + chunk_size)
        derivs = []
        acts = _trunk_forward(blocks[:depth], features[rows], spec.activation, derivs)
        u = acts[-1] @ w_h
        u += b_h
        if offsets is not None:
            u += offsets
        ds = _sigmoid(u) - labels[rows]
        _backward(acts, derivs, slice(None), ds, w_h.swapaxes(1, 2), trunk_w_t, acc_blocks,
                  depth + t, _reduce_fisher)
    return DiagFisher(acc[0] / n, n)


def _reduce_fisher(a: np.ndarray, delta: np.ndarray, f_w: np.ndarray, f_b: np.ndarray) -> None:
    """Add one layer's squared-score sums: (a^2)^T (delta^2) to f_w and the
    batch sum of delta^2 to f_b."""
    delta = np.square(delta)
    f_w += np.square(a).swapaxes(-1, -2) @ delta
    bias = np.empty_like(f_b)
    _sum_batch(delta, bias)
    f_b += bias


def encoder_mismatch(params_a: ParamVector, params_b: ParamVector, c: int) -> MismatchVector:
    """Elementwise task-B minus task-A parameters over the depth-c encoder slice."""
    if params_a.block_index != params_b.block_index:
        raise StructuralError("parameter vectors come from different architectures")
    return MismatchVector(params_b.encoder_slice(c) - params_a.encoder_slice(c), c)


def _variance_quotient(a: np.ndarray, b: np.ndarray, w_a: float) -> np.ndarray:
    w_b = 1.0 - w_a
    denom = w_a * a + w_b * b
    alive = denom >= DEAD_COORD_EPS
    safe = np.where(alive, denom, 1.0)
    return np.where(alive, (a + b) * (w_a * w_a * a + w_b * w_b * b) / (safe * safe), 0.0)


def _bias_terms(a: np.ndarray, b: np.ndarray, delta: np.ndarray, w_a: float) -> np.ndarray:
    w_b = 1.0 - w_a
    return delta * delta * (w_b * w_b * a + w_a * w_a * b)


def proxy_eval(
    fisher_a: DiagFisher,
    fisher_b: DiagFisher,
    mismatch: MismatchVector,
    w_a: float,
    n_train: int,
    spec: ModelSpec,
) -> ProxyBreakdown:
    """The three proxy terms at one (c, w_a) grid point: the one cell of
    grid_search on a 1 x 1 grid, with c taken from the mismatch."""
    d_enc = spec.encoder_params(mismatch.c)
    if mismatch.delta.size != d_enc:
        raise StructuralError(
            f"mismatch has {mismatch.delta.size} entries, encoder slice needs {d_enc}"
        )
    return grid_search(fisher_a, fisher_b, mismatch, n_train, spec, (mismatch.c,), (w_a,)).table[0]


def _selection_key(row: ProxyBreakdown) -> tuple:
    # Ties: smaller total, then smaller c, then w closest to 0.5, then smaller w.
    return (row.total, row.c, abs(row.w_a - 0.5), row.w_a)


def grid_search(
    fisher_a: DiagFisher,
    fisher_b: DiagFisher,
    trunk_mismatch,
    n_train: int,
    spec: ModelSpec,
    c_values=None,
    w_values=None,
) -> GridSearchResult:
    """Proxy totals over the full (c, w_a) grid plus the argmin cell.

    trunk_mismatch must cover the deepest candidate's encoder slice (the
    slices nest, so the full-depth mismatch serves every c). The per-w
    per-coordinate terms are computed once over the full trunk and summed
    per candidate depth, which keeps a 13 x 11 grid over a million-entry
    Fisher within a couple of seconds.
    """
    c_values = tuple(range(spec.depth + 1)) if c_values is None else tuple(int(c) for c in c_values)
    w_values = DEFAULT_W_GRID if w_values is None else tuple(float(w) for w in w_values)
    if not c_values or not w_values:
        raise DomainError("candidate grids must be nonempty")
    if n_train < 1:
        raise DomainError(f"n_train must be >= 1, got {n_train}")
    for c in c_values:
        spec.encoder_params(c)  # range check
    for w in w_values:
        if not 0.0 <= w <= 1.0:
            raise DomainError("w_a candidates must lie in [0, 1]")
    delta_full = trunk_mismatch.delta if isinstance(trunk_mismatch, MismatchVector) else np.asarray(
        trunk_mismatch, dtype=np.float64
    )
    d_max = spec.encoder_params(max(c_values))
    if delta_full.size < d_max:
        raise StructuralError("trunk mismatch does not cover the deepest candidate slice")
    for f in (fisher_a, fisher_b):
        if f.values.size != spec.param_count:
            raise StructuralError("Fisher vector does not cover the full parameter count")
    a = fisher_a.values[:d_max]
    b = fisher_b.values[:d_max]
    delta = delta_full[:d_max]
    for name, values in (("fisher_a", a), ("fisher_b", b), ("trunk_mismatch", delta)):
        if not np.isfinite(values).all():
            raise DomainError(f"{name} has non-finite entries in the encoder slice")
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("Fisher entries must be nonnegative")

    cells = {}
    for w in w_values:
        quot = _variance_quotient(a, b, w)
        bias = _bias_terms(a, b, delta, w)
        for c in c_values:
            d = spec.encoder_params(c)
            enc_var = float(quot[:d].sum() / (2.0 * n_train))
            enc_bias = float(0.5 * bias[:d].sum())
            dec_var = (spec.decoder_params(c, "A") + spec.decoder_params(c, "B")) / (2.0 * n_train)
            cells[(c, w)] = ProxyBreakdown(c, w, enc_var, enc_bias, dec_var, enc_var + enc_bias + dec_var)

    table = [cells[(c, w)] for c in c_values for w in w_values]
    best = min(table, key=_selection_key)
    return GridSearchResult(best.c, best.w_a, table, c_values, w_values)


def dense_proxy_terms(
    fisher_a_diag: np.ndarray,
    fisher_b_diag: np.ndarray,
    delta: np.ndarray,
    w_a: float,
    n_train: int,
) -> tuple:
    """Reference evaluation through explicit dense matrices.

    Builds H(w) and G(w) as matrices, inverts H, and takes the trace and
    quadratic form directly. Only sensible at tiny encoder dimension; kept
    as the independent check of the diagonal shortcut.
    """
    ja = np.diag(np.asarray(fisher_a_diag, dtype=np.float64))
    jb = np.diag(np.asarray(fisher_b_diag, dtype=np.float64))
    w_b = 1.0 - w_a
    h = w_a * ja + w_b * jb
    g = w_a * w_a * ja + w_b * w_b * jb
    h_inv = np.linalg.inv(h)
    enc_var = float(np.trace((ja + jb) @ h_inv @ g @ h_inv) / (2.0 * n_train))
    delta = np.asarray(delta, dtype=np.float64)
    enc_bias = float(0.5 * delta @ (w_b * w_b * ja + w_a * w_a * jb) @ delta)
    return enc_var, enc_bias
