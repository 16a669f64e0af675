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
from .nn import ModelSpec, ParamVector, _one_task_stack
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
        if self.values.min(initial=0.0) < 0:
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
) -> DiagFisher:
    """Average squared per-sample score gradients of the task branch.

    For sample i the score w.r.t. the branch logits is z_i - sigmoid(u_i);
    per-sample weight gradients are rank-one (outer(h, delta)), so their
    squares accumulate as (h^2)^T (delta^2) without materializing per-sample
    gradients. This is the training engine's one-task pass (nn._Stack.fisher
    on a stack of one): the inputs pass the training step's checks, and its
    forward pass, head logits and backward walk run from the loss delta
    sigmoid(u) - z, the negated score, reduced squared. Blocks of the unused
    head stay zero.
    """
    stack = _one_task_stack(params, spec, features, labels, task, offsets)
    n = stack.features.shape[0]
    if n == 0:
        raise DataFormatError("cannot estimate Fisher from empty data")
    values = stack.fisher()[0]
    values /= n
    return DiagFisher(values, n)


def _encoder_length(params_a: ParamVector, params_b: ParamVector, c: int) -> int:
    """Length of the depth-c encoder slice that two parameter vectors of
    one architecture share."""
    table = params_a.block_index
    if table != params_b.block_index:
        raise StructuralError("parameter vectors come from different architectures")
    if not 0 <= c <= len(table) - 2:
        raise StructuralError(f"shared depth {c} out of range 0..{len(table) - 2}")
    return sum(length for _, _, length in table[:c])


def encoder_mismatch(params_a: ParamVector, params_b: ParamVector, c: int) -> MismatchVector:
    """Elementwise task-B minus task-A parameters over the depth-c encoder slice."""
    d = _encoder_length(params_a, params_b, c)
    return MismatchVector(params_b.values[:d] - params_a.values[:d], c)


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


def _quotient_sum(a, b, w_a: float, denom, num, tmp, dead) -> float:
    """Sum over one trunk layer of the variance quotient
    (a + b) (w_a^2 a + w_b^2 b) / (w_a a + w_b b)^2, a coordinate whose
    denominator is below DEAD_COORD_EPS counting zero. Works in three
    layer-long buffers and a mask; each element takes the operations of
    the out-of-place expression, in its order (up to commuted operands)."""
    w_b = 1.0 - w_a
    np.multiply(a, w_a, out=denom)
    denom += np.multiply(b, w_b, out=tmp)
    np.less(denom, DEAD_COORD_EPS, out=dead)
    np.copyto(denom, 1.0, where=dead)
    denom *= denom
    np.multiply(a, w_a * w_a, out=num)
    num += np.multiply(b, w_b * w_b, out=tmp)
    num *= np.add(a, b, out=tmp)
    num /= denom
    np.copyto(num, 0.0, where=dead)
    return float(num.sum())


def _finite(values: np.ndarray) -> bool:
    """Whether every entry is finite, by two reductions and no mask: a NaN
    carries into both, an infinity sets one of them."""
    return bool(np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0)))


def _selection_key(row: ProxyBreakdown) -> tuple:
    # Ties: smaller total, then smaller c, then w closest to 0.5, then smaller w.
    return (row.total, row.c, abs(row.w_a - 0.5), row.w_a)


def candidate_grid(spec: ModelSpec, c_values=None, w_values=None) -> tuple:
    """(c_values, w_values) as ints and floats: every shared depth 0..L and
    DEFAULT_W_GRID where a grid is None. A grid must be nonempty, each
    depth must lie in 0..L and each head weight in [0, 1]."""
    c_values = tuple(range(spec.depth + 1)) if c_values is None else tuple(int(c) for c in c_values)
    w_values = DEFAULT_W_GRID if w_values is None else tuple(float(w) for w in w_values)
    if not c_values or not w_values:
        raise DomainError("candidate grids must be nonempty")
    for c in c_values:
        spec.encoder_params(c)  # range check
    for w in w_values:
        if not 0.0 <= w <= 1.0:
            raise DomainError(f"w_a candidates must lie in [0, 1], got {w}")
    return c_values, w_values


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

    trunk_mismatch is a MismatchVector or array covering the deepest
    candidate's encoder slice (the slices nest on trunk-layer boundaries,
    so the full-depth mismatch serves every c), or the pair (params_a,
    params_b) it is the difference of. The grid is evaluated one trunk
    layer at a time in layer-long buffers, with nothing of encoder length
    allocated: per layer, the mismatch is copied or subtracted into one
    buffer, checked and squared there (the bits of encoder_mismatch and
    delta * delta), each w's variance quotient is summed once, and the
    bias takes two w-independent layer sums, S_A = sum delta^2 a and
    S_B = sum delta^2 b, as (1/2)(w_b^2 S_A + w_a^2 S_B). Both accumulate
    over depth, so each layer's work is done once for all candidate
    depths. Terms match the cumulative-sum closed form within 2 d eps of
    its value. Non-finite Fisher entries, then a non-finite mismatch,
    then negative Fisher entries in the slice raise DomainError.
    """
    c_values, w_values = candidate_grid(spec, c_values, w_values)
    if n_train < 1:
        raise DomainError(f"n_train must be >= 1, got {n_train}")
    if isinstance(trunk_mismatch, tuple) and trunk_mismatch and isinstance(trunk_mismatch[0], ParamVector):
        params_a, params_b = trunk_mismatch
        minuend, subtrahend = params_b.values, params_a.values
        size = _encoder_length(params_a, params_b, spec.depth)
    else:
        minuend = trunk_mismatch.delta if isinstance(trunk_mismatch, MismatchVector) else np.asarray(
            trunk_mismatch, dtype=np.float64
        )
        subtrahend, size = None, minuend.size
    d_max = spec.encoder_params(max(c_values))
    if size < d_max:
        raise StructuralError("trunk mismatch does not cover the deepest candidate slice")
    for f in (fisher_a, fisher_b):
        if f.values.size != spec.param_count:
            raise StructuralError("Fisher vector does not cover the full parameter count")
    a = fisher_a.values[:d_max]
    b = fisher_b.values[:d_max]
    for name, values in (("fisher_a", a), ("fisher_b", b)):
        if not _finite(values):
            raise DomainError(f"{name} has non-finite entries in the encoder slice")

    # sums[c]: the per-w quotient sums and S_A, S_B over trunk layers 1..c,
    # accumulated layer by layer in the fixed order 1, 2, ..., so a cell's
    # value never depends on which other cells were requested.
    bounds = [spec.encoder_params(c) for c in range(max(c_values) + 1)]
    width = max((hi - lo for lo, hi in zip(bounds, bounds[1:])), default=0)
    buffers = (np.empty(width), np.empty(width), np.empty(width), np.empty(width, dtype=bool))
    quot_sums, s_a, s_b = [0.0] * len(w_values), 0.0, 0.0
    sums = [(quot_sums, s_a, s_b)]
    for lo, hi in zip(bounds, bounds[1:]):
        a_l, b_l = a[lo:hi], b[lo:hi]
        layer = [buf[:hi - lo] for buf in buffers]
        d_sq, prod = layer[0], layer[1]
        if subtrahend is None:
            np.copyto(d_sq, minuend[lo:hi])
        else:
            np.subtract(minuend[lo:hi], subtrahend[lo:hi], out=d_sq)
        if not _finite(d_sq):
            raise DomainError("trunk_mismatch has non-finite entries in the encoder slice")
        d_sq *= d_sq
        s_a += float(np.multiply(d_sq, a_l, out=prod).sum())
        s_b += float(np.multiply(d_sq, b_l, out=prod).sum())
        quot_sums = [q + _quotient_sum(a_l, b_l, w, *layer) for q, w in zip(quot_sums, w_values)]
        sums.append((quot_sums, s_a, s_b))
    # Checked after the loop, so that a non-finite mismatch is refused first.
    if min(a.min(initial=0.0), b.min(initial=0.0)) < 0:
        raise DomainError("Fisher entries must be nonnegative")

    table = []
    for c in c_values:
        quot_c, s_a, s_b = sums[c]
        dec_var = (spec.decoder_params(c, "A") + spec.decoder_params(c, "B")) / (2.0 * n_train)
        for w, quot in zip(w_values, quot_c):
            w_b = 1.0 - w
            enc_var = quot / (2.0 * n_train)
            enc_bias = 0.5 * (w_b * w_b * s_a + w * w * s_b)
            table.append(ProxyBreakdown(c, w, enc_var, enc_bias, dec_var, enc_var + enc_bias + dec_var))
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
