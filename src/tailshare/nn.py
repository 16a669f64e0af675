"""Minimal dense feed-forward networks with exact manual gradients.

All parameters of one two-headed network live in a single flat float64
vector, partitioned into contiguous blocks: trunk layers in order, then
the task-A head, then the task-B head. Because the trunk blocks lead,
the encoder slice for any shared depth is a contiguous prefix of the
flat vector, which the sharing/proxy code slices against.

Weight matrices are stored row-major with shape (fan_in, fan_out), each
block laid out as weights followed by biases.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StructuralError, TrainingDivergenceError

TASKS = ("A", "B")
# Rows per chunk of the diagonal Fisher's pass (_Stack.fisher), and the
# most bytes one chunk's cached trunk activations may take: a trunk whose
# widths sum to 512 or less keeps the full FISHER_CHUNK_ROWS rows.
FISHER_CHUNK_ROWS = 4096
FISHER_CHUNK_BYTES = 16 << 20


def _task_index(task: str) -> int:
    if task not in TASKS:
        raise StructuralError(f"unknown task {task!r}, expected 'A' or 'B'")
    return TASKS.index(task)


class _Block(NamedTuple):
    """`length` values from `offset`: a (fan_in, fan_out) weight matrix,
    row-major, then fan_out biases. The first three are a block_table row."""

    name: str
    offset: int
    length: int
    fan_in: int
    fan_out: int


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a two-headed dense network.

    trunk_widths lists the output width of each trunk layer; its length is
    the trunk depth. head_dims gives the class counts of the task-A and
    task-B heads, which are linear layers on top of the last trunk layer.
    The flat parameter layout is one table built here: a _Block per trunk
    layer, then head_a and head_b. It is not a field, so asdict, equality
    and hashing see the four fields alone.
    """

    input_dim: int
    trunk_widths: tuple
    head_dims: tuple
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        object.__setattr__(self, "head_dims", tuple(int(d) for d in self.head_dims))
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if len(self.trunk_widths) < 1 or min(self.trunk_widths) < 1:
            raise ConfigError("trunk_widths must be a nonempty sequence of positive ints")
        if len(self.head_dims) != 2 or min(self.head_dims) < 1:
            raise ConfigError("head_dims must be a pair of positive ints")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unsupported activation {self.activation!r}")
        widths = (self.input_dim,) + self.trunk_widths
        shapes = [(f"trunk{i}", widths[i - 1], widths[i]) for i in range(1, len(widths))]
        shapes += [("head_a", widths[-1], self.head_dims[0]), ("head_b", widths[-1], self.head_dims[1])]
        layout, offset = [], 0
        for name, fan_in, fan_out in shapes:
            layout.append(_Block(name, offset, fan_in * fan_out + fan_out, fan_in, fan_out))
            offset += layout[-1].length
        object.__setattr__(self, "_layout", tuple(layout))

    @property
    def depth(self) -> int:
        return len(self.trunk_widths)

    def block_table(self) -> tuple:
        """((name, offset, length), ...) covering the flat vector exactly."""
        return tuple(b[:3] for b in self._layout)

    @property
    def param_count(self) -> int:
        return self._layout[-1].offset + self._layout[-1].length

    def encoder_params(self, c: int) -> int:
        """Parameter count of trunk layers 1..c (the shared-encoder slice):
        the offset of the block after them."""
        if not 0 <= c <= self.depth:
            raise StructuralError(f"shared depth {c} out of range 0..{self.depth}")
        return self._layout[c].offset

    def decoder_params(self, c: int, task: str) -> int:
        """Parameters of trunk layers c+1..L plus the task head."""
        head = self._layout[self.depth + _task_index(task)]
        return self.encoder_params(self.depth) - self.encoder_params(c) + head.length


@dataclass
class ParamVector:
    """Flat float64 parameter storage plus its per-layer block index."""

    values: np.ndarray
    block_index: tuple

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise StructuralError("parameter values must be a flat 1-D array")
        offset = 0
        for name, off, length in self.block_index:
            if off != offset:
                raise StructuralError(f"block {name} at offset {off}, expected {offset}")
            offset += length
        if offset != self.values.size:
            raise StructuralError(
                f"blocks cover {offset} values but the flat array holds {self.values.size}"
            )

    def block(self, name: str) -> np.ndarray:
        for bname, off, length in self.block_index:
            if bname == name:
                return self.values[off:off + length]
        raise StructuralError(f"no block named {name!r}")

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.block_index)


@dataclass
class Batch:
    """A labeled sample batch with per-task binary label matrices.

    Every row of [z_a | z_b] must sum to exactly 1: each sample carries a
    one-hot label in exactly one task group and an all-zero row in the other.
    """

    features: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.z_a = np.asarray(self.z_a, dtype=np.float64)
        self.z_b = np.asarray(self.z_b, dtype=np.float64)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise StructuralError("features must be a 2-D matrix")
        if self.z_a.ndim != 2 or self.z_b.ndim != 2:
            raise StructuralError("label matrices must be 2-D")
        if self.z_a.shape[0] != n or self.z_b.shape[0] != n:
            raise StructuralError("label row counts must match the feature rows")
        row_sums = self.z_a.sum(axis=1) + self.z_b.sum(axis=1)
        if not np.all(row_sums == 1.0):
            raise StructuralError("each row of [z_a | z_b] must sum to exactly 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class OptConfig:
    """SGD-with-momentum settings for one training run."""

    learning_rate: float
    momentum: float = 0.9
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class TrainResult:
    params: ParamVector
    epoch_losses: list


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Seeded init: weights uniform on +-1/sqrt(fan_in), biases exactly zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.param_count, dtype=np.float64)
    for b in spec._layout:
        n_weights = b.fan_in * b.fan_out
        scale = 1.0 / np.sqrt(b.fan_in)
        values[b.offset:b.offset + n_weights] = rng.uniform(-scale, scale, size=n_weights)
    return ParamVector(values, spec.block_table())


def _check_params(params: ParamVector, spec: ModelSpec) -> None:
    if params.block_index != spec.block_table():
        raise StructuralError("parameter block layout does not match the model spec")


def _features(spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    """The feature matrix as float64, checked to be (n, input_dim)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise StructuralError(f"features must be (n, {spec.input_dim}), got {x.shape}")
    return x


def _forward_cache(params: ParamVector, spec: ModelSpec, features: np.ndarray, task: str):
    """Forward pass keeping pre-activations and activations: (trunk (W, b)
    views, head views by task, pre-activations, activations, logits)."""
    x = _features(spec, features)
    views = [(w[0], b[0, 0]) for w, b in _block_views(params.values[None, :], spec)]
    trunk, heads = views[:spec.depth], dict(zip(TASKS, views[spec.depth:]))
    pres = []
    acts = [x]
    h = x
    for w, b in trunk:
        pre = h @ w + b
        h = np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre)
        pres.append(pre)
        acts.append(h)
    w_h, b_h = heads[TASKS[_task_index(task)]]
    logits = h @ w_h + b_h
    return trunk, heads, pres, acts, logits


def trunk_activations(params: ParamVector, spec: ModelSpec, features: np.ndarray) -> list:
    """Activations [x, h_1, ..., h_L] of the network's trunk at `features`:
    x as a float matrix, each h_c as a (1, n, width) stack of one, for
    forward_from to continue from."""
    _check_params(params, spec)
    x = _features(spec, features)
    return _trunk_forward(_block_views(params.values[None, :], spec)[:spec.depth], x, spec.activation)


def forward_from(params: ParamVector, spec: ModelSpec, h: np.ndarray, layer: int, task: str) -> np.ndarray:
    """Per-class logits of the requested branch, one row per sample, from
    h, the activations of trunk layer `layer` as trunk_activations gives
    them (layer 0: the features): trunk layers layer+1..L, then the head.
    No normalization across classes: each logit feeds an independent
    Bernoulli factor. Any network whose first `layer` trunk blocks equal
    those that made h gets the bits of its own pass from layer 0."""
    blocks = _block_views(params.values[None, :], spec)
    w_h, b_h = blocks[spec.depth + _task_index(task)]
    logits = _trunk_forward(blocks[layer:spec.depth], h, spec.activation)[-1] @ w_h
    logits += b_h
    return logits[0]


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Logistic function from e = exp(-|x|), exact on both tails:
    1 / (1 + e) for x >= 0 and e / (1 + e) below. The numerator
    max(e, [x >= 0]) is 1 for x >= 0 (e <= 1) and e below."""
    if e is None:
        e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    out /= 1.0 + e
    return out


def _bce_terms(u: np.ndarray, labels: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Elementwise Bernoulli cross-entropy from logits u and e = exp(-|u|):
    softplus(u) - z * u, with softplus(u) = max(u, 0) + log1p(e)."""
    out = np.maximum(u, 0.0)
    out -= labels * u
    out += np.log1p(e)
    return out


def bce_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample summed Bernoulli cross-entropy, numerically stable.

    Uses -log(sigmoid(u)) = max(-u, 0) + log1p(exp(-|u|)), so the result is
    finite for every finite logit.
    """
    return _bce_terms(logits, labels, np.exp(-np.abs(logits))).sum(axis=1)


def _check_weights(task_weights) -> tuple:
    w_a, w_b = float(task_weights[0]), float(task_weights[1])
    if w_a < 0 or w_b < 0:
        raise ConfigError("task weights must be nonnegative")
    if w_a == 0 and w_b == 0:
        raise ConfigError("at least one task weight must be positive")
    if w_a > 0 and w_b > 0 and abs(w_a + w_b - 1.0) > 1e-12:
        raise ConfigError("joint training requires w_a + w_b = 1")
    return w_a, w_b


def _check_inputs(spec: ModelSpec, features, labels: tuple, offsets: tuple) -> tuple:
    """The inputs of a stack as float arrays, checked: features (n, input_dim)
    and, for each task whose labels are given, labels (n, head_dims[t]) and
    offsets (head_dims[t],) or None. Returns (features, labels, offsets); a
    task without labels gets None for both."""
    x = _features(spec, features)
    zs, offs = [None, None], [None, None]
    for t in range(2):
        if labels[t] is None:
            continue
        zs[t] = np.asarray(labels[t], dtype=np.float64)
        if zs[t].shape != (x.shape[0], spec.head_dims[t]):
            raise StructuralError(
                f"task {TASKS[t]} labels must be {(x.shape[0], spec.head_dims[t])}, got {zs[t].shape}")
        if offsets[t] is not None:
            offs[t] = np.asarray(offsets[t], dtype=np.float64)
            if offs[t].shape != (spec.head_dims[t],):
                raise StructuralError(
                    f"task {TASKS[t]} offsets must be {(spec.head_dims[t],)}, got {offs[t].shape}")
    return x, tuple(zs), tuple(offs)


def _sum_batch(a: np.ndarray, out: np.ndarray) -> None:
    """Sum a (K, B, C) stack over its batch axis into `out`, (K, 1, C),
    adding the rows in the order a (B, C) matrix's sum(axis=0) does: one
    row after another when C > 1 (einsum's loop), pairwise when C == 1."""
    if a.shape[2] == 1:
        np.add.reduce(a, axis=1, keepdims=True, out=out)
    else:
        np.einsum("kbc->kc", a, out=out[:, 0, :])


def _trunk_forward(trunk: list, x: np.ndarray, activation: str) -> list:
    """Activations [x, h_1, ..., h_L] of a stack's trunk, from its (W, b)
    views.

    In-place updates of fresh arrays keep the allocator quiet; each computes
    what its out-of-place form would, in the same order.
    """
    acts = [x]
    h = x
    for w, b in trunk:
        h = h @ w
        h += b
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def _block_views(values: np.ndarray, spec: ModelSpec) -> list:
    """(W, b) views of every block of a (K, P) stack, in block order:
    W as (K, fan_in, fan_out), b as (K, 1, fan_out)."""
    k = values.shape[0]
    views = []
    for b in spec._layout:
        split = b.offset + b.fan_in * b.fan_out
        views.append((values[:, b.offset:split].reshape(k, b.fan_in, b.fan_out),
                      values[:, split:b.offset + b.length].reshape(k, 1, b.fan_out)))
    return views


def _reduce_grad(a: np.ndarray, delta: np.ndarray, g_w: np.ndarray, g_b: np.ndarray) -> None:
    """One layer's gradient: a^T delta into g_w, the batch sum of delta into g_b."""
    np.matmul(a.swapaxes(-1, -2), delta, out=g_w)
    _sum_batch(delta, g_b)


def _reduce_fisher(a: np.ndarray, delta: np.ndarray, f_w: np.ndarray, f_b: np.ndarray) -> None:
    """Add one layer's squared-score sums: (a^2)^T (delta^2) to f_w and the
    batch sum of delta^2 to f_b."""
    delta = np.square(delta)
    f_w += np.square(a).swapaxes(-1, -2) @ delta
    bias = np.empty_like(f_b)
    _sum_batch(delta, bias)
    f_b += bias


def _backward(acts: list, activation: str, dh: np.ndarray, trunk_w_t: list, out_blocks: list,
              reduce=_reduce_grad) -> None:
    """The backward walk through a stack's trunk from the loss delta dh at
    its top, (K, B, width).

    From _trunk_forward's activations and the members' transposed trunk
    weights, it hands each layer's (input a, delta) pair to `reduce` with
    that layer's (W, b) views of `out_blocks`, layers L..1. Each layer's
    activation derivative is formed from its cached output h when the walk
    reaches it: for relu the mask h > 0, which holds exactly where the
    pre-activation is positive; for tanh 1 - h^2. Training reduces a pair
    to the gradient (_reduce_grad); the diagonal Fisher reduces the same
    pairs squared. The head's pair is the caller's.
    """
    for layer in range(len(trunk_w_t) - 1, -1, -1):
        h = acts[layer + 1]
        if activation == "relu":
            dh *= h > 0.0
        else:
            d = h * h
            dh *= np.subtract(1.0, d, out=d)
        reduce(acts[layer], dh, *out_blocks[layer])
        if layer:
            dh = dh @ trunk_w_t[layer]


class _TaskLanes(NamedTuple):
    """One task's slice of a stack: the members with a positive weight on
    it, their weights (k, 1, 1), views of their head and transposed head
    weights, and how many of its leading lanes no earlier task covers."""

    task: int
    lanes: slice
    weight: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray
    head_w_t: np.ndarray
    fresh: int


class _Stack:
    """K networks of one spec trained together on one set of checked inputs
    (_check_inputs): parameters as a (K, P) array, one task-weight pair per
    member, and the (K, P) gradient buffer that each step overwrites.

    Members are kept in the order task-B only, both tasks, task-A only, so
    the members of each task form one contiguous lane range and every
    per-task array is a view, never a gather. Lane i is the same member for
    the stack's whole life; lanes never mix, so a lane whose numbers go
    non-finite leaves the others' bits alone.
    """

    def __init__(self, spec, values, weights, inputs):
        k = values.shape[0]
        self.spec, self.values = spec, values
        self.features, self.labels, self.offsets = inputs
        self.blocks = _block_views(values, spec)
        depth = spec.depth
        self.trunk_w_t = [w.swapaxes(1, 2) for w, _ in self.blocks[:depth]]
        # Each step overwrites every block a member trains through; a
        # member's unused head block stays zero.
        self.grad = np.zeros_like(values)
        self.grad_blocks = _block_views(self.grad, spec)
        b_only = int((weights[:, 0] == 0).sum())
        a_only = int((weights[:, 1] == 0).sum())
        self.tasks = []
        # Task A first: its lanes are all fresh, task B's are fresh only
        # for the task-B-only members.
        for t, lanes, fresh in ((0, slice(b_only, k), k - b_only), (1, slice(0, k - a_only), b_only)):
            if lanes.start < lanes.stop:
                w_h, b_h = self.blocks[depth + t]
                self.tasks.append(_TaskLanes(
                    t, lanes, weights[lanes, t, None, None], w_h[lanes], b_h[lanes],
                    w_h[lanes].swapaxes(1, 2), fresh))

    def _logits(self, task: _TaskLanes, top: np.ndarray) -> np.ndarray:
        """Head logits of a task's lanes from the trunk top, offsets added."""
        u = top[task.lanes] @ task.head_w
        u += task.head_b
        if self.offsets[task.task] is not None:
            u += self.offsets[task.task]
        return u

    def step(self, rows) -> tuple:
        """Loss of every member on the minibatch `rows`, (K,), and its
        gradient, (K, P): the buffer the next step overwrites.

        The trunk forward pass runs once for both tasks. Each task scales
        its logit delta by its weight (exact for weight 1), reduces it to
        its head's gradient over the members with a positive weight on it,
        and carries it to the trunk top, where a member training both tasks
        adds task B's delta to task A's. The trunk is then walked backward
        once over all members. Stacked matmuls make the same BLAS call on
        every member's slice, and every other operation is elementwise or
        a reduction in the same order, so each member's numbers are
        bit-identical to a stack of one. That rests on each slice keeping
        the memory layout of a lone network's array: BLAS results can
        change with operand strides.
        """
        spec = self.spec
        depth = spec.depth
        x = self.features[rows]
        n = x.shape[0]
        acts = _trunk_forward(self.blocks[:depth], x, spec.activation)
        loss = np.zeros(self.values.shape[0])
        top = np.empty((self.values.shape[0], n, spec.trunk_widths[-1]))
        for task in self.tasks:
            t, lanes, w_t, _, _, w_h_t, fresh = task
            u = self._logits(task, acts[-1])
            z = self.labels[t][rows]
            e = np.abs(u)
            np.exp(np.negative(e, out=e), out=e)
            terms = _bce_terms(u, z, e)
            ds = _sigmoid(u, e)
            ds -= z
            ds /= n
            loss[lanes] += w_t[:, 0, 0] * (np.add.reduce(terms.reshape(len(w_t), -1), axis=1) / n)
            ds *= w_t
            _reduce_grad(acts[-1][lanes], ds, *(v[lanes] for v in self.grad_blocks[depth + t]))
            top_t = top[lanes]
            np.matmul(ds[:fresh], w_h_t[:fresh], out=top_t[:fresh])
            if fresh < len(w_t):
                top_t[fresh:] += ds[fresh:] @ w_h_t[fresh:]
        _backward(acts, spec.activation, top, self.trunk_w_t, self.grad_blocks)
        return loss, self.grad

    def fisher(self) -> np.ndarray:
        """Per-parameter sums of squared per-sample score gradients over all
        rows, (K, P), for a stack training one task with weight 1: a step's
        passes from the unscaled delta sigmoid(u) - z, reduced squared, in
        chunks of rows. A chunk has FISHER_CHUNK_ROWS rows, or fewer (at
        least one) where its cached trunk activations, K x rows x the sum of
        the trunk widths float64s, would pass FISHER_CHUNK_BYTES; the wide
        criterion-8 trunk (12 x 288) runs 606-row chunks. The chunks
        accumulate in the gradient buffer, so the stack must not have
        stepped."""
        (task,) = self.tasks
        depth = self.spec.depth
        row_bytes = 8 * self.values.shape[0] * sum(self.spec.trunk_widths)
        chunk = max(1, min(FISHER_CHUNK_ROWS, FISHER_CHUNK_BYTES // row_bytes))
        for start in range(0, self.features.shape[0], chunk):
            rows = slice(start, start + chunk)
            acts = _trunk_forward(self.blocks[:depth], self.features[rows], self.spec.activation)
            ds = _sigmoid(self._logits(task, acts[-1])) - self.labels[task.task][rows]
            _reduce_fisher(acts[-1], ds, *self.grad_blocks[depth + task.task])
            _backward(acts, self.spec.activation, ds @ task.head_w_t, self.trunk_w_t, self.grad_blocks,
                      _reduce_fisher)
            # Free this chunk's cache before the next chunk's forward pass
            # builds its own, so that only one is held at a time.
            del acts
        return self.grad


def _one_task_stack(params: ParamVector, spec: ModelSpec, features, labels, task: str, offsets) -> _Stack:
    """A stack of one: `params` training `task` alone with weight 1, on
    the checked features, labels and offsets of that task."""
    _check_params(params, spec)
    t = _task_index(task)
    weights = np.eye(2)[t:t + 1]
    pair = ((labels, None), (offsets, None)) if t == 0 else ((None, labels), (None, offsets))
    return _Stack(spec, params.values[None, :], weights, _check_inputs(spec, features, *pair))


def bce_loss_grad(
    params: ParamVector,
    spec: ModelSpec,
    batch: Batch,
    task: str,
    offsets: np.ndarray | None = None,
) -> tuple:
    """Mean Bernoulli cross-entropy of one task branch and its exact gradient.

    loss = -(1/n) sum_i sum_k [z_ik log s(u_ik) + (1 - z_ik) log(1 - s(u_ik))]
    with u = logits + offsets (per-class additive offsets, e.g. log priors).
    The returned gradient is a full ParamVector; blocks of the unused head
    are exactly zero. This is one training step over a stack of one.
    """
    labels = (batch.z_a, batch.z_b)[_task_index(task)]
    loss, grad = _one_task_stack(params, spec, batch.features, labels, task, offsets).step(slice(None))
    return float(loss[0]), ParamVector(grad[0], params.block_index)


def train_stack(
    starts: list,
    spec: ModelSpec,
    batch: Batch,
    task_weights: list,
    opt: OptConfig,
    frozen: list | None = None,
    offsets: tuple = (None, None),
) -> list:
    """SGD with momentum on w_a * BCE_A + w_b * BCE_B for a stack of networks.

    The members share the batch and the optimizer settings, so also the
    seeded per-epoch minibatch order; each has its own start parameters,
    task weights and frozen encoder depth (`frozen` gives one depth c per
    member, default 0: its trunk layers 1..c, the flat prefix
    encoder_params(c), stay bit-for-bit fixed; 0 trains everything).
    Every sample contributes to both task terms (all-zero label rows just
    drop the positive part). A member with zero weight on a task never
    reads that task's labels or head: that head's gradient block is never
    written, so it stays exactly 0, its velocity +0.0, and the head keeps
    its bits. Each member's trajectory is bit-identical to training it
    alone.

    Returns one entry per member, in order: its TrainResult, or the
    TrainingDivergenceError of the epoch where its loss first went
    non-finite. A diverged member's lane keeps stepping and nothing reads
    it; the others are unaffected. The run stops once every member has
    diverged.
    """
    k = len(starts)
    if k == 0:
        raise ConfigError("need at least one network to train")
    if len(task_weights) != k:
        raise ConfigError("need one task-weight pair per network")
    frozen = [0] * k if frozen is None else list(frozen)
    if len(frozen) != k:
        raise ConfigError("need one frozen depth per network")
    for params in starts:
        _check_params(params, spec)
    weights = np.array([_check_weights(tw) for tw in task_weights])
    # Lane order: task-B only (0), both tasks (1), task-A only (2).
    members = np.argsort((weights[:, 0] > 0).astype(int) + (weights[:, 1] == 0), kind="stable")
    weights = weights[members]
    labels = tuple(z if weights[:, t].any() else None for t, z in enumerate((batch.z_a, batch.z_b)))
    inputs = _check_inputs(spec, batch.features, labels, offsets)
    prefix = np.array([spec.encoder_params(frozen[m]) for m in members])
    mask = np.arange(spec.param_count) >= prefix[:, None] if prefix.any() else None
    stack = _Stack(spec, np.stack([starts[m].values for m in members]), weights, inputs)
    velocity = np.zeros_like(stack.values)

    diverged = [None] * k
    losses = [[] for _ in range(k)]

    def note_divergence(epoch, loss) -> bool:
        """Record each lane's first non-finite loss; True once every lane
        has diverged."""
        for i in np.flatnonzero(~np.isfinite(loss)):
            if diverged[i] is None:
                diverged[i] = TrainingDivergenceError(epoch, float(loss[i]))
        return None not in diverged

    rng = np.random.default_rng(opt.seed)
    n = batch.n
    # Overflow on the way to a divergence is reported as that member's
    # TrainingDivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opt.epochs):
            if None not in diverged:
                break
            order = rng.permutation(n)
            total = np.zeros(k)
            for start in range(0, n, opt.batch_size):
                rows = order[start:start + opt.batch_size]
                loss, grad = stack.step(rows)
                if not np.isfinite(loss).all() and note_divergence(epoch, loss):
                    break
                velocity = opt.momentum * velocity - opt.learning_rate * grad
                if mask is None:
                    stack.values += velocity
                else:
                    np.add(stack.values, velocity, out=stack.values, where=mask)
                total += loss * rows.size
            epoch_loss = total / n
            if not np.isfinite(epoch_loss).all():
                note_divergence(epoch, epoch_loss)
            for i in range(k):
                losses[i].append(float(epoch_loss[i]))
    results = [None] * k
    for i, m in enumerate(members):
        results[m] = diverged[i] or TrainResult(ParamVector(stack.values[i].copy(), starts[m].block_index),
                                                losses[i])
    return results


def _all_trained(results: list) -> list:
    """train_stack's TrainResults, or its first member's divergence raised."""
    for res in results:
        if isinstance(res, TrainingDivergenceError):
            raise res
    return results


def train(params: ParamVector, spec: ModelSpec, batch: Batch, task_weights: tuple,
          opt: OptConfig) -> TrainResult:
    """SGD-with-momentum on w_a * BCE_A + w_b * BCE_B: train_stack for one
    network. Mini-batch order is a seeded shuffle per epoch, so a fixed
    (config, seed) pair reproduces the trained parameters exactly. Raises
    TrainingDivergenceError when the loss goes non-finite.
    """
    (result,) = _all_trained(train_stack([params], spec, batch, [task_weights], opt))
    return result
