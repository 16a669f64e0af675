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


def _task_index(task: str) -> int:
    if task not in TASKS:
        raise StructuralError(f"unknown task {task!r}, expected 'A' or 'B'")
    return TASKS.index(task)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a two-headed dense network.

    trunk_widths lists the output width of each trunk layer; its length is
    the trunk depth. head_dims gives the class counts of the task-A and
    task-B heads, which are linear layers on top of the last trunk layer.
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

    @property
    def depth(self) -> int:
        return len(self.trunk_widths)

    def trunk_shape(self, layer: int) -> tuple:
        """(fan_in, fan_out) of 1-based trunk layer `layer`."""
        if not 1 <= layer <= self.depth:
            raise StructuralError(f"trunk layer {layer} out of range 1..{self.depth}")
        fan_in = self.input_dim if layer == 1 else self.trunk_widths[layer - 2]
        return fan_in, self.trunk_widths[layer - 1]

    def head_shape(self, task: str) -> tuple:
        return self.trunk_widths[-1], self.head_dims[_task_index(task)]

    def block_names(self) -> tuple:
        trunk = tuple(f"trunk{i}" for i in range(1, self.depth + 1))
        return trunk + ("head_a", "head_b")

    def block_shape(self, name: str) -> tuple:
        if name == "head_a":
            return self.head_shape("A")
        if name == "head_b":
            return self.head_shape("B")
        if name.startswith("trunk"):
            return self.trunk_shape(int(name[5:]))
        raise StructuralError(f"unknown block {name!r}")

    def block_table(self) -> tuple:
        """((name, offset, length), ...) covering the flat vector exactly."""
        table = []
        offset = 0
        for name in self.block_names():
            fan_in, fan_out = self.block_shape(name)
            length = fan_in * fan_out + fan_out
            table.append((name, offset, length))
            offset += length
        return tuple(table)

    @property
    def param_count(self) -> int:
        return sum(length for _, _, length in self.block_table())

    def encoder_params(self, c: int) -> int:
        """Parameter count of trunk layers 1..c (the shared-encoder slice)."""
        if not 0 <= c <= self.depth:
            raise StructuralError(f"shared depth {c} out of range 0..{self.depth}")
        total = 0
        for layer in range(1, c + 1):
            fan_in, fan_out = self.trunk_shape(layer)
            total += fan_in * fan_out + fan_out
        return total

    def decoder_params(self, c: int, task: str) -> int:
        """Parameters of trunk layers c+1..L plus the task head."""
        fan_in, fan_out = self.head_shape(task)
        return self.encoder_params(self.depth) - self.encoder_params(c) + fan_in * fan_out + fan_out

    def task_params(self, task: str) -> int:
        """Total parameter count of the single-task network (trunk + one head)."""
        return self.encoder_params(self.depth) + self.decoder_params(self.depth, task)

    def decoder_block_names(self, c: int, task: str) -> tuple:
        head = "head_a" if _task_index(task) == 0 else "head_b"
        return tuple(f"trunk{i}" for i in range(c + 1, self.depth + 1)) + (head,)


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

    def encoder_slice(self, c: int) -> np.ndarray:
        """View of the parameters of trunk layers 1..c (contiguous prefix)."""
        n_trunk = len(self.block_index) - 2
        if not 0 <= c <= n_trunk:
            raise StructuralError(f"shared depth {c} out of range 0..{n_trunk}")
        if c == 0:
            return self.values[:0]
        _, off, length = self.block_index[c - 1]
        return self.values[:off + length]

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
    sample_weight: np.ndarray | None = None

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
        if self.sample_weight is not None:
            self.sample_weight = np.asarray(self.sample_weight, dtype=np.float64)
            if self.sample_weight.shape != (n,):
                raise StructuralError("sample_weight must be one real per sample")

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
    table = spec.block_table()
    values = np.zeros(spec.param_count, dtype=np.float64)
    for name, offset, _ in table:
        fan_in, fan_out = spec.block_shape(name)
        scale = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-scale, scale, size=fan_in * fan_out)
        values[offset:offset + fan_in * fan_out] = w
    return ParamVector(values, table)


def _check_params(params: ParamVector, spec: ModelSpec) -> None:
    if params.block_index != spec.block_table():
        raise StructuralError("parameter block layout does not match the model spec")


def _forward_cache(params: ParamVector, spec: ModelSpec, features: np.ndarray, task: str):
    """Forward pass keeping pre-activations and activations: (trunk (W, b)
    views, head views by task, pre-activations, activations, logits)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise StructuralError(
            f"features must be (n, {spec.input_dim}), got {x.shape}"
        )
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


def forward(params: ParamVector, spec: ModelSpec, features: np.ndarray, task: str) -> np.ndarray:
    """Per-class logits of the requested branch, one row per sample.

    No normalization across classes: each logit feeds an independent
    Bernoulli factor.
    """
    _check_params(params, spec)
    t = _task_index(task)
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise StructuralError(f"features must be (n, {spec.input_dim}), got {x.shape}")
    blocks = _block_views(params.values[None, :], spec)
    w_h, b_h = blocks[spec.depth + t]
    logits = _trunk_forward(blocks[:spec.depth], x, spec.activation)[-1] @ w_h
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


def bce_losses(logits: np.ndarray, labels: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
    """Per-sample summed Bernoulli cross-entropy, numerically stable.

    Uses -log(sigmoid(u)) = max(-u, 0) + log1p(exp(-|u|)), so the result is
    finite for every finite logit.
    """
    u = logits if offsets is None else logits + offsets
    return _bce_terms(u, labels, np.exp(-np.abs(u))).sum(axis=1)


def _check_weights(task_weights) -> tuple:
    w_a, w_b = float(task_weights[0]), float(task_weights[1])
    if w_a < 0 or w_b < 0:
        raise ConfigError("task weights must be nonnegative")
    if w_a == 0 and w_b == 0:
        raise ConfigError("at least one task weight must be positive")
    if w_a > 0 and w_b > 0 and abs(w_a + w_b - 1.0) > 1e-12:
        raise ConfigError("joint training requires w_a + w_b = 1")
    return w_a, w_b


def _check_inputs(spec: ModelSpec, batch: Batch, tasks, offsets: tuple) -> tuple:
    """Validate the features, the labels and the offsets of the tasks in use;
    returns the offsets as float arrays (None where absent)."""
    if batch.features.shape[1] != spec.input_dim:
        raise StructuralError(f"features must be (n, {spec.input_dim}), got {batch.features.shape}")
    checked = [None, None]
    for t in tasks:
        z = (batch.z_a, batch.z_b)[t]
        if z.shape[1] != spec.head_dims[t]:
            raise StructuralError(
                f"labels {z.shape} do not match logits {(batch.n, spec.head_dims[t])}")
        if offsets[t] is not None:
            checked[t] = np.asarray(offsets[t], dtype=np.float64)
            if checked[t].shape != (spec.head_dims[t],):
                raise StructuralError("offsets must provide one real per branch class")
    return tuple(checked)


def _trainable_mask(spec: ModelSpec, table: tuple, trainable) -> np.ndarray | None:
    """Flat mask of the trainable blocks; None means everything."""
    if trainable is None:
        return None
    if callable(trainable):
        names = {name for name, _, _ in table if trainable(name)}
    else:
        names = set(trainable)
    unknown = names - set(spec.block_names())
    if unknown:
        raise StructuralError(f"unknown trainable blocks: {sorted(unknown)}")
    mask = np.zeros(spec.param_count, dtype=bool)
    for name, offset, length in table:
        if name in names:
            mask[offset:offset + length] = True
    return mask


def _sum_batch(a: np.ndarray, out: np.ndarray) -> None:
    """Sum a (K, B, C) stack over its batch axis into `out`, (K, 1, C),
    adding the rows in the order a (B, C) matrix's sum(axis=0) does: one
    row after another when C > 1, pairwise when C == 1. For C > 1 the sum
    runs on a (B, K, C) copy, where it is one long inner loop per row."""
    if a.shape[2] == 1:
        np.add.reduce(a, axis=1, keepdims=True, out=out)
    else:
        np.add.reduce(np.ascontiguousarray(a.transpose(1, 0, 2)), axis=0, out=out[:, 0, :])


def _trunk_forward(trunk: list, x: np.ndarray, activation: str, derivs: list | None = None) -> list:
    """Activations [x, h_1, ..., h_L] of a stack's trunk, from its (W, b)
    views; with `derivs`, also appends each layer's activation derivative.

    In-place updates of fresh arrays keep the allocator quiet; each computes
    what its out-of-place form would, in the same order.
    """
    acts = [x]
    h = x
    for w, b in trunk:
        h = h @ w
        h += b
        if activation == "relu":
            if derivs is not None:
                derivs.append((h > 0.0).astype(np.float64))
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
            if derivs is not None:
                d = h * h
                derivs.append(np.subtract(1.0, d, out=d))
        acts.append(h)
    return acts


def _block_views(values: np.ndarray, spec: ModelSpec) -> list:
    """(W, b) views of every block of a (K, P) stack, in block order:
    W as (K, fan_in, fan_out), b as (K, 1, fan_out)."""
    k = values.shape[0]
    views = []
    for name, offset, length in spec.block_table():
        fan_in, fan_out = spec.block_shape(name)
        split = offset + fan_in * fan_out
        views.append((values[:, offset:split].reshape(k, fan_in, fan_out),
                      values[:, split:offset + length].reshape(k, 1, fan_out)))
    return views


def _reduce_grad(a: np.ndarray, delta: np.ndarray, g_w: np.ndarray, g_b: np.ndarray) -> None:
    """One layer's gradient: a^T delta into g_w, the batch sum of delta into g_b."""
    np.matmul(a.swapaxes(-1, -2), delta, out=g_w)
    _sum_batch(delta, g_b)


def _backward(acts: list, derivs: list, lanes, ds: np.ndarray, head_w_t: np.ndarray,
              trunk_w_t: list, out_blocks: list, head_block: int, reduce=_reduce_grad) -> None:
    """The backward walk of one task over the stack members `lanes`.

    From _trunk_forward's activations and derivatives, the loss delta ds at
    the logits and the members' transposed weights, it hands each layer's
    (input a, delta) pair to `reduce` with that layer's (W, b) views of
    `out_blocks`: the head first (block `head_block`), then trunk layers
    L..1. Training reduces a pair to the gradient (_reduce_grad); the
    diagonal Fisher reduces the same pairs squared.
    """
    reduce(acts[-1][lanes], ds, *out_blocks[head_block])
    dh = ds @ head_w_t
    for layer in range(len(trunk_w_t) - 1, -1, -1):
        da = dh
        da *= derivs[layer][lanes]
        reduce(acts[0] if layer == 0 else acts[layer][lanes], da, *out_blocks[layer])
        if layer:
            dh = da @ trunk_w_t[layer]


class _TaskLanes(NamedTuple):
    """One task's slice of a stack: the members with a positive weight on
    it, their weights (k, 1), their gradient buffer (k, P) with its block
    views, and views of their head and transposed weights."""

    task: int
    lanes: slice
    weight: np.ndarray
    grad: np.ndarray
    grad_blocks: list
    head_w: np.ndarray
    head_b: np.ndarray
    head_w_t: np.ndarray
    trunk_w_t: list


class _Stack:
    """K networks of one spec trained together: parameters and momentum as
    (K, P) arrays, one task-weight pair and one trainable mask per member.

    Members are kept in the order task-B only, both tasks, task-A only, so
    the members of each task form one contiguous lane range and every
    per-task array is a view, never a gather. Block views and per-task
    gradient buffers are built once and rebuilt only when members leave.
    """

    def __init__(self, spec, values, weights, offsets, mask=None, members=None):
        self.spec = spec
        self.offsets = offsets
        self._bind(values, weights, mask, members, np.zeros_like(values))

    def _bind(self, values, weights, mask, members, velocity):
        k, p = values.shape
        self.values, self.weights, self.mask = values, weights, mask
        self.members, self.velocity = members, velocity
        self.blocks = _block_views(values, self.spec)
        depth = self.spec.depth
        b_only = int((weights[:, 0] == 0).sum())
        a_only = int((weights[:, 1] == 0).sum())
        self.tasks = []
        for t, lanes in ((0, slice(b_only, k)), (1, slice(0, k - a_only))):
            if lanes.start < lanes.stop:
                grad = np.zeros((lanes.stop - lanes.start, p))
                w_h, b_h = self.blocks[depth + t]
                self.tasks.append(_TaskLanes(
                    t, lanes, weights[lanes, t:t + 1], grad, _block_views(grad, self.spec),
                    w_h[lanes], b_h[lanes], w_h[lanes].swapaxes(1, 2),
                    [w[lanes].swapaxes(1, 2) for w, _ in self.blocks[:depth]]))

    def keep(self, alive: np.ndarray) -> None:
        """Drop the members where `alive` is False; the others keep their
        parameters and momentum."""
        mask = None if self.mask is None else self.mask[alive]
        self._bind(self.values[alive], self.weights[alive], mask, self.members[alive],
                   self.velocity[alive])

    def step(self, features, label_sets: tuple, sample_weight, rows) -> tuple:
        """Loss of every member on the minibatch `rows`, (K,), and its
        gradient 0 + w_A g_A + w_B g_B, (K, P).

        The trunk forward pass runs once for both tasks; each task's
        backward pass runs only over the members with a positive weight on
        it. Stacked matmuls make the same BLAS call on every member's slice,
        and every other operation is elementwise or a reduction in the same
        order, so each member's numbers are bit-identical to a stack of one.
        That rests on each slice keeping the memory layout of a lone
        network's array: BLAS results can change with operand strides.
        """
        spec = self.spec
        depth = spec.depth
        x = features[rows]
        sw = None if sample_weight is None else sample_weight[rows]
        n = x.shape[0]
        derivs = []
        acts = _trunk_forward(self.blocks[:depth], x, spec.activation, derivs)
        loss = np.zeros(self.values.shape[0])
        grad = np.zeros_like(self.values)
        for t, lanes, w_t, g_t, g_blocks, w_h, b_h, w_h_t, w_trunk_t in self.tasks:
            u = acts[-1][lanes] @ w_h
            u += b_h
            if self.offsets[t] is not None:
                u += self.offsets[t]
            z = label_sets[t][rows]
            e = np.abs(u)
            np.exp(np.negative(e, out=e), out=e)
            terms = _bce_terms(u, z, e)
            ds = _sigmoid(u, e)
            ds -= z
            ds /= n
            if sw is not None:
                terms *= sw[:, None]
                ds *= sw[:, None]
            loss[lanes] += w_t[:, 0] * (np.add.reduce(terms.reshape(len(w_t), -1), axis=1) / n)
            _backward(acts, derivs, lanes, ds, w_h_t, w_trunk_t, g_blocks, depth + t)
            grad[lanes] += w_t * g_t
        return loss, grad


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
    _check_params(params, spec)
    t = _task_index(task)
    offs = [None, None]
    offs[t] = offsets
    weights = np.zeros((1, 2))
    weights[0, t] = 1.0
    stack = _Stack(spec, params.values[None, :], weights, _check_inputs(spec, batch, (t,), offs))
    loss, grad = stack.step(batch.features, (batch.z_a, batch.z_b), batch.sample_weight, slice(None))
    return float(loss[0]), ParamVector(grad[0], params.block_index)


def train_stack(
    starts: list,
    spec: ModelSpec,
    batch: Batch,
    task_weights: list,
    opt: OptConfig,
    trainable: list | None = None,
    offsets: tuple = (None, None),
) -> list:
    """SGD with momentum on w_a * BCE_A + w_b * BCE_B for a stack of networks.

    The members share the batch and the optimizer settings, so also the
    seeded per-epoch minibatch order; each has its own start parameters,
    task weights and trainable blocks (`trainable` gives one entry per
    member: block names, a predicate on names, or None for every block).
    Every sample contributes to both task terms (all-zero label rows just
    drop the positive part). A member with zero weight on a task never
    reads that task's labels or head, and parameters outside its trainable
    blocks stay bit-for-bit untouched. Each member's trajectory is
    bit-identical to training it alone.

    Returns one entry per member, in order: its TrainResult, or the
    TrainingDivergenceError of the epoch where its loss went non-finite.
    A diverged member stops updating; the others are unaffected.
    """
    k = len(starts)
    if k == 0:
        raise ConfigError("need at least one network to train")
    if len(task_weights) != k:
        raise ConfigError("need one task-weight pair per network")
    trainable = [None] * k if trainable is None else list(trainable)
    if len(trainable) != k:
        raise ConfigError("need one trainable entry per network")
    table = spec.block_table()
    for params in starts:
        if params.block_index != table:
            raise StructuralError("parameter block layout does not match the model spec")
    weights = np.array([_check_weights(tw) for tw in task_weights])
    # Lane order: task-B only (0), both tasks (1), task-A only (2).
    members = np.argsort((weights[:, 0] > 0).astype(int) + (weights[:, 1] == 0), kind="stable")
    weights = weights[members]
    offs = _check_inputs(spec, batch, [t for t in (0, 1) if weights[:, t].any()], offsets)
    masks = [_trainable_mask(spec, table, trainable[m]) for m in members]
    mask = None
    if any(m is not None for m in masks):
        mask = np.stack([np.ones(spec.param_count, dtype=bool) if m is None else m for m in masks])
    stack = _Stack(spec, np.stack([starts[m].values for m in members]), weights, offs, mask, members)

    results = [None] * k
    losses = [[] for _ in range(k)]

    def drop_diverged(epoch, loss):
        """Record and drop the members whose loss is not finite; returns
        the survivors' mask, or None when every member survived."""
        alive = np.isfinite(loss)
        if alive.all():
            return None
        for i in np.flatnonzero(~alive):
            results[stack.members[i]] = TrainingDivergenceError(epoch, float(loss[i]))
        stack.keep(alive)
        return alive

    label_sets = (batch.z_a, batch.z_b)
    rng = np.random.default_rng(opt.seed)
    n = batch.n
    # Overflow on the way to a divergence is reported as that member's
    # TrainingDivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opt.epochs):
            if not stack.members.size:
                break
            order = rng.permutation(n)
            total = np.zeros(stack.members.size)
            for start in range(0, n, opt.batch_size):
                rows = order[start:start + opt.batch_size]
                loss, grad = stack.step(batch.features, label_sets, batch.sample_weight, rows)
                alive = drop_diverged(epoch, loss)
                if alive is not None:
                    loss, grad, total = loss[alive], grad[alive], total[alive]
                    if not alive.any():
                        break
                stack.velocity = opt.momentum * stack.velocity - opt.learning_rate * grad
                if stack.mask is None:
                    stack.values += stack.velocity
                else:
                    np.add(stack.values, stack.velocity, out=stack.values, where=stack.mask)
                total += loss * rows.size
            epoch_loss = total / n
            alive = drop_diverged(epoch, epoch_loss)
            if alive is not None:
                epoch_loss = epoch_loss[alive]
            for i, m in enumerate(stack.members):
                losses[m].append(float(epoch_loss[i]))
    for i, m in enumerate(stack.members):
        results[m] = TrainResult(ParamVector(stack.values[i].copy(), table), losses[m])
    return results


def train(
    params: ParamVector,
    spec: ModelSpec,
    batch: Batch,
    task_weights: tuple,
    opt: OptConfig,
    trainable=None,
    offsets: tuple = (None, None),
) -> TrainResult:
    """SGD-with-momentum on w_a * BCE_A + w_b * BCE_B: train_stack for one
    network. Mini-batch order is a seeded shuffle per epoch, so a fixed
    (config, seed) pair reproduces the trained parameters exactly. Raises
    TrainingDivergenceError when the loss goes non-finite.
    """
    (result,) = train_stack([params], spec, batch, [task_weights], opt, [trainable], offsets)
    if isinstance(result, TrainingDivergenceError):
        raise result
    return result
