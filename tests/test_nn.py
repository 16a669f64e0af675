from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tailshare.errors import ConfigError, StructuralError, TrainingDivergenceError
from tailshare.nn import (
    Batch,
    ModelSpec,
    OptConfig,
    ParamVector,
    _Stack,
    _block_views,
    _forward_cache,
    _sum_batch,
    bce_loss_grad,
    forward_from,
    init_params,
    train,
    train_stack,
    trunk_activations,
)


def small_spec(activation="tanh"):
    return ModelSpec(3, (5, 4), (2, 3), activation=activation)


def random_batch(rng, n, spec):
    feats = rng.normal(size=(n, spec.input_dim))
    z_a = np.zeros((n, spec.head_dims[0]))
    z_b = np.zeros((n, spec.head_dims[1]))
    for i in range(n):
        if rng.random() < 0.5:
            z_a[i, rng.integers(spec.head_dims[0])] = 1.0
        else:
            z_b[i, rng.integers(spec.head_dims[1])] = 1.0
    return Batch(feats, z_a, z_b)


class TestModelSpec:
    def test_parameter_counting_hand_example(self):
        spec = ModelSpec(3, (4,), (2, 3))
        for c in range(spec.depth + 1):
            assert spec.encoder_params(c) + spec.decoder_params(c, "A") == (3 * 4 + 4) + (4 * 2 + 2) == 26

    def test_encoder_decoder_counts_partition_task_network(self):
        spec = ModelSpec(6, (7, 5, 3), (4, 2))
        trunk = (6 * 7 + 7) + (7 * 5 + 5) + (5 * 3 + 3)
        for task, head in (("A", 3 * 4 + 4), ("B", 3 * 2 + 2)):
            for c in range(spec.depth + 1):
                assert spec.encoder_params(c) + spec.decoder_params(c, task) == trunk + head

    def test_block_table_covers_flat_vector(self):
        spec = small_spec()
        table = spec.block_table()
        assert table[0][1] == 0
        total = sum(length for _, _, length in table)
        assert total == spec.param_count

    @given(st.integers(1, 6), st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.tuples(st.integers(1, 5), st.integers(1, 5)), st.sampled_from(["relu", "tanh"]))
    def test_one_table_describes_the_flat_vector(self, input_dim, widths, head_dims, activation):
        """The block table tiles the flat vector, the encoder count of depth
        c is the summed length of trunk blocks 1..c, each view has the
        block's shape, and the table is not a field of the spec."""
        spec = ModelSpec(input_dim, widths, head_dims, activation)
        table = spec.block_table()
        assert [off for _, off, _ in table] == [sum(n for _, _, n in table[:i]) for i in range(len(table))]
        assert sum(n for _, _, n in table) == spec.param_count
        ParamVector(np.zeros(spec.param_count), table)
        fans = list(zip([input_dim] + widths, widths)) + [(widths[-1], d) for d in head_dims]
        names = [f"trunk{i}" for i in range(1, len(widths) + 1)] + ["head_a", "head_b"]
        assert [name for name, _, _ in table] == names
        assert [(b.fan_in, b.fan_out) for b in spec._layout] == fans
        for c in range(len(widths) + 1):
            assert spec.encoder_params(c) == sum(i * o + o for i, o in fans[:c])
        values = np.arange(2.0 * spec.param_count).reshape(2, -1)
        for (_, off, length), (fan_in, fan_out), (w, b) in zip(table, fans, _block_views(values, spec)):
            assert w.shape == (2, fan_in, fan_out) and b.shape == (2, 1, fan_out)
            assert np.array_equal(np.concatenate([w.reshape(2, -1), b.reshape(2, -1)], axis=1),
                                  values[:, off:off + length])
        fields = dict(input_dim=input_dim, trunk_widths=tuple(widths), head_dims=head_dims,
                      activation=activation)
        assert asdict(spec) == fields
        assert spec == ModelSpec(**fields) and hash(spec) == hash(ModelSpec(**fields))

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec(0, (4,), (2, 2))
        with pytest.raises(ConfigError):
            ModelSpec(3, (), (2, 2))
        with pytest.raises(ConfigError):
            ModelSpec(3, (4,), (2,))
        with pytest.raises(ConfigError):
            ModelSpec(3, (4,), (2, 2), activation="gelu")


class TestInit:
    def test_deterministic_for_fixed_seed(self):
        spec = small_spec()
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        assert np.array_equal(a.values, b.values)
        c = init_params(spec, 8)
        assert not np.array_equal(a.values, c.values)

    def test_biases_exactly_zero(self):
        spec = small_spec()
        params = init_params(spec, 3)
        for block in spec._layout:
            assert np.all(params.block(block.name)[block.fan_in * block.fan_out:] == 0.0)

    def test_weight_scale(self):
        spec = ModelSpec(16, (8,), (2, 2))
        params = init_params(spec, 0)
        w = params.block("trunk1")[: 16 * 8]
        assert np.abs(w).max() <= 1.0 / 4.0


class TestForward:
    """trunk_activations runs the trunk, forward_from the rest of a branch."""

    def test_zero_params_zero_logits(self):
        spec = small_spec()
        params = init_params(spec, 0)
        params.values[:] = 0.0
        acts = trunk_activations(params, spec, np.random.default_rng(0).normal(size=(4, 3)))
        assert all(np.all(h == 0.0) for h in acts[1:])
        assert np.all(forward_from(params, spec, acts[-1], spec.depth, "A") == 0.0)

    def test_hand_computed_single_layer(self):
        # identity trunk (relu passes positive inputs through), hand-set head
        spec = ModelSpec(2, (2,), (2, 2), activation="relu")
        params = init_params(spec, 0)
        params.values[:] = 0.0
        params.block("trunk1")[: 4] = np.eye(2).ravel()
        params.block("head_a")[: 4] = np.array([[0.5, -1.0], [0.25, 0.75]]).ravel()
        params.block("head_a")[4:] = [0.1, -0.2]
        x, h = trunk_activations(params, spec, np.array([[1.0, 2.0]]))
        assert np.array_equal(h, [[[1.0, 2.0]]])
        for logits in (forward_from(params, spec, h, 1, "A"), forward_from(params, spec, x, 0, "A")):
            assert np.allclose(logits, [[1.1, 0.3]], atol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        spec = small_spec()
        params = init_params(spec, 1)
        feats = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        acts, permuted = trunk_activations(params, spec, feats), trunk_activations(params, spec, feats[perm])
        for layer in range(spec.depth + 1):
            assert np.array_equal(acts[layer][..., perm, :], permuted[layer])
            assert np.array_equal(forward_from(params, spec, acts[layer], layer, "B")[perm],
                                  forward_from(params, spec, permuted[layer], layer, "B"))

    def test_dimension_mismatch(self):
        spec = small_spec()
        params = init_params(spec, 0)
        with pytest.raises(StructuralError):
            trunk_activations(params, spec, np.zeros((2, 5)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["relu", "tanh"]), st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(0, 2 ** 16))
    def test_continuing_from_a_shared_prefix_gives_a_pass_from_layer_0_bitwise(self, activation, widths,
                                                                               seed):
        """The reference is _forward_cache's own per-layer loop."""
        spec = ModelSpec(3, tuple(widths), (2, 3), activation=activation)
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(rng.integers(1, 30), 3))
        prefix = init_params(spec, seed)
        acts = trunk_activations(prefix, spec, feats)
        for c in range(spec.depth + 1):
            # Another network with the same first c trunk blocks.
            other = init_params(spec, seed + 1)
            other.values[:spec.encoder_params(c)] = prefix.values[:spec.encoder_params(c)]
            for task in ("A", "B"):
                want = _forward_cache(other, spec, feats, task)[4]
                assert forward_from(other, spec, acts[c], c, task).tobytes() == want.tobytes()


class TestBatch:
    def test_concat_rows_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            Batch(np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([[1.0]]))

    def test_all_zero_rows_allowed_per_task(self):
        b = Batch(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]),
                  np.array([[0.0], [1.0]]))
        assert b.n == 2


class TestBceLoss:
    def test_zero_logits_gives_log2_per_class(self):
        spec = small_spec()
        params = init_params(spec, 0)
        params.values[:] = 0.0
        batch = random_batch(np.random.default_rng(2), 9, spec)
        loss, _ = bce_loss_grad(params, spec, batch, "A")
        assert abs(loss - spec.head_dims[0] * np.log(2.0)) < 1e-12

    def test_all_zero_label_row_keeps_negative_terms_only(self):
        spec = ModelSpec(2, (3,), (2, 2))
        params = init_params(spec, 4)
        feats = np.array([[0.4, -1.2]])
        batch = Batch(feats, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        loss, _ = bce_loss_grad(params, spec, batch, "A")
        logits = forward_from(params, spec, feats, 0, "A")
        assert abs(loss - np.logaddexp(0.0, logits).sum()) < 1e-12

    def test_finite_for_extreme_logits(self):
        spec = ModelSpec(2, (3,), (2, 2))
        params = init_params(spec, 4)
        params.values[:] *= 1e4
        batch = random_batch(np.random.default_rng(3), 5, spec)
        loss, grad = bce_loss_grad(params, spec, batch, "A")
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad.values))

    def test_unused_head_gradient_is_zero(self):
        spec = small_spec()
        params = init_params(spec, 5)
        batch = random_batch(np.random.default_rng(4), 6, spec)
        _, grad = bce_loss_grad(params, spec, batch, "A")
        assert np.all(grad.block("head_b") == 0.0)

    def test_offsets_shift_the_loss(self):
        spec = small_spec()
        params = init_params(spec, 5)
        batch = random_batch(np.random.default_rng(5), 6, spec)
        plain, _ = bce_loss_grad(params, spec, batch, "A")
        shifted, _ = bce_loss_grad(params, spec, batch, "A", np.array([1.0, -1.0]))
        assert plain != shifted


def finite_difference(params, spec, batch, task, offsets, step=1e-5):
    fd = np.zeros_like(params.values)
    for j in range(params.values.size):
        up = params.copy()
        up.values[j] += step
        down = params.copy()
        down.values[j] -= step
        lu, _ = bce_loss_grad(up, spec, batch, task, offsets)
        ld, _ = bce_loss_grad(down, spec, batch, task, offsets)
        fd[j] = (lu - ld) / (2.0 * step)
    return fd


def gradient_check_case(seed):
    """One random small net; relu cases are filtered away from kinks where
    the central difference itself is invalid."""
    rng = np.random.default_rng(seed)
    activation = "relu" if seed % 2 == 0 else "tanh"
    spec = ModelSpec(int(rng.integers(2, 5)),
                     tuple(rng.integers(2, 6, size=rng.integers(1, 4))),
                     (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
                     activation=activation)
    params = init_params(spec, seed)
    params.values[:] = rng.normal(size=params.values.size) * 0.6
    batch = random_batch(rng, 8, spec)
    task = "A" if rng.random() < 0.5 else "B"
    if activation == "relu":
        pres = _forward_cache(params, spec, batch.features, task)[2]
        if min(np.abs(p).min() for p in pres) < 1e-3:
            return None
    offsets = rng.normal(size=spec.head_dims[0 if task == "A" else 1]) * 0.5
    return spec, params, batch, task, offsets


def test_gradient_matches_finite_differences():
    checked = 0
    seed = 0
    while checked < 12:
        case = gradient_check_case(seed)
        seed += 1
        if case is None:
            continue
        spec, params, batch, task, offsets = case
        _, grad = bce_loss_grad(params, spec, batch, task, offsets)
        fd = finite_difference(params, spec, batch, task, offsets)
        rel = np.abs(grad.values - fd) / np.maximum(1e-6, np.maximum(np.abs(fd), np.abs(grad.values)))
        assert rel.max() < 1e-4, f"seed {seed - 1}: max rel err {rel.max():.2e}"
        checked += 1


class TestTrain:
    def separable_batch(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(-2.0, 0.4, size=(40, 2)), rng.normal(2.0, 0.4, size=(40, 2))])
        z_a = np.zeros((80, 1))
        z_a[:40] = 1.0
        return Batch(x, z_a, 1.0 - z_a)

    def test_separable_toy_converges_monotonically(self):
        spec = ModelSpec(2, (6,), (1, 1))
        batch = self.separable_batch()
        res = train(init_params(spec, 0), spec, batch, (1.0, 0.0),
                    OptConfig(0.5, epochs=200, batch_size=80, seed=0))
        losses = res.epoch_losses
        assert losses[-1] < 0.1
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_zero_weight_task_head_untouched(self):
        spec = ModelSpec(2, (6,), (1, 1))
        start = init_params(spec, 0)
        res = train(start, spec, self.separable_batch(), (1.0, 0.0),
                    OptConfig(0.3, epochs=5, batch_size=32, seed=1))
        assert np.array_equal(res.params.block("head_b"), start.block("head_b"))
        assert not np.array_equal(res.params.block("head_a"), start.block("head_a"))

    def test_frozen_depth_fixes_the_encoder_bitwise(self):
        spec = ModelSpec(2, (6, 5), (1, 1))
        start = init_params(spec, 2)
        (res,) = train_stack([start], spec, self.separable_batch(), [(1.0, 0.0)],
                             OptConfig(0.3, epochs=4, batch_size=40, seed=2), frozen=[1])
        assert np.array_equal(res.params.block("trunk1"), start.block("trunk1"))
        assert np.array_equal(res.params.block("head_b"), start.block("head_b"))
        assert not np.array_equal(res.params.block("trunk2"), start.block("trunk2"))

    def test_deterministic_for_fixed_seed(self):
        spec = ModelSpec(2, (6,), (1, 1))
        cfg = OptConfig(0.4, epochs=10, batch_size=16, seed=5)
        a = train(init_params(spec, 1), spec, self.separable_batch(), (0.5, 0.5), cfg)
        b = train(init_params(spec, 1), spec, self.separable_batch(), (0.5, 0.5), cfg)
        assert np.array_equal(a.params.values, b.params.values)
        assert a.epoch_losses == b.epoch_losses

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises_with_epoch(self):
        spec = ModelSpec(2, (6,), (1, 1))
        with pytest.raises(TrainingDivergenceError) as err:
            train(init_params(spec, 1), spec, self.separable_batch(), (1.0, 0.0),
                  OptConfig(1e6, epochs=50, batch_size=80, seed=0))
        assert err.value.epoch >= 0

    def test_weight_validation(self):
        spec = ModelSpec(2, (6,), (1, 1))
        batch = self.separable_batch()
        opt = OptConfig(0.1, epochs=1, batch_size=80, seed=0)
        with pytest.raises(ConfigError):
            train(init_params(spec, 1), spec, batch, (0.3, 0.4), opt)
        with pytest.raises(ConfigError):
            train(init_params(spec, 1), spec, batch, (0.0, 0.0), opt)
        with pytest.raises(ConfigError):
            train(init_params(spec, 1), spec, batch, (-0.1, 1.1), opt)

    def test_epochs_zero_returns_copy(self):
        spec = ModelSpec(2, (6,), (1, 1))
        start = init_params(spec, 1)
        res = train(start, spec, self.separable_batch(), (1.0, 0.0),
                    OptConfig(0.1, epochs=0, batch_size=80, seed=0))
        assert np.array_equal(res.params.values, start.values)
        assert res.params.values is not start.values


def _reference_loss_grad(values, spec, x, labels, weights, offsets):
    """Weighted two-task mean BCE and its gradient for one network in plain
    2-D numpy, with the masked two-branch sigmoid and the logaddexp loss,
    in the fused order: each task's logit delta, scaled by its weight,
    gives its head's gradient; the two deltas meet at the trunk top (task A
    first) and one walk runs down the trunk."""
    blocks = {}
    for name, off, length, fi, fo in spec._layout:
        blocks[name] = (values[off:off + fi * fo].reshape(fi, fo), values[off + fi * fo:off + length],
                        off, fi * fo, length)
    acts, pres = [x], []
    for layer in range(1, spec.depth + 1):
        w, b = blocks[f"trunk{layer}"][:2]
        pre = acts[-1] @ w + b
        pres.append(pre)
        acts.append(np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre))
    n = x.shape[0]
    loss, grad, top = 0.0, np.zeros_like(values), None
    for t, head in enumerate(("head_a", "head_b")):
        if weights[t] == 0:
            continue
        w, b, off, nw, length = blocks[head]
        z = labels[t]
        u = acts[-1] @ w + b
        if offsets[t] is not None:
            u = u + offsets[t]
        rows = (z * np.logaddexp(0.0, -u) + (1.0 - z) * np.logaddexp(0.0, u)).sum(axis=1)
        sig = np.empty_like(u)
        pos = u >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        neg = np.exp(u[~pos])
        sig[~pos] = neg / (1.0 + neg)
        ds = (sig - z) / n
        loss += weights[t] * float(rows.sum() / n)
        ds = weights[t] * ds
        grad[off:off + nw] = (acts[-1].T @ ds).ravel()
        grad[off + nw:off + length] = ds.sum(axis=0)
        top = ds @ w.T if top is None else top + ds @ w.T
    delta = top
    for layer in range(spec.depth, 0, -1):
        w, _, off, nw, length = blocks[f"trunk{layer}"]
        act_deriv = (pres[layer - 1] > 0.0).astype(float) if spec.activation == "relu" \
            else 1.0 - acts[layer] * acts[layer]
        delta = delta * act_deriv
        grad[off:off + nw] = (acts[layer - 1].T @ delta).ravel()
        grad[off + nw:off + length] = delta.sum(axis=0)
        delta = delta @ w.T
    return loss, grad


def _reference_train(params, spec, batch, task_weights, opt, frozen, offsets):
    """The per-network SGD-with-momentum loop, on the fused-order gradient,
    updating only the parameters past the frozen encoder prefix."""
    values = params.values.copy()
    mask = np.arange(values.size) >= spec.encoder_params(frozen)
    velocity = np.zeros(int(mask.sum()))
    rng = np.random.default_rng(opt.seed)
    losses = []
    for _ in range(opt.epochs):
        order = rng.permutation(batch.n)
        total = 0.0
        for start in range(0, batch.n, opt.batch_size):
            rows = order[start:start + opt.batch_size]
            loss, grad = _reference_loss_grad(values, spec, batch.features[rows],
                                              (batch.z_a[rows], batch.z_b[rows]), task_weights,
                                              offsets)
            velocity = opt.momentum * velocity - opt.learning_rate * grad[mask]
            values[mask] += velocity
            total += loss * rows.size
        losses.append(total / batch.n)
    return values, losses


def _stack_case(data):
    """A random spec, batch and stack of members for the engine property."""
    activation = data.draw(st.sampled_from(["relu", "tanh"]))
    spec = ModelSpec(data.draw(st.integers(1, 4)),
                     tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))),
                     (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))),
                     activation=activation)
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(3, 40))
    batch = random_batch(rng, n, spec)
    offsets = tuple(rng.normal(size=d) if data.draw(st.booleans()) else None for d in spec.head_dims)
    opt = OptConfig(data.draw(st.sampled_from([0.05, 0.3, 1.0])), epochs=data.draw(st.integers(1, 3)),
                    batch_size=data.draw(st.integers(1, n + 2)), seed=seed)
    k = data.draw(st.integers(1, 5))
    weights = [data.draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7), (0.9, 0.1)]))
               for _ in range(k)]
    frozen = [data.draw(st.integers(0, spec.depth)) for _ in range(k)]
    starts = [init_params(spec, seed + i) for i in range(k)]
    return spec, batch, offsets, opt, weights, frozen, starts


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 300), st.integers(1, 12), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sum_batch_matches_each_members_column_sums_bitwise(k, b, c, strided, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, b, c)) * 10.0 ** rng.uniform(-8, 8, size=(k, b, c))
    # The engine writes into a bias block of a (K, P) gradient buffer.
    buffer = np.zeros((k, c + 3))
    out = buffer[:, 1:1 + c].reshape(k, 1, c) if strided else np.zeros((k, 1, c))
    assert np.shares_memory(out, buffer) == strided
    _sum_batch(a, out)
    for i in range(k):
        assert out[i, 0].tobytes() == a[i].sum(axis=0).tobytes()


class TestTrainStack:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_members_equal_solo_and_reference_runs_bitwise(self, data):
        spec, batch, offsets, opt, weights, frozen, starts = _stack_case(data)
        stacked = train_stack(starts, spec, batch, weights, opt, frozen, offsets)
        for start, w, c, got in zip(starts, weights, frozen, stacked):
            (solo,) = train_stack([start], spec, batch, [w], opt, [c], offsets)
            assert got.params.values.tobytes() == solo.params.values.tobytes()
            assert got.epoch_losses == solo.epoch_losses
            # ... and to the plain per-network loop; only the loss formula
            # differs from it, in the last bits.
            ref_values, ref_losses = _reference_train(start, spec, batch, w, opt, c, offsets)
            assert got.params.values.tobytes() == ref_values.tobytes()
            assert np.allclose(got.epoch_losses, ref_losses, rtol=1e-12, atol=0.0)
            # The frozen encoder, and the head of a task without weight,
            # keep their bits.
            d = spec.encoder_params(c)
            assert got.params.values[:d].tobytes() == start.values[:d].tobytes()
            for t, head in enumerate(("head_a", "head_b")):
                if w[t] == 0.0:
                    assert got.params.block(head).tobytes() == start.block(head).tobytes()

        # A member with zero weight on a task never reads that task's labels:
        # reversing that task's label columns changes nothing for it.
        for t in (0, 1):
            z = [batch.z_a, batch.z_b]
            z[t] = z[t][:, ::-1]
            swapped = Batch(batch.features, z[0], z[1])
            again = train_stack(starts, spec, swapped, weights, opt, frozen, offsets)
            for w, before, after in zip(weights, stacked, again):
                if w[t] == 0.0:
                    assert before.params.values.tobytes() == after.params.values.tobytes()
                    assert before.epoch_losses == after.epoch_losses

    def test_divergence_stays_with_its_member(self):
        spec = ModelSpec(2, (6,), (1, 1), activation="relu")
        batch = TestTrain().separable_batch()
        opt = OptConfig(1e4, epochs=40, batch_size=16, seed=0)
        starts = [init_params(spec, 1), init_params(spec, 2), init_params(spec, 3)]
        weights = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        # Head-only training (the one trunk layer frozen) keeps its logits
        # linear in the step count, so only the fully trained member blows up.
        frozen = [0, 1, 1]
        out = train_stack(starts, spec, batch, weights, opt, frozen)
        assert isinstance(out[0], TrainingDivergenceError)
        solo = [train_stack([s], spec, batch, [w], opt, [c])[0] for s, w, c in zip(starts, weights, frozen)]
        assert isinstance(solo[0], TrainingDivergenceError)
        assert out[0].epoch == solo[0].epoch > 0
        assert repr(out[0].loss) == repr(solo[0].loss)
        for i in (1, 2):
            assert out[i].params.values.tobytes() == solo[i].params.values.tobytes()
            assert out[i].epoch_losses == solo[i].epoch_losses

    def test_a_stack_whose_members_all_diverge_stops_with_each_divergence(self, monkeypatch):
        spec = ModelSpec(2, (6,), (1, 1), activation="relu")
        batch = TestTrain().separable_batch()
        opt = OptConfig(3e3, epochs=40, batch_size=16, seed=0)
        start = init_params(spec, 1)
        weights = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        steps = []
        step = _Stack.step
        monkeypatch.setattr(_Stack, "step", lambda stack, rows: steps.append(rows) or step(stack, rows))
        solo = []
        for w in weights:
            steps.clear()
            with pytest.raises(TrainingDivergenceError) as err:
                train(start, spec, batch, w, opt)
            solo.append((err.value.epoch, repr(err.value.loss), len(steps)))
        assert len({s[:2] for s in solo}) == len(solo)  # each member fails its own way
        steps.clear()
        out = train_stack([start] * 3, spec, batch, weights, opt)
        assert [(err.epoch, repr(err.loss)) for err in out] == [s[:2] for s in solo]
        # The run stops at the step where its last member diverges.
        assert len(steps) == max(s[2] for s in solo)

    def test_bce_loss_grad_is_one_engine_step(self):
        spec = small_spec("relu")
        params = init_params(spec, 3)
        batch = random_batch(np.random.default_rng(8), 7, spec)
        opt = OptConfig(0.1, momentum=0.0, epochs=1, batch_size=7, seed=4)
        one = train(params, spec, batch, (0.0, 1.0), opt)
        # One full-batch step sees the rows in the epoch's shuffled order.
        order = np.random.default_rng(opt.seed).permutation(7)
        shuffled = Batch(batch.features[order], batch.z_a[order], batch.z_b[order])
        loss, grad = bce_loss_grad(params, spec, shuffled, "B")
        assert np.array_equal(one.params.values, params.values - 0.1 * grad.values)
        assert one.epoch_losses == [loss]

    def test_validation(self):
        spec = small_spec()
        batch = random_batch(np.random.default_rng(9), 5, spec)
        opt = OptConfig(0.1, epochs=1)
        start = init_params(spec, 0)
        with pytest.raises(ConfigError):
            train_stack([], spec, batch, [], opt)
        with pytest.raises(ConfigError):
            train_stack([start], spec, batch, [(1.0, 0.0), (0.0, 1.0)], opt)
        with pytest.raises(ConfigError):
            train_stack([start], spec, batch, [(1.0, 0.0)], opt, frozen=[0, 0])
        for c in (spec.depth + 1, -1):
            with pytest.raises(StructuralError, match=f"shared depth {c} out of range 0..2"):
                train_stack([start], spec, batch, [(1.0, 0.0)], opt, frozen=[c])
        with pytest.raises(StructuralError):
            train_stack([start], spec, batch, [(1.0, 0.0)], opt, offsets=(np.zeros(5), None))
