from dataclasses import replace

import numpy as np
import pytest

from tailshare.errors import DomainError, StructuralError, TrainingDivergenceError
from tailshare.datagen import GenConfig, LongTailDataset, TaskSplit, generate, project_labels
from tailshare.nn import (Batch, ModelSpec, OptConfig, ParamVector, _forward_cache, bce_loss_grad, bce_losses,
                          forward_from, init_params, train, train_stack, trunk_activations)
from tailshare.pipeline import (
    AssembledModel,
    RunConfig,
    assemble,
    build_task_data,
    class_offsets,
    evaluate,
    _offsets_for,
    refine_decoders,
    refine_stack,
    select_structure,
    stage1,
    stage1_result,
    stage2,
    stage2_stack,
)


SPEC = ModelSpec(4, (8, 8), (3, 3), activation="tanh")


def toy_dataset(seed=11):
    return generate(GenConfig(6, 4, 10.0, 120, class_mean_scale=1.8, noise_sigma=1.0, seed=seed))


def run_config(**overrides):
    base = dict(
        spec=SPEC,
        stage1_opt=OptConfig(0.3, epochs=25, batch_size=64, seed=1),
        stage2_opt=OptConfig(0.3, epochs=25, batch_size=64, seed=2),
        refine_opt=OptConfig(0.1, epochs=0, batch_size=64, seed=3),
        init_seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def with_priors(priors):
    """The toy task data with the given priors over its six classes and
    the groups (1, 0, 2) and (5, 3, 4)."""
    return replace(build_task_data(toy_dataset()), split=TaskSplit((1, 0, 2), (5, 3, 4)),
                   priors=np.array(priors))


class TestLogitOffsets:
    """_offsets_for: tau * log(prior) per group, in group order, none at tau 0."""

    def test_uniform_priors_equal_offsets(self):
        off_a, off_b = _offsets_for(run_config(), with_priors(np.full(6, 1 / 6)))
        assert np.all(off_a == off_a[0]) and np.all(off_b == off_a[0])

    def test_hand_values(self):
        off_a, off_b = _offsets_for(run_config(tau=2.0), with_priors([0.3, 0.25, 0.2, 0.12, 0.08, 0.05]))
        assert off_a == pytest.approx([-2.772589, -2.407946, -3.218876], abs=1e-6)
        assert off_b == pytest.approx([-5.991465, -4.240527, -5.051457], abs=1e-6)

    def test_zero_prior_rejected(self):
        with pytest.raises(DomainError, match="positive class priors that sum to 1"):
            _offsets_for(run_config(), with_priors([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("priors", [[0.6, 0.2, 0.2, 0.1, 0.1, -0.2], np.full(6, 0.2)])
    def test_negative_or_unnormalized_priors_rejected(self, priors):
        with pytest.raises(DomainError, match="positive class priors that sum to 1"):
            _offsets_for(run_config(), with_priors(priors))

    def test_task_offsets_follow_group_order(self):
        off_a, off_b = _offsets_for(run_config(tau=1.0), with_priors([0.3, 0.25, 0.2, 0.12, 0.08, 0.05]))
        assert np.array_equal(off_a, np.log([0.25, 0.3, 0.2]))
        assert np.array_equal(off_b, np.log([0.05, 0.12, 0.08]))

    def test_tau_whose_offsets_overflow_rejected(self):
        """tau * log(0.05) passes the float range at tau 1e308; refused
        without an overflow warning (warnings fail the suite)."""
        priors = [0.3, 0.25, 0.2, 0.12, 0.08, 0.05]
        with pytest.raises(DomainError, match="overflow at tau 1e"):
            _offsets_for(run_config(tau=1e308), with_priors(priors))
        assert np.array_equal(class_offsets(1e300, priors), 1e300 * np.log(priors))
        assert class_offsets(0.0, priors) is None

    def test_tau_zero_trains_without_offsets(self):
        assert _offsets_for(run_config(tau=0.0), build_task_data(toy_dataset())) == (None, None)

    def test_tau_zero_stage1_is_the_plain_loss_bit_for_bit(self):
        """A toy stage1 at tau 0 is train_stack without offsets, which also
        equals training with the all -0.0 offsets tau 0 multiplies out to."""
        td = build_task_data(toy_dataset())
        cfg = run_config(tau=0.0)
        s1 = stage1(cfg, td)
        init = init_params(SPEC, cfg.init_seed)
        weights = [(1.0, 0.0), (0.0, 1.0)]
        plain = train_stack([init, init], SPEC, td.batch(), weights, cfg.stage1_opt, offsets=(None, None))
        zeros = train_stack([init, init], SPEC, td.batch(), weights, cfg.stage1_opt,
                            offsets=(np.full(3, -0.0), np.full(3, -0.0)))
        for got, want, also in ((s1.params_a, plain[0], zeros[0]), (s1.params_b, plain[1], zeros[1])):
            assert np.array_equal(got.values, want.params.values)
            assert np.array_equal(got.values, also.params.values)
        assert s1.losses_a == plain[0].epoch_losses and s1.losses_b == plain[1].epoch_losses


def test_task_data_is_the_batch_the_stages_train_on():
    """build_task_data's record is itself the checked batch: training on
    it gives the bits of training on a Batch of its three arrays."""
    td = build_task_data(toy_dataset())
    assert td.batch() is td and isinstance(td, Batch)
    cfg = run_config()
    init = init_params(SPEC, cfg.init_seed)
    weights = [(1.0, 0.0), (0.3, 0.7), (0.0, 1.0)]
    offs = _offsets_for(cfg, td)
    got = train_stack([init] * 3, SPEC, td, weights, cfg.stage1_opt, offsets=offs)
    want = train_stack([init] * 3, SPEC, Batch(td.features, td.z_a, td.z_b), weights, cfg.stage1_opt,
                       offsets=offs)
    for g, w in zip(got, want):
        assert np.array_equal(g.params.values, w.params.values) and g.epoch_losses == w.epoch_losses


class TestStage1:
    def test_deterministic(self):
        td = build_task_data(toy_dataset())
        cfg = run_config()
        a = stage1(cfg, td)
        b = stage1(cfg, td)
        assert np.array_equal(a.params_a.values, b.params_a.values)
        assert np.array_equal(a.fisher_b.values, b.fisher_b.values)

    def test_task_a_never_reads_tail_labels(self):
        td = build_task_data(toy_dataset())
        cfg = run_config()
        ref = stage1(cfg, td)
        scrambled = build_task_data(toy_dataset())
        scrambled.z_b = scrambled.z_b[:, ::-1].copy()  # permute tail columns only
        other = stage1(cfg, scrambled)
        assert np.array_equal(ref.params_a.values, other.params_a.values)
        assert not np.array_equal(ref.params_b.values, other.params_b.values)

    def test_fisher_that_overflows_rejected(self):
        """Features near 1e200 train, but their squares overflow the Fisher:
        refused, naming it, without a warning. (No generator draws them: its
        posterior would overflow, so the toy draws are scaled instead.)"""
        ds = toy_dataset()
        td = build_task_data(LongTailDataset(ds.features * 1e200, ds.labels, ds.class_counts))
        with pytest.raises(DomainError, match="fisher_[ab] has a non-finite entry"):
            stage1(run_config(), td)

    def test_losses_recorded_and_decreasing_overall(self):
        td = build_task_data(toy_dataset())
        s1 = stage1(run_config(), td)
        assert s1.losses_a[-1] < s1.losses_a[0]
        assert s1.losses_b[-1] < s1.losses_b[0]


class TestSelectStructure:
    def test_degenerate_single_candidate(self):
        td = build_task_data(toy_dataset())
        s1 = stage1(run_config(), td)
        res = select_structure(s1, td.n, SPEC, c_values=(1,), w_values=(0.7,))
        assert (res.c_star, res.w_star) == (1, 0.7)

    def test_argmin_row_is_table_minimum(self):
        td = build_task_data(toy_dataset())
        s1 = stage1(run_config(), td)
        res = select_structure(s1, td.n, SPEC)
        (best,) = [r for r in res.table if (r.c, r.w_a) == (res.c_star, res.w_star)]
        assert best.total == min(r.total for r in res.table)


class TestStage2:
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_pure_head_weight_lanes_are_stage1_bit_for_bit(self, tau):
        """With one optimizer for both stages, the Stage-2 stack's w_A = 1
        and w_A = 0 lanes are Stage 1's task-A and task-B networks, beside
        any other lane: stage1_result of them gives stage1's parameters,
        epoch losses and Fishers, bit for bit."""
        td = build_task_data(toy_dataset())
        opt = OptConfig(0.3, epochs=10, batch_size=64, seed=7)
        cfg = run_config(stage1_opt=opt, stage2_opt=opt, tau=tau)
        s1 = stage1(cfg, td)
        zero, _, one = stage2_stack(cfg, td, (0.0, 0.3, 1.0))
        lanes = stage1_result(cfg, td, one, zero)
        for name in ("params_a", "params_b", "fisher_a", "fisher_b"):
            assert getattr(lanes, name).values.tobytes() == getattr(s1, name).values.tobytes(), name
        assert (lanes.losses_a, lanes.losses_b) == (s1.losses_a, s1.losses_b)

    def test_objective_consistency_full_batch(self):
        td = build_task_data(toy_dataset())
        opt = OptConfig(0.3, epochs=1, batch_size=td.n, seed=9)
        cfg = run_config(stage1_opt=opt, stage2_opt=opt)
        w_a = 0.3
        s2 = stage2(cfg, td, w_a)
        init = init_params(SPEC, cfg.init_seed)
        offs = _offsets_for(cfg, td)
        la, _ = bce_loss_grad(init, SPEC, td.batch(), "A", offs[0])
        lb, _ = bce_loss_grad(init, SPEC, td.batch(), "B", offs[1])
        assert abs(s2.epoch_losses[0] - (w_a * la + (1 - w_a) * lb)) < 1e-10

    def test_weight_outside_unit_interval_is_refused_by_the_grid_rule(self):
        td = build_task_data(toy_dataset())
        with pytest.raises(DomainError, match=r"w_a candidates must lie in \[0, 1\], got 1.5"):
            stage2(run_config(), td, 1.5)

    def test_a_stage1_result_argument_is_ignored(self):
        """The benchmark still passes its Stage1Result; Stage 2 starts from
        the shared init seed either way."""
        td = build_task_data(toy_dataset())
        cfg = run_config()
        with_s1 = stage2(cfg, td, 0.4, stage1(cfg, td))
        assert np.array_equal(with_s1.params.values, stage2(cfg, td, 0.4).params.values)


class TestAssemble:
    def build(self, c):
        td = build_task_data(toy_dataset())
        cfg = run_config()
        s1 = stage1(cfg, td)
        s2 = stage2(cfg, td, 0.6)
        return td, s1, s2, assemble(SPEC, c, s2.params, s1, td.split)

    def test_depth_zero_equals_stage1_networks(self):
        _, s1, _, model = self.build(0)
        assert np.array_equal(model.branch_a.values, s1.params_a.values)
        assert np.array_equal(model.branch_b.values, s1.params_b.values)

    def test_full_depth_keeps_only_stage1_heads(self):
        _, s1, s2, model = self.build(SPEC.depth)
        d = SPEC.encoder_params(SPEC.depth)
        assert np.array_equal(model.branch_a.values[:d], s2.params.values[:d])
        assert np.array_equal(model.branch_a.block("head_a"), s1.params_a.block("head_a"))
        assert np.array_equal(model.branch_b.block("head_b"), s1.params_b.block("head_b"))

    def test_every_parameter_has_declared_origin(self):
        _, s1, s2, model = self.build(1)
        d = SPEC.encoder_params(1)
        for branch, source in ((model.branch_a, s1.params_a), (model.branch_b, s1.params_b)):
            for j in range(SPEC.param_count):
                expected = s2.params.values[j] if j < d else source.values[j]
                assert branch.values[j] == expected

    def test_idempotent(self):
        td, s1, s2, model = self.build(1)
        again = assemble(SPEC, 1, s2.params, s1, td.split)
        assert np.array_equal(model.branch_a.values, again.branch_a.values)
        assert np.array_equal(model.branch_b.values, again.branch_b.values)

    def test_branches_share_encoder_bit_exactly(self):
        _, _, _, model = self.build(2)
        d = SPEC.encoder_params(2)
        assert np.array_equal(model.branch_a.values[:d], model.branch_b.values[:d])

    def test_shape_mismatch_rejected(self):
        td, s1, s2, _ = self.build(1)
        other = init_params(ModelSpec(4, (8, 7), (3, 3)), 0)
        with pytest.raises(StructuralError):
            assemble(SPEC, 1, other, s1, td.split)


def refine_config(epochs, seed=4):
    return run_config(refine_opt=OptConfig(0.1, epochs=epochs, batch_size=64, seed=seed))


class TestRefine:
    def test_zero_epochs_leave_model_unchanged(self):
        td, _, _, model = TestAssemble().build(1)
        out = refine_decoders(model, td, refine_config(0))
        assert np.array_equal(out.branch_a.values, model.branch_a.values)
        assert np.array_equal(out.branch_b.values, model.branch_b.values)

    def test_encoder_bitwise_frozen(self):
        """At every depth c, the encoder slice and each branch's other head
        keep their bytes; the branch's own decoder trains."""
        for c in range(SPEC.depth + 1):
            td, _, _, model = TestAssemble().build(c)
            out = refine_decoders(model, td, refine_config(4))
            d = SPEC.encoder_params(c)
            for got, start, own, other in ((out.branch_a, model.branch_a, "head_a", "head_b"),
                                           (out.branch_b, model.branch_b, "head_b", "head_a")):
                assert got.values[:d].tobytes() == start.values[:d].tobytes()
                assert got.block(other).tobytes() == start.block(other).tobytes()
                assert not np.array_equal(got.block(own), start.block(own))
                assert not np.array_equal(got.values[d:], start.values[d:])

    def test_mean_training_bce_does_not_increase(self):
        deltas = []
        for seed in range(5):
            ds = toy_dataset(seed=20 + seed)
            td = build_task_data(ds)
            cfg = run_config(init_seed=seed)
            s1 = stage1(cfg, td)
            s2 = stage2(cfg, td, 0.5)
            model = assemble(SPEC, 1, s2.params, s1, td.split)
            before = evaluate(model, ds.features, ds.labels)
            out = refine_decoders(model, td, refine_config(8, seed=seed))
            after = evaluate(out, ds.features, ds.labels)
            deltas.append((after.bce_a + after.bce_b) - (before.bce_a + before.bce_b))
        assert np.mean(deltas) <= 1e-6


    def test_stacked_models_refine_as_alone_and_diverge_alone(self):
        spec = ModelSpec(4, (8, 8), (3, 3), activation="relu")
        td = build_task_data(toy_dataset())
        cfg = run_config(spec=spec)
        s1 = stage1(cfg, td)
        s2 = stage2(cfg, td, 0.6)
        models = [assemble(spec, c, s2.params, s1, td.split) for c in (0, 1, 2)]
        # At this rate the fully trainable c = 0 decoders overflow; deeper
        # encoders leave too few trainable layers to get there.
        cfg = replace(cfg, refine_opt=OptConfig(1e50, epochs=20, batch_size=64, seed=4))
        out = refine_stack(models, td, cfg)
        assert isinstance(out[0], TrainingDivergenceError)
        with pytest.raises(TrainingDivergenceError) as solo_err:
            refine_decoders(models[0], td, cfg)
        assert (out[0].epoch, repr(out[0].loss)) == (solo_err.value.epoch, repr(solo_err.value.loss))
        for model, got in zip(models[1:], out[1:]):
            solo = refine_decoders(model, td, cfg)
            assert got.c == model.c
            assert got.branch_a.values.tobytes() == solo.branch_a.values.tobytes()
            assert got.branch_b.values.tobytes() == solo.branch_b.values.tobytes()


class TestEvaluateArgmax:
    """evaluate counts a sample as correct when its class has the largest
    of both branches' logits in original class order."""

    def hand_model(self, head_bias, tail_bias, split):
        spec = ModelSpec(2, (2,), (len(head_bias), len(tail_bias)), activation="tanh")
        branch_a = init_params(spec, 0)
        branch_a.values[:] = 0.0
        branch_b = branch_a.copy()
        fan = 2 * len(head_bias)
        branch_a.block("head_a")[fan:] = head_bias
        branch_b.block("head_b")[2 * len(tail_bias):] = tail_bias
        return AssembledModel(spec, 0, split, branch_a, branch_b)

    @staticmethod
    def accuracies(model, features):
        """Overall accuracy with every row labeled k, for each class k."""
        features = np.atleast_2d(features)
        eye = np.eye(model.split.n_classes)
        return [evaluate(model, features, eye[[k] * len(features)]).overall_accuracy
                for k in range(model.split.n_classes)]

    def test_argmax_of_concatenated_scores(self):
        model = self.hand_model([2.0, 0.1], [0.5], TaskSplit((0, 1), (2,)))
        assert self.accuracies(model, [0.3, -0.2]) == [1.0, 0.0, 0.0]

    def test_tail_order_permutation_invariance(self):
        a = self.hand_model([0.1, 0.2], [3.0, 1.0], TaskSplit((0, 1), (2, 3)))
        b = self.hand_model([0.1, 0.2], [1.0, 3.0], TaskSplit((0, 1), (3, 2)))
        y = np.array([[0.5, 0.5], [-1.0, 2.0]])
        for k in range(4):
            labels = np.eye(4)[[k, k]]
            # repr: a group without rows has a NaN accuracy.
            assert repr(evaluate(a, y, labels)) == repr(evaluate(b, y, labels))
        assert self.accuracies(a, y) == [0.0, 0.0, 1.0, 0.0]

    def test_exact_tie_picks_smallest_class(self):
        model = self.hand_model([0.0, 0.0], [0.0], TaskSplit((0, 1), (2,)))
        assert self.accuracies(model, [1.0, 1.0]) == [1.0, 0.0, 0.0]
        model = self.hand_model([0.0, 0.0], [0.0], TaskSplit((1, 2), (0,)))
        assert self.accuracies(model, [1.0, 1.0]) == [1.0, 0.0, 0.0]

    def test_scores_map_back_to_original_indices(self):
        model = self.hand_model([2.0, 0.1], [0.5], TaskSplit((1, 2), (0,)))
        assert self.accuracies(model, [0.0, 0.0]) == [0.0, 1.0, 0.0]
        rep = evaluate(model, np.zeros((1, 2)), np.eye(3)[[2]])
        assert rep.bce_a == float(bce_losses(np.array([[2.0, 0.1]]), np.array([[0.0, 1.0]]))[0])
        assert rep.bce_b == float(bce_losses(np.array([[0.5]]), np.array([[0.0]]))[0])
        assert (rep.head_accuracy, np.isnan(rep.tail_accuracy)) == (0.0, True)


def staged_model(cfg, ds):
    """The unrefined model of the stages run in order on ds: Stage 1, the
    proxy search over the default grids, Stage 2 at the selected weight
    and assembly at the selected depth."""
    td = build_task_data(ds)
    s1 = stage1(cfg, td)
    sel = select_structure(s1, td.n, cfg.spec, c_values=None, w_values=None)
    return assemble(cfg.spec, sel.c_star, stage2(cfg, td, sel.w_star).params, s1, td.split)


def test_metrics_reasonable_on_train_data():
    ds = toy_dataset()
    rep = evaluate(staged_model(run_config(), ds), ds.features, ds.labels)
    assert rep.overall_accuracy > 0.5
    assert rep.n_eval == ds.n


def test_evaluate_group_accuracies():
    ds = toy_dataset()
    model = staged_model(run_config(), ds)
    rep = evaluate(model, ds.features, ds.labels)
    head_rows = np.isin(ds.labels.argmax(axis=1), model.split.head_classes)
    # Each group's accuracy is the overall accuracy of its rows alone.
    for rows, acc in ((head_rows, rep.head_accuracy), (~head_rows, rep.tail_accuracy)):
        assert evaluate(model, ds.features[rows], ds.labels[rows]).overall_accuracy == acc
    assert rep.overall_accuracy == pytest.approx(
        (rep.head_accuracy * head_rows.sum() + rep.tail_accuracy * (~head_rows).sum()) / ds.n)


def count_passes(monkeypatch):
    """Record every trunk pass (trunk_activations) and every branch pass
    (forward_from, as (task, starting layer)) the pipeline makes."""
    import tailshare.pipeline as pipeline_mod

    calls = {"trunk": 0, "branches": []}
    real_trunk, real_from = pipeline_mod.trunk_activations, pipeline_mod.forward_from

    def counted_trunk(*args):
        calls["trunk"] += 1
        return real_trunk(*args)

    def counted_from(params, spec, h, layer, task):
        calls["branches"].append((task, layer))
        return real_from(params, spec, h, layer, task)

    monkeypatch.setattr(pipeline_mod, "trunk_activations", counted_trunk)
    monkeypatch.setattr(pipeline_mod, "forward_from", counted_from)
    return calls


def test_evaluate_runs_each_branch_once(monkeypatch):
    ds = toy_dataset()
    model = staged_model(run_config(), ds)
    calls = count_passes(monkeypatch)
    rep = evaluate(model, ds.features, ds.labels)
    assert calls == {"trunk": 1, "branches": [("A", model.c), ("B", model.c)]}
    monkeypatch.undo()
    # The task BCEs are those of the model's own branch logits.
    s_a, s_b = model.decode(trunk_activations(model.branch_a, SPEC, ds.features))
    z_a, z_b = project_labels(ds.labels, model.split)
    assert rep.bce_a == float(bce_losses(s_a, z_a).mean())
    assert rep.bce_b == float(bce_losses(s_b, z_b).mean())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_branch_logits_equal_two_passes_from_layer_0_with_one_encoder_pass(monkeypatch, activation):
    """At every shared depth the branch logits carry the bits of each
    branch's own pass from layer 0 (_forward_cache's per-layer loop), from
    one trunk pass: branch A's full trunk, which both branches leave at c."""
    import tailshare.pipeline as pipeline_mod

    spec = ModelSpec(3, (5, 4, 6), (3, 2), activation=activation)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(17, 3))
    for c in range(spec.depth + 1):
        branch_a, branch_b = (ParamVector(rng.normal(size=spec.param_count), spec.block_table())
                              for _ in range(2))
        branch_b.values[:spec.encoder_params(c)] = branch_a.values[:spec.encoder_params(c)]
        model = AssembledModel(spec, c, TaskSplit((0, 1, 2), (3, 4)), branch_a, branch_b)
        calls = count_passes(monkeypatch)
        s_a, s_b = model.decode(pipeline_mod.trunk_activations(branch_a, spec, x))
        monkeypatch.undo()
        assert calls == {"trunk": 1, "branches": [("A", c), ("B", c)]}
        assert s_a.tobytes() == _forward_cache(branch_a, spec, x, "A")[4].tobytes()
        assert s_b.tobytes() == _forward_cache(branch_b, spec, x, "B")[4].tobytes()



@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_decode_leaves_its_activations_unchanged_and_gives_each_branch_its_own_pass(activation):
    """decode scores both branches from h_c of a list that runs past c
    (the full trunk of branch A), gives each branch the bits of its own
    forward_from at layer 0, and leaves the list's entries and their
    values as they were."""
    spec = ModelSpec(3, (5, 4, 6), (3, 2), activation=activation)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(13, 3))
    for c in range(spec.depth + 1):
        branch_a, branch_b = (ParamVector(rng.normal(size=spec.param_count), spec.block_table())
                              for _ in range(2))
        branch_b.values[:spec.encoder_params(c)] = branch_a.values[:spec.encoder_params(c)]
        model = AssembledModel(spec, c, TaskSplit((0, 1, 2), (3, 4)), branch_a, branch_b)
        acts = trunk_activations(branch_a, spec, x)
        held, held_bytes = list(acts), [h.tobytes() for h in acts]
        s_a, s_b = model.decode(acts)
        assert len(acts) == spec.depth + 1
        assert all(a is h for a, h in zip(acts, held))
        assert [h.tobytes() for h in acts] == held_bytes
        assert s_a.tobytes() == forward_from(branch_a, spec, x, 0, "A").tobytes()
        assert s_b.tobytes() == forward_from(branch_b, spec, x, 0, "B").tobytes()

@pytest.mark.parametrize("entry", ["train", "stage2", "refine_decoders"])
def test_one_network_entry_points_raise_their_stacks_first_divergence(entry):
    """nn.train, stage2 and refine_decoders raise the TrainingDivergenceError,
    epoch and loss, of the first diverged member of the train_stack call
    each one makes."""
    spec = ModelSpec(4, (8, 8), (3, 3), activation="relu")
    td = build_task_data(toy_dataset())
    # At 1e15 the refined branches diverge at epochs 1 (A) and 4 (B), so
    # the first divergence is told apart; one network needs a larger rate.
    opt = OptConfig(1e15 if entry == "refine_decoders" else 1e50, epochs=20, batch_size=64, seed=4)
    cfg = run_config(spec=spec)
    offs = _offsets_for(cfg, td)
    if entry == "train":
        start = init_params(spec, 1)
        stacked = train_stack([start], spec, td, [(0.6, 0.4)], opt)
        call = lambda: train(start, spec, td, (0.6, 0.4), opt)
    elif entry == "stage2":
        cfg = replace(cfg, stage2_opt=opt)
        stacked = train_stack([init_params(spec, cfg.init_seed)], spec, td, [(0.6, 0.4)], opt, offsets=offs)
        call = lambda: stage2(cfg, td, 0.6)
    else:
        model = assemble(spec, 0, stage2(cfg, td, 0.6).params, stage1(cfg, td), td.split)
        cfg = replace(cfg, refine_opt=opt)
        stacked = train_stack([model.branch_a, model.branch_b], spec, td, [(1.0, 0.0), (0.0, 1.0)], opt,
                              [0, 0], offs)
        call = lambda: refine_decoders(model, td, cfg)
    diverged = [res for res in stacked if isinstance(res, TrainingDivergenceError)]
    assert len({(res.epoch, repr(res.loss)) for res in diverged}) == len(stacked)
    first = diverged[0]
    with pytest.raises(TrainingDivergenceError) as err:
        call()
    assert (err.value.epoch, repr(err.value.loss)) == (first.epoch, repr(first.loss))
