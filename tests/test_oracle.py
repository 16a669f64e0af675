import ast
import concurrent.futures
from dataclasses import replace
import json
import os
from pathlib import Path
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailshare import oracle
from tailshare.errors import ConfigError, DomainError, TrainingDivergenceError
from tailshare.datagen import GenConfig, build_generator
from tailshare.nn import ModelSpec, OptConfig, trunk_activations
from tailshare.oracle import (
    Study,
    _mean_stderr,
    bernoulli_logit_anchor,
    grid_compare,
    spearman,
    weight_sweep,
)
from tailshare.pipeline import RunConfig


GEN = build_generator(GenConfig(6, 4, 10.0, 150, class_mean_scale=1.8, noise_sigma=1.0, seed=11))
SPEC = ModelSpec(4, (8, 8), (3, 3), activation="tanh")


def run_config():
    return RunConfig(
        spec=SPEC,
        stage1_opt=OptConfig(0.3, epochs=20, batch_size=64, seed=1),
        stage2_opt=OptConfig(0.3, epochs=20, batch_size=64, seed=2),
        refine_opt=OptConfig(0.1, epochs=4, batch_size=64, seed=3),
        init_seed=5,
    )


def one_order_config():
    """run_config with Stage 2 on Stage 1's optimizer: one batch order."""
    cfg = run_config()
    return replace(cfg, stage2_opt=cfg.stage1_opt)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3], [5, 4, 3]) == -1.0

    def test_constant_input_is_undefined_not_zero(self):
        assert spearman([1.0, 1.0, 1.0], [1, 2, 3]) is None

    def test_average_rank_ties(self):
        # ties handled by average ranks, matching the definition
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(0.866, abs=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            spearman([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_non_finite_input_names_its_vector(self, bad, name):
        vectors = {"x": [1.0, 2.0, 3.0], "y": [3.0, 1.0, 2.0]}
        vectors[name][1] = bad
        with pytest.raises(DomainError, match=f"input {name} has non-finite"):
            spearman(vectors["x"], vectors["y"])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60))
    def test_equals_scipy_bit_for_bit(self, data, n):
        """Heavy ties from small integer pools, signed zeros and mixed
        magnitudes; None exactly when an input is constant, otherwise the
        bits of scipy's spearmanr."""
        from scipy import stats

        def vector():
            pool = data.draw(st.sampled_from([
                st.integers(0, data.draw(st.integers(1, 4))).map(float),
                st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1e-300, -2.5, 3.0, 1e300, 5e-324]),
            ]))
            return data.draw(st.lists(pool, min_size=n, max_size=n))

        x, y = vector(), vector()
        rho = spearman(x, y)
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert rho is None
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's p-value divides by zero at n = 2
            want = float(stats.spearmanr(x, y).statistic)
        assert np.float64(rho).tobytes() == np.float64(want).tobytes(), (rho, want)


class TestAnchor:
    def test_small_instance_lands_near_theory(self):
        stats = bernoulli_logit_anchor(6, 800, 60, seed=3)
        assert stats.n_fail == 0
        assert 0.5 * stats.expected < stats.mean < 1.5 * stats.expected

    def test_validation(self):
        with pytest.raises(ConfigError):
            bernoulli_logit_anchor(1, 100, 10)


class TestGridCompare:
    def build(self, **kw):
        args = dict(m_resamples=4, n_train=300, seed=0, n_eval=400)
        args.update(kw)
        return grid_compare(GEN, run_config(), (0, 1, 2), (0.2, 0.5, 0.8), **args)

    def test_shapes_and_validity(self):
        rep = self.build()
        assert rep.risk_mean.shape == (3, 3)
        assert rep.proxy_total.shape == (3, 3)
        assert rep.valid.all()
        assert rep.oracle_best is not None
        assert rep.proxy_best[0] in rep.c_values

    def test_depth_zero_row_is_weight_independent(self):
        rep = self.build()
        assert np.all(rep.risk_mean[0] == rep.risk_mean[0][0])
        assert np.all(rep.proxy_total[0] == rep.proxy_total[0][0])

    def test_proxy_grid_self_correlation_is_one(self):
        rep = self.build()
        assert spearman(rep.proxy_total.ravel(), rep.proxy_total.ravel()) == 1.0

    def test_degenerate_single_depth_zero_grid_reports_undefined(self):
        rep = grid_compare(GEN, run_config(), (0,), (0.2, 0.5, 0.8),
                           m_resamples=4, n_train=300, seed=0, n_eval=400)
        assert rep.spearman_rho is None

    def test_csv_export(self, tmp_path):
        rep = self.build()
        path = tmp_path / "oracle.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "C,w_A,risk_mean,risk_stderr,proxy_total,n_ok,valid"
        assert len(lines) == 1 + 9

    def test_parallel_jobs_match_sequential(self, tmp_path):
        """A grid_compare and a weight_sweep on two worker processes give
        the in-process study's report: its JSON summary and its CSV bytes."""
        def sweep(jobs):
            return weight_sweep(GEN, run_config(), 2, (0.2, 0.5, 0.8), m_resamples=4, n_train=300, seed=0,
                                n_eval=400, eval_per_class=20, jobs=jobs)

        for name, study in (("grid_compare", lambda jobs: self.build(jobs=jobs)), ("weight_sweep", sweep)):
            reports = {jobs: study(jobs) for jobs in (1, 2)}
            assert reports[2].to_json() == reports[1].to_json(), name
            for jobs, report in reports.items():
                report.to_csv(tmp_path / f"{name}_{jobs}.csv")
            assert (tmp_path / f"{name}_2.csv").read_bytes() == (tmp_path / f"{name}_1.csv").read_bytes(), name

    def test_a_pool_opens_at_most_one_worker_per_resample(self, monkeypatch):
        """jobs=64 over two resamples opens two workers and reports what
        jobs=1 reports. The pool maps in-process, so no process starts."""
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        alone = self.build(m_resamples=2)
        assert opened == []
        pooled = self.build(m_resamples=2, jobs=64)
        assert opened == [2]
        assert pooled.to_json() == alone.to_json()


class TestWeightSweep:
    def test_basic_contract(self, tmp_path):
        rep = weight_sweep(GEN, run_config(), 2, (0.0, 0.5, 1.0), m_resamples=3,
                           n_train=300, seed=1, n_eval=300, eval_per_class=20)
        assert rep.overall_mean.shape == (3,)
        assert np.all((rep.overall_mean >= 0) & (rep.overall_mean <= 1))
        assert np.all(rep.n_ok == 3)
        path = tmp_path / "sweep.csv"
        rep.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("w_A,overall_mean,overall_stderr,head_mean")

    def test_refine_changes_results_unless_it_has_no_epochs(self):
        def sweep(cfg, refine):
            return weight_sweep(GEN, cfg, 2, (0.5,), m_resamples=2, n_train=300, seed=1, n_eval=200,
                                eval_per_class=10, refine=refine)

        plain = sweep(run_config(), False)
        assert plain.risk_mean[0] != sweep(run_config(), True).risk_mean[0]
        no_epochs = replace(run_config(), refine_opt=replace(run_config().refine_opt, epochs=0))
        assert sweep(no_epochs, True).to_json() == plain.to_json()

    def test_json_round_trip_fields(self):
        rep = weight_sweep(GEN, run_config(), 1, (0.3, 0.7), m_resamples=2,
                           n_train=300, seed=2, n_eval=200, eval_per_class=10)
        import json
        payload = json.loads(rep.to_json())
        assert payload["study"]["c_values"] == [1]
        assert payload["study"]["w_values"] == [0.3, 0.7]
        assert len(payload["overall_mean"]) == 2


class TestResampleEngine:
    """grid_compare against a rebuild through the public stage functions,
    following the documented resample seed layout."""

    C_VALUES = (0, 1, 2)
    W_VALUES = (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("config", [run_config, one_order_config])
    def test_cells_match_public_rebuild(self, monkeypatch, config):
        """Two stage orders train Stage 1 by `stage1`; one order takes it
        from the Stage-2 stack, and the report is the two-call rebuild's
        either way."""
        import tailshare.oracle as oracle_mod
        from tailshare.datagen import MixtureGenerator, sample_iid, split_classes
        from tailshare.infotheory import _risk_targets, taskwise_risk
        from tailshare.pipeline import assemble, build_task_data, select_structure, stage1, stage2

        counts = {"stage1": 0, "posterior": 0}
        real_stage1, real_posterior = oracle_mod.stage1, MixtureGenerator.posterior

        def counted_stage1(*args, **kwargs):
            counts["stage1"] += 1
            return real_stage1(*args, **kwargs)

        def counted_posterior(self, *args, **kwargs):
            counts["posterior"] += 1
            return real_posterior(self, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "stage1", counted_stage1)
        monkeypatch.setattr(MixtureGenerator, "posterior", counted_posterior)
        cfg = config()
        rep = grid_compare(GEN, cfg, self.C_VALUES, self.W_VALUES, m_resamples=2,
                           n_train=300, seed=3, n_eval=300)
        one_order = cfg.stage1_opt == cfg.stage2_opt
        assert counts == {"stage1": 0 if one_order else 2, "posterior": 1}
        monkeypatch.undo()

        eval_points = GEN.sample_features(300, np.random.default_rng(3))
        split = split_classes(GEN.priors)
        targets = _risk_targets(GEN.posterior(eval_points), split)
        risks = np.zeros((2, 3, 3))
        first_s1 = None
        for m in range(2):
            td = build_task_data(sample_iid(GEN, 300, 3 + 1000 + m), split, GEN.priors)
            cfg_m = replace(cfg, stage1_opt=replace(cfg.stage1_opt, seed=cfg.stage1_opt.seed + m),
                            stage2_opt=replace(cfg.stage2_opt, seed=cfg.stage2_opt.seed + m))
            s1 = stage1(cfg_m, td)
            first_s1 = first_s1 or s1
            for wi, w in enumerate(self.W_VALUES):
                s2 = stage2(cfg_m, td, w, s1)
                for ci, c in enumerate(self.C_VALUES):
                    model = assemble(SPEC, c, s2.params, s1, split)
                    risks[m, ci, wi] = taskwise_risk(
                        targets, model.decode(trunk_activations(model.branch_a, SPEC, eval_points)))
        assert np.array_equal(rep.risk_mean, (risks[0] + risks[1]) / 2)
        grid = select_structure(first_s1, 300, SPEC, self.C_VALUES, self.W_VALUES)
        cells = {(row.c, row.w_a): row.total for row in grid.table}
        want = [[cells[c, w] for w in self.W_VALUES] for c in self.C_VALUES]
        assert np.array_equal(rep.proxy_total, np.array(want))
        assert rep.proxy_best == (grid.c_star, grid.w_star)

    @pytest.mark.parametrize("config", [run_config, one_order_config])
    @pytest.mark.parametrize("c", [0, 1])
    def test_refined_sweep_cells_match_public_rebuild(self, c, config):
        from tailshare.datagen import sample_iid, split_classes
        from tailshare.infotheory import _risk_targets, taskwise_risk
        from tailshare.pipeline import (assemble, build_task_data, evaluate, refine_decoders,
                                        stage1, stage2)

        cfg = config()
        rep = weight_sweep(GEN, cfg, c, self.W_VALUES, m_resamples=2, n_train=300, seed=3,
                           n_eval=300, eval_per_class=15, refine=True)
        rng = np.random.default_rng(3)
        eval_points = GEN.sample_features(300, rng)
        balanced = GEN.sample_balanced(15, rng)
        split = split_classes(GEN.priors)
        targets = _risk_targets(GEN.posterior(eval_points), split)
        risks, accs = np.zeros((2, 3)), np.zeros((2, 3))
        for m in range(2):
            td = build_task_data(sample_iid(GEN, 300, 3 + 1000 + m), split, GEN.priors)
            cfg_m = replace(cfg, stage1_opt=replace(cfg.stage1_opt, seed=cfg.stage1_opt.seed + m),
                            stage2_opt=replace(cfg.stage2_opt, seed=cfg.stage2_opt.seed + m),
                            refine_opt=replace(cfg.refine_opt, seed=cfg.refine_opt.seed + m))
            s1 = stage1(cfg_m, td)
            for wi, w in enumerate(self.W_VALUES):
                model = assemble(SPEC, c, stage2(cfg_m, td, w, s1).params, s1, split)
                model = refine_decoders(model, td, cfg_m)
                risks[m, wi] = taskwise_risk(
                    targets, model.decode(trunk_activations(model.branch_a, SPEC, eval_points)))
                accs[m, wi] = evaluate(model, *balanced).overall_accuracy
        assert np.array_equal(rep.risk_mean, (risks[0] + risks[1]) / 2)
        assert np.array_equal(rep.overall_mean, (accs[0] + accs[1]) / 2)

    def test_compare_scores_the_refined_cells_that_sweep_scores(self):
        """The oracle engine honours Study.refine: on one depth, compare's
        refined risks are sweep's bits (its accuracy draws come after the
        risk points), and differ from the unrefined study's."""
        study = Study((1,), (0.3, 0.7), m_resamples=2, n_train=300, seed=1, n_eval=200, refine=True)
        refined = oracle.compare(GEN, run_config(), study)
        swept = oracle.sweep(GEN, run_config(), replace(study, eval_per_class=10))
        assert refined.risk_mean.tobytes() == swept.risk_mean.tobytes()
        assert refined.study is study and np.isfinite(swept.overall_mean).all()
        plain = oracle.compare(GEN, run_config(), replace(study, refine=False))
        assert not np.array_equal(plain.risk_mean, refined.risk_mean)

    def test_depth_zero_is_assembled_and_scored_once_per_resample(self, monkeypatch):
        """Per resample, one c = 0 model serves every weight, and each model
        is scored by one taskwise_risk call."""
        import tailshare.oracle as oracle_mod

        depths, risk_calls = [], []
        real_assemble, real_risk = oracle_mod.assemble, oracle_mod.taskwise_risk

        def counted_assemble(spec, c, *args):
            depths.append(c)
            return real_assemble(spec, c, *args)

        def counted_risk(*args):
            risk_calls.append(1)
            return real_risk(*args)

        monkeypatch.setattr(oracle_mod, "assemble", counted_assemble)
        monkeypatch.setattr(oracle_mod, "taskwise_risk", counted_risk)
        grid_compare(GEN, run_config(), self.C_VALUES, self.W_VALUES, m_resamples=2,
                     n_train=300, seed=3, n_eval=300)
        assert depths.count(0) == 2
        assert depths.count(1) == depths.count(2) == 2 * len(self.W_VALUES)
        assert len(risk_calls) == 2 * (1 + 2 * len(self.W_VALUES))

    @pytest.mark.parametrize("config, w_values, calls", [
        (one_order_config, None, 1), (one_order_config, (0.3, 0.7), 1), (run_config, None, 2)])
    def test_a_resample_trains_once_on_one_order(self, monkeypatch, config, w_values, calls):
        """With equal stage optimizers a resample makes one train_stack
        call, its Stage-2 stack holding w_A = 1 and 0 whether or not the
        grid does; with unequal ones, Stage 1 is a second call."""
        import tailshare.pipeline as pipeline_mod

        stacks = []
        real = pipeline_mod.train_stack

        def spied(starts, *args, **kwargs):
            stacks.append(args[2])
            return real(starts, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "train_stack", spied)
        rep = grid_compare(GEN, config(), (0, 1), w_values, m_resamples=2, n_train=300, seed=3, n_eval=100)
        assert len(stacks) == 2 * calls
        grid = [(w, 1.0 - w) for w in rep.w_values]
        if calls == 1:
            added = [(w, 1.0 - w) for w in (1.0, 0.0) if w not in rep.w_values]
            assert stacks == [grid + added] * 2
        else:
            assert stacks == [[(1.0, 0.0), (0.0, 1.0)], grid] * 2
        assert rep.risk_mean.shape == (2, len(rep.w_values))

    @pytest.mark.parametrize("w_values", [(0.5,), (0.0, 0.5, 1.0)])
    def test_a_diverged_task_a_lane_is_the_stage1_divergence(self, monkeypatch, w_values):
        """On one order, a w_A = 1 lane that diverges is Stage 1's
        divergence, whether it is a cell or an added lane: every value of
        its resample is NaN, and compare raises that error for resample 0."""
        err = TrainingDivergenceError(3, float("inf"))
        real = oracle.stage2_stack

        def task_a_diverges(cfg, td, lanes):
            results = real(cfg, td, lanes)
            results[lanes.index(1.0)] = err
            return results

        monkeypatch.setattr(oracle, "stage2_stack", task_a_diverges)
        study = Study((0, 1), w_values, m_resamples=2, n_train=300, seed=0, n_eval=100)
        values, first = oracle._collect_resamples(GEN, one_order_config(), study, jobs=1)
        assert np.isnan(values).all() and first is err
        with pytest.raises(TrainingDivergenceError) as raised:
            oracle.compare(GEN, one_order_config(), study)
        assert raised.value is err

    def test_single_resample_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = grid_compare(GEN, run_config(), (0, 1), (0.5,), m_resamples=1,
                               n_train=300, seed=0, n_eval=200)
        assert np.all(np.isfinite(rep.risk_mean))
        assert np.all(np.isnan(rep.risk_stderr))
        assert np.all(rep.n_ok == 1)

    def test_mean_stderr_of_empty_and_single_cells(self):
        values = np.array([[np.nan, 1.0, 2.0], [np.nan, np.nan, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr, n_ok = _mean_stderr(values)
        assert np.isnan(mean[0]) and mean[1] == 1.0 and mean[2] == 3.0
        assert np.isnan(stderr[0]) and np.isnan(stderr[1]) and stderr[2] == 1.0
        assert n_ok.tolist() == [0, 1, 2]

    def test_mean_stderr_of_values_too_large_to_square(self):
        """A finite risk near the float range (a Stage 2 with huge finite
        parameters) is a counted cell with an infinite stderr, not a numpy
        warning."""
        values = np.array([[1e200, 1.0], [3e200, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr, n_ok = _mean_stderr(values)
        assert mean.tolist() == [2e200, 1.5]
        assert stderr[0] == np.inf and stderr[1] == 0.5
        assert n_ok.tolist() == [2, 2]

    def test_mean_stderr_is_numpys_nan_reductions_bit_for_bit(self):
        """Seeded random grids of M = 0..11 resamples and 0-2 trailing axes,
        each column holding 0, 1 or >= 2 finite values among NaN, +-inf and
        values near the float range: the mean and stderr are np.nanmean and
        np.nanstd(ddof=1) / sqrt(n_ok) of the finite values, bit for bit,
        without a warning. Reducing an (M, n, k) stack at once, as
        weight_sweep does, gives each of its k columns' reductions when
        n > 1: numpy then sums both row by row (a lone column, n = 1, it
        sums pairwise)."""
        def same_bits(got, want):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            assert np.asarray(got)[keep].tobytes() == np.asarray(want)[keep].tobytes()

        rng = np.random.default_rng(25)
        for trial in range(1200):
            m, trailing = trial % 12, tuple(rng.integers(1, 5, size=trial % 3))
            cols = int(np.prod(trailing))
            values = rng.normal(size=(m, cols)) * 10.0 ** rng.uniform(-3, 3, size=(m, cols))
            huge = rng.random((m, cols)) < 0.15
            values[huge] = rng.choice([-1.0, 1.0], huge.sum()) * rng.uniform(1e307, 1.7e308, huge.sum())
            for col in range(cols):
                n_finite = min(m, (0, 1, int(rng.integers(2, 12)))[rng.integers(3)])
                bad = rng.permutation(m)[n_finite:]
                values[bad, col] = rng.choice([np.nan, np.inf, -np.inf], bad.size)
            values = values.reshape((m,) + trailing)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mean, stderr, n_ok = _mean_stderr(values)
            finite = np.where(np.isfinite(values), values, np.nan)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                want_mean = np.nanmean(finite, axis=0)
                want_stderr = np.nanstd(finite, axis=0, ddof=1) / np.sqrt(n_ok)
            assert np.array_equal(n_ok, np.isfinite(values).sum(axis=0))
            same_bits(mean, want_mean)
            same_bits(stderr, want_stderr)
            if len(trailing) == 2 and trailing[0] > 1:
                for k in range(trailing[-1]):
                    for got, want in zip(_mean_stderr(values[..., k]), (mean, stderr, n_ok)):
                        same_bits(got, want[..., k])

    @pytest.mark.parametrize("restrict", [False, 0, None])
    def test_only_the_renormalized_risk_is_accepted(self, restrict):
        with pytest.raises(ConfigError, match="restrict must be True"):
            grid_compare(GEN, run_config(), (0,), (0.5,), m_resamples=1, n_train=300, n_eval=100,
                         restrict=restrict)

    @pytest.mark.parametrize("setting", ["m_resamples", "n_train", "n_eval", "eval_per_class"])
    def test_zero_study_setting_rejected(self, setting):
        """Study refuses each setting of 0, naming it, and so does each
        entry point that takes the setting (grid_compare scores no
        accuracy, so it takes no eval_per_class)."""
        sizes = {**dict(m_resamples=1, n_train=300, n_eval=100, eval_per_class=5), setting: 0}
        with pytest.raises(ConfigError, match=f"^{setting} .*must be >= 1"):
            Study((0,), (0.5,), seed=0, **sizes)
        with pytest.raises(ConfigError, match=f"^{setting} .*must be >= 1"):
            weight_sweep(GEN, run_config(), 1, (0.5,), **sizes)
        if setting != "eval_per_class":
            del sizes["eval_per_class"]
            with pytest.raises(ConfigError, match=f"^{setting} .*must be >= 1"):
                grid_compare(GEN, run_config(), (0,), (0.5,), **sizes)

    @pytest.mark.parametrize("one_order", [False, True])
    def test_stage1_divergence_of_first_resample_raises(self, one_order):
        diverging = OptConfig(1e100, epochs=3, batch_size=64, seed=1)
        bad = replace(run_config(), spec=ModelSpec(4, (8, 8), (3, 3), activation="relu"),
                      stage1_opt=diverging, **({"stage2_opt": diverging} if one_order else {}))
        with pytest.raises(TrainingDivergenceError):
            grid_compare(GEN, bad, (0, 1), (0.5,), m_resamples=2, n_train=300, n_eval=100)

    def test_a_cell_whose_refinement_diverges_counts_as_failed(self):
        """A decoder fine-tune at learning rate 1e306 diverges: its cell
        stays NaN, so no weight has a finite risk, n_ok is 0 and no weight
        is valid, with no warning (warnings fail the suite). Unrefined, the
        same study is valid at every weight."""
        cfg = replace(run_config(), spec=ModelSpec(4, (8, 8), (3, 3), activation="relu"),
                      refine_opt=OptConfig(1e306, epochs=4, batch_size=64, seed=3))

        def sweep(refine):
            return weight_sweep(GEN, cfg, 1, (0.3, 0.7), m_resamples=2, n_train=300, seed=1, n_eval=100,
                                eval_per_class=10, refine=refine)

        assert sweep(False).valid.all()
        rep = sweep(True)
        assert np.isnan(rep.risk_mean).all() and np.isnan(rep.overall_mean).all()
        assert rep.n_ok.tolist() == [0, 0] and not rep.valid.any()

    def test_divergence_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(TrainingDivergenceError(3, float("inf"))))
        assert (err.epoch, err.loss) == (3, float("inf"))


def test_cli_import_leaves_scipy_stats_unloaded():
    import tailshare
    src = str(Path(tailshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tailshare.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_import_loads_exactly_the_library_modules():
    """`import tailshare` loads the seven library modules, and `tables`,
    which they import; not cli, presets or store."""
    import tailshare
    src = str(Path(tailshare.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tailshare; print(*sorted(m for m in sys.modules "
         "if m.startswith('tailshare.')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert out.stdout.split() == [
        f"tailshare.{m}" for m in ("datagen", "errors", "infotheory", "nn", "oracle", "pipeline", "proxy",
                                   "tables")]


def test_package_import_leaves_the_process_pool_unloaded():
    """Only a study run on more than one job opens a pool, so `import
    tailshare` loads neither concurrent.futures.process nor multiprocessing."""
    import tailshare
    src = str(Path(tailshare.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tailshare; "
         "print(*(m in sys.modules for m in ('concurrent.futures.process', 'multiprocessing')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_only_tables_and_store_import_json():
    """tables reads and writes every JSON document, and store its container
    headers: no other module of the package imports json."""
    import tailshare
    found = []
    for path in sorted(Path(tailshare.__file__).parent.glob("*.py")):
        if path.name in ("tables.py", "store.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "json"]
    assert found == []


def test_toy_grid_compare_leaves_numpy_ma_unloaded():
    """spearman tests constancy by min and max, not np.unique, so an oracle
    run in a fresh interpreter never imports numpy.ma."""
    import tailshare
    src = str(Path(tailshare.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from tailshare.datagen import GenConfig, build_generator\n"
        "from tailshare.nn import ModelSpec, OptConfig\n"
        "from tailshare.oracle import grid_compare\n"
        "from tailshare.pipeline import RunConfig\n"
        "gen = build_generator(GenConfig(6, 4, 10.0, 150, class_mean_scale=1.8, noise_sigma=1.0, seed=11))\n"
        "opt = OptConfig(0.3, epochs=2, batch_size=64, seed=1)\n"
        "cfg = RunConfig(ModelSpec(4, (8, 8), (3, 3), activation='tanh'), opt, opt, opt, init_seed=5)\n"
        "report = grid_compare(gen, cfg, (0, 2), (0.3, 0.7), m_resamples=2, n_train=100, n_eval=50)\n"
        "print(report.spearman_rho is not None, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_oracle_and_sweep_run_with_scipy_blocked(tmp_path):
    """A toy `tailshare oracle` and `tailshare sweep` in a process where
    importing scipy fails: both exit 0 and no scipy module gets loaded."""
    import tailshare
    root = Path(tailshare.__file__).resolve().parents[2]
    config = root / "configs" / "toy.json"
    common = ["--config", str(config), "--out", str(tmp_path), "--resamples", "2",
              "--train-size", "200", "--grid-w", "0.3,0.7"]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from tailshare.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    main.main(args=args, prog_name='tailshare', standalone_mode=False)\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod))\n"
    )
    commands = [["oracle", "--grid-c", "0,2"] + common, ["sweep"] + common]
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert "spearman=" in out.stdout
    for name in ("oracle_grid_v001.csv", "oracle_summary_v001.json", "sweep_v001.csv"):
        assert (tmp_path / name).stat().st_size > 0
