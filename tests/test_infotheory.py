import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tailshare import infotheory
from tailshare.errors import ConfigError, StructuralError, SupportError
from tailshare.datagen import GenConfig, build_generator, split_classes
from tailshare.infotheory import (
    _conditional_tables,
    _draw_tables,
    _joint_tables,
    _risk_targets,
    _terms,
    conditional_mutual_information,
    group_outcome_log_probs,
    residual_sweep,
    taskwise_risk,
)


def terms(q, p_a, p_b):
    """The decomposition terms of tables checked as residual_sweep checks them."""
    return _terms(_joint_tables(q), _conditional_tables(p_a, "p_a"), _conditional_tables(p_b, "p_b"))


def kl(p, q):
    """D(p || q) as every decomposition term computes it."""
    return float(infotheory._kl_terms(np.asarray(p, float), np.asarray(q, float)).sum())


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl(p, p) == 0.0

    def test_hand_value(self):
        # 0.5 log 2 + 0.5 log(2/3) = 0.5 log(4/3)
        assert abs(kl([0.5, 0.5], [0.25, 0.75]) - 0.143841) < 1e-6

    def test_zero_mass_terms_contribute_nothing(self):
        assert kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert kl(p, q) >= -1e-12

    def test_support_violation(self):
        with pytest.raises(SupportError):
            kl([0.5, 0.5], [1.0, 0.0])


class TestConditionalMutualInformation:
    # With a single Y value, I(U; V | Y) is the plain mutual information I(U; V).
    def test_independent_is_zero(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        assert abs(conditional_mutual_information(joint[None])) < 1e-15

    def test_identical_uniform_binary_is_log2(self):
        assert conditional_mutual_information(np.diag([0.5, 0.5])[None]) == pytest.approx(np.log(2.0))

    def test_cmi_zero_for_deterministic_functions_of_y(self):
        # z_a and z_b each a deterministic function of y: conditionally constant
        table = np.zeros((3, 2, 2))
        for y, (za, zb) in enumerate([(0, 1), (1, 0), (1, 1)]):
            table[y, za, zb] = 1.0 / 3.0
        assert abs(conditional_mutual_information(table)) < 1e-15

    def test_cmi_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            table = rng.dirichlet(np.ones(2 * 3 * 2)).reshape(2, 3, 2)
            assert conditional_mutual_information(table) >= -1e-12

    def test_a_table_without_three_axes_is_refused(self):
        with pytest.raises(StructuralError, match=re.escape("expects axes (Y, U, V)")):
            conditional_mutual_information(np.full((2, 2), 0.25))


class TestDecomposition:
    def test_conditionally_independent_case_splits_exactly(self):
        rng = np.random.default_rng(2)
        q_y = rng.dirichlet(np.ones(3))
        qa = rng.dirichlet(np.ones(2), size=3)
        qb = rng.dirichlet(np.ones(4), size=3)
        q = q_y[:, None, None] * qa[:, :, None] * qb[:, None, :]
        got = terms(q, rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(4), size=3))
        assert abs(got.cmi) < 1e-12
        assert abs(got.joint_kl - got.task_a_kl - got.task_b_kl) < 1e-12

    def test_true_conditionals_leave_only_cmi(self):
        rng = np.random.default_rng(3)
        q = rng.dirichlet(np.ones(3 * 2 * 3)).reshape(3, 2, 3)
        q_y = q.sum(axis=(1, 2))
        got = terms(q, q.sum(axis=2) / q_y[:, None], q.sum(axis=1) / q_y[:, None])
        assert abs(got.task_a_kl) < 1e-12
        assert abs(got.task_b_kl) < 1e-12
        assert abs(got.joint_kl - got.cmi) < 1e-12

    def test_residual_vanishes_on_random_instances(self):
        assert residual_sweep(300, seed=17) < 1e-10

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        q, p_a, p_b = _draw_tables(rng, 4, 4, 4)
        base = terms(q, p_a, p_b)
        perm_y, perm_a, perm_b = (rng.permutation(n) for n in q.shape)
        other = terms(q[np.ix_(perm_y, perm_a, perm_b)], p_a[np.ix_(perm_y, perm_a)],
                      p_b[np.ix_(perm_y, perm_b)])
        assert base.joint_kl == pytest.approx(other.joint_kl, abs=1e-12)
        assert base.cmi == pytest.approx(other.cmi, abs=1e-12)

    def test_stack_of_one_matches_the_scalar_terms_exactly(self):
        rng = np.random.default_rng(6)
        for bounds in ((4, 4, 4), (2, 5, 3), (6, 2, 2)):
            for _ in range(50):
                q, p_a, p_b = _draw_tables(rng, *bounds)
                scalar = terms(q, p_a, p_b)
                stacked = terms(q[None], p_a[None], p_b[None])
                for one, many in zip(scalar, stacked):
                    assert np.shape(one) == () and many.shape == (1,)
                    assert one == many[0]
                assert scalar.residual == stacked.residual[0]
                cmi = conditional_mutual_information(q[None])
                assert cmi.shape == (1,) and cmi[0] == scalar.cmi

    def test_validation(self):
        with pytest.raises(StructuralError, match="must sum to 1"):
            _joint_tables(np.full((2, 2, 2), 0.2))
        with pytest.raises(StructuralError, match=r"needs axes \(Y, Z_A, Z_B\)"):
            _joint_tables(np.full((2, 2), 0.25))
        with pytest.raises(StructuralError, match="row must sum to 1"):
            _conditional_tables(np.array([[0.5, 0.6]]), "p_a")
        with pytest.raises(StructuralError, match=r"p_a must be \(\|Y\|, outcomes\)"):
            _conditional_tables(np.array([0.5, 0.5]), "p_a")


def checked_blocks(trials, seed, bounds):
    """Run residual_sweep and return the (q, p_a, p_b) blocks it evaluated."""
    blocks = []
    evaluate = infotheory._terms

    def record(q, p_a, p_b):
        blocks.append((q.copy(), p_a.copy(), p_b.copy()))
        return evaluate(q, p_a, p_b)

    with mock.patch.object(infotheory, "_terms", record):
        infotheory.residual_sweep(trials, seed, *bounds)
    return blocks


class TestResidualSweep:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32),
           trials=st.sampled_from([1, 127, 128, 129, 300]) | st.integers(1, 300),
           bounds=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)))
    @example(seed=1, trials=127, bounds=(4, 4, 4))
    @example(seed=1, trials=128, bounds=(4, 4, 4))
    @example(seed=1, trials=129, bounds=(4, 4, 4))
    @example(seed=2, trials=300, bounds=(4, 4, 4))
    def test_checks_the_drawn_tables_bit_for_bit(self, seed, trials, bounds):
        blocks = checked_blocks(trials, seed, bounds)
        rng = np.random.default_rng(seed)
        checked = 0
        for q, p_a, p_b in blocks:
            assert q.shape[1:] == bounds
            assert q.size <= max(infotheory._SWEEP_BLOCK_ENTRIES, int(np.prod(bounds)))
            for i in range(q.shape[0]):
                joint, cond_a, cond_b = _draw_tables(rng, *bounds)
                ny, na, nb = joint.shape
                padded = np.zeros_like(q[i]), np.zeros_like(p_a[i]), np.zeros_like(p_b[i])
                padded[0][:ny, :na, :nb] = joint
                padded[1][:ny, :na] = cond_a
                padded[2][:ny, :nb] = cond_b
                assert np.array_equal(q[i], padded[0])
                assert np.array_equal(p_a[i], padded[1])
                assert np.array_equal(p_b[i], padded[2])
                checked += 1
        assert checked == trials

    @pytest.mark.parametrize("seed, trials, bounds", [
        (1, 1000, (4, 4, 4)), (3, 300, (4, 4, 4)), (17, 200, (5, 3, 6)), (5, 400, (2, 2, 2)),
    ])
    def test_equals_the_worst_per_instance_residual(self, seed, trials, bounds):
        rng = np.random.default_rng(seed)
        expected = max(abs(terms(*_draw_tables(rng, *bounds)).residual) for _ in range(trials))
        assert abs(residual_sweep(trials, seed, *bounds) - expected) <= 4e-15

    @pytest.mark.parametrize("kwargs, named", [
        ({"trials": 0}, "trials must be >= 1"),
        ({"trials": -3}, "trials must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"max_y": 1}, "max_y must be >= 2"),
        ({"max_a": 1}, "max_a must be >= 2"),
        ({"max_b": 0}, "max_b must be >= 2"),
    ])
    def test_degenerate_input_raises_config_error(self, kwargs, named):
        args = {"trials": 10, "seed": 1, **kwargs}
        with pytest.raises(ConfigError, match=named):
            residual_sweep(**args)

    @pytest.mark.parametrize("bounds", [(1000, 1000, 1000), (2, 1024, 513), (1 << 40, 2, 2)])
    def test_bounds_past_the_entry_cap_are_refused_before_anything_is_drawn(self, bounds):
        """Padding every instance to 1000 x 1000 x 1000 would take 8 GB; bounds
        whose product passes 2^20 entries raise a ConfigError that names
        them, with next to nothing allocated."""
        y, a, b = bounds
        named = re.escape(f"max_y * max_a * max_b = {y} * {a} * {b} = {y * a * b} table entries "
                          f"per instance, above the cap of {1 << 20}")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=named):
                residual_sweep(10, 1, *bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_bounds_at_the_entry_cap_are_swept(self):
        assert residual_sweep(1, 1, 2, 1024, 512) < 1e-10

    def spoil(self, index, fault):
        """Patch the draws so that draw `index` is passed through `fault`."""
        draw = infotheory._draw_tables
        count = itertools.count()

        def drawn(*args):
            tables = draw(*args)
            return fault(*tables) if next(count) == index else tables
        return mock.patch.object(infotheory, "_draw_tables", drawn)

    @staticmethod
    def negative(q, p_a, p_b):
        p_a = p_a.copy()
        p_a[0, 0] = -p_a[0, 0]
        return q, p_a, p_b

    @staticmethod
    def off_joint_sum(q, p_a, p_b):
        return q * (1 + 1e-9), p_a, p_b

    @staticmethod
    def off_row_sum(q, p_a, p_b):
        p_b = p_b.copy()
        p_b[-1] *= 1 + 1e-9
        return q, p_a, p_b

    @staticmethod
    def vanishing_model(q, p_a, p_b):
        p_a = p_a.copy()
        p_a[0, 1] += p_a[0, 0]
        p_a[0, 0] = 0.0
        return q, p_a, p_b

    @pytest.mark.parametrize("index", [0, 129, 299])
    @pytest.mark.parametrize("fault, error, named", [
        ("negative", StructuralError, "p_a has negative entries"),
        ("off_joint_sum", StructuralError, "joint table must sum to 1"),
        ("off_row_sum", StructuralError, "every p_b row must sum to 1"),
        ("vanishing_model", SupportError, "q must be positive wherever p is"),
    ])
    def test_each_instance_check_holds_in_every_block(self, index, fault, error, named):
        with self.spoil(index, getattr(self, fault)), pytest.raises(error, match=named):
            residual_sweep(300, seed=5)
        q, p_a, p_b = getattr(self, fault)(*_draw_tables(np.random.default_rng(5), 4, 4, 4))
        with pytest.raises(error, match=named):
            terms(q, p_a, p_b)


def bernoulli_outcome_probs(logits_row):
    """Enumeration oracle over all binary vectors, reduced to the
    single-label-consistent outcomes and renormalized."""
    m = logits_row.size
    sig = 1.0 / (1.0 + np.exp(-logits_row))
    probs = []
    outcomes = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)] + [tuple([0] * m)]
    for outcome in outcomes:
        v = np.asarray(outcome, dtype=float)
        probs.append(float(np.prod(sig ** v * (1 - sig) ** (1 - v))))
    probs = np.asarray(probs)
    return probs / probs.sum()


class TestGroupOutcomes:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 3)) * 2
        lp = group_outcome_log_probs(logits)
        for i in range(6):
            assert np.allclose(np.exp(lp[i]), bernoulli_outcome_probs(logits[i]), atol=1e-12)


class TestTaskwiseRisk:
    def setup_generator(self):
        cfg = GenConfig(4, 2, 3.0, 60, class_mean_scale=1.5, seed=2)
        gen = build_generator(cfg)
        split = split_classes(cfg.class_counts())
        return gen, split

    def perfect_logits(self, gen, split):
        def fn(feats):
            post = gen.posterior(feats)
            out = []
            for classes in (split.head_classes, split.tail_classes):
                grp = post[:, list(classes)]
                other = np.clip(1.0 - grp.sum(axis=1, keepdims=True), 1e-300, 1.0)
                out.append(np.log(np.maximum(grp, 1e-300)) - np.log(other))
            return out[0], out[1]
        return fn

    def test_true_posterior_model_has_zero_risk(self):
        gen, split = self.setup_generator()
        pts = gen.sample_features(400, np.random.default_rng(1))
        risk = taskwise_risk(_risk_targets(gen.posterior(pts), split), self.perfect_logits(gen, split)(pts))
        assert abs(risk) < 1e-12

    def test_risk_nonnegative_for_random_models(self):
        gen, split = self.setup_generator()
        rng = np.random.default_rng(2)
        pts = gen.sample_features(100, rng)
        targets = _risk_targets(gen.posterior(pts), split)
        for _ in range(10):
            w_a = rng.normal(size=(2, 2))
            w_b = rng.normal(size=(2, 2))
            assert taskwise_risk(targets, (pts @ w_a, pts @ w_b)) >= 0.0

    def test_matches_brute_force_on_grid(self):
        gen, split = self.setup_generator()
        rng = np.random.default_rng(3)
        w_a = rng.normal(size=(2, 2))
        w_b = rng.normal(size=(2, 2))
        fn = lambda y: (y @ w_a, y @ w_b)
        grid = np.stack(np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7)), -1).reshape(-1, 2)
        post = gen.posterior(grid)
        got = taskwise_risk(_risk_targets(post, split), fn(grid))
        s_a, s_b = fn(grid)
        expected = 0.0
        for classes, s in ((split.head_classes, s_a), (split.tail_classes, s_b)):
            grp = post[:, list(classes)]
            q = np.concatenate([grp, 1.0 - grp.sum(axis=1, keepdims=True)], axis=1)
            per_point = []
            for i in range(grid.shape[0]):
                model = bernoulli_outcome_probs(s[i])
                qi = np.clip(q[i], 0.0, 1.0)
                per_point.append(sum(qv * (np.log(qv) - np.log(mv))
                                     for qv, mv in zip(qi, model) if qv > 0))
            expected += float(np.mean(per_point))
        assert got == pytest.approx(expected, abs=1e-10)
