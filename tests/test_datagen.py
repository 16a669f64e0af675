import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tailshare.errors import ConfigError, DataFormatError, StructuralError
from tailshare.datagen import (
    GenConfig,
    LongTailDataset,
    TaskSplit,
    build_generator,
    generate,
    holdout_split,
    load_csv,
    project_labels,
    sample_iid,
    save_csv,
    split_classes,
)


class TestGenConfig:
    def test_balanced_when_ratio_is_one(self):
        cfg = GenConfig(4, 3, 1.0, 50)
        assert np.array_equal(cfg.class_counts(), [50, 50, 50, 50])

    def test_strong_imbalance_profile(self):
        cfg = GenConfig(100, 3, 100.0, 500)
        counts = cfg.class_counts()
        assert counts[0] == 500
        assert counts.min() == 5
        assert np.all(counts[:-1] >= counts[1:])

    def test_rounding_to_zero_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(2, 3, 100.0, 10)

    def test_basic_validation(self):
        with pytest.raises(ConfigError):
            GenConfig(1, 3, 2.0, 50)
        with pytest.raises(ConfigError):
            GenConfig(4, 3, 0.5, 50)
        with pytest.raises(ConfigError):
            GenConfig(4, 3, 2.0, 50, noise_sigma=0.0)


class TestGenerate:
    def test_deterministic(self):
        cfg = GenConfig(5, 2, 8.0, 60, seed=12)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_counts_exact(self):
        cfg = GenConfig(6, 3, 12.0, 80, seed=2)
        ds = generate(cfg)
        assert np.array_equal(ds.labels.sum(axis=0), cfg.class_counts())
        assert ds.n == cfg.class_counts().sum()

    def test_generator_agrees_with_build_generator(self):
        cfg = GenConfig(5, 4, 3.0, 40, seed=9)
        assert np.array_equal(generate(cfg).generator.means, build_generator(cfg).means)

    def test_priors_sum_to_one(self):
        ds = generate(GenConfig(7, 2, 20.0, 100, seed=1))
        assert abs(ds.priors.sum() - 1.0) < 1e-12

    def test_draws_follow_the_class_order_bit_for_bit(self):
        """generate and sample_balanced draw n_k rows per class, class after
        class, from one generator: the same bits as this plain loop."""
        cfg = GenConfig(5, 3, 8.0, 40, class_mean_scale=1.5, noise_sigma=0.7, seed=4)
        rng = np.random.default_rng(cfg.seed)
        means = rng.normal(size=(cfg.n_classes, cfg.input_dim)) * cfg.class_mean_scale

        def reference(counts):
            feats = [means[k] + rng.normal(0.0, cfg.noise_sigma, size=(n_k, cfg.input_dim))
                     for k, n_k in enumerate(counts)]
            classes = np.repeat(np.arange(cfg.n_classes), counts)
            return np.vstack(feats), (classes[:, None] == np.arange(cfg.n_classes)).astype(float)

        ds = generate(cfg)
        want = reference(cfg.class_counts())
        assert np.array_equal(ds.features, want[0]) and np.array_equal(ds.labels, want[1])
        got = ds.generator.sample_balanced(3, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        want = reference([3] * cfg.n_classes)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSplitClasses:
    def test_sorted_halves(self):
        split = split_classes([40, 30, 20, 10])
        assert split.head_classes == (0, 1)
        assert split.tail_classes == (2, 3)

    def test_odd_k_head_gets_extra(self):
        split = split_classes([10, 40, 20])
        assert split.head_classes == (1, 2)
        assert split.tail_classes == (0,)

    def test_ties_break_by_ascending_index(self):
        split = split_classes([7, 7, 7, 7])
        assert split.head_classes == (0, 1)
        assert split.tail_classes == (2, 3)

    def test_invariants_on_random_count_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            counts = rng.integers(1, 50, size=k)
            split = split_classes(counts)
            head, tail = set(split.head_classes), set(split.tail_classes)
            assert not head & tail
            assert head | tail == set(range(k))
            assert len(head) - len(tail) in (0, 1)
            if tail:
                assert min(counts[list(head)]) >= max(counts[list(tail)])

    def test_task_split_validation(self):
        with pytest.raises(StructuralError):
            TaskSplit((0, 1), (1, 2))
        with pytest.raises(StructuralError):
            TaskSplit((0,), (1, 2))


class TestProjectLabels:
    def test_tail_class_example(self):
        labels = np.zeros((1, 4))
        labels[0, 2] = 1.0
        split = TaskSplit((0, 1), (2, 3))
        z_a, z_b = project_labels(labels, split)
        assert np.array_equal(z_a, [[0.0, 0.0]])
        assert np.array_equal(z_b, [[1.0, 0.0]])

    def test_head_class_example(self):
        labels = np.zeros((1, 4))
        labels[0, 0] = 1.0
        z_a, z_b = project_labels(labels, TaskSplit((0, 1), (2, 3)))
        assert np.array_equal(z_a, [[1.0, 0.0]])
        assert np.array_equal(z_b, [[0.0, 0.0]])

    def test_row_sums_are_one(self):
        rng = np.random.default_rng(4)
        labels = np.zeros((50, 5))
        labels[np.arange(50), rng.integers(0, 5, size=50)] = 1.0
        z_a, z_b = project_labels(labels, split_classes([9, 8, 7, 6, 5]))
        assert np.all(z_a.sum(axis=1) + z_b.sum(axis=1) == 1.0)

    def test_projection_is_invertible(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 40))
            labels = np.zeros((n, k))
            labels[np.arange(n), rng.integers(0, k, size=n)] = 1.0
            split = split_classes(rng.integers(1, 30, size=k))
            z_a, z_b = project_labels(labels, split)
            rebuilt = np.zeros_like(labels)
            rebuilt[:, list(split.head_classes)] = z_a
            rebuilt[:, list(split.tail_classes)] = z_b
            assert np.array_equal(rebuilt, labels)


class TestPosterior:
    def test_far_means_concentrate(self):
        cfg = GenConfig(3, 2, 2.0, 30, class_mean_scale=30.0, noise_sigma=1.0, seed=0)
        gen = build_generator(cfg)
        post = gen.posterior(gen.means[1])
        assert post[0, 1] > 0.999

    def test_two_class_equidistant_symmetry(self):
        gen = build_generator(GenConfig(2, 2, 1.0, 30, class_mean_scale=2.0, seed=3))
        midpoint = gen.means.mean(axis=0)
        post = gen.posterior(midpoint)
        assert np.allclose(post, [[0.5, 0.5]], atol=1e-12)

    def test_rows_normalize(self):
        gen = build_generator(GenConfig(6, 3, 10.0, 50, seed=8))
        y = np.random.default_rng(1).normal(size=(1000, 3)) * 4
        post = gen.posterior(y)
        assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(post > 0)


class TestCsv:
    def test_hand_written_csv(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,0\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert np.array_equal(ds.class_counts, [2, 1])

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.5,0\n-1.0,oops,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("0.5,1.5,0\n-1.0,2.0,-1\n0.0,0.0,1\n")
        with pytest.raises(DataFormatError, match="line 2: negative class label -1"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_feature_names_line(self, tmp_path, token):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"0.5,1.5,0\n0.25,-1.0,1\n-1.0,{token},1\n")
        with pytest.raises(DataFormatError, match="line 3: non-finite"):
            load_csv(path)

    def test_label_beyond_the_row_count_rejected(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("0.5,1.5,0\n-1.0,2.0,1000000000000\n0.0,0.0,1\n")
        with pytest.raises(DataFormatError, match="line 2: class label 1000000000000"):
            load_csv(path)

    def test_undecodable_bytes_name_line(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"0.5,1.5,0\n\xff\xfe,2.0,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(alphabet="0123456789.,-+eEinfaINF \n\t\r", max_size=80)
           | st.binary(max_size=60).map(lambda b: b.decode("latin-1")))
    def test_any_text_loads_or_raises_data_format_error(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(text.encode("latin-1"))
        try:
            ds = load_csv(path)
        except DataFormatError:
            return
        assert np.isfinite(ds.features).all()
        assert ds.n >= ds.n_classes

    def test_empty_class_named_when_the_count_is_inferred(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("0.5,1.5,0\n-1.0,2.0,3\n0.0,0.0,0\n1.0,1.0,3\n")
        with pytest.raises(DataFormatError, match=r"gap.csv: no rows for class label\(s\) 1, 2 of 0..3"):
            load_csv(path)

    def test_round_trip_with_generator_sidecar(self, tmp_path):
        ds = generate(GenConfig(4, 3, 5.0, 30, seed=6))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.allclose(back.features, ds.features, atol=0)
        assert np.array_equal(back.labels, ds.labels)
        assert back.generator is not None
        assert np.array_equal(back.generator.means, ds.generator.means)

    def test_rows_are_the_shortest_repr_of_each_value(self, tmp_path):
        """save_csv writes the bytes of per-element repr(float(v)) on numpy
        scalars, signed zero, subnormals and 17-digit values included."""
        features = np.array([
            [-0.0, 5e-324, 0.1 + 0.2],
            [1.0 / 3.0, -2.2250738585072014e-308, 1e308],
            [123456789.12345679, -1e-7, 0.0],
            [2.0 ** -1074 * 3, -1.7976931348623157e308, 1e16],
        ])
        labels = np.eye(2)[[0, 1, 1, 0]]
        ds = LongTailDataset(features, labels, [2, 2])
        path = tmp_path / "exact.csv"
        save_csv(ds, path)
        expected = "".join(",".join(repr(float(v)) for v in row) + f",{int(k)}\n"
                           for row, k in zip(ds.features, ds.class_indices()))
        assert path.read_bytes() == expected.encode()
        assert "-0.0,5e-324,0.30000000000000004,0\n" in expected
        generated = generate(GenConfig(4, 3, 5.0, 30, seed=6))
        save_csv(generated, path)
        assert path.read_bytes() == "".join(
            ",".join(repr(float(v)) for v in row) + f",{int(k)}\n"
            for row, k in zip(generated.features, generated.class_indices())).encode()


class TestGeneratorSidecar:
    GOOD = {"means": [[0.0, 1.0], [1.0, 0.0]], "noise_sigma": 1.0, "priors": [0.75, 0.25]}

    def write(self, tmp_path, sidecar: str):
        (tmp_path / "d.csv").write_text("0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,0\n")
        (tmp_path / "d.generator.json").write_text(sidecar)
        return tmp_path / "d.csv"

    def test_good_sidecar_attaches(self, tmp_path):
        gen = load_csv(self.write(tmp_path, json.dumps(self.GOOD))).generator
        assert np.array_equal(gen.priors, [0.75, 0.25])

    @pytest.mark.parametrize("change", [
        {"means": None}, {"noise_sigma": None}, {"priors": None},          # missing
        {"means": [[0.0, 1.0], [1.0]]},                                     # ragged
        {"means": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]},                      # width not the data's
        {"means": [[0.0, 1.0]], "priors": [1.0]},                           # one class, data has two
        {"priors": [0.5, 0.25, 0.25]},                                      # priors not one per class
        {"priors": [float("nan"), 0.25]}, {"noise_sigma": float("inf")},
        {"noise_sigma": -1.0}, {"means": [[0.0, "a"], [1.0, 0.0]]},
        {"config": {"colour": 1}}, {"config": [1]},
    ])
    def test_bad_sidecar_names_the_file(self, tmp_path, change):
        payload = {k: v for k, v in {**self.GOOD, **change}.items() if v is not None}
        with pytest.raises(DataFormatError, match="d.generator.json"):
            load_csv(self.write(tmp_path, json.dumps(payload)))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(max_size=60)
           | st.sampled_from([json.dumps(GOOD)]).flatmap(
               lambda good: st.integers(0, len(good)).map(lambda cut: good[:cut])))
    def test_any_sidecar_text_loads_or_raises_data_format_error(self, tmp_path, text):
        try:
            load_csv(self.write(tmp_path, text))
        except DataFormatError:
            pass


class TestHoldout:
    def test_fraction_zero_empty_test(self):
        ds = generate(GenConfig(4, 2, 4.0, 30, seed=3))
        train_ds, test_ds = holdout_split(ds, 0.0, seed=1)
        assert test_ds.n == 0
        assert train_ds.n == ds.n

    def test_partition_recovers_all_rows(self):
        ds = generate(GenConfig(5, 2, 6.0, 40, seed=4))
        train_ds, test_ds = holdout_split(ds, 0.3, seed=2)
        assert train_ds.n + test_ds.n == ds.n
        merged = np.vstack([train_ds.features, test_ds.features])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.features, axis=0))

    def test_stratified_counts(self):
        ds = generate(GenConfig(3, 2, 1.0, 100, seed=5))
        _, test_ds = holdout_split(ds, 0.25, seed=3)
        assert np.array_equal(test_ds.class_counts, [25, 25, 25])

    def test_fraction_validation(self):
        ds = generate(GenConfig(3, 2, 1.0, 10, seed=5))
        with pytest.raises(ConfigError):
            holdout_split(ds, 1.5, seed=0)


class TestSampleIid:
    def test_deterministic_and_sized(self):
        gen = build_generator(GenConfig(5, 3, 10.0, 60, seed=7))
        a = sample_iid(gen, 200, seed=11)
        b = sample_iid(gen, 200, seed=11)
        assert a.n == 200
        assert np.array_equal(a.features, b.features)
        assert a.generator is gen


def test_dataset_validation_rejects_bad_labels():
    with pytest.raises(StructuralError):
        LongTailDataset(np.zeros((2, 2)), np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([1, 1]))
    with pytest.raises(StructuralError):
        LongTailDataset(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, 1]))
