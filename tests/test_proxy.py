import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailshare import nn
from tailshare.errors import DataFormatError, DomainError, StructuralError
from tailshare.nn import (Batch, ModelSpec, OptConfig, ParamVector, _forward_cache, _sigmoid, bce_loss_grad,
                          init_params, train_stack)
from tailshare.pipeline import Stage1Result, select_structure
from tailshare.proxy import (
    DEAD_COORD_EPS,
    DiagFisher,
    MismatchVector,
    ProxyBreakdown,
    dense_proxy_terms,
    encoder_mismatch,
    estimate_diag_fisher,
    grid_search,
    proxy_eval,
    _selection_key,
)


def labeled_data(rng, n, spec):
    feats = rng.normal(size=(n, spec.input_dim))
    z_a = np.zeros((n, spec.head_dims[0]))
    z_b = np.zeros((n, spec.head_dims[1]))
    for i in range(n):
        if rng.random() < 0.6:
            z_a[i, rng.integers(spec.head_dims[0])] = 1.0
        else:
            z_b[i, rng.integers(spec.head_dims[1])] = 1.0
    return feats, z_a, z_b


def plain_loop_fisher(params, spec, feats, z, task, offsets, chunk):
    """Reference diagonal Fisher: a 2-D forward pass and a hand-written
    per-layer backward loop from the score z - sigmoid(u), (a^2)^T (delta^2)
    per layer and chunk."""
    acc = np.zeros(spec.param_count)
    blocks = {name: (off, length) for name, off, length in spec.block_table()}
    for start in range(0, feats.shape[0], chunk):
        rows = slice(start, start + chunk)
        trunk, heads, pres, acts, logits = _forward_cache(params, spec, feats[rows], task)
        score = z[rows] - _sigmoid(logits + offsets)
        walk = [("head_a" if task == "A" else "head_b", acts[-1], score)]
        dh = score @ heads[task][0].T
        for layer in range(spec.depth, 0, -1):
            if spec.activation == "relu":
                da = dh * (pres[layer - 1] > 0.0)
            else:
                da = dh * (1.0 - acts[layer] ** 2)
            walk.append((f"trunk{layer}", acts[layer - 1], da))
            dh = da @ trunk[layer - 1][0].T
        for name, a, delta in walk:
            off, length = blocks[name]
            n_w = a.shape[1] * delta.shape[1]
            acc[off:off + n_w] += ((a ** 2).T @ (delta ** 2)).ravel()
            acc[off + n_w:off + length] += (delta ** 2).sum(axis=0)
    return acc / feats.shape[0]


class TestEstimateDiagFisher:
    def test_matches_per_sample_gradient_oracle(self, monkeypatch):
        monkeypatch.setattr("tailshare.nn.FISHER_CHUNK_ROWS", 7)
        rng = np.random.default_rng(4)
        spec = ModelSpec(3, (5, 4), (2, 3), activation="tanh")
        params = init_params(spec, 2)
        params.values[:] = rng.normal(size=params.values.size) * 0.6
        feats, z_a, z_b = labeled_data(rng, 40, spec)
        offsets = np.array([0.1, -0.4])
        fisher = estimate_diag_fisher(params, spec, feats, z_a, "A", offsets=offsets)
        brute = np.zeros(spec.param_count)
        for i in range(40):
            single = Batch(feats[i:i + 1], z_a[i:i + 1], z_b[i:i + 1])
            _, grad = bce_loss_grad(params, spec, single, "A", offsets)
            brute += grad.values ** 2
        brute /= 40
        assert np.abs(fisher.values - brute).max() < 1e-12
        assert fisher.sample_count == 40

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("task", ["A", "B"])
    def test_equals_a_plain_per_layer_loop_bit_for_bit(self, activation, task, monkeypatch):
        """The stack-of-one walk against a 2-D per-layer loop over
        _forward_cache: same operations, so the same bits."""
        rng = np.random.default_rng(6)
        spec = ModelSpec(4, (6, 1, 5), (3, 2), activation=activation)
        params = init_params(spec, 9)
        params.values[:] += rng.normal(size=params.values.size) * 0.3
        feats, z_a, z_b = labeled_data(rng, 45, spec)
        z = z_a if task == "A" else z_b
        offsets = rng.normal(size=z.shape[1])
        for chunk in (1, 7, 45, 100):
            monkeypatch.setattr("tailshare.nn.FISHER_CHUNK_ROWS", chunk)
            got = estimate_diag_fisher(params, spec, feats, z, task, offsets)
            assert np.array_equal(got.values, plain_loop_fisher(params, spec, feats, z, task, offsets, chunk))

    def test_bernoulli_logit_at_half_gives_quarter(self):
        # zero trunk weights push the head input to tanh(0)=0, so the logit is
        # the head bias alone; with balanced labels the score is +-0.5 exactly.
        spec = ModelSpec(2, (1,), (1, 1), activation="tanh")
        params = init_params(spec, 0)
        params.values[:] = 0.0
        rng = np.random.default_rng(1)
        n = 10000
        z = (rng.random(n) < 0.5).astype(float)[:, None]
        feats = rng.normal(size=(n, 2))
        fisher = estimate_diag_fisher(params, spec, feats, z, "A")
        bias_value = fisher.values[spec.encoder_params(1) + 1]
        assert abs(bias_value - 0.25) < 0.02

    def test_saturated_predictions_give_near_zero(self):
        spec = ModelSpec(2, (1,), (1, 1), activation="tanh")
        params = init_params(spec, 0)
        params.values[:] = 0.0
        params.block("head_a")[1] = 40.0  # huge correct logit
        z = np.ones((500, 1))
        feats = np.random.default_rng(2).normal(size=(500, 2))
        fisher = estimate_diag_fisher(params, spec, feats, z, "A")
        assert fisher.values.max() < 1e-20

    def test_values_nonnegative(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(3, (4,), (2, 2))
        params = init_params(spec, 3)
        feats, z_a, _ = labeled_data(rng, 30, spec)
        fisher = estimate_diag_fisher(params, spec, feats, z_a, "A")
        assert np.all(fisher.values >= 0.0)

    def test_empty_data_rejected(self):
        spec = ModelSpec(3, (4,), (2, 2))
        params = init_params(spec, 3)
        with pytest.raises(DataFormatError):
            estimate_diag_fisher(params, spec, np.zeros((0, 3)), np.zeros((0, 2)), "A")

    @pytest.mark.parametrize("shape", [(30, 1), (30, 3), (30,), (29, 2)])
    def test_labels_of_the_wrong_shape_rejected_naming_both_shapes(self, shape):
        """A (n, 1) label matrix for a 2-class head would broadcast into a
        wrong Fisher; every shape but (n, head_dims[t]) is refused."""
        spec = ModelSpec(3, (4,), (5, 2))
        params = init_params(spec, 3)
        feats = np.random.default_rng(8).normal(size=(30, 3))
        with pytest.raises(StructuralError) as err:
            estimate_diag_fisher(params, spec, feats, np.zeros(shape), "B")
        assert "(30, 2)" in str(err.value) and str(shape) in str(err.value)

    @pytest.mark.parametrize("shapes, message", [
        ({"features": (30, 4)}, "features must be (n, 3), got (30, 4)"),
        ({"labels": (30, 3)}, "task A labels must be (30, 2), got (30, 3)"),
        ({"offsets": (1,)}, "task A offsets must be (2,), got (1,)"),
        ({"offsets": (30, 2)}, "task A offsets must be (2,), got (30, 2)"),
        ({"offsets": (3,)}, "task A offsets must be (2,), got (3,)"),
    ])
    def test_training_and_fisher_reject_bad_inputs_with_one_message(self, shapes, message):
        """One input check serves training, the loss gradient and the
        Fisher: offsets that would broadcast into the logits of a 2-class
        head are refused, naming the expected and the given shape."""
        spec = ModelSpec(3, (4,), (2, 2))
        params = init_params(spec, 3)
        feats = np.random.default_rng(8).normal(size=shapes.get("features", (30, 3)))
        z_a = np.zeros(shapes.get("labels", (30, 2)))
        z_a[:, 0] = 1.0
        batch = Batch(feats, z_a, np.zeros((30, 2)))
        offsets = np.zeros(shapes.get("offsets", (2,)))
        calls = (
            lambda: train_stack([params], spec, batch, [(1.0, 0.0)], OptConfig(0.1, epochs=1),
                                offsets=(offsets, None)),
            lambda: bce_loss_grad(params, spec, batch, "A", offsets),
            lambda: estimate_diag_fisher(params, spec, feats, z_a, "A", offsets),
        )
        for call in calls:
            with pytest.raises(StructuralError) as err:
                call()
            assert str(err.value) == message

    def test_peak_memory_is_the_forward_cache_plus_a_few_arrays(self):
        """The forward cache holds the activations only; each layer's
        derivative is formed during the backward walk. So the traced peak
        stays under depth + 5 activation-sized arrays."""
        depth, width, n = 10, 64, 2000
        spec = ModelSpec(width, (width,) * depth, (2, 2), activation="relu")
        params = init_params(spec, 1)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(n, width))
        z = np.zeros((n, 2))
        z[np.arange(n), rng.integers(0, 2, n)] = 1.0
        tracemalloc.start()
        try:
            estimate_diag_fisher(params, spec, feats, z, "A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (depth + 5) * n * width * 8

    @staticmethod
    def chunk_rows(monkeypatch):
        """The row count of every trunk forward pass the Fisher runs."""
        rows = []
        forward = nn._trunk_forward

        def counted(trunk, x, activation):
            rows.append(x.shape[0])
            return forward(trunk, x, activation)

        monkeypatch.setattr("tailshare.nn._trunk_forward", counted)
        return rows

    def test_wide_trunk_runs_byte_capped_chunks_bit_for_bit(self, monkeypatch):
        """Trunk widths summing to 640 cache more than FISHER_CHUNK_BYTES in
        4,096 rows, so the rows run in chunks of the byte cap: the bits of
        the plain loop at that chunk size, within 1e-12 of one chunk."""
        spec = ModelSpec(6, (320, 320), (2, 3), activation="relu")
        cap = nn.FISHER_CHUNK_BYTES // (8 * 640)
        assert cap < nn.FISHER_CHUNK_ROWS
        rng = np.random.default_rng(11)
        params = init_params(spec, 5)
        feats, z_a, _ = labeled_data(rng, cap + 224, spec)
        offsets = rng.normal(size=2)
        rows = self.chunk_rows(monkeypatch)
        got = estimate_diag_fisher(params, spec, feats, z_a, "A", offsets).values
        assert rows == [cap, 224]
        assert np.array_equal(got, plain_loop_fisher(params, spec, feats, z_a, "A", offsets, cap))
        whole = plain_loop_fisher(params, spec, feats, z_a, "A", offsets, feats.shape[0])
        assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_reference_size_trunk_stays_one_chunk(self, monkeypatch):
        spec = ModelSpec(8, (10, 10, 10, 10), (10, 10), activation="tanh")
        rng = np.random.default_rng(12)
        feats, z_a, _ = labeled_data(rng, nn.FISHER_CHUNK_ROWS, spec)
        rows = self.chunk_rows(monkeypatch)
        estimate_diag_fisher(init_params(spec, 2), spec, feats, z_a, "A")
        assert rows == [nn.FISHER_CHUNK_ROWS]

    def test_peak_memory_stays_under_the_byte_cap(self, monkeypatch):
        """With the cap at 1 MiB, 3,000 rows of a trunk whose widths sum to
        512 (12 MB of activations in one chunk) run in 256-row chunks, one
        cache held at a time. The traced peak stays under the cap plus the
        result plus five one-layer chunk arrays for the backward walk's
        temporaries."""
        budget = 1 << 20
        monkeypatch.setattr("tailshare.nn.FISHER_CHUNK_BYTES", budget)
        width, depth, n = 64, 8, 3000
        spec = ModelSpec(16, (width,) * depth, (2, 2), activation="relu")
        params = init_params(spec, 3)
        feats, z_a, _ = labeled_data(np.random.default_rng(13), n, spec)
        tracemalloc.start()
        try:
            fisher = estimate_diag_fisher(params, spec, feats, z_a, "A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer = budget // depth
        assert peak < budget + fisher.values.nbytes + 5 * layer


class TestEncoderMismatch:
    def test_identical_params_give_zero(self):
        spec = ModelSpec(3, (4, 4), (2, 2))
        params = init_params(spec, 1)
        mm = encoder_mismatch(params, params.copy(), 2)
        assert np.all(mm.delta == 0.0)

    def test_depth_zero_is_empty(self):
        spec = ModelSpec(3, (4,), (2, 2))
        a, b = init_params(spec, 1), init_params(spec, 2)
        assert encoder_mismatch(a, b, 0).delta.size == 0

    def test_norm_nondecreasing_in_depth(self):
        spec = ModelSpec(3, (4, 5, 3), (2, 2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = init_params(spec, int(rng.integers(100))), init_params(spec, int(rng.integers(100, 200)))
            norms = [np.linalg.norm(encoder_mismatch(a, b, c).delta) for c in range(4)]
            assert all(x <= y + 1e-15 for x, y in zip(norms, norms[1:]))

    def test_architecture_mismatch_rejected(self):
        a = init_params(ModelSpec(3, (4,), (2, 2)), 0)
        b = init_params(ModelSpec(3, (5,), (2, 2)), 0)
        with pytest.raises(StructuralError):
            encoder_mismatch(a, b, 1)


def fisher_pair(spec, enc_a, enc_b):
    """DiagFishers whose encoder slice holds the given values, zero elsewhere."""
    fa = np.zeros(spec.param_count)
    fb = np.zeros(spec.param_count)
    fa[: len(enc_a)] = enc_a
    fb[: len(enc_b)] = enc_b
    return DiagFisher(fa, 1), DiagFisher(fb, 1)


class TestProxyEval:
    def test_depth_zero_is_decoder_variance_only(self):
        # trunk1 = 3*3+3 = 12, heads = 3*2+2 = 8 -> d_psi = 20 per task
        spec = ModelSpec(3, (3,), (2, 2))
        assert spec.decoder_params(0, "A") == 20
        fa, fb = fisher_pair(spec, [], [])
        out = proxy_eval(fa, fb, MismatchVector(np.zeros(0), 0), 0.3, 1000, spec)
        assert out.encoder_variance == 0.0
        assert out.encoder_bias == 0.0
        assert out.total == pytest.approx(0.02, abs=0)

    def test_identical_fishers_balanced_weights(self):
        # input 4, width 2 -> d_phi(1) = 10
        spec = ModelSpec(4, (2,), (5, 5))
        assert spec.encoder_params(1) == 10
        fa, fb = fisher_pair(spec, np.full(10, 2.0), np.full(10, 2.0))
        mm = MismatchVector(np.zeros(10), 1)
        half = proxy_eval(fa, fb, mm, 0.5, 1000, spec)
        assert half.encoder_variance == pytest.approx(0.005, abs=1e-15)
        assert half.encoder_bias == 0.0
        full = proxy_eval(fa, fb, mm, 1.0, 1000, spec)
        assert full.encoder_variance == pytest.approx(0.010, abs=1e-15)

    def test_bias_term_minimized_at_fisher_ratio(self):
        spec = ModelSpec(4, (2,), (5, 5))
        enc = np.zeros(10)
        enc_a, enc_b = enc.copy(), enc.copy()
        enc_a[0], enc_b[0] = 4.0, 1.0
        fa, fb = fisher_pair(spec, enc_a, enc_b)
        delta = np.zeros(10)
        delta[0] = 0.7
        mm = MismatchVector(delta, 1)
        ws = np.linspace(0.0, 1.0, 1001)
        biases = [proxy_eval(fa, fb, mm, w, 10, spec).encoder_bias for w in ws]
        assert ws[int(np.argmin(biases))] == pytest.approx(0.8, abs=1e-12)

    def test_matches_dense_matrix_evaluation(self):
        rng = np.random.default_rng(9)
        spec = ModelSpec(4, (2,), (5, 5))  # encoder slice 10; use first d coords
        for _ in range(30):
            d = int(rng.integers(1, 9))
            a = np.zeros(10)
            b = np.zeros(10)
            a[:d] = rng.uniform(0.1, 3.0, d)
            b[:d] = rng.uniform(0.1, 3.0, d)
            delta = np.zeros(10)
            delta[:d] = rng.normal(size=d)
            w = float(rng.uniform(0.05, 0.95))
            fa, fb = fisher_pair(spec, a, b)
            got = proxy_eval(fa, fb, MismatchVector(delta, 1), w, 512, spec)
            # dense evaluation only over the live coordinates
            ev, eb = dense_proxy_terms(a[:d], b[:d], delta[:d], w, 512)
            assert got.encoder_variance == pytest.approx(ev, abs=1e-12)
            assert got.encoder_bias == pytest.approx(eb, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(10)
        spec = ModelSpec(4, (2,), (5, 5))
        a = rng.uniform(0.1, 2.0, 10)
        b = rng.uniform(0.1, 2.0, 10)
        delta = rng.normal(size=10)
        fa, fb = fisher_pair(spec, a, b)
        fb2, fa2 = fisher_pair(spec, b, a)
        for w in (0.0, 0.2, 0.5, 0.9):
            lhs = proxy_eval(fa, fb, MismatchVector(delta, 1), w, 256, spec)
            rhs = proxy_eval(fb2, fa2, MismatchVector(-delta, 1), 1.0 - w, 256, spec)
            assert lhs.total == pytest.approx(rhs.total, rel=1e-12)

    def test_decoder_variance_scales_inversely_with_n(self):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, [], [])
        mm = MismatchVector(np.zeros(0), 0)
        big = proxy_eval(fa, fb, mm, 0.5, 2000, spec)
        small = proxy_eval(fa, fb, mm, 0.5, 1000, spec)
        assert small.decoder_variance == 2.0 * big.decoder_variance

    def test_dead_coordinates_skipped(self):
        spec = ModelSpec(4, (2,), (5, 5))
        enc = np.zeros(10)
        enc[0] = 1.0  # only one live coordinate
        fa, fb = fisher_pair(spec, enc, enc)
        out = proxy_eval(fa, fb, MismatchVector(np.zeros(10), 1), 0.5, 100, spec)
        assert np.isfinite(out.total)
        # live coordinate contributes (a+b)(w^2 a + wb^2 b)/(wa + wb b)^2 = 1
        assert out.encoder_variance == pytest.approx(1.0 / 200.0, rel=1e-12)

    def test_negative_fisher_rejected(self):
        """Refused when built, and by grid_search when a built Fisher's
        values turn negative afterwards."""
        spec = ModelSpec(3, (3,), (2, 2))
        bad = np.zeros(spec.param_count)
        bad[0] = -1.0
        with pytest.raises(DomainError, match="Fisher entries must be nonnegative"):
            DiagFisher(bad, 1)
        fa, fb = DiagFisher(np.ones(spec.param_count), 1), DiagFisher(np.ones(spec.param_count), 1)
        fb.values[0] = -1.0
        with pytest.raises(DomainError, match="Fisher entries must be nonnegative"):
            grid_search(fa, fb, np.zeros(spec.encoder_params(1)), 100, spec)

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec(4, (2,), (5, 5))
        fa, fb = fisher_pair(spec, rng.uniform(0, 1, 10), rng.uniform(0, 1, 10))
        out = proxy_eval(fa, fb, MismatchVector(rng.normal(size=10), 1), 0.4, 333, spec)
        assert out.total == out.encoder_variance + out.encoder_bias + out.decoder_variance


class TestGridSearch:
    def test_single_candidate_returned(self):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, np.ones(12), np.ones(12))
        res = grid_search(fa, fb, np.zeros(12), 100, spec, c_values=(1,), w_values=(0.3,))
        assert (res.c_star, res.w_star) == (1, 0.3)
        assert len(res.table) == 1

    def test_identical_fishers_select_half_for_every_depth(self):
        spec = ModelSpec(3, (3, 3), (2, 2))
        d_full = spec.encoder_params(2)
        enc = np.random.default_rng(1).uniform(0.2, 2.0, d_full)
        fa, fb = fisher_pair(spec, enc, enc)
        res = grid_search(fa, fb, np.zeros(d_full), 500, spec)
        for c in range(3):
            assert res.best_for_c(c).w_a == 0.5

    def test_table_matches_per_cell_proxy_eval(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec(3, (4, 3), (2, 2))
        d_full = spec.encoder_params(2)
        fa = DiagFisher(rng.uniform(0, 1, spec.param_count), 5)
        fb = DiagFisher(rng.uniform(0, 1, spec.param_count), 5)
        delta = rng.normal(size=d_full) * 0.1
        res = grid_search(fa, fb, delta, 777, spec)
        for row in res.table:
            d = spec.encoder_params(row.c)
            ref = proxy_eval(fa, fb, MismatchVector(delta[:d], row.c), row.w_a, 777, spec)
            assert ref == row

    def test_argmin_row_has_min_total(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(3, (4, 3), (2, 2))
        fa = DiagFisher(rng.uniform(0, 1, spec.param_count), 5)
        fb = DiagFisher(rng.uniform(0, 1, spec.param_count), 5)
        res = grid_search(fa, fb, rng.normal(size=spec.encoder_params(2)), 200, spec)
        (best,) = [row for row in res.table if (row.c, row.w_a) == (res.c_star, res.w_star)]
        assert best.total == min(row.total for row in res.table)

    def test_tie_breaking_order(self):
        rows = [
            ProxyBreakdown(2, 0.5, 0, 0, 1.0, 1.0),
            ProxyBreakdown(1, 0.8, 0, 0, 1.0, 1.0),
            ProxyBreakdown(1, 0.4, 0, 0, 1.0, 1.0),
            ProxyBreakdown(1, 0.6, 0, 0, 1.0, 1.0),
        ]
        best = min(rows, key=_selection_key)
        assert (best.c, best.w_a) == (1, 0.4)  # smaller c, then |w-0.5|, then smaller w

    def test_exact_ties_at_depth_zero_pick_centre_weight(self):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, np.zeros(12), np.zeros(12))
        res = grid_search(fa, fb, np.zeros(12), 100, spec, c_values=(0,))
        assert res.w_star == 0.5

    def test_csv_export(self, tmp_path):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, np.ones(12), np.ones(12))
        res = grid_search(fa, fb, np.zeros(12), 100, spec)
        path = tmp_path / "grid.csv"
        res.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "C,w_A,encoder_variance,encoder_bias,decoder_variance,total"
        assert len(lines) == 1 + len(res.table)

    def test_empty_grid_rejected(self):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, np.ones(12), np.ones(12))
        with pytest.raises(DomainError):
            grid_search(fa, fb, np.zeros(12), 100, spec, c_values=())

    def test_nonpositive_n_train_rejected(self):
        spec = ModelSpec(3, (3,), (2, 2))
        fa, fb = fisher_pair(spec, np.ones(12), np.ones(12))
        for n_train in (0, -5):
            with pytest.raises(DomainError, match="n_train"):
                grid_search(fa, fb, np.zeros(12), n_train, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["fisher_a", "fisher_b", "trunk_mismatch"])
    def test_non_finite_inputs_rejected_by_name(self, which, bad):
        spec = ModelSpec(3, (3,), (2, 2))
        values = {"fisher_a": np.ones(12), "fisher_b": np.ones(12), "trunk_mismatch": np.zeros(12)}
        values[which][4] = bad
        fa, fb = fisher_pair(spec, values["fisher_a"], values["fisher_b"])
        with pytest.raises(DomainError, match=which):
            grid_search(fa, fb, values["trunk_mismatch"], 100, spec)

    def test_parameter_pair_of_two_architectures_rejected(self):
        spec = ModelSpec(3, (4,), (2, 2))
        fa, fb = fisher_pair(spec, np.ones(16), np.ones(16))
        pair = (init_params(spec, 0), init_params(ModelSpec(3, (5,), (2, 2)), 0))
        with pytest.raises(StructuralError, match="different architectures"):
            grid_search(fa, fb, pair, 100, spec)

    def test_non_finite_entries_past_the_deepest_slice_are_not_read(self):
        spec = ModelSpec(3, (3, 3), (2, 2))
        enc = spec.encoder_params(2)
        fa, fb = fisher_pair(spec, np.ones(enc), np.ones(enc))
        fa.values[-1] = np.nan  # a head entry
        delta = np.zeros(enc)
        delta[-1] = np.inf  # layer 2, outside the c <= 1 slice
        res = grid_search(fa, fb, delta, 100, spec, c_values=(0, 1))
        assert all(np.isfinite(row.total) for row in res.table)


_fisher_entry = st.one_of(st.just(0.0), st.just(1e-13), st.floats(1e-3, 10.0))
_delta_entry = st.one_of(st.just(0.0), st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0))


@st.composite
def grid_cases(draw):
    """A trunk of 1-4 layers of width 1-6, Fishers with zero and 1e-13
    (dead) entries, and unordered candidate subsets; w in {0, 1} is drawn
    among the hundredths."""
    spec = ModelSpec(draw(st.integers(1, 3)),
                     tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))), (2, 2))
    d = spec.encoder_params(spec.depth)
    entries = st.lists(_fisher_entry, min_size=spec.param_count, max_size=spec.param_count)
    fa, fb = DiagFisher(draw(entries), 1), DiagFisher(draw(entries), 1)
    delta = np.array(draw(st.lists(_delta_entry, min_size=d, max_size=d)))
    c_values = draw(st.lists(st.integers(0, spec.depth), min_size=1, unique=True))
    w_values = draw(st.lists(st.integers(0, 100).map(lambda i: i / 100), min_size=1, max_size=5,
                             unique=True))
    return spec, fa, fb, delta, c_values, w_values, draw(st.integers(1, 10_000))


def fsum_closed_form(a, b, delta, w, d, n_train):
    """Encoder variance and bias over the first d coordinates: each
    coordinate's term evaluated elementwise, the prefix summed exactly by
    math.fsum."""
    a, b, delta = a[:d], b[:d], delta[:d]
    wb = 1.0 - w
    den = w * a + wb * b
    alive = den >= DEAD_COORD_EPS
    safe = np.where(alive, den, 1.0)
    quot = np.where(alive, (a + b) * (w * w * a + wb * wb * b) / (safe * safe), 0.0)
    bias = delta * delta * (wb * wb * a + w * w * b)
    return math.fsum(quot) / (2.0 * n_train), 0.5 * math.fsum(bias)



@pytest.mark.parametrize("build, error, message", [
    (lambda spec, fa, fb, delta: DiagFisher(np.zeros((2, 2)), 1), StructuralError,
     "Fisher values must be a flat vector"),
    (lambda spec, fa, fb, delta: MismatchVector(np.zeros((2, 2)), 1), StructuralError,
     "mismatch must be a flat vector"),
    (lambda spec, fa, fb, delta: grid_search(fa, fb, delta, 100, spec, (0,)).best_for_c(1), KeyError,
     "'no grid rows with c=1'"),
    (lambda spec, fa, fb, delta: encoder_mismatch(init_params(spec, 0), init_params(spec, 1), 2),
     StructuralError, "shared depth 2 out of range 0..1"),
    (lambda spec, fa, fb, delta: proxy_eval(fa, fb, MismatchVector(np.zeros(5), 1), 0.5, 100, spec),
     StructuralError, "mismatch has 5 entries, encoder slice needs 12"),
    (lambda spec, fa, fb, delta: grid_search(fa, fb, delta[:11], 100, spec), StructuralError,
     "trunk mismatch does not cover the deepest candidate slice"),
    (lambda spec, fa, fb, delta: grid_search(DiagFisher(fa.values[:21], 1), fb, delta, 100, spec),
     StructuralError, "Fisher vector does not cover the full parameter count"),
], ids=["fisher-not-flat", "mismatch-not-flat", "absent-depth", "depth-out-of-range", "mismatch-size",
        "short-mismatch", "short-fisher"])
def test_malformed_proxy_input_raises_naming_it(build, error, message):
    """On a one-layer net with 12 encoder parameters of 22."""
    spec = ModelSpec(3, (3,), (2, 2))
    fa, fb = fisher_pair(spec, np.ones(12), np.ones(12))
    with pytest.raises(error) as err:
        build(spec, fa, fb, np.zeros(12))
    assert str(err.value) == message

class TestGridSearchProperties:
    @settings(max_examples=150, deadline=None)
    @given(grid_cases())
    def test_terms_match_the_fsum_closed_form(self, case):
        spec, fa, fb, delta, c_values, w_values, n_train = case
        res = grid_search(fa, fb, delta, n_train, spec, c_values, w_values)
        assert [(row.c, row.w_a) for row in res.table] == [(c, w) for c in c_values for w in w_values]
        eps = np.finfo(np.float64).eps
        for row in res.table:
            d = spec.encoder_params(row.c)
            ev, eb = fsum_closed_form(fa.values, fb.values, delta, row.w_a, d, n_train)
            assert abs(row.encoder_variance - ev) <= 2 * d * eps * ev
            assert abs(row.encoder_bias - eb) <= 2 * d * eps * eb
            assert type(row.encoder_variance) is float and type(row.encoder_bias) is float

    @settings(max_examples=100, deadline=None)
    @given(grid_cases(), st.data())
    def test_a_cell_requested_alone_equals_its_grid_cell(self, case, data):
        spec, fa, fb, delta, c_values, w_values, n_train = case
        full = grid_search(fa, fb, delta, n_train, spec, c_values, w_values)
        c, w = data.draw(st.sampled_from(c_values)), data.draw(st.sampled_from(w_values))
        alone = grid_search(fa, fb, delta, n_train, spec, (c,), (w,))
        cell = [row for row in full.table if (row.c, row.w_a) == (c, w)]
        assert alone.table == cell
        d = spec.encoder_params(c)
        assert [proxy_eval(fa, fb, MismatchVector(delta[:d], c), w, n_train, spec)] == cell


def test_grid_search_peak_memory_on_the_criterion_8_shape():
    """13 x 11 cells over a million-entry Fisher are evaluated one trunk
    layer at a time in layer-long buffers: the traced peak stays under
    10 MB."""
    spec = ModelSpec(288, (288,) * 12, (2, 2), activation="relu")
    rng = np.random.default_rng(3)
    fa = DiagFisher(rng.uniform(0.0, 1.0, spec.param_count), 100)
    fb = DiagFisher(rng.uniform(0.0, 1.0, spec.param_count), 100)
    delta = rng.normal(size=spec.encoder_params(spec.depth))
    tracemalloc.start()
    try:
        res = grid_search(fa, fb, delta, 3000, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.table) == 13 * 11
    assert peak < 10_000_000


@st.composite
def stage1_cases(draw):
    """A random spec's Stage-1 statistics and candidate grids, with up to
    three entries of the Fishers or parameter vectors replaced by NaN, an
    infinity, or (set after the DiagFisher check) -1."""
    spec = ModelSpec(draw(st.integers(1, 3)),
                     tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))), (2, 2))
    n = spec.param_count
    params = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    fishers = st.lists(_fisher_entry, min_size=n, max_size=n)
    table = spec.block_table()
    s1 = Stage1Result(ParamVector(draw(params), table), ParamVector(draw(params), table),
                      DiagFisher(draw(fishers), 1), DiagFisher(draw(fishers), 1), [], [])
    vectors = (s1.fisher_a.values, s1.fisher_b.values, s1.params_a.values, s1.params_b.values)
    for _ in range(draw(st.integers(0, 3))):
        vectors[draw(st.integers(0, 3))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, -1.0]))
    c_values = draw(st.lists(st.integers(0, spec.depth), min_size=1, unique=True))
    w_values = draw(st.lists(st.integers(0, 100).map(lambda i: i / 100), min_size=1, max_size=5, unique=True))
    return spec, s1, c_values, w_values, draw(st.integers(1, 10_000))


def table_or_refusal(search):
    """repr of the grid table (every bit of every cell), or the refusal's
    type and message. Subtracting two infinities warns on both paths."""
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            return repr(search().table)
        except (DomainError, StructuralError) as exc:
            return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(stage1_cases())
def test_select_structure_is_grid_search_over_encoder_mismatch(case):
    """The mismatch taken layer by layer from the two parameter vectors
    gives the table of the full-depth mismatch vector, bit for bit, and a
    non-finite or negative entry the same refusal."""
    spec, s1, c_values, w_values, n_train = case
    direct = table_or_refusal(lambda: select_structure(s1, n_train, spec, c_values, w_values))
    via_vector = table_or_refusal(lambda: grid_search(
        s1.fisher_a, s1.fisher_b, encoder_mismatch(s1.params_a, s1.params_b, spec.depth), n_train, spec,
        c_values, w_values))
    assert direct == via_vector


def test_select_structure_holds_no_copy_of_the_encoder():
    """On a synthetic Stage-1 result of about a million parameters the
    search allocates layer-long buffers only: the traced peak stays under
    2 MB, where one copy of the encoder takes 8 MB."""
    spec = ModelSpec(200, (200,) * 25, (2, 2))
    rng = np.random.default_rng(5)
    n, table = spec.param_count, spec.block_table()
    s1 = Stage1Result(ParamVector(rng.normal(size=n), table), ParamVector(rng.normal(size=n), table),
                      DiagFisher(rng.uniform(0.0, 1.0, n), 100), DiagFisher(rng.uniform(0.0, 1.0, n), 100),
                      [], [])
    assert spec.encoder_params(spec.depth) * 8 > 8_000_000
    tracemalloc.start()
    try:
        res = select_structure(s1, 3000, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.table) == 26 * 11
    assert peak < 2_000_000
