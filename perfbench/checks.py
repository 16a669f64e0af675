"""Output checks computed apart from tailshare.

Everything here is the benchmark's own numpy code, written from the
documented formats and formulas: the parameter layout, the network forward
pass, the exact mixture posterior, the task-wise KL risk, the closed-form
diagonal proxy, the selection tie rule, the TSCONT01 container, the CSV
formats and the stratified holdout split. No function here imports
tailshare. Each `check_*` returns a list of failure messages; an empty list
means the output passed.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

EPS = np.finfo(np.float64).eps
# Coordinates whose weighted Fisher combination w_a a + w_b b falls below
# this value are skipped in the variance quotient (proxy.DEAD_COORD_EPS).
DEAD_COORD_EPS = 1e-12
RISK_RTOL = 1e-10
FISHER_RTOL = 1e-8


# --- architecture --------------------------------------------------------

class Layout:
    """Flat-vector layout: trunk layers in order, then head A, then head B;
    each block is a row-major (fan_in, fan_out) weight then fan_out biases."""

    def __init__(self, input_dim, trunk_widths, head_dims, activation):
        self.activation = activation
        self.blocks = []
        offset = 0
        fan_in = int(input_dim)
        shapes = []
        for width in trunk_widths:
            shapes.append((fan_in, int(width)))
            fan_in = int(width)
        shapes += [(fan_in, int(head_dims[0])), (fan_in, int(head_dims[1]))]
        for fi, fo in shapes:
            self.blocks.append((offset, fi, fo))
            offset += fi * fo + fo
        self.size = offset
        self.depth = len(trunk_widths)

    @classmethod
    def from_meta(cls, spec):
        return cls(spec["input_dim"], spec["trunk_widths"], spec["head_dims"], spec["activation"])

    def block_len(self, i):
        _, fi, fo = self.blocks[i]
        return fi * fo + fo

    def encoder_size(self, c):
        return sum(self.block_len(i) for i in range(c))

    def decoder_size(self, c, task):
        head = self.depth if task == "A" else self.depth + 1
        return sum(self.block_len(i) for i in range(c, self.depth)) + self.block_len(head)

    def head_slice(self, task):
        offset, fi, fo = self.blocks[self.depth if task == "A" else self.depth + 1]
        return slice(offset, offset + fi * fo + fo)

    def weights(self, values, i):
        offset, fi, fo = self.blocks[i]
        w = values[offset:offset + fi * fo].reshape(fi, fo)
        return w, values[offset + fi * fo:offset + fi * fo + fo]

    def _act(self, pre):
        return np.tanh(pre) if self.activation == "tanh" else np.maximum(pre, 0.0)

    def forward(self, values, features, task):
        h = np.asarray(features, dtype=np.float64)
        for i in range(self.depth):
            w, b = self.weights(values, i)
            h = self._act(h @ w + b)
        w, b = self.weights(values, self.depth if task == "A" else self.depth + 1)
        return h @ w + b

    def diag_fisher(self, values, features, labels, task):
        """Mean over rows of the squared per-row score gradient, from the
        rank-one structure of each row's weight gradient."""
        n = features.shape[0]
        acts, pres = [np.asarray(features, dtype=np.float64)], []
        for i in range(self.depth):
            w, b = self.weights(values, i)
            pres.append(acts[-1] @ w + b)
            acts.append(self._act(pres[-1]))
        head = self.depth if task == "A" else self.depth + 1
        w, b = self.weights(values, head)
        logits = acts[-1] @ w + b
        delta = labels - 1.0 / (1.0 + np.exp(-logits))
        out = np.zeros(self.size)
        for i, a in [(head, acts[-1])] + [(i, acts[i]) for i in range(self.depth - 1, -1, -1)]:
            if i != head:
                deriv = 1.0 - acts[i + 1] ** 2 if self.activation == "tanh" else (pres[i] > 0.0)
                delta = delta * deriv
            offset, fi, fo = self.blocks[i]
            out[offset:offset + fi * fo] = ((a * a).T @ (delta * delta)).ravel()
            out[offset + fi * fo:offset + fi * fo + fo] = (delta * delta).sum(axis=0)
            w, _ = self.weights(values, i)
            delta = delta @ w.T
        return out / n


# --- mixture posterior and task-wise risk ---------------------------------

def draw_mixture_features(means, priors, sigma, n, rng):
    """Unlabelled draws: a class from the priors, then its Gaussian."""
    classes = rng.choice(len(priors), size=n, p=priors)
    return means[classes] + rng.normal(0.0, sigma, size=(n, means.shape[1]))


def posterior(means, priors, sigma, features):
    sq = ((features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    logp = np.log(priors)[None, :] - sq / (2.0 * sigma * sigma)
    p = np.exp(logp - logp.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def taskwise_risk(post, logits_a, logits_b, head, tail):
    """Sum over both tasks of the mean KL from the projected posterior
    (group classes plus the all-zero outcome) to a softmax over [logits, 0]."""
    total = 0.0
    for classes, logits in ((head, logits_a), (tail, logits_b)):
        group = post[:, list(classes)]
        q = np.concatenate([group, np.clip(1.0 - group.sum(axis=1, keepdims=True), 0.0, 1.0)], axis=1)
        ext = np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1)
        top = ext.max(axis=1, keepdims=True)
        logp = ext - (top + np.log(np.exp(ext - top).sum(axis=1, keepdims=True)))
        kl = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - logp), 0.0)
        total += float(kl.sum(axis=1).mean())
    return total


def head_tail_split(counts):
    """Classes by descending count (ties by index); the larger half is the head."""
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    n_head = (len(counts) + 1) // 2
    return tuple(order[:n_head]), tuple(order[n_head:])


# --- proxy ----------------------------------------------------------------

def proxy_cells(fisher_a, fisher_b, delta, n_train, layout, c_values, w_values):
    """Closed-form diagonal proxy terms at every (c, w_a), by cumulative sums.

    Returns {(c, w): (enc_var, enc_bias, dec_var, total, tol_var, tol_bias)}
    where the tolerances bound float64 summation error over d nonnegative
    terms (2 d eps times the sum).
    """
    d_max = layout.encoder_size(max(c_values))
    a, b, dl = fisher_a[:d_max], fisher_b[:d_max], delta[:d_max]
    cells = {}
    for w in w_values:
        wb = 1.0 - w
        den = w * a + wb * b
        alive = den >= DEAD_COORD_EPS
        safe = np.where(alive, den, 1.0)
        quot = np.where(alive, (a + b) * (w * w * a + wb * wb * b) / (safe * safe), 0.0)
        cq = np.concatenate([[0.0], np.cumsum(quot)])
        cb = np.concatenate([[0.0], np.cumsum(dl * dl * (wb * wb * a + w * w * b))])
        for c in c_values:
            d = layout.encoder_size(c)
            enc_var = cq[d] / (2.0 * n_train)
            enc_bias = 0.5 * cb[d]
            dec_var = (layout.decoder_size(c, "A") + layout.decoder_size(c, "B")) / (2.0 * n_train)
            cells[(c, w)] = (enc_var, enc_bias, dec_var, enc_var + enc_bias + dec_var,
                             2 * d * EPS * enc_var, 2 * d * EPS * enc_bias)
    return cells


def compare_proxy(rows, expected, where):
    """rows: iterable of (c, w, enc_var, enc_bias, dec_var, total)."""
    bad = []
    seen = set()
    for c, w, ev, eb, dv, total in rows:
        key = (int(c), float(w))
        seen.add(key)
        if key not in expected:
            bad.append(f"{where}: unexpected cell {key}")
            continue
        x_ev, x_eb, x_dv, _, tol_v, tol_b = expected[key]
        if abs(ev - x_ev) > tol_v + 1e-300 or abs(eb - x_eb) > tol_b + 1e-300:
            bad.append(f"{where}: encoder terms at {key} are ({ev!r}, {eb!r}), "
                       f"closed form gives ({x_ev!r}, {x_eb!r})")
        if not math.isclose(dv, x_dv, rel_tol=4 * EPS, abs_tol=0.0):
            bad.append(f"{where}: decoder variance at {key} is {dv!r}, expected {x_dv!r}")
        if not math.isclose(total, ev + eb + dv, rel_tol=4 * EPS, abs_tol=0.0):
            bad.append(f"{where}: total at {key} is not the sum of its terms")
    if seen != set(expected):
        bad.append(f"{where}: grid covers {len(seen)} cells, expected {len(expected)}")
    return bad


def tie_rule_argmin(cells):
    """cells: iterable of (c, w, total). Smaller total, then smaller c, then
    w closest to 0.5, then smaller w."""
    c, w, _ = min(cells, key=lambda t: (t[2], t[0], abs(t[1] - 0.5), t[1]))
    return int(c), float(w)


# --- files ----------------------------------------------------------------

def parse_container(raw):
    """TSCONT01 | u32 version | u64 meta length | meta JSON | float64 arrays."""
    if raw[:8] != b"TSCONT01":
        raise ValueError("bad magic")
    (version,) = struct.unpack("<I", raw[8:12])
    (meta_len,) = struct.unpack("<Q", raw[12:20])
    meta = json.loads(raw[20:20 + meta_len].decode("utf-8"))
    offset = 20 + meta_len
    arrays = {}
    for entry in meta["arrays"]:
        n = entry["length"]
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
    if version != 1 or offset != len(raw):
        raise ValueError("bad version or length")
    return meta, arrays


def parse_dataset_csv(text):
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    features = np.array([[float(v) for v in r[:-1]] for r in rows])
    return features, np.array([int(r[-1]) for r in rows])


def parse_table_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def holdout_rows(classes, n_classes, fraction, seed):
    """Stratified test rows: round(fraction * n_k) per class by a seeded permutation."""
    rng = np.random.default_rng(seed)
    picks = []
    for k in range(n_classes):
        idx = np.flatnonzero(classes == k)
        picks.append(idx[rng.permutation(idx.size)[:int(np.floor(fraction * idx.size + 0.5))]])
    return np.sort(np.concatenate(picks))


def balanced_draws(means, sigma, per_class, seed):
    rng = np.random.default_rng(seed)
    feats = np.vstack([means[k] + rng.normal(0.0, sigma, size=(per_class, means.shape[1]))
                       for k in range(means.shape[0])])
    return feats, np.repeat(np.arange(means.shape[0]), per_class)


def model_metrics(layout, branch_a, branch_b, head, tail, features, classes):
    s_a = layout.forward(branch_a, features, "A")
    s_b = layout.forward(branch_b, features, "B")
    scores = np.empty((features.shape[0], len(head) + len(tail)))
    scores[:, list(head)] = s_a
    scores[:, list(tail)] = s_b
    correct = scores.argmax(axis=1) == classes
    in_head = np.isin(classes, head)
    onehot = np.eye(len(head) + len(tail))[classes]

    def bce(s, z):
        return float((z * np.logaddexp(0.0, -s) + (1.0 - z) * np.logaddexp(0.0, s)).sum(axis=1).mean())

    return {
        "overall_accuracy": float(correct.mean()),
        "head_accuracy": float(correct[in_head].mean()),
        "tail_accuracy": float(correct[~in_head].mean()),
        "bce_a": bce(s_a, onehot[:, list(head)]),
        "bce_b": bce(s_b, onehot[:, list(tail)]),
        "n_eval": features.shape[0],
    }


# --- workload checkers ----------------------------------------------------

def check_oracle(report, ev):
    """report: the OracleReport. ev: evidence gathered apart from grid_compare
    (see workloads.OracleRef.evidence)."""
    bad = []
    m = ev["m_resamples"]
    risk, stderr = np.asarray(report.risk_mean), np.asarray(report.risk_stderr)
    if not np.all(np.asarray(report.n_ok) == m):
        bad.append(f"n_ok is not {m} in every cell")
    if not (np.all(np.isfinite(risk)) and np.all(risk > 0)):
        bad.append("a risk is not finite and positive")
    if not (np.all(np.isfinite(stderr)) and np.all(stderr >= 0)):
        bad.append("a risk standard error is not finite")
    c_values, w_values = tuple(report.c_values), tuple(report.w_values)
    for (c, w), per_resample in ev["cell_risks"].items():
        ci, wi = c_values.index(c), w_values.index(w)
        mean = float(np.mean(per_resample))
        se = float(np.std(per_resample, ddof=1) / math.sqrt(len(per_resample)))
        if not math.isclose(risk[ci, wi], mean, rel_tol=RISK_RTOL):
            bad.append(f"risk_mean at ({c}, {w}) is {risk[ci, wi]!r}, recomputed {mean!r}")
        if not math.isclose(stderr[ci, wi], se, rel_tol=0.0, abs_tol=1e-9 * mean):
            bad.append(f"risk_stderr at ({c}, {w}) is {stderr[ci, wi]!r}, recomputed {se!r}")
    proxy = np.asarray(report.proxy_total)
    rows = []
    expected = ev["proxy_cells"]
    for ci, c in enumerate(c_values):
        for wi, w in enumerate(w_values):
            x_total = expected[(c, w)][3]
            tol = expected[(c, w)][4] + expected[(c, w)][5] + 4 * EPS * abs(x_total)
            if abs(proxy[ci, wi] - x_total) > tol:
                bad.append(f"proxy_total at ({c}, {w}) is {proxy[ci, wi]!r}, closed form {x_total!r}")
            rows.append((c, w, proxy[ci, wi]))
    if tuple(report.proxy_best) != tie_rule_argmin(rows):
        bad.append(f"proxy_best {report.proxy_best} is not the tie-rule argmin {tie_rule_argmin(rows)}")
    valid = np.asarray(report.n_ok) >= 0.8 * m
    rho = ev["spearmanr"](proxy[valid], risk[valid])
    if report.spearman_rho is None or not math.isclose(report.spearman_rho, rho, rel_tol=1e-12):
        bad.append(f"spearman_rho {report.spearman_rho!r}, scipy gives {rho!r}")
    flat = np.where(valid, risk, np.inf)
    ci, wi = np.unravel_index(int(flat.argmin()), flat.shape)
    if tuple(report.oracle_best) != (c_values[ci], w_values[wi]):
        bad.append(f"oracle_best {report.oracle_best} is not the risk argmin")
    return bad


def check_cli(files, cfg, verify_output):
    """files: {name: bytes} of one chain's run directory. cfg: the resolved
    config (reference.json with the benchmark's seed)."""
    bad = []
    if "PASS" not in verify_output.split():
        bad.append("verify-lemma did not print PASS")
    seed = int(cfg["seed"])
    features, classes = parse_dataset_csv(files["dataset_v001.csv"].decode())
    if files["dataset_v002.csv"] != files["dataset_v001.csv"]:
        bad.append("full-run wrote a different dataset than gen-data")
    sidecar = json.loads(files["dataset_v001.generator.json"])
    means, sigma = np.asarray(sidecar["means"]), float(sidecar["noise_sigma"])
    n_train = features.shape[0]
    for tag, s1_name in (("v001", "stage1_v001.bin"), ("v002", "stage1_v002.bin")):
        meta, arrays = parse_container(files[s1_name])
        layout = Layout.from_meta(meta["spec"])
        rows = [(r["C"], float(r["w_A"]), float(r["encoder_variance"]), float(r["encoder_bias"]),
                 float(r["decoder_variance"]), float(r["total"]))
                for r in parse_table_csv(files[f"proxy_grid_{tag}.csv"].decode())]
        c_values = sorted({int(r[0]) for r in rows})
        w_values = sorted({r[1] for r in rows})
        expected = proxy_cells(arrays["fisher_a"], arrays["fisher_b"],
                               arrays["params_b"] - arrays["params_a"], n_train, layout,
                               c_values, w_values)
        bad += compare_proxy(rows, expected, f"proxy_grid_{tag}")
        selection = json.loads(files[f"selection_{tag}.json"])
        best = tie_rule_argmin((int(r[0]), r[1], r[5]) for r in rows)
        if (selection["c_star"], selection["w_star"]) != best:
            bad.append(f"selection_{tag} is {selection['c_star'], selection['w_star']}, argmin {best}")
    head, tail = head_tail_split(np.bincount(classes))
    test = holdout_rows(classes, len(means), float(cfg["holdout_fraction"]), seed + 5)
    bal_x, bal_y = balanced_draws(means, sigma, int(cfg["eval_per_class"]), seed + 6)
    # model v001 assembled, v002 refined (chain), v003 full-run; each
    # pairs with the Stage-2 params it spliced and the metrics it scored.
    for model_name, stage2_name, selection_name, metrics_name in (
        ("model_v001.bin", "stage2_v001.bin", "selection_v001.json", None),
        ("model_v002.bin", "stage2_v001.bin", "selection_v001.json", "metrics_v001.csv"),
        ("model_v003.bin", "stage2_v002.bin", "selection_v002.json", "metrics_v002.csv"),
    ):
        meta, arrays = parse_container(files[model_name])
        if meta["c"] != json.loads(files[selection_name])["c_star"]:
            bad.append(f"{model_name}: shared depth {meta['c']} is not the selected one")
        layout = Layout.from_meta(meta["spec"])
        d = layout.encoder_size(int(meta["c"]))
        enc = parse_container(files[stage2_name])[1]["params"][:d]
        for branch in ("branch_a", "branch_b"):
            if arrays[branch][:d].tobytes() != enc.tobytes():
                bad.append(f"{model_name}: {branch} encoder slice differs from {stage2_name}")
        if (tuple(meta["split"]["head_classes"]), tuple(meta["split"]["tail_classes"])) != (head, tail):
            bad.append(f"{model_name}: head/tail split is not the count order")
        if metrics_name is None:
            continue
        got = {r["eval_set"]: r for r in parse_table_csv(files[metrics_name].decode())}
        for eval_set, x, y in (("holdout", features[test], classes[test]), ("balanced", bal_x, bal_y)):
            want = model_metrics(layout, arrays["branch_a"], arrays["branch_b"], head, tail, x, y)
            row = got.get(eval_set)
            if row is None:
                bad.append(f"{metrics_name}: no {eval_set} row")
                continue
            for key in ("overall_accuracy", "head_accuracy", "tail_accuracy", "n_eval"):
                if float(row[key]) != want[key]:
                    bad.append(f"{metrics_name}: {eval_set} {key} is {row[key]}, recomputed {want[key]!r}")
            for key in ("bce_a", "bce_b"):
                if not math.isclose(float(row[key]), want[key], rel_tol=RISK_RTOL):
                    bad.append(f"{metrics_name}: {eval_set} {key} is {row[key]}, recomputed {want[key]!r}")
    return bad


def check_wide(out, ev):
    """out: the unit's outputs. ev: evidence (own Fisher, per-row gradients,
    the container file bytes) gathered after the unit."""
    bad = []
    layout = ev["layout"]
    for task, fisher, own in (("A", out["fisher_a"], ev["own_fisher_a"]),
                              ("B", out["fisher_b"], ev["own_fisher_b"])):
        for i in range(len(layout.blocks)):
            offset = layout.blocks[i][0]
            sl = slice(offset, offset + layout.block_len(i))
            tol = FISHER_RTOL * np.abs(own[sl]) + 1e-14 * np.abs(own[sl]).max()
            worst = np.flatnonzero(np.abs(fisher[sl] - own[sl]) > tol)
            if worst.size:
                bad.append(f"Fisher {task} block {i}: {worst.size} entries differ from the own "
                           f"estimate, first at flat index {offset + worst[0]}")
        unused = layout.head_slice("B" if task == "A" else "A")
        if np.any(fisher[unused] != 0.0):
            bad.append(f"Fisher {task}: unused head block is not exactly zero")
    for task, few, grads in (("A", ev["few_fisher_a"], ev["row_grads_a"]),
                             ("B", ev["few_fisher_b"], ev["row_grads_b"])):
        mean_sq = np.mean(np.square(grads), axis=0)
        if np.abs(few - mean_sq).max() > 1e-12 * np.abs(mean_sq).max():
            bad.append(f"Fisher {task} on a few rows is not the mean squared row gradient")
    grid = out["grid"]
    rows = [(r.c, r.w_a, r.encoder_variance, r.encoder_bias, r.decoder_variance, r.total)
            for r in grid.table]
    expected = proxy_cells(out["fisher_a"], out["fisher_b"], out["delta"], out["n_train"],
                           layout, grid.c_values, grid.w_values)
    bad += compare_proxy(rows, expected, "grid_search")
    best = tie_rule_argmin((r[0], r[1], r[5]) for r in rows)
    if (grid.c_star, grid.w_star) != best:
        bad.append(f"grid_search picked {(grid.c_star, grid.w_star)}, argmin is {best}")
    _, on_disk = parse_container(ev["container"])
    for name, saved in out["saved"].items():
        if on_disk[name].tobytes() != np.asarray(saved, dtype="<f8").tobytes():
            bad.append(f"container array {name} on disk differs from the saved array")
        if out["loaded"][name].tobytes() != np.asarray(saved, dtype="<f8").tobytes():
            bad.append(f"loaded array {name} differs from the saved array")
    reloaded = [(r.c, r.w_a, r.encoder_variance, r.encoder_bias, r.decoder_variance, r.total)
                for r in out["reselected"].table]
    if reloaded != rows:
        bad.append("select_structure on the loaded statistics gives a different table")
    return bad
