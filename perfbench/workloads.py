"""The three workloads. Each one makes its inputs from the seed in `setup`,
runs one unit of work through tailshare's public functions in `unit`,
reduces a unit's output to a `fingerprint` that later units must repeat
exactly, and gathers `evidence` for the checks in checks.py outside the
timed region.

Calls go through module attributes (`oracle.grid_compare`, ...) so that
the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import checks


class UnitFailed(Exception):
    """A unit's command exited with a non-zero code."""


def _sha(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class OracleRef:
    """One full-grid grid_compare on the frozen reference instance."""

    name = "oracle_ref"
    m_resamples = 2
    # Cells recomputed by the check; two share w = 0.3 so one Stage-2 run
    # per resample serves both.
    check_cells = ((0, 0.3), (4, 0.3), (2, 0.8))

    def __init__(self, seed, scratch):
        self.seed = seed

    def setup(self):
        from tailshare import datagen, presets, proxy
        self.gen = datagen.build_generator(presets.reference_generator_config())
        self.run_cfg = presets.reference_run_config()
        self.c_values = tuple(range(self.run_cfg.spec.depth + 1))
        self.w_values = tuple(proxy.DEFAULT_W_GRID)
        self.n_train = presets.REFERENCE_N_TRAIN
        self.n_eval = presets.REFERENCE_EVAL_POINTS

    def unit(self, tracer):
        from tailshare import oracle
        return oracle.grid_compare(
            self.gen, self.run_cfg, self.c_values, self.w_values,
            m_resamples=self.m_resamples, n_train=self.n_train, seed=self.seed,
            n_eval=self.n_eval, restrict=True, jobs=1,
        )

    def fingerprint(self, report):
        return report.to_json()

    def release(self, report):
        pass

    def evidence(self, report):
        """Rebuild the models at `check_cells` with the public pipeline
        functions, following the documented resample seed layout (data seed
        = seed + 1000 + m, stage shuffle seeds shifted by m), and score them
        with the benchmark's own forward pass, posterior and risk."""
        from scipy import stats
        from tailshare import datagen, pipeline
        gen, cfg, spec = self.gen, self.run_cfg, self.run_cfg.spec
        layout = checks.Layout(spec.input_dim, spec.trunk_widths, spec.head_dims, spec.activation)
        rng = np.random.default_rng(self.seed)
        points = checks.draw_mixture_features(gen.means, gen.priors, gen.noise_sigma, self.n_eval, rng)
        post = checks.posterior(gen.means, gen.priors, gen.noise_sigma, points)
        head, tail = checks.head_tail_split(gen.priors)
        split = datagen.TaskSplit(head, tail)
        cell_risks = {cell: [] for cell in self.check_cells}
        proxy_cells = None
        for m in range(self.m_resamples):
            dataset = datagen.sample_iid(gen, self.n_train, self.seed + 1000 + m)
            td = pipeline.build_task_data(dataset, split, gen.priors)
            cfg_m = dataclasses.replace(
                cfg,
                stage1_opt=dataclasses.replace(cfg.stage1_opt, seed=cfg.stage1_opt.seed + m),
                stage2_opt=dataclasses.replace(cfg.stage2_opt, seed=cfg.stage2_opt.seed + m),
            )
            s1 = pipeline.stage1(cfg_m, td)
            if m == 0:
                proxy_cells = checks.proxy_cells(
                    s1.fisher_a.values, s1.fisher_b.values,
                    s1.params_b.values - s1.params_a.values, self.n_train, layout,
                    self.c_values, self.w_values)
            for w in sorted({w for _, w in self.check_cells}):
                s2 = pipeline.stage2(cfg_m, td, w, s1)
                for c in [c for c, cw in self.check_cells if cw == w]:
                    d = layout.encoder_size(c)
                    branch_a = s1.params_a.values.copy()
                    branch_b = s1.params_b.values.copy()
                    branch_a[:d] = s2.params.values[:d]
                    branch_b[:d] = s2.params.values[:d]
                    cell_risks[(c, w)].append(checks.taskwise_risk(
                        post, layout.forward(branch_a, points, "A"),
                        layout.forward(branch_b, points, "B"), head, tail))
        return {
            "m_resamples": self.m_resamples,
            "cell_risks": cell_risks,
            "proxy_cells": proxy_cells,
            "spearmanr": lambda x, y: float(stats.spearmanr(x, y).statistic),
        }

    def check(self, report, evidence):
        return checks.check_oracle(report, evidence)


class CliStages:
    """The staged CLI chain, then full-run, then verify-lemma, in-process on
    configs/reference.json with the seed as the master seed."""

    name = "cli_stages"
    commands = ("gen-data", "stage1", "search", "stage2", "assemble", "refine", "eval",
                "full-run", "verify-lemma")

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = Path(scratch)
        self.count = 0

    def setup(self):
        from tailshare import cli
        self.cli = cli
        self.config_path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        self.cfg = json.loads(self.config_path.read_text())
        self.cfg["seed"] = self.seed

    def _invoke(self, args):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                self.cli.main.main(args=args, prog_name="tailshare", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def unit(self, tracer):
        run_dir = self.scratch / f"chain{self.count:03d}"
        self.count += 1
        common = ["--config", str(self.config_path), "--out", str(run_dir), "--seed", str(self.seed)]
        verify_output = ""
        for command in self.commands:
            args = [command, "--seed", str(self.seed)] if command == "verify-lemma" else [command] + common
            with tracer.span(f"cli.{command}"):
                code, text = self._invoke(args)
            if code != 0:
                raise UnitFailed(f"{command} exited {code}: {text.strip()[-300:]}")
            verify_output = text
        return {"run_dir": run_dir, "verify": verify_output}

    def fingerprint(self, out):
        """Digest of every artifact. Config snapshots drop `out` (the run
        directory differs per chain) and selection_v001 drops the wall-clock
        `search_seconds` that the search command stores."""
        digest = {}
        for path in sorted(out["run_dir"].iterdir()):
            raw = path.read_bytes()
            if path.name.startswith("config_") or path.name == "selection_v001.json":
                doc = json.loads(raw)
                doc.pop("out", None)
                doc.pop("search_seconds", None)
                raw = json.dumps(doc, sort_keys=True).encode()
            digest[path.name] = _sha(raw)
        return json.dumps(digest, sort_keys=True) + out["verify"]

    def release(self, out):
        shutil.rmtree(out["run_dir"], ignore_errors=True)

    def evidence(self, out):
        return {path.name: path.read_bytes() for path in out["run_dir"].iterdir()}

    def check(self, out, files):
        return checks.check_cli(files, self.cfg, out["verify"])


class WideSearch:
    """Fisher estimation, proxy grid search and a container round trip on
    the million-parameter criterion-8 architecture."""

    name = "wide_search"
    rows = 3000
    width = 288
    depth = 12

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = Path(scratch)
        self.count = 0

    def setup(self):
        from tailshare import datagen, nn, proxy
        spec = nn.ModelSpec(self.width, (self.width,) * self.depth, (2, 2))
        layout = checks.Layout(spec.input_dim, spec.trunk_widths, spec.head_dims, spec.activation)
        rng = np.random.default_rng(self.seed)
        values = np.zeros(layout.size)
        for offset, fi, fo in layout.blocks:
            # He-uniform weights keep relu activations from vanishing over 12 layers.
            values[offset:offset + fi * fo] = rng.uniform(-1.0, 1.0, fi * fo) * np.sqrt(6.0 / fi)
        # Task B sits a small step away from task A, like two Stage-1 nets
        # trained from one initialization.
        values_b = values + 0.01 * rng.normal(size=values.size) * np.abs(values)
        classes = rng.integers(0, 4, size=self.rows)
        onehot = np.eye(4)[classes]
        self.spec = spec
        self.layout = layout
        self.params_a = nn.ParamVector(values, spec.block_table())
        self.params_b = nn.ParamVector(values_b, spec.block_table())
        self.features = rng.normal(size=(self.rows, self.width))
        self.z_a, self.z_b = onehot[:, :2], onehot[:, 2:]
        self.split = datagen.TaskSplit((0, 1), (2, 3))
        self.priors = np.bincount(classes, minlength=4) / self.rows
        self.c_values = tuple(range(self.depth + 1))
        self.w_values = tuple(proxy.DEFAULT_W_GRID)

    def unit(self, tracer):
        from tailshare import pipeline, proxy, store
        spec, n = self.spec, self.rows
        fisher_a = proxy.estimate_diag_fisher(self.params_a, spec, self.features, self.z_a, "A")
        fisher_b = proxy.estimate_diag_fisher(self.params_b, spec, self.features, self.z_b, "B")
        mismatch = proxy.encoder_mismatch(self.params_a, self.params_b, spec.depth)
        grid = proxy.grid_search(fisher_a, fisher_b, mismatch, n, spec, self.c_values, self.w_values)
        s1 = pipeline.Stage1Result(self.params_a, self.params_b, fisher_a, fisher_b, [], [])
        path = self.scratch / f"stage1_u{self.count:03d}.bin"
        self.count += 1
        store.save_stage1(path, spec, s1, self.split, self.priors, {"n_train": n})
        spec2, loaded, _, priors, meta = store.load_stage1(path)
        reselected = pipeline.select_structure(loaded, meta["n_train"], spec2,
                                               self.c_values, self.w_values)
        return {
            "path": path,
            "n_train": n,
            "fisher_a": fisher_a.values,
            "fisher_b": fisher_b.values,
            "delta": mismatch.delta,
            "grid": grid,
            "reselected": reselected,
            "saved": {"params_a": self.params_a.values, "params_b": self.params_b.values,
                      "fisher_a": fisher_a.values, "fisher_b": fisher_b.values,
                      "priors": self.priors},
            "loaded": {"params_a": loaded.params_a.values, "params_b": loaded.params_b.values,
                       "fisher_a": loaded.fisher_a.values, "fisher_b": loaded.fisher_b.values,
                       "priors": priors},
        }

    def fingerprint(self, out):
        table = repr([dataclasses.astuple(r) for r in out["grid"].table])
        return _sha(out["fisher_a"].tobytes(), out["fisher_b"].tobytes(), table.encode(),
                    repr([dataclasses.astuple(r) for r in out["reselected"].table]).encode(),
                    out["path"].read_bytes())

    def release(self, out):
        out["path"].unlink(missing_ok=True)

    def evidence(self, out):
        """The benchmark's own full Fisher estimate, and on four rows the
        program's Fisher next to its single-row loss gradients."""
        from tailshare import nn, proxy
        x, spec = self.features, self.spec
        rows = [0, 1, self.rows // 2, self.rows - 1]
        ev = {"layout": self.layout, "container": out["path"].read_bytes()}
        for task, params, z in (("A", self.params_a, self.z_a), ("B", self.params_b, self.z_b)):
            key = task.lower()
            ev[f"own_fisher_{key}"] = self.layout.diag_fisher(params.values, x, z, task)
            ev[f"few_fisher_{key}"] = proxy.estimate_diag_fisher(params, spec, x[rows], z[rows], task).values
            ev[f"row_grads_{key}"] = np.stack([
                nn.bce_loss_grad(params, spec, nn.Batch(x[i:i + 1], self.z_a[i:i + 1], self.z_b[i:i + 1]),
                                 task)[1].values
                for i in rows])
        return ev

    def check(self, out, evidence):
        return checks.check_wide(out, evidence)


WORKLOADS = {w.name: w for w in (OracleRef, CliStages, WideSearch)}
