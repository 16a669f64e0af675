"""Command-line entry point.

Every command resolves its configuration (JSON file plus flag overrides),
writes the resolved snapshot into the run directory, and reads/writes
versioned artifacts there. Exit codes: 0 success, 2 configuration error,
3 missing upstream artifact, 4 training divergence, 5 data-format error,
6 verification check failed, 1 anything else.

Seed derivation from the master seed: generator = seed, init = seed + 1,
stage1 shuffle = seed + 2, stage2 shuffle = seed + 3, refine shuffle =
seed + 4, holdout = seed + 5, evaluation draws = seed + 6, oracle study
seed = seed + 7.
"""
from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

import click
import numpy as np

from . import datagen, infotheory, oracle, pipeline, presets, proxy, store
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    MissingArtifactError,
    StructuralError,
    SupportError,
    TrainingDivergenceError,
)
from .nn import ModelSpec, OptConfig, TrainResult

_EXIT_CODES = (
    ((ConfigError, DomainError, StructuralError, SupportError), 2, "config"),
    ((MissingArtifactError,), 3, "missing-artifact"),
    ((TrainingDivergenceError,), 4, "training"),
    ((DataFormatError,), 5, "data"),
)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
            for types, code, label in _EXIT_CODES:
                if isinstance(exc, types):
                    click.echo(f"error[{label}]: {exc}", err=True)
                    raise SystemExit(code)
            raise
    return wrapper


_DEFAULTS = presets.toy_config_dict()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_type(value, default, key: str) -> None:
    """Require `value` to have the JSON type of the default at `key`: an
    object for a section, an int for an int, a number for a float, a bool
    for a bool, a string for a string, a nonempty list of positive ints for
    model.trunk_widths and null or a list of numbers under select. Numbers
    must be finite: Python's json reads NaN and Infinity."""
    if isinstance(default, dict):
        ok, kind = isinstance(value, dict), "an object"
    elif key == "model.trunk_widths":
        ok = isinstance(value, list) and value and all(_is_int(v) and v >= 1 for v in value)
        kind = "a nonempty list of positive ints"
    elif key.startswith("select."):
        ok = value is None or (isinstance(value, list) and all(map(_is_number, value)))
        kind = "null or a list of numbers"
    elif isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = _is_int(value), "an int"
    elif isinstance(default, float):
        ok, kind = _is_number(value), "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key} must be {kind}, got {json.dumps(value)}")
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in (value if isinstance(value, list) else [value])):
        raise ConfigError(f"config key {key} must be finite, got {json.dumps(value)}")


def _load_config(config_path, **overrides) -> dict:
    """The defaults, then the JSON file, then the flag overrides (dotted
    keys reach into sections); each value must have the JSON type of its
    default. Builds the generator, model and optimizer settings, so a value
    they refuse fails here; only then writes the resolved snapshot into the
    run directory."""
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy of the defaults
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise MissingArtifactError(f"config file not found: {path}")
        try:
            user = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: the config must be a JSON object, got {json.dumps(user)}")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict) and isinstance(value, dict):
                for sub, sval in value.items():
                    if sub not in cfg[key]:
                        raise ConfigError(f"unknown config key {key}.{sub}")
                    _check_type(sval, cfg[key][sub], f"{key}.{sub}")
                    cfg[key][sub] = sval
            else:
                _check_type(value, cfg[key], key)
                cfg[key] = value
    for key, value in overrides.items():
        if value is None:
            continue
        parts = key.split(".")
        node = cfg
        for part in parts[:-1]:
            node = node[part]
        _check_type(value, node[parts[-1]], key)
        node[parts[-1]] = value
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    # Metrics are scored after training, so their settings are checked first.
    if not 0.0 <= float(cfg["holdout_fraction"]) <= 1.0:
        raise ConfigError(f"holdout_fraction must lie in [0, 1], got {cfg['holdout_fraction']}")
    if int(cfg["eval_per_class"]) < 0:
        raise ConfigError(f"eval_per_class must be >= 0, got {cfg['eval_per_class']}")
    for section in ("stage1", "stage2"):
        if cfg[section]["epochs"] < 1:
            raise ConfigError(f"{section}.epochs must be >= 1, got {cfg[section]['epochs']}")
    gen = _gen_config(cfg)
    _spec_for(cfg, gen.n_classes, gen.input_dim)
    for section in ("stage1", "stage2", "refine"):
        try:
            _opt(cfg, section, cfg["seed"])
        except ConfigError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    store.write_config_snapshot(cfg["out"], cfg)
    return cfg


def _gen_config(cfg: dict) -> datagen.GenConfig:
    g = cfg["generator"]
    return datagen.GenConfig(
        n_classes=int(g["n_classes"]),
        input_dim=int(g["input_dim"]),
        imbalance_ratio=float(g["imbalance_ratio"]),
        n_max=int(g["n_max"]),
        class_mean_scale=float(g.get("class_mean_scale", 1.0)),
        noise_sigma=float(g.get("noise_sigma", 1.0)),
        seed=int(cfg["seed"]),
    )


def _spec_for(cfg: dict, n_classes: int, input_dim: int) -> ModelSpec:
    head = (n_classes + 1) // 2
    return ModelSpec(
        input_dim=input_dim,
        trunk_widths=tuple(cfg["model"]["trunk_widths"]),
        head_dims=(head, n_classes - head),
        activation=cfg["model"].get("activation", "relu"),
    )


def _opt(cfg: dict, section: str, seed: int) -> OptConfig:
    s = cfg[section]
    return OptConfig(
        learning_rate=float(s["learning_rate"]),
        momentum=float(s.get("momentum", 0.9)),
        epochs=int(s["epochs"]),
        batch_size=int(s["batch_size"]),
        seed=seed,
    )


def _run_config(cfg: dict, n_classes: int, input_dim: int, refine: bool) -> pipeline.RunConfig:
    seed = int(cfg["seed"])
    select = cfg["select"]
    return pipeline.RunConfig(
        spec=_spec_for(cfg, n_classes, input_dim),
        stage1_opt=_opt(cfg, "stage1", seed + 2),
        stage2_opt=_opt(cfg, "stage2", seed + 3),
        refine_opt=_opt(cfg, "refine", seed + 4),
        init_seed=seed + 1,
        tau=float(cfg["tau"]),
        logit_adjust=bool(cfg["logit_adjust"]),
        c_values=None if select["c_values"] is None else tuple(select["c_values"]),
        w_values=None if select["w_values"] is None else tuple(select["w_values"]),
        refine=refine,
    )


def _load_dataset(cfg: dict, data: str | None) -> datagen.LongTailDataset:
    if data:
        return datagen.load_csv(data)
    path = store.latest_version_path(cfg["out"], "dataset", ".csv")
    return datagen.load_csv(path)


def _parse_grid(text: str | None, cast):
    if text is None:
        return None
    try:
        return tuple(cast(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None


def _write_dataset(cfg: dict) -> tuple:
    """Generate the dataset; write its CSV and generator sidecar."""
    dataset = datagen.generate(_gen_config(cfg))
    path = store.next_version_path(cfg["out"], "dataset", ".csv")
    datagen.save_csv(dataset, path)
    return dataset, path


def _write_stage1(cfg: dict, spec: ModelSpec, td: pipeline.TaskData, s1: pipeline.Stage1Result) -> Path:
    path = store.next_version_path(cfg["out"], "stage1", ".bin")
    store.save_stage1(path, spec, s1, td.split, td.priors, {"n_train": td.n})
    return path


def _write_search(cfg: dict, grid: proxy.GridSearchResult) -> Path:
    """The proxy grid CSV and the selection JSON; returns the CSV path.
    The selection holds no wall-clock value, so reruns match byte for byte."""
    csv_path = store.next_version_path(cfg["out"], "proxy_grid", ".csv")
    grid.to_csv(csv_path)
    store.next_version_path(cfg["out"], "selection", ".json").write_text(json.dumps({
        "format": "tailshare-selection-v1",
        "c_star": grid.c_star,
        "w_star": grid.w_star,
        "c_values": list(grid.c_values),
        "w_values": list(grid.w_values),
    }, sort_keys=True, indent=1))
    return csv_path


def _write_stage2(cfg: dict, spec: ModelSpec, res: TrainResult, c_star: int, w_star: float) -> Path:
    path = store.next_version_path(cfg["out"], "stage2", ".bin")
    store.save_params(path, spec, res.params,
                      {"w_star": w_star, "c_star": c_star, "final_loss": res.epoch_losses[-1]})
    return path


def _write_model(cfg: dict, model: pipeline.AssembledModel, refined: bool, w_star) -> Path:
    path = store.next_version_path(cfg["out"], "model", ".bin")
    store.save_model(path, model, {"refined": refined, "w_star": w_star})
    return path


def _holdout(cfg: dict, dataset: datagen.LongTailDataset) -> datagen.LongTailDataset:
    return datagen.holdout_split(dataset, float(cfg["holdout_fraction"]), int(cfg["seed"]) + 5)[1]


def _write_metrics(cfg: dict, model: pipeline.AssembledModel, dataset: datagen.LongTailDataset) -> Path:
    """Score the model on the holdout split and, when the generator is
    known, on a balanced draw; write the metrics CSV and echo each set. A
    set without rows (holdout_fraction or eval_per_class 0) has no row."""
    rows = []
    test_ds = _holdout(cfg, dataset)
    if test_ds.n > 0:
        rows.append(("holdout", pipeline.evaluate(model, test_ds.features, test_ds.labels).as_dict()))
    if dataset.generator is not None and int(cfg["eval_per_class"]) > 0:
        rng = np.random.default_rng(int(cfg["seed"]) + 6)
        feats, labels = dataset.generator.sample_balanced(int(cfg["eval_per_class"]), rng)
        rows.append(("balanced", pipeline.evaluate(model, feats, labels).as_dict()))
    path = store.next_version_path(cfg["out"], "metrics", ".csv")
    store.write_metrics_csv(path, rows)
    for name, rep in rows:
        click.echo(f"{name}: overall={rep['overall_accuracy']:.4f} "
                   f"head={rep['head_accuracy']:.4f} tail={rep['tail_accuracy']:.4f}")
    return path


config_opt = click.option("--config", "config_path", type=click.Path(), default=None,
                          help="JSON config file; flags override it.")
out_opt = click.option("--out", default=None, help="Run directory.")
seed_opt = click.option("--seed", type=int, default=None, help="Master seed.")
data_opt = click.option("--data", type=click.Path(), default=None,
                        help="External dataset CSV (default: latest dataset artifact).")
tau_opt = click.option("--tau", type=float, default=None,
                       help="Logit-adjustment temperature override.")


@click.group()
def main():
    """Head/tail task decomposition lab: three-stage training, proxy-based
    structure selection, and generalization-error oracles."""


@main.command("gen-data")
@config_opt
@out_opt
@seed_opt
@_guarded
def gen_data_cmd(config_path, out, seed):
    """Generate the long-tailed dataset and its generator sidecar."""
    cfg = _load_config(config_path, out=out, seed=seed)
    dataset, path = _write_dataset(cfg)
    click.echo(f"wrote {path} (N={dataset.n}, K={dataset.n_classes})")


@main.command("stage1")
@config_opt
@out_opt
@seed_opt
@data_opt
@tau_opt
@_guarded
def stage1_cmd(config_path, out, seed, data, tau):
    """Train both tasks independently and estimate their Fishers."""
    cfg = _load_config(config_path, out=out, seed=seed, tau=tau)
    dataset = _load_dataset(cfg, data)
    rc = _run_config(cfg, dataset.n_classes, dataset.features.shape[1], refine=False)
    td = pipeline.build_task_data(dataset)
    t0 = time.perf_counter()
    s1 = pipeline.stage1(rc, td)
    path = _write_stage1(cfg, rc.spec, td, s1)
    click.echo(f"wrote {path} ({time.perf_counter() - t0:.2f}s, "
               f"final losses A={s1.losses_a[-1]:.4f} B={s1.losses_b[-1]:.4f})")


@main.command("search")
@config_opt
@out_opt
@seed_opt
@click.option("--grid-c", default=None, help="Comma-separated shared-depth candidates.")
@click.option("--grid-w", default=None, help="Comma-separated head-weight candidates.")
@_guarded
def search_cmd(config_path, out, seed, grid_c, grid_w):
    """Proxy grid search over saved Stage-1 statistics."""
    cfg = _load_config(config_path, out=out, seed=seed)
    spec, s1, split, priors, meta = store.load_stage1(
        store.latest_version_path(cfg["out"], "stage1", ".bin"))
    c_values = _parse_grid(grid_c, int) or cfg["select"]["c_values"]
    w_values = _parse_grid(grid_w, float) or cfg["select"]["w_values"]
    t0 = time.perf_counter()
    grid = pipeline.select_structure(s1, meta["n_train"], spec, c_values, w_values)
    elapsed = time.perf_counter() - t0
    csv_path = _write_search(cfg, grid)
    click.echo(f"selected C*={grid.c_star} w_A*={grid.w_star} in {elapsed:.3f}s; wrote {csv_path}")


@main.command("stage2")
@config_opt
@out_opt
@seed_opt
@data_opt
@tau_opt
@click.option("--c-star", type=int, default=None, help="Override the selected shared depth.")
@click.option("--w-star", type=float, default=None, help="Override the selected head weight.")
@_guarded
def stage2_cmd(config_path, out, seed, data, tau, c_star, w_star):
    """Weighted joint training at the selected (C*, w_A*)."""
    cfg = _load_config(config_path, out=out, seed=seed, tau=tau)
    dataset = _load_dataset(cfg, data)
    rc = _run_config(cfg, dataset.n_classes, dataset.features.shape[1], refine=False)
    if w_star is None or c_star is None:
        sel = json.loads(store.latest_version_path(cfg["out"], "selection", ".json").read_text())
        w_star = sel["w_star"] if w_star is None else w_star
        c_star = sel["c_star"] if c_star is None else c_star
    td = pipeline.build_task_data(dataset)
    res = pipeline.stage2(rc, td, w_star)
    path = _write_stage2(cfg, rc.spec, res, c_star, w_star)
    click.echo(f"wrote {path} (final joint loss {res.epoch_losses[-1]:.4f})")


@main.command("assemble")
@config_opt
@out_opt
@seed_opt
@_guarded
def assemble_cmd(config_path, out, seed):
    """Splice the Stage-2 encoder onto the Stage-1 decoders."""
    cfg = _load_config(config_path, out=out, seed=seed)
    spec, s1, split, priors, _ = store.load_stage1(
        store.latest_version_path(cfg["out"], "stage1", ".bin"))
    _, s2_params, s2_meta = store.load_params(
        store.latest_version_path(cfg["out"], "stage2", ".bin"))
    model = pipeline.assemble(spec, s2_meta["c_star"], s2_params, s1, split, priors)
    path = _write_model(cfg, model, False, s2_meta["w_star"])
    click.echo(f"wrote {path} (C={model.c})")


@main.command("refine")
@config_opt
@out_opt
@seed_opt
@data_opt
@tau_opt
@_guarded
def refine_cmd(config_path, out, seed, data, tau):
    """Fine-tune only the decoders of the latest model, encoder frozen."""
    cfg = _load_config(config_path, out=out, seed=seed, tau=tau)
    dataset = _load_dataset(cfg, data)
    model, meta = store.load_model(store.latest_version_path(cfg["out"], "model", ".bin"))
    td = pipeline.build_task_data(dataset, model.split)
    opt = _opt(cfg, "refine", int(cfg["seed"]) + 4)
    refined = pipeline.refine_decoders(model, td, opt, float(cfg["tau"]), bool(cfg["logit_adjust"]))
    path = _write_model(cfg, refined, opt.epochs > 0, meta.get("w_star"))
    click.echo(f"wrote {path} (refined {opt.epochs} epochs)")


@main.command("eval")
@config_opt
@out_opt
@seed_opt
@data_opt
@_guarded
def eval_cmd(config_path, out, seed, data):
    """Metrics of the latest model: overall/head/tail accuracy, task BCE."""
    cfg = _load_config(config_path, out=out, seed=seed)
    dataset = _load_dataset(cfg, data)
    model, _ = store.load_model(store.latest_version_path(cfg["out"], "model", ".bin"))
    click.echo(f"wrote {_write_metrics(cfg, model, dataset)}")


@main.command("full-run")
@config_opt
@out_opt
@seed_opt
@data_opt
@tau_opt
@click.option("--no-refine", is_flag=True, default=False, help="Skip decoder refinement.")
@_guarded
def full_run_cmd(config_path, out, seed, data, tau, no_refine):
    """The whole pipeline: data, Stage 1, search, Stage 2, assembly,
    optional refinement, and metrics."""
    cfg = _load_config(config_path, out=out, seed=seed, tau=tau)
    dataset = datagen.load_csv(data) if data else _write_dataset(cfg)[0]
    rc = _run_config(cfg, dataset.n_classes, dataset.features.shape[1], refine=not no_refine)
    result = pipeline.full_run(rc, dataset)
    sel = result.selection
    _write_stage1(cfg, rc.spec, result.task_data, result.stage1)
    _write_search(cfg, sel)
    _write_stage2(cfg, rc.spec, result.stage2, sel.c_star, sel.w_star)
    _write_model(cfg, result.model, result.refined, sel.w_star)
    click.echo(f"C*={sel.c_star} w_A*={sel.w_star} refined={result.refined}")
    _write_metrics(cfg, result.model, dataset)


@main.command("verify-lemma")
@click.option("--trials", type=int, default=1000, show_default=True, help="Random instances, >= 1.")
@click.option("--seed", type=int, default=1, show_default=True, help="Seed of the draws, >= 0.")
@click.option("--max-y", type=int, default=4, show_default=True, help="Bound on |Y|, >= 2.")
@click.option("--max-outcomes", type=int, default=4, show_default=True,
              help="Bound on each task alphabet (max_a and max_b), >= 2.")
@_guarded
def verify_lemma_cmd(trials, seed, max_y, max_outcomes):
    """Brute-force check of the joint-vs-taskwise KL decomposition identity
    over random discrete instances; fails when any |residual| >= 1e-10."""
    worst = infotheory.residual_sweep(trials, seed, max_y, max_outcomes, max_outcomes)
    click.echo(f"max |residual| over {trials} trials: {worst:.3e}")
    if worst >= 1e-10:
        click.echo("FAIL: residual above 1e-10", err=True)
        raise SystemExit(6)
    click.echo("PASS")


def _study_setup(config_path, out, seed, tau, resamples, train_size) -> tuple:
    """Config, generator and run config of an oracle or sweep study."""
    cfg = _load_config(config_path, out=out, seed=seed, tau=tau,
                       **{"oracle.resamples": resamples, "oracle.train_size": train_size})
    gen = datagen.build_generator(_gen_config(cfg))
    return cfg, gen, _run_config(cfg, gen.n_classes, gen.input_dim, refine=False)


@main.command("oracle")
@config_opt
@out_opt
@seed_opt
@click.option("--grid-c", default=None, help="Comma-separated shared-depth candidates.")
@click.option("--grid-w", default=None, help="Comma-separated head-weight candidates.")
@click.option("--resamples", type=int, default=None, help="MC resamples per cell.")
@click.option("--train-size", type=int, default=None, help="Training-set size per resample.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel resample jobs.")
@tau_opt
@_guarded
def oracle_cmd(config_path, out, seed, grid_c, grid_w, resamples, train_size, jobs, tau):
    """MC risk over the (C, w_A) grid compared against the proxy by rank."""
    cfg, gen, rc = _study_setup(config_path, out, seed, tau, resamples, train_size)
    c_values = _parse_grid(grid_c, int) or tuple(range(rc.spec.depth + 1))
    w_values = _parse_grid(grid_w, float) or proxy.DEFAULT_W_GRID
    report = oracle.grid_compare(
        gen, rc, c_values, w_values,
        m_resamples=int(cfg["oracle"]["resamples"]),
        n_train=int(cfg["oracle"]["train_size"]),
        seed=int(cfg["seed"]) + 7,
        n_eval=int(cfg["oracle"]["eval_points"]),
        jobs=jobs,
    )
    csv_path = store.next_version_path(cfg["out"], "oracle_grid", ".csv")
    report.to_csv(csv_path)
    json_path = store.next_version_path(cfg["out"], "oracle_summary", ".json")
    json_path.write_text(report.to_json())
    rho = "undefined" if report.spearman_rho is None else f"{report.spearman_rho:.3f}"
    click.echo(f"spearman={rho} oracle_best={report.oracle_best} proxy_best={report.proxy_best}")
    click.echo(f"wrote {csv_path} and {json_path}")


@main.command("sweep")
@config_opt
@out_opt
@seed_opt
@click.option("--c", "c_fixed", type=int, default=None, help="Shared depth (default: full).")
@click.option("--grid-w", default=None, help="Comma-separated head-weight candidates.")
@click.option("--resamples", type=int, default=None, help="Seeds per weight.")
@click.option("--train-size", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@tau_opt
@_guarded
def sweep_cmd(config_path, out, seed, c_fixed, grid_w, resamples, train_size, jobs, tau):
    """Accuracy/risk versus head weight at a fixed shared depth."""
    cfg, gen, rc = _study_setup(config_path, out, seed, tau, resamples, train_size)
    c = rc.spec.depth if c_fixed is None else c_fixed
    w_values = _parse_grid(grid_w, float) or proxy.DEFAULT_W_GRID
    report = oracle.weight_sweep(
        gen, rc, c, w_values,
        m_resamples=int(cfg["oracle"]["resamples"]),
        n_train=int(cfg["oracle"]["train_size"]),
        seed=int(cfg["seed"]) + 7,
        n_eval=int(cfg["oracle"]["eval_points"]),
        eval_per_class=int(cfg["eval_per_class"]),
        jobs=jobs,
    )
    path = store.next_version_path(cfg["out"], "sweep", ".csv")
    report.to_csv(path)
    best = int(np.nanargmax(report.overall_mean))
    click.echo(f"best w_A={report.w_values[best]} overall={report.overall_mean[best]:.4f}")
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
