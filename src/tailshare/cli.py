"""Command-line entry point.

Every command first resolves all of its inputs into one checked record,
`Inputs`: the defaults, the JSON file and the flag overrides (each value
of the JSON type that `_FIELDS` gives its key), the dataset and the
upstream containers when the command reads them, and the command's own
flags. A command that reads a container uses its model, not the
config's: a dataset must fit it in input width and class count, and
assemble's two containers must share one layout. Flag rules: --jobs >= 1,
every grid (--grid-c, --grid-w, select.*) nonempty, every depth
(--grid-c, --c, --c-star, the stage-2 container's c_star) in 0..L for
the model's L trunk layers, every weight (--grid-w, --w-star, the
stage-2 container's w_star) in [0, 1]. A refused input exits 2 naming
it, a missing dataset or container exits 3, and an unreadable
selection file, a damaged container or one without the metadata the
command reads (search: the stage-1 n_train; assemble: the stage-2
c_star and w_star) exits 5, each with nothing written. Only then does
the command write the resolved config snapshot and its versioned
artifacts into the run directory. Exit codes: 0 success, 2
configuration error, 3 missing upstream artifact, 4 training
divergence, 5 data-format error, 6 verification check failed, 1
anything else. `tau` (--tau) is the one logit-adjustment setting; tau 0
trains without offsets.

Seed derivation from the master seed: generator = seed, init = seed + 1,
stage1 shuffle = seed + 2, stage2 shuffle = seed + 3, refine shuffle =
seed + 4, holdout = seed + 5, evaluation draws = seed + 6, oracle study
seed = seed + 7.
"""
from __future__ import annotations

import functools
from collections import namedtuple
import json
import math
import time
from dataclasses import dataclass
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


# A config key's JSON type as messages name it, the test of that type, and
# the cast that gives its resolved value (numbers become floats).
_Field = namedtuple("_Field", "kind test cast", defaults=(lambda v: v,))
_INT = _Field("an int", lambda v: type(v) is int)  # JSON's true and false are not ints
_NUMBER = _Field("a number", lambda v: type(v) in (int, float), float)
_STR = _Field("a string", lambda v: isinstance(v, str))
_OPT = {"learning_rate": _NUMBER, "momentum": _NUMBER, "epochs": _INT, "batch_size": _INT}
# The field of every config key; a section maps its keys to their fields.
_FIELDS = {
    "out": _STR,
    "seed": _INT,
    "generator": {"n_classes": _INT, "input_dim": _INT, "imbalance_ratio": _NUMBER, "n_max": _INT,
                  "class_mean_scale": _NUMBER, "noise_sigma": _NUMBER},
    "model": {"trunk_widths": _Field("a nonempty list of positive ints", lambda v: isinstance(v, list)
                                     and v != [] and all(_INT.test(w) and w >= 1 for w in v)),
              "activation": _STR},
    "stage1": _OPT,
    "stage2": _OPT,
    "refine": _OPT,
    "select": {"c_values": _Field("null or a list of ints", lambda v: v is None
                                  or isinstance(v, list) and all(map(_INT.test, v))),
               "w_values": _Field("null or a list of numbers", lambda v: v is None
                                  or isinstance(v, list) and all(map(_NUMBER.test, v)))},
    "tau": _NUMBER,
    "holdout_fraction": _NUMBER,
    "eval_per_class": _INT,
    "oracle": {"resamples": _INT, "train_size": _INT, "eval_points": _INT},
}
# The container metadata a command reads, by key: the stem of the container
# that holds it and its field. Only the CLI's writers add these keys.
_META = {"n_train": ("stage1", _Field("an int >= 1", lambda v: _INT.test(v) and v >= 1)),
         "c_star": ("stage2", _INT), "w_star": ("stage2", _NUMBER)}


def _set(cfg: dict, path: tuple, value) -> None:
    """Store `value` at the key `path` if it has the JSON type of its field.
    Numbers must be finite: Python's json reads NaN and Infinity."""
    node, fields = cfg, _FIELDS
    for part in path[:-1]:
        node, fields = node[part], fields[part]
    key, field = ".".join(path), fields.get(path[-1])
    if field is None:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(field, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key} must be an object, got {json.dumps(value)}")
        for sub, sval in value.items():
            _set(cfg, path + (sub,), sval)
        return
    if not field.test(value):
        raise ConfigError(f"config key {key} must be {field.kind}, got {json.dumps(value)}")
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in (value if isinstance(value, list) else [value])):
        raise ConfigError(f"config key {key} must be finite, got {json.dumps(value)}")
    node[path[-1]] = value


def _merged(config_path, overrides: dict) -> dict:
    """The defaults, then the JSON file, then the flag overrides (dotted
    keys reach into sections), each value set by `_set`."""
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
            _set(cfg, (key,), value)
    for key, value in overrides.items():
        if value is not None:
            _set(cfg, tuple(key.split(".")), value)
    return cfg


def _cast(cfg: dict, fields: dict = _FIELDS) -> dict:
    return {k: _cast(v, fields[k]) if isinstance(v, dict) else fields[k].cast(v) for k, v in cfg.items()}


def _checked(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), its refusal a config error that names the input."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, DomainError, StructuralError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _parse_grid(text: str, cast) -> tuple:
    try:
        return tuple(cast(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None


def _selected(out: str, spec: ModelSpec, c_star, w_star) -> tuple:
    """stage2's (C*, w_A*): the flags, a missing one from the latest
    selection, each checked against the model."""
    names = ["--c-star", "--w-star"]
    if c_star is None or w_star is None:
        path = store.latest_version_path(out, "selection", ".json")
        try:
            sel = json.loads(path.read_text())
            file_c, file_w = sel["c_star"], sel["w_star"]
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}: unreadable selection ({type(exc).__name__}: {exc})") from None
        if not (_INT.test(file_c) and _NUMBER.test(file_w)):
            raise DataFormatError(f"{path}: c_star must be an int and w_star a number, "
                                  f"got {json.dumps(file_c)} and {json.dumps(file_w)}")
        if c_star is None:
            c_star, names[0] = file_c, path.name
        if w_star is None:
            w_star, names[1] = file_w, path.name
    _checked(names[0], spec.encoder_params, c_star)
    return c_star, _checked(names[1], proxy.candidate_grid, spec, w_values=(w_star,))[1][0]


@dataclass(frozen=True)
class Inputs:
    """A command's inputs, resolved and checked before it writes anything."""

    out: str
    seed: int
    gen: datagen.GenConfig
    run: pipeline.RunConfig       # the model (see _resolve) and the grids
    holdout_fraction: float
    eval_per_class: int
    dataset: datagen.LongTailDataset | None
    c: int                        # sweep's --c (default: the trunk depth) or stage2's C*
    w_star: float | None          # stage2's w_A*
    study: dict | None            # oracle or sweep sizes, study seed and jobs
    upstream: dict                # each stem the command reads: its latest container, loaded
    meta: dict                    # the container metadata the command needs, by key


def _resolve(config_path, overrides: dict, *, data=None, reads_data=False, reads=(), needs=(),
             refine=False, grid_c=None, grid_w=None, c=None, selection=None, jobs=None,
             sweep=False) -> Inputs:
    """Every input of a command, checked; only then the config snapshot.
    `reads` names the stems of the containers a command loads; the first
    one's model is the command's. `needs` names the `_META` keys the
    command takes from their metadata; a missing or ill-typed key exits 5
    naming the file. Other commands size the config's model to the
    dataset when they `reads_data`, else to the generator.
    `selection` is stage2's (--c-star, --w-star); `jobs` marks an oracle
    or (with `sweep`) a weight-sweep study."""
    cfg = _merged(config_path, overrides)
    t = _cast(cfg)
    seed = t["seed"]
    # The rules that only the CLI applies. Metrics are scored after
    # training, so their settings are checked before anything runs.
    for key, value, ok, rule in (
            ("seed", seed, seed >= 0, "be >= 0"),
            ("holdout_fraction", cfg["holdout_fraction"], 0.0 <= t["holdout_fraction"] <= 1.0,
             "lie in [0, 1]"),
            ("eval_per_class", t["eval_per_class"], t["eval_per_class"] >= 0, "be >= 0"),
            ("stage1.epochs", t["stage1"]["epochs"], t["stage1"]["epochs"] >= 1, "be >= 1"),
            ("stage2.epochs", t["stage2"]["epochs"], t["stage2"]["epochs"] >= 1, "be >= 1")):
        if not ok:
            raise ConfigError(f"{key} must {rule}, got {value}")
    gen = _checked("generator", datagen.GenConfig, **t["generator"], seed=seed)
    opts = [_checked(section, OptConfig, **t[section], seed=seed + offset)
            for section, offset in (("stage1", 2), ("stage2", 3), ("refine", 4))]
    data_path = (data or store.latest_version_path(t["out"], "dataset", ".csv")) if reads_data else None
    dataset = datagen.load_csv(data_path) if reads_data else None
    # Built per call, so that a loader patched on `store` at run time is the one called.
    loaders = {"stage1": store.load_stage1, "stage2": store.load_params, "model": store.load_model}
    paths = {stem: store.latest_version_path(t["out"], stem, ".bin") for stem in reads}
    upstream = {stem: loaders[stem](path) for stem, path in paths.items()}
    n_classes, input_dim = ((gen.n_classes, gen.input_dim) if dataset is None
                            else (dataset.n_classes, dataset.features.shape[1]))
    head = (n_classes + 1) // 2
    spec = _checked("model", ModelSpec, input_dim, t["model"]["trunk_widths"],
                    (head, n_classes - head), t["model"]["activation"])
    if reads:  # the first container's model, which assemble's stage 2 and a dataset must fit
        spec = upstream["model"][0].spec if "model" in upstream else upstream[reads[0]][0]
        if "stage2" in upstream and upstream["stage2"][0].block_table() != spec.block_table():
            raise ConfigError(f"{paths['stage2']} and {paths['stage1']} hold networks of different layouts")
        if dataset is not None and (n_classes, input_dim) != (sum(spec.head_dims), spec.input_dim):
            raise ConfigError(f"{data_path} does not fit the model in {paths[reads[0]]}: {n_classes} classes "
                              f"of dimension {input_dim}, not {sum(spec.head_dims)} of {spec.input_dim}")
    meta = {}
    for key in needs:
        stem, field = _META[key]
        held = upstream[stem][-1]
        if key not in held:
            raise DataFormatError(f"{paths[stem]}: no {key} in the container's metadata")
        if not field.test(held[key]):
            raise DataFormatError(f"{paths[stem]}: {key} must be {field.kind}, got {json.dumps(held[key])}")
        meta[key] = held[key]
    if "c_star" in meta:
        _checked(f"{paths['stage2']}: c_star", spec.encoder_params, meta["c_star"])
    if "w_star" in meta:
        _checked(f"{paths['stage2']}: w_star", proxy.candidate_grid, spec, w_values=(meta["w_star"],))
    select = t["select"]
    c_name, c_values = (("select.c_values", select["c_values"]) if grid_c is None
                        else ("--grid-c", _parse_grid(grid_c, int)))
    w_name, w_values = (("select.w_values", select["w_values"]) if grid_w is None
                        else ("--grid-w", _parse_grid(grid_w, float)))
    run = pipeline.RunConfig(
        spec, *opts, init_seed=seed + 1, tau=t["tau"], refine=refine,
        c_values=_checked(c_name, proxy.candidate_grid, spec, c_values=c_values)[0],
        w_values=_checked(w_name, proxy.candidate_grid, spec, w_values=w_values)[1])
    w_star = None
    if selection is not None:
        c, w_star = _selected(t["out"], spec, *selection)
    elif c is None:
        c = spec.depth
    else:
        _checked("--c", spec.encoder_params, c)
    study = None
    if jobs is not None:
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        o = t["oracle"]
        study = {"m_resamples": o["resamples"], "n_train": o["train_size"], "seed": seed + 7,
                 "n_eval": o["eval_points"], "jobs": jobs}
        if sweep:
            study["eval_per_class"] = t["eval_per_class"]
        oracle.check_study(o["resamples"], o["train_size"], o["eval_points"], study.get("eval_per_class"))
    store.write_config_snapshot(t["out"], cfg)
    return Inputs(t["out"], seed, gen, run, t["holdout_fraction"], t["eval_per_class"], dataset,
                  c, w_star, study, upstream, meta)


def _write_dataset(r: Inputs) -> tuple:
    """Generate the dataset; write its CSV and generator sidecar."""
    dataset = datagen.generate(r.gen)
    path = store.next_version_path(r.out, "dataset", ".csv")
    datagen.save_csv(dataset, path)
    return dataset, path


def _write_stage1(r: Inputs, td: pipeline.TaskData, s1: pipeline.Stage1Result) -> Path:
    path = store.next_version_path(r.out, "stage1", ".bin")
    store.save_stage1(path, r.run.spec, s1, td.split, td.priors, {"n_train": td.n})
    return path


def _write_search(r: Inputs, grid: proxy.GridSearchResult) -> Path:
    """The proxy grid CSV and the selection JSON; returns the CSV path.
    The selection holds no wall-clock value, so reruns match byte for byte."""
    csv_path = store.next_version_path(r.out, "proxy_grid", ".csv")
    grid.to_csv(csv_path)
    store.next_version_path(r.out, "selection", ".json").write_text(json.dumps({
        "format": "tailshare-selection-v1",
        "c_star": grid.c_star,
        "w_star": grid.w_star,
        "c_values": list(grid.c_values),
        "w_values": list(grid.w_values),
    }, sort_keys=True, indent=1))
    return csv_path


def _write_stage2(r: Inputs, res: TrainResult, c_star: int, w_star: float) -> Path:
    path = store.next_version_path(r.out, "stage2", ".bin")
    store.save_params(path, r.run.spec, res.params,
                      {"w_star": w_star, "c_star": c_star, "final_loss": res.epoch_losses[-1]})
    return path


def _write_model(r: Inputs, model: pipeline.AssembledModel, refined: bool, w_star) -> Path:
    path = store.next_version_path(r.out, "model", ".bin")
    store.save_model(path, model, {"refined": refined, "w_star": w_star})
    return path


def _write_metrics(r: Inputs, model: pipeline.AssembledModel, dataset: datagen.LongTailDataset) -> Path:
    """Score the model on the holdout split and, when the generator is
    known, on a balanced draw; write the metrics CSV and echo each set. A
    set without rows (holdout_fraction or eval_per_class 0) has no row."""
    rows = []
    test_ds = datagen.holdout_split(dataset, r.holdout_fraction, r.seed + 5)[1]
    if test_ds.n > 0:
        rows.append(("holdout", pipeline.evaluate(model, test_ds.features, test_ds.labels).as_dict()))
    if dataset.generator is not None and r.eval_per_class > 0:
        rng = np.random.default_rng(r.seed + 6)
        feats, labels = dataset.generator.sample_balanced(r.eval_per_class, rng)
        rows.append(("balanced", pipeline.evaluate(model, feats, labels).as_dict()))
    path = store.next_version_path(r.out, "metrics", ".csv")
    store.write_metrics_csv(path, rows)
    for name, rep in rows:
        click.echo(f"{name}: overall={rep['overall_accuracy']:.4f} "
                   f"head={rep['head_accuracy']:.4f} tail={rep['tail_accuracy']:.4f}")
    return path


def config_opts(fn):
    """--config, --out and --seed, which every command but verify-lemma takes."""
    fn = click.option("--seed", type=int, default=None, help="Master seed.")(fn)
    fn = click.option("--out", default=None, help="Run directory.")(fn)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="JSON config file; flags override it.")(fn)


data_opt = click.option("--data", type=click.Path(), default=None,
                        help="External dataset CSV (default: latest dataset artifact).")
tau_opt = click.option("--tau", type=float, default=None,
                       help="Logit-adjustment temperature override.")
grid_c_opt = click.option("--grid-c", default=None, help="Comma-separated shared-depth candidates.")
grid_w_opt = click.option("--grid-w", default=None, help="Comma-separated head-weight candidates.")


@click.group()
def main():
    """Head/tail task decomposition lab: three-stage training, proxy-based
    structure selection, and generalization-error oracles."""


@main.command("gen-data")
@config_opts
@_guarded
def gen_data_cmd(config_path, out, seed):
    """Generate the long-tailed dataset and its generator sidecar."""
    r = _resolve(config_path, dict(out=out, seed=seed))
    dataset, path = _write_dataset(r)
    click.echo(f"wrote {path} (N={dataset.n}, K={dataset.n_classes})")


@main.command("stage1")
@config_opts
@data_opt
@tau_opt
@_guarded
def stage1_cmd(config_path, out, seed, data, tau):
    """Train both tasks independently and estimate their Fishers."""
    r = _resolve(config_path, dict(out=out, seed=seed, tau=tau), data=data, reads_data=True)
    td = pipeline.build_task_data(r.dataset)
    t0 = time.perf_counter()
    s1 = pipeline.stage1(r.run, td)
    path = _write_stage1(r, td, s1)
    click.echo(f"wrote {path} ({time.perf_counter() - t0:.2f}s, "
               f"final losses A={s1.losses_a[-1]:.4f} B={s1.losses_b[-1]:.4f})")


@main.command("search")
@config_opts
@grid_c_opt
@grid_w_opt
@_guarded
def search_cmd(config_path, out, seed, grid_c, grid_w):
    """Proxy grid search over saved Stage-1 statistics."""
    r = _resolve(config_path, dict(out=out, seed=seed), reads=("stage1",), needs=("n_train",),
                 grid_c=grid_c, grid_w=grid_w)
    spec, s1 = r.upstream["stage1"][:2]
    t0 = time.perf_counter()
    grid = pipeline.select_structure(s1, r.meta["n_train"], spec, r.run.c_values, r.run.w_values)
    elapsed = time.perf_counter() - t0
    csv_path = _write_search(r, grid)
    click.echo(f"selected C*={grid.c_star} w_A*={grid.w_star} in {elapsed:.3f}s; wrote {csv_path}")


@main.command("stage2")
@config_opts
@data_opt
@tau_opt
@click.option("--c-star", type=int, default=None, help="Override the selected shared depth.")
@click.option("--w-star", type=float, default=None, help="Override the selected head weight.")
@_guarded
def stage2_cmd(config_path, out, seed, data, tau, c_star, w_star):
    """Weighted joint training at the selected (C*, w_A*)."""
    r = _resolve(config_path, dict(out=out, seed=seed, tau=tau), data=data, reads_data=True,
                 selection=(c_star, w_star))
    res = pipeline.stage2(r.run, pipeline.build_task_data(r.dataset), r.w_star)
    path = _write_stage2(r, res, r.c, r.w_star)
    click.echo(f"wrote {path} (final joint loss {res.epoch_losses[-1]:.4f})")


@main.command("assemble")
@config_opts
@_guarded
def assemble_cmd(config_path, out, seed):
    """Splice the Stage-2 encoder onto the Stage-1 decoders."""
    r = _resolve(config_path, dict(out=out, seed=seed), reads=("stage1", "stage2"),
                 needs=("c_star", "w_star"))
    spec, s1, split, priors, _ = r.upstream["stage1"]
    model = pipeline.assemble(spec, r.meta["c_star"], r.upstream["stage2"][1], s1, split, priors)
    path = _write_model(r, model, False, r.meta["w_star"])
    click.echo(f"wrote {path} (C={model.c})")


@main.command("refine")
@config_opts
@data_opt
@tau_opt
@_guarded
def refine_cmd(config_path, out, seed, data, tau):
    """Fine-tune only the decoders of the latest model, encoder frozen."""
    r = _resolve(config_path, dict(out=out, seed=seed, tau=tau), data=data, reads_data=True,
                 reads=("model",))
    model, meta = r.upstream["model"]
    td = pipeline.build_task_data(r.dataset, model.split)
    opt = r.run.refine_opt
    refined = pipeline.refine_decoders(model, td, opt, r.run.tau)
    path = _write_model(r, refined, opt.epochs > 0, meta.get("w_star"))
    click.echo(f"wrote {path} (refined {opt.epochs} epochs)")


@main.command("eval")
@config_opts
@data_opt
@_guarded
def eval_cmd(config_path, out, seed, data):
    """Metrics of the latest model: overall/head/tail accuracy, task BCE."""
    r = _resolve(config_path, dict(out=out, seed=seed), data=data, reads_data=True, reads=("model",))
    model, _ = r.upstream["model"]
    click.echo(f"wrote {_write_metrics(r, model, r.dataset)}")


@main.command("full-run")
@config_opts
@data_opt
@tau_opt
@click.option("--no-refine", is_flag=True, default=False, help="Skip decoder refinement.")
@_guarded
def full_run_cmd(config_path, out, seed, data, tau, no_refine):
    """The whole pipeline: data, Stage 1, search, Stage 2, assembly,
    optional refinement, and metrics."""
    r = _resolve(config_path, dict(out=out, seed=seed, tau=tau), data=data,
                 reads_data=data is not None, refine=not no_refine)
    dataset = _write_dataset(r)[0] if r.dataset is None else r.dataset
    result = pipeline.full_run(r.run, dataset)
    sel = result.selection
    _write_stage1(r, result.task_data, result.stage1)
    _write_search(r, sel)
    _write_stage2(r, result.stage2, sel.c_star, sel.w_star)
    _write_model(r, result.model, result.refined, sel.w_star)
    click.echo(f"C*={sel.c_star} w_A*={sel.w_star} refined={result.refined}")
    _write_metrics(r, result.model, dataset)


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


@main.command("oracle")
@config_opts
@grid_c_opt
@grid_w_opt
@click.option("--resamples", type=int, default=None, help="MC resamples per cell.")
@click.option("--train-size", type=int, default=None, help="Training-set size per resample.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel resample jobs, >= 1.")
@tau_opt
@_guarded
def oracle_cmd(config_path, out, seed, grid_c, grid_w, resamples, train_size, jobs, tau):
    """MC risk over the (C, w_A) grid compared against the proxy by rank."""
    r = _resolve(config_path, {"out": out, "seed": seed, "tau": tau, "oracle.resamples": resamples,
                               "oracle.train_size": train_size}, grid_c=grid_c, grid_w=grid_w, jobs=jobs)
    gen = datagen.build_generator(r.gen)
    report = oracle.grid_compare(gen, r.run, r.run.c_values, r.run.w_values, **r.study)
    csv_path = store.next_version_path(r.out, "oracle_grid", ".csv")
    report.to_csv(csv_path)
    json_path = store.next_version_path(r.out, "oracle_summary", ".json")
    json_path.write_text(report.to_json())
    rho = "undefined" if report.spearman_rho is None else f"{report.spearman_rho:.3f}"
    click.echo(f"spearman={rho} oracle_best={report.oracle_best} proxy_best={report.proxy_best}")
    click.echo(f"wrote {csv_path} and {json_path}")


@main.command("sweep")
@config_opts
@click.option("--c", "c_fixed", type=int, default=None, help="Shared depth (default: full).")
@grid_w_opt
@click.option("--resamples", type=int, default=None, help="Seeds per weight.")
@click.option("--train-size", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True, help="Parallel resample jobs, >= 1.")
@tau_opt
@_guarded
def sweep_cmd(config_path, out, seed, c_fixed, grid_w, resamples, train_size, jobs, tau):
    """Accuracy/risk versus head weight at a fixed shared depth."""
    r = _resolve(config_path, {"out": out, "seed": seed, "tau": tau, "oracle.resamples": resamples,
                               "oracle.train_size": train_size}, grid_w=grid_w, c=c_fixed, jobs=jobs,
                 sweep=True)
    gen = datagen.build_generator(r.gen)
    report = oracle.weight_sweep(gen, r.run, r.c, r.run.w_values, **r.study)
    path = store.next_version_path(r.out, "sweep", ".csv")
    report.to_csv(path)
    if np.isnan(report.overall_mean).all():   # every resample failed at every weight
        click.echo("best w_A=undefined")
    else:
        best = int(np.nanargmax(report.overall_mean))
        click.echo(f"best w_A={report.w_values[best]} overall={report.overall_mean[best]:.4f}")
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
