"""Command-line entry point.

Every command first resolves all of its inputs into one checked record,
`Inputs`: the defaults, the JSON file and the flag overrides (each of
the JSON type that `_FIELDS` gives its key; `_FLAGS` names the key each
flag sets, so the snapshot records it), the dataset and the upstream
containers when the command reads them, and the command's own flags
(--c, --c-star, --w-star, --data, --jobs). A command that reads a
container uses its model, not the config's: a dataset must fit it, and
assemble's two containers must hold one model. stage2's cell (C*, w_A*)
is its flags, a missing one from the latest selection file; assemble's
is its stage-2 container's; `_selected` reads both. Every grid
(--grid-c, --grid-w, select.*) must be nonempty, every depth (--grid-c,
--c, --c-star, c_star) lie in 0..L for the model's L trunk layers, every
weight (--grid-w, --w-star, w_star) in [0, 1], --jobs be >= 1, --data be
nonempty, and the run directory (--out, out) be a directory if it exists.
A refused input
exits 2 naming it (its flag, or its file and key), a missing dataset or
container exits 3, and an unreadable dataset or selection file, a
damaged container (a non-finite parameter or Fisher included) or a file
without the key the command reads (search: the stage-1 sample_count, N;
stage2 and assemble: an int c_star and a number w_star) exits 5 naming
the file and the key, each with nothing written. Only then does the
command write the config snapshot and its versioned artifacts. Exit
codes: 0 success, 2 configuration error, 3 missing upstream artifact, 4
training divergence, 5 data-format error, 6 verification check failed,
1 anything else. `tau` (--tau) is the one logit-adjustment setting; tau
0 trains without offsets.

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
    UNDECODABLE,
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
# Every flag but --config and verify-lemma's: the config key it sets (None:
# the command's own input, which `_resolve` reads), the cast of each entry
# of a grid flag's comma-separated text, and its click settings.
_Flag = namedtuple("_Flag", "key grid option")
_FLAGS = {
    "--out": _Flag("out", None, dict(help="Run directory.")),
    "--seed": _Flag("seed", None, dict(type=int, help="Master seed.")),
    "--tau": _Flag("tau", None, dict(type=float, help="Logit-adjustment temperature override.")),
    "--resamples": _Flag("oracle.resamples", None,
                         dict(type=int, help="MC resamples per oracle cell or sweep weight.")),
    "--train-size": _Flag("oracle.train_size", None, dict(type=int, help="Training-set size per resample.")),
    "--grid-c": _Flag("select.c_values", int, dict(help="Comma-separated select.c_values (shared depths).")),
    "--grid-w": _Flag("select.w_values", float, dict(help="Comma-separated select.w_values (head weights).")),
    "--no-refine": _Flag("refine.epochs", None, dict(is_flag=True, flag_value=0, default=None,
                                                     help="Skip decoder refinement: refine.epochs 0.")),
    "--data": _Flag(None, None, dict(type=click.Path(),
                                     help="External dataset CSV (default: latest dataset artifact).")),
    "--c-star": _Flag(None, None, dict(type=int, help="Override the selected shared depth.")),
    "--w-star": _Flag(None, None, dict(type=float, help="Override the selected head weight.")),
    "--c": _Flag(None, None, dict(type=int, help="Shared depth (default: full).")),
    "--jobs": _Flag(None, None, dict(type=int, default=1, show_default=True,
                                     help="Parallel resample jobs, >= 1; at most one worker per resample.")),
}


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


def _json_object(path: Path, error, what: str) -> dict:
    """The JSON object that the file at `path` holds, else `error` naming the file."""
    try:
        held = json.loads(path.read_text())
    except (OSError, *UNDECODABLE) as exc:  # OSError: a directory, say
        raise error(f"{path}: unreadable {what} ({type(exc).__name__}: {exc})") from None
    if not isinstance(held, dict):
        raise error(f"{path}: the {what} must be a JSON object, got {json.dumps(held)}")
    return held


def _merged(config_path, given: dict) -> dict:
    """The defaults, then the JSON file, then each given flag that sets a
    key (`_FLAGS`; a grid flag's text parsed first), each value set by `_set`."""
    overrides = {flag: value if _FLAGS[flag].grid is None
                 else _checked(flag, _parse_grid, value, _FLAGS[flag].grid)
                 for flag, value in given.items() if value is not None and _FLAGS[flag].key}
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy of the defaults
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise MissingArtifactError(f"config file not found: {path}")
        for key, value in _json_object(path, ConfigError, "config").items():
            _set(cfg, (key,), value)
    for flag, value in overrides.items():
        _checked(flag, _set, cfg, tuple(_FLAGS[flag].key.split(".")), value)
    return cfg


def _cast(cfg: dict, fields: dict = _FIELDS) -> dict:
    return {k: _cast(v, fields[k]) if isinstance(v, dict) else fields[k].cast(v) for k, v in cfg.items()}


def _checked(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), its refusal a config error that names the input."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, DomainError, StructuralError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _parse_grid(text, cast) -> list:
    try:
        return [cast(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None


def _selected(spec: ModelSpec, path, held: dict, flags=(None, None)) -> tuple:
    """The cell (C*, w_A*): each flag (--c-star, --w-star) given, else its
    key in `held`, read from `path` (a selection file or a stage-2
    container); a missing or ill-typed key exits 5, and each value is
    checked against the model (exit 2), naming its flag or file and key."""
    cell = []
    for key, field, flag, value in zip(("c_star", "w_star"), (_INT, _NUMBER),
                                       ("--c-star", "--w-star"), flags):
        name = flag
        if value is None:
            if key not in held:
                raise DataFormatError(f"{path}: no {key} in its metadata")
            value, name = held[key], f"{path}: {key}"
            if not field.test(value):
                raise DataFormatError(f"{name} must be {field.kind}, got {json.dumps(value)}")
        cell.append((name, value))
    (c_name, c), (w_name, w) = cell
    _checked(c_name, spec.encoder_params, c)
    return c, _checked(w_name, proxy.candidate_grid, spec, w_values=(w,))[1][0]


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
    c: int                        # sweep's --c (default: the trunk depth), or stage2's or assemble's C*
    w_star: float | None          # stage2's or assemble's w_A*
    study: dict | None            # oracle or sweep sizes, study seed and jobs
    upstream: dict                # each stem the command reads: its latest container, loaded


def _resolve(config_path, given: dict, *, reads_data=False, reads=(), study=None) -> Inputs:
    """Every input of a command, checked; only then the config snapshot.
    `given` maps the command's flags to their values (None: not given).
    A command reads the --data dataset when given one, else the latest
    dataset when it `reads_data`. `reads` names the stems of the
    containers a command loads; the first one's model is the command's,
    and a stage-2 container's metadata gives assemble's cell. Other
    commands size the config's model to the dataset when they read one,
    else to the generator. A command that takes --c-star and --w-star
    (stage2) reads a missing one from the latest selection file; `study`
    ("oracle" or "sweep") sizes a study, run on --jobs workers."""
    cfg = _merged(config_path, given)
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
    data_path = given.get("--data")
    if data_path == "":
        raise ConfigError("--data: the path is empty")
    if reads_data or data_path is not None:
        data_path = data_path or store.latest_version_path(t["out"], "dataset", ".csv")
    dataset = None if data_path is None else datagen.load_csv(data_path)
    # Built per call, so that a loader patched on `store` at run time is the one called.
    loaders = {"stage1": store.load_stage1, "stage2": store.load_params, "model": store.load_model}
    paths = {stem: store.latest_version_path(t["out"], stem, ".bin") for stem in reads}
    upstream = {stem: loaders[stem](path) for stem, path in paths.items()}
    counts, input_dim = ((gen.class_counts(), gen.input_dim) if dataset is None
                         else (dataset.class_counts, dataset.features.shape[1]))
    n_classes, split = len(counts), _checked("model", datagen.split_classes, counts)
    spec = _checked("model", ModelSpec, input_dim, t["model"]["trunk_widths"],
                    (len(split.head_classes), len(split.tail_classes)), t["model"]["activation"])
    if reads:  # the first container's model, which assemble's stage 2 and a dataset must fit
        spec = upstream["model"][0].spec if "model" in upstream else upstream[reads[0]][0]
        if "stage2" in upstream and upstream["stage2"][0] != spec:
            raise ConfigError(f"{paths['stage2']} and {paths['stage1']} hold different models: "
                              f"{upstream['stage2'][0]} and {spec}")
        if dataset is not None and (n_classes, input_dim) != (sum(spec.head_dims), spec.input_dim):
            raise ConfigError(f"{data_path} does not fit the model in {paths[reads[0]]}: {n_classes} classes "
                              f"of dimension {input_dim}, not {sum(spec.head_dims)} of {spec.input_dim}")
    named = {_FLAGS[flag].key: flag for flag, value in given.items() if value is not None}
    c_name, w_name = (named.get(key, key) for key in ("select.c_values", "select.w_values"))
    run = pipeline.RunConfig(
        spec, *opts, init_seed=seed + 1, tau=t["tau"],
        c_values=_checked(c_name, proxy.candidate_grid, spec, c_values=t["select"]["c_values"])[0],
        w_values=_checked(w_name, proxy.candidate_grid, spec, w_values=t["select"]["w_values"])[1])
    w_star = None
    if "stage2" in upstream:  # assemble works at the cell its stage-2 net was trained at
        c, w_star = _selected(spec, paths["stage2"], upstream["stage2"][-1])
    elif "--c-star" in given:
        selection = (given["--c-star"], given["--w-star"])
        path = store.latest_version_path(t["out"], "selection", ".json") if None in selection else None
        held = {} if path is None else _json_object(path, DataFormatError, "selection")
        c, w_star = _selected(spec, path, held, selection)
    elif given.get("--c") is None:
        c = spec.depth
    else:
        c = given["--c"]
        _checked("--c", spec.encoder_params, c)
    sizes = None
    if study is not None:
        jobs = given["--jobs"]
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        o = t["oracle"]
        sizes = {"m_resamples": o["resamples"], "n_train": o["train_size"], "seed": seed + 7,
                 "n_eval": o["eval_points"], "jobs": jobs}
        if study == "sweep":
            sizes["eval_per_class"] = t["eval_per_class"]
        oracle.check_study(o["resamples"], o["train_size"], o["eval_points"], sizes.get("eval_per_class"))
    out = Path(t["out"])
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{named.get('out', 'out')}: {existing} is not a directory")
    store.write_config_snapshot(t["out"], cfg)
    return Inputs(t["out"], seed, gen, run, t["holdout_fraction"], t["eval_per_class"], dataset,
                  c, w_star, sizes, upstream)


def _write_dataset(r: Inputs) -> tuple:
    """Generate the dataset; write its CSV and generator sidecar."""
    dataset = datagen.generate(r.gen)
    path = store.next_version_path(r.out, "dataset", ".csv")
    datagen.save_csv(dataset, path)
    return dataset, path


def _write_stage1(r: Inputs, td: pipeline.TaskData, s1: pipeline.Stage1Result) -> Path:
    path = store.next_version_path(r.out, "stage1", ".bin")
    store.save_stage1(path, r.run.spec, s1, td.split, td.priors)
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


@click.group()
def main():
    """Head/tail task decomposition lab: three-stage training, proxy-based
    structure selection, and generalization-error oracles."""


def _command(name: str, *flags: str, **reads):
    """Register the decorated body as the command `name` on `main`, with
    --config, --out, --seed and `flags`. Under `_guarded`, the command
    resolves its inputs, `_resolve(config_path, {flag: value}, **reads)`,
    and calls the body with them."""
    flags = ("--out", "--seed") + flags

    def register(body):
        @functools.wraps(body)
        @_guarded
        def command(config_path, **values):
            body(_resolve(config_path, {flag: values[flag[2:].replace("-", "_")] for flag in flags}, **reads))
        params = [click.Option(["--config", "config_path"], type=click.Path(),
                               help="JSON config file; flags override it.")]
        params += [click.Option([flag], **_FLAGS[flag].option) for flag in flags]
        return main.command(name, params=params)(command)
    return register


@_command("gen-data")
def gen_data_cmd(r):
    """Generate the long-tailed dataset and its generator sidecar."""
    dataset, path = _write_dataset(r)
    click.echo(f"wrote {path} (N={dataset.n}, K={dataset.n_classes})")


@_command("stage1", "--data", "--tau", reads_data=True)
def stage1_cmd(r):
    """Train both tasks independently and estimate their Fishers."""
    td = pipeline.build_task_data(r.dataset)
    t0 = time.perf_counter()
    s1 = pipeline.stage1(r.run, td)
    path = _write_stage1(r, td, s1)
    click.echo(f"wrote {path} ({time.perf_counter() - t0:.2f}s, "
               f"final losses A={s1.losses_a[-1]:.4f} B={s1.losses_b[-1]:.4f})")


@_command("search", "--grid-c", "--grid-w", reads=("stage1",))
def search_cmd(r):
    """Proxy grid search over saved Stage-1 statistics."""
    spec, s1 = r.upstream["stage1"][:2]
    t0 = time.perf_counter()
    grid = pipeline.select_structure(s1, s1.fisher_a.sample_count, spec, r.run.c_values, r.run.w_values)
    elapsed = time.perf_counter() - t0
    csv_path = _write_search(r, grid)
    click.echo(f"selected C*={grid.c_star} w_A*={grid.w_star} in {elapsed:.3f}s; wrote {csv_path}")


@_command("stage2", "--data", "--tau", "--c-star", "--w-star", reads_data=True)
def stage2_cmd(r):
    """Weighted joint training at the selected (C*, w_A*)."""
    res = pipeline.stage2(r.run, pipeline.build_task_data(r.dataset), r.w_star)
    path = _write_stage2(r, res, r.c, r.w_star)
    click.echo(f"wrote {path} (final joint loss {res.epoch_losses[-1]:.4f})")


@_command("assemble", reads=("stage1", "stage2"))
def assemble_cmd(r):
    """Splice the Stage-2 encoder onto the Stage-1 decoders."""
    spec, s1, split = r.upstream["stage1"][:3]
    model = pipeline.assemble(spec, r.c, r.upstream["stage2"][1], s1, split)
    path = _write_model(r, model, False, r.w_star)
    click.echo(f"wrote {path} (C={model.c})")


@_command("refine", "--data", "--tau", reads_data=True, reads=("model",))
def refine_cmd(r):
    """Fine-tune only the decoders of the latest model, encoder frozen."""
    model, meta = r.upstream["model"]
    td = pipeline.build_task_data(r.dataset, model.split)
    refined = pipeline.refine_decoders(model, td, r.run)
    epochs = r.run.refine_opt.epochs
    path = _write_model(r, refined, epochs > 0, meta.get("w_star"))
    click.echo(f"wrote {path} (refined {epochs} epochs)")


@_command("eval", "--data", reads_data=True, reads=("model",))
def eval_cmd(r):
    """Metrics of the latest model: overall/head/tail accuracy, task BCE."""
    model, _ = r.upstream["model"]
    click.echo(f"wrote {_write_metrics(r, model, r.dataset)}")


@_command("full-run", "--data", "--tau", "--no-refine")
def full_run_cmd(r):
    """The whole pipeline: data, Stage 1, search, Stage 2, assembly,
    optional refinement, and metrics."""
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
    outcomes = ("--max-outcomes", max_outcomes)
    infotheory.check_sweep(("--trials", trials), ("--seed", seed), ("--max-y", max_y), outcomes, outcomes)
    worst = infotheory.residual_sweep(trials, seed, max_y, max_outcomes, max_outcomes)
    click.echo(f"max |residual| over {trials} trials: {worst:.3e}")
    if worst >= 1e-10:
        click.echo("FAIL: residual above 1e-10", err=True)
        raise SystemExit(6)
    click.echo("PASS")


@_command("oracle", "--grid-c", "--grid-w", "--resamples", "--train-size", "--jobs", "--tau", study="oracle")
def oracle_cmd(r):
    """MC risk over the (C, w_A) grid compared against the proxy by rank."""
    gen = datagen.build_generator(r.gen)
    report = oracle.grid_compare(gen, r.run, r.run.c_values, r.run.w_values, **r.study)
    csv_path = store.next_version_path(r.out, "oracle_grid", ".csv")
    report.to_csv(csv_path)
    json_path = store.next_version_path(r.out, "oracle_summary", ".json")
    json_path.write_text(report.to_json())
    rho = "undefined" if report.spearman_rho is None else f"{report.spearman_rho:.3f}"
    click.echo(f"spearman={rho} oracle_best={report.oracle_best} proxy_best={report.proxy_best}")
    click.echo(f"wrote {csv_path} and {json_path}")


@_command("sweep", "--c", "--grid-w", "--resamples", "--train-size", "--jobs", "--tau", study="sweep")
def sweep_cmd(r):
    """Accuracy/risk versus head weight at a fixed shared depth."""
    gen = datagen.build_generator(r.gen)
    report = oracle.weight_sweep(gen, r.run, r.c, r.run.w_values, **r.study)
    path = store.next_version_path(r.out, "sweep", ".csv")
    report.to_csv(path)
    overall = np.where(report.valid, report.overall_mean, np.nan)
    if np.isnan(overall).all():   # no weight where 80% of the resamples succeeded
        click.echo("best w_A=undefined")
    else:
        best = int(np.nanargmax(overall))
        click.echo(f"best w_A={report.w_values[best]} overall={report.overall_mean[best]:.4f}")
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
