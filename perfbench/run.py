"""Benchmark of tailshare: the oracle resample, the CLI stage chain and the
million-entry proxy search.

    python3 perfbench/run.py --workload oracle_ref --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (setup_s, unit_s, peak_rss_mb); with --trace 1 they are
the per-layer ones from a separate traced run. See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: one thread per process keeps
# the figures steady on a small shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
IMPORT_SAMPLES = 3
SETUP_SAMPLES = 3


def median(values):
    return float(statistics.median(values))


def fresh_import_s():
    """Median wall time of `import tailshare` in fresh interpreters,
    interpreter start included."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tailshare"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return median(times)


def machine_rates():
    """Single-process dgemm and memory-copy rates, for reading layer rates
    against this machine's roofline."""
    rng = np.random.default_rng(0)
    a, b = rng.random((512, 512)), rng.random((512, 512))
    src = np.ones(8 * 2 ** 20)
    dst = np.empty_like(src)
    gemm, copy = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        a @ b
        gemm.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy.append(time.perf_counter() - t0)
    return {
        "machine.dgemm_gflop_per_s": 2 * 512 ** 3 / median(gemm) / 1e9,
        "machine.copy_gb_per_s": 2 * src.nbytes / median(copy) / 1e9,
    }


# --- per-layer metrics ------------------------------------------------------
# Each entry: (metric, unit, function of one traced unit's stats). Counts
# come from the first traced unit; times and rates are medians over units.

def _get(stats, name):
    return stats.get(name) or tracing.Stat()


def _calls(name):
    return lambda s: _get(s, name).calls


def _self(name):
    return lambda s: _get(s, name).self_s


def _total(name):
    return lambda s: _get(s, name).total_s


def _qty(name, key):
    return lambda s: _get(s, name).qty.get(key, 0)


def _mb(name):
    return lambda s: _get(s, name).qty.get("bytes", 0) / 1e6


def _rate(name, key, scale):
    """Quantity per second of the span's inclusive time."""
    def fn(s):
        st = _get(s, name)
        return st.qty.get(key, 0) * scale / st.total_s if st.total_s > 0 else 0.0
    return fn


def _us_per_call(name):
    def fn(s):
        st = _get(s, name)
        return st.total_s / st.calls * 1e6 if st.calls else 0.0
    return fn


CLI_COMMANDS = ("gen-data", "stage1", "search", "stage2", "assemble", "refine", "eval",
                "full-run", "verify-lemma")

LAYER_METRICS = [
    ("nn.train.calls", "count", _calls("nn.train")),
    ("nn.train.self_s", "s", _self("nn.train")),
    ("nn.bce_loss_grad.calls", "count", _calls("nn.bce_loss_grad")),
    ("nn.bce_loss_grad.rows", "count", _qty("nn.bce_loss_grad", "rows")),
    ("nn.bce_loss_grad.self_s", "s", _self("nn.bce_loss_grad")),
    ("nn.bce_loss_grad.us_per_call", "us", _us_per_call("nn.bce_loss_grad")),
    ("nn.bce_loss_grad.gflop_per_s", "GFLOP/s", _rate("nn.bce_loss_grad", "flop", 1e-9)),
    ("nn.forward.calls", "count", _calls("nn.forward")),
    ("nn.forward.self_s", "s", _self("nn.forward")),
    ("datagen.posterior.calls", "count", _calls("datagen.posterior")),
    ("datagen.posterior.rows", "count", _qty("datagen.posterior", "rows")),
    ("datagen.posterior.self_s", "s", _self("datagen.posterior")),
    ("infotheory.taskwise_risk.calls", "count", _calls("infotheory.taskwise_risk")),
    ("infotheory.taskwise_risk.self_s", "s", _self("infotheory.taskwise_risk")),
    ("infotheory.residual_sweep.self_s", "s", _self("infotheory.residual_sweep")),
    ("pipeline.stage1.calls", "count", _calls("pipeline.stage1")),
    ("pipeline.stage1.self_s", "s", _self("pipeline.stage1")),
    ("pipeline.stage2.calls", "count", _calls("pipeline.stage2")),
    ("pipeline.stage2.self_s", "s", _self("pipeline.stage2")),
    ("pipeline.assemble.calls", "count", _calls("pipeline.assemble")),
    ("pipeline.refine_decoders.self_s", "s", _self("pipeline.refine_decoders")),
    ("pipeline.evaluate.self_s", "s", _self("pipeline.evaluate")),
    ("pipeline.select_structure.self_s", "s", _self("pipeline.select_structure")),
    ("oracle.grid_compare.self_s", "s", _self("oracle.grid_compare")),
    ("proxy.estimate_diag_fisher.self_s", "s", _self("proxy.estimate_diag_fisher")),
    ("proxy.estimate_diag_fisher.gflop_per_s", "GFLOP/s",
     _rate("proxy.estimate_diag_fisher", "flop", 1e-9)),
    ("proxy.grid_search.self_s", "s", _self("proxy.grid_search")),
    ("proxy.grid_search.cells", "count", _qty("proxy.grid_search", "cells")),
    ("proxy.grid_search.gb_per_s", "GB/s", _rate("proxy.grid_search", "bytes", 1e-9)),
    ("store.save_container.self_s", "s", _self("store.save_container")),
    ("store.save_container.mb", "MB", _mb("store.save_container")),
    ("store.load_container.self_s", "s", _self("store.load_container")),
    ("store.load_container.mb", "MB", _mb("store.load_container")),
    ("store.next_version_path.calls", "count", _calls("store.next_version_path")),
    ("store.next_version_path.self_s", "s", _self("store.next_version_path")),
    ("datagen.save_csv.self_s", "s", _self("datagen.save_csv")),
    ("datagen.load_csv.calls", "count", _calls("datagen.load_csv")),
    ("datagen.load_csv.self_s", "s", _self("datagen.load_csv")),
    ("datagen.load_csv.rows_per_s", "rows/s", _rate("datagen.load_csv", "rows", 1.0)),
] + [(f"cli.{c}.s", "s", _total(f"cli.{c}")) for c in CLI_COMMANDS] + [
    ("trace.unit_s", "s", _total("bench.unit")),
    ("trace.self_sum_s", "s",
     lambda s: sum(st.self_s for name, st in s.items() if name != "bench.unit")),
]
COUNT_UNITS = ("count", "MB")
# Per-layer metrics measured outside the traced units.
OTHER_LAYER_METRICS = (("trace.overhead_s", "s"), ("setup.import_s", "s"),
                       ("machine.dgemm_gflop_per_s", "GFLOP/s"), ("machine.copy_gb_per_s", "GB/s"))
END_TO_END = {"setup_s": "s", "unit_s": "s", "peak_rss_mb": "MB"}


def layer_metric_names():
    return [m[0] for m in LAYER_METRICS] + [m[0] for m in OTHER_LAYER_METRICS]


def layer_metrics(unit_stats, untraced_unit_s, import_s):
    out = {}
    for name, unit, fn in LAYER_METRICS:
        values = [fn(s) for s in unit_stats]
        out[name] = values[0] if unit in COUNT_UNITS else median(values)
    out["trace.overhead_s"] = out["trace.unit_s"] - untraced_unit_s
    out["setup.import_s"] = import_s
    out.update(machine_rates())
    units = {m[0]: m[1] for m in LAYER_METRICS} | dict(OTHER_LAYER_METRICS)
    return {name: (value, units[name]) for name, value in out.items()}


# --- running units ------------------------------------------------------------

class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()


def run_units(workload, tracer, seconds, reference, state):
    """Run whole units until their summed wall time reaches `seconds`.
    Returns the unit times. A unit fails when it raises or when its output
    differs from the checked reference unit's."""
    times = []
    while not times or sum(times) < seconds:
        state["attempted"] += 1
        if isinstance(tracer, NullTracer):
            t0 = time.perf_counter()
            out = _guarded_unit(workload, tracer)
            times.append(time.perf_counter() - t0)
        else:
            tracer.reset()
            with tracer.span("bench.unit"):
                out = _guarded_unit(workload, tracer)
            times.append(tracer.stats["bench.unit"].total_s)
            state["unit_stats"].append(tracer.stats)
        if out is None:
            state["failed"] += 1
            continue
        if workload.fingerprint(out) != reference:
            print(f"{workload.name}: unit output differs from the reference unit", file=sys.stderr)
            state["failed"] += 1
        workload.release(out)
    return times


def _guarded_unit(workload, tracer):
    try:
        return workload.unit(tracer)
    except Exception:  # noqa: BLE001 - any failure of the program counts as a failed unit
        traceback.print_exc(file=sys.stderr)
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailshare" / "__init__.py").is_file():
        print(f"no tailshare package under {SRC}", file=sys.stderr)
        return 2
    import tailshare
    if Path(tailshare.__file__).resolve().parent != SRC / "tailshare":
        print(f"tailshare was imported from {tailshare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import_s = fresh_import_s()
    (HERE / "_scratch").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_scratch")
    try:
        setup_times = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, scratch)
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        null = NullTracer()
        state = {"attempted": 1, "failed": 0, "unit_stats": []}
        t0 = time.perf_counter()
        first = _guarded_unit(workload, null)
        warm_s = time.perf_counter() - t0
        if first is None:
            state["failed"] += 1
            reference = None
        else:
            reference = workload.fingerprint(first)
        setup_s = import_s + median(setup_times) + warm_s

        if args.trace:
            untraced = run_units(workload, null, args.seconds / 2, reference, state)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_units(workload, tracer, args.seconds / 2, reference, state)
            finally:
                tracer.uninstall()
            layer = layer_metrics(state["unit_stats"], median(untraced), import_s)
            _write_trace(args, tracer, state["unit_stats"], layer)
            metrics = layer
        else:
            times = run_units(workload, null, args.seconds, reference, state)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"setup_s": setup_s, "unit_s": median(times), "peak_rss_mb": peak_mb}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

        correct = first is not None
        t_check = time.perf_counter()
        if first is not None:
            try:
                problems = workload.check(first, workload.evidence(first))
            except Exception:  # noqa: BLE001 - output the checks cannot read is a failed check
                problems = [traceback.format_exc()]
            for problem in problems:
                print(f"{args.workload}: check failed: {problem}", file=sys.stderr)
            if problems:
                # Every other unit repeated this output exactly, so all fail.
                correct = False
                state["failed"] = state["attempted"]
            workload.release(first)
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "units": state["attempted"],
                      "import_s": import_s, "warm_unit_s": warm_s, "check_s": check_s,
                      "blas_threads": BLAS_THREADS, "python": platform.python_version(),
                      "numpy": np.__version__}), file=sys.stderr)
    print(json.dumps({
        "correct": correct and state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_trace(args, tracer, unit_stats, layer):
    """Per-span statistics of every traced unit and the spans of the last
    one, with the machine block, under perfbench/_results/."""
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    names = sorted({n for s in unit_stats for n in s})
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_name(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "per_layer": {k: v for k, (v, _) in layer.items()},
        "units": [{n: {"calls": s[n].calls, "self_s": s[n].self_s, "total_s": s[n].total_s,
                       **s[n].qty} for n in names if n in s} for s in unit_stats],
        "spans": tracer.spans,
    }
    path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(payload))


def _blas_name():
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the BLAS name is informational only
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
