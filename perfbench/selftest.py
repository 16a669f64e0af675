"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one unit of each workload, requires its check to pass on the real
output, then perturbs one value at a time (a risk, a proxy term, one Fisher
entry, one container byte, ...) and requires the check to fail. It also
requires BENCHMARK.json to name exactly the metrics run.py reports. Exits
non-zero on the first check that cannot fail or that fails on real output.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import shutil
import tempfile

import run  # sets the BLAS thread environment before numpy loads

import numpy as np

from workloads import WORKLOADS

SEED = 3


def flip_byte(raw, offset):
    raw = bytearray(raw)
    raw[offset] ^= 0x01
    return bytes(raw)


def array_offset(raw, name, index):
    """Byte offset of element `index` of container array `name`."""
    meta_len = int.from_bytes(raw[12:20], "little")
    offset = 20 + meta_len
    for entry in json.loads(raw[20:20 + meta_len])["arrays"]:
        if entry["name"] == name:
            return offset + 8 * index
        offset += 8 * entry["length"]
    raise KeyError(name)


def oracle_cases(report, ev):
    ci, wi = report.c_values.index(0), report.w_values.index(0.3)

    def scaled(field, idx, factor):
        arr = getattr(report, field).copy()
        arr[idx] *= factor
        return dataclasses.replace(report, **{field: arr}), ev

    yield "risk at a checked cell", scaled("risk_mean", (ci, wi), 1 + 1e-8)
    yield "risk standard error", scaled("risk_stderr", (ci, wi), 1 + 1e-6)
    yield "proxy total", scaled("proxy_total", (2, 5), 1 + 1e-9)
    yield "n_ok", (dataclasses.replace(report, n_ok=report.n_ok - np.eye(*report.n_ok.shape, dtype=np.int64)), ev)
    yield "spearman rho", (dataclasses.replace(report, spearman_rho=report.spearman_rho + 1e-9), ev)
    yield "proxy best", (dataclasses.replace(report, proxy_best=(report.proxy_best[0], 0.55)), ev)


def cli_cases(out, files):
    def edited(name, new):
        changed = dict(files)
        changed[name] = new
        return out, changed

    grid = files["proxy_grid_v001.csv"].decode().splitlines()
    row = grid[28].split(",")  # C = 2, w_A = 0.5: a cell with a nonzero encoder bias
    row[3] = repr(float(row[3]) * (1 + 1e-9))
    yield "proxy term in the CSV", edited("proxy_grid_v001.csv", "\n".join(grid[:28] + [",".join(row)] + grid[29:]).encode())
    raw = files["model_v002.bin"]
    yield "container byte in the shared encoder", edited("model_v002.bin", flip_byte(raw, array_offset(raw, "branch_a", 3) + 6))
    raw = files["model_v002.bin"]
    yield "container byte in a decoder", edited("model_v002.bin", flip_byte(raw, array_offset(raw, "branch_b", 600) + 6))
    metrics = files["metrics_v001.csv"].decode().splitlines()
    cols = metrics[1].split(",")
    cols[3] = repr(float(cols[3]) + 1e-3)
    yield "accuracy in metrics", edited("metrics_v001.csv", "\n".join([metrics[0], ",".join(cols)] + metrics[2:]).encode())
    sel = json.loads(files["selection_v002.json"])
    sel["w_star"] = 0.5 if sel["w_star"] != 0.5 else 0.4
    yield "selection", edited("selection_v002.json", json.dumps(sel).encode())
    yield "verify-lemma output", (dict(out, verify="FAIL: residual above 1e-10"), files)


def wide_cases(out, ev):
    layout = ev["layout"]
    enc = layout.encoder_size(layout.depth)

    def with_array(key, index, factor):
        arr = out[key].copy()
        arr[index] *= factor
        return dict(out, **{key: arr}), ev

    j = int(np.argmax(out["fisher_a"][:enc]))
    yield "one Fisher entry (largest)", with_array("fisher_a", j, 1.5)
    live = np.flatnonzero(out["fisher_b"][:enc])
    k = int(live[np.argsort(out["fisher_b"][live])[live.size // 2]])
    yield "one Fisher entry (median live encoder entry)", with_array("fisher_b", k, 1 + 1e-6)
    table = list(out["grid"].table)
    table[40] = dataclasses.replace(table[40], encoder_bias=table[40].encoder_bias * (1 + 1e-8))
    yield "proxy term", (dict(out, grid=dataclasses.replace(out["grid"], table=table)), ev)
    raw = ev["container"]
    yield "container byte", (out, dict(ev, container=flip_byte(raw, array_offset(raw, "fisher_b", 12345))))
    loaded = dict(out["loaded"], params_b=out["loaded"]["params_b"].copy())
    loaded["params_b"][7] = np.nextafter(loaded["params_b"][7], np.inf)
    yield "loaded array", (dict(out, loaded=loaded), ev)
    rows = ev["row_grads_a"].copy()
    rows[1, j] *= 1.01
    yield "single-row gradient", (out, dict(ev, row_grads_a=rows))


CASES = {"oracle_ref": oracle_cases, "cli_stages": cli_cases, "wide_search": wide_cases}


def benchmark_json_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def main():
    failures = 0
    e2e, layer = benchmark_json_names()
    if e2e != set(run.END_TO_END):
        print(f"BENCHMARK.json end_to_end {sorted(e2e)} != run.py {sorted(run.END_TO_END)}")
        failures += 1
    if layer != set(run.layer_metric_names()):
        print(f"BENCHMARK.json per_layer differs from run.py: {sorted(layer ^ set(run.layer_metric_names()))}")
        failures += 1
    (run.HERE / "_scratch").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / "_scratch")
    try:
        for name, cases in CASES.items():
            workload = WORKLOADS[name](SEED, scratch)
            workload.setup()
            out = workload.unit(run.NullTracer())
            ev = workload.evidence(out)
            problems = workload.check(out, ev)
            status = "ok" if not problems else f"FAILED {problems[:3]}"
            print(f"{name}: real output: {status}")
            failures += bool(problems)
            for label, (bad_out, bad_ev) in cases(out, ev):
                caught = workload.check(bad_out, bad_ev)
                print(f"{name}: perturbed {label}: {'caught' if caught else 'NOT CAUGHT'}")
                failures += not caught
            workload.release(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
