"""Timing spans and counters wrapped around tailshare's public functions.

Modules bind names with `from .x import y`, so a function is wrapped at
every tailshare namespace that holds the same function object, which is
where its callers look it up (`pipeline.train`, `oracle.stage1`, ...).
`MixtureGenerator.posterior` is wrapped on the class. The benchmark's own
spans (`bench.unit`, `cli.<command>`) use `Tracer.span`.

A span's self time is its duration minus the durations of the spans it
directly caused. Self times of all spans in a unit, `bench.unit` included,
add up to the unit's traced wall time exactly.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

MODULES = ("nn", "proxy", "pipeline", "oracle", "infotheory", "datagen", "store", "cli")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "qty")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.qty = {}


class Tracer:
    """In-memory span recorder. `reset` starts a new unit's record."""

    def __init__(self):
        self.stack = []      # one [child_s, span_index] per open span
        self.stats = {}      # name -> Stat
        self.spans = []      # (name, start, end, parent_index)
        self._patched = []   # (owner, attribute, original)

    def reset(self):
        self.stats = {}
        self.spans = []

    def _enter(self):
        parent = self.stack[-1][1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        self.stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        if self.stack:
            self.stack[-1][0] += dur
        self.spans[frame[1]] = (name, t0, t1, parent)
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_s += dur - frame[0]
        stat.total_s += dur
        return stat

    @contextlib.contextmanager
    def span(self, name):
        frame, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, parent, t0, time.perf_counter())

    def wrap(self, name, fn, quantities=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._exit(name, frame, parent, t0, clock())
            if quantities is not None:
                for key, value in quantities(args, kwargs, result).items():
                    stat.qty[key] = stat.qty.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every public function of the traced modules in place."""
        mods = {name: importlib.import_module(f"tailshare.{name}") for name in MODULES}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "tailshare" or n.startswith("tailshare."))]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", obj, QUANTITIES.get(f"{short}.{attr}"))
                for ns in namespaces:
                    if getattr(ns, attr, None) is obj:
                        self._patched.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)
        gen_cls = mods["datagen"].MixtureGenerator
        original = gen_cls.__dict__["posterior"]
        self._patched.append((gen_cls, "posterior", original))
        gen_cls.posterior = self.wrap("datagen.posterior", original, QUANTITIES["datagen.posterior"])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def branch_flops(spec, rows, task):
    """FLOPs of one forward plus backward pass of one branch, computed from
    shapes: 2*n*fan_in*fan_out for the forward matmul and twice that for
    the two backward matmuls, per layer."""
    macs = 0
    fan_in = spec.input_dim
    for width in spec.trunk_widths:
        macs += fan_in * width
        fan_in = width
    macs += fan_in * spec.head_dims[0 if task == "A" else 1]
    return 6 * rows * macs


def _bce_qty(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    rows = _arg(args, kwargs, 2, "batch").n
    return {"rows": rows, "flop": branch_flops(spec, rows, _arg(args, kwargs, 3, "task"))}


def _fisher_qty(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    rows = len(_arg(args, kwargs, 2, "features"))
    return {"rows": rows, "flop": branch_flops(spec, rows, _arg(args, kwargs, 4, "task"))}


def _grid_qty(args, kwargs, result):
    """Bytes a streaming evaluation must touch: per w, read the two Fisher
    slices and the mismatch and write the two per-coordinate term arrays,
    then read each candidate depth's prefix of both term arrays."""
    spec = _arg(args, kwargs, 4, "spec")
    sizes = [spec.encoder_params(c) for c in result.c_values]
    per_w = 5 * 8 * max(sizes) + sum(2 * 8 * d for d in sizes)
    return {"cells": len(result.table), "bytes": per_w * len(result.w_values)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _posterior_qty(args, kwargs, result):
    return {"rows": result.shape[0]}


def _csv_load_qty(args, kwargs, result):
    return {"rows": result.n}


QUANTITIES = {
    "nn.bce_loss_grad": _bce_qty,
    "proxy.estimate_diag_fisher": _fisher_qty,
    "proxy.grid_search": _grid_qty,
    "store.save_container": _file_bytes,
    "store.load_container": _file_bytes,
    "datagen.posterior": _posterior_qty,
    "datagen.load_csv": _csv_load_qty,
}
