"""Deterministic on-disk artifacts: checkpoints and versioned run dirs.

Checkpoints use a small custom container rather than npz because the zip
wrapper embeds timestamps; runs re-executed from the same config snapshot
must reproduce artifacts byte for byte. Layout:

    magic b"TSCONT01" | u32 version | u64 meta length | meta JSON (utf-8)
    | concatenated little-endian float64 arrays in meta["arrays"] order

Run directories are append-only: every write allocates the next _vNNN
suffix for its stem, and readers resolve the highest version.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
import json
import os
import re
import struct
from pathlib import Path

import numpy as np

from .errors import UNDECODABLE, DataFormatError, MissingArtifactError
from .datagen import TaskSplit
from .nn import ModelSpec, ParamVector, _finite
from .pipeline import AssembledModel, Stage1Result, fitted_split
from .proxy import DiagFisher

_MAGIC = b"TSCONT01"
_VERSION = 1


def save_container(path, meta: dict, arrays: dict) -> None:
    meta = dict(meta)
    meta["arrays"] = [{"name": k, "length": int(np.asarray(v).size)} for k, v in arrays.items()]
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for key in arrays:
            # From the array's own buffer: a copy only of one that is not
            # C-contiguous little-endian float64.
            fh.write(np.ascontiguousarray(arrays[key], dtype="<f8"))


def load_container(path) -> tuple:
    """(meta, arrays) of a container. A missing file raises
    MissingArtifactError; a path that cannot be opened (a directory, say)
    and any damage to the file, truncation and an array declared twice
    included, raise DataFormatError.

    The file is read once, into one 8-byte-aligned buffer placed so that
    the array section starts on an 8-byte boundary whatever the metadata
    length. Each array is a float64 view of its own part of that buffer,
    and no two overlap.
    """
    path = Path(path)
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        raise MissingArtifactError(str(path)) from None
    except OSError as exc:
        raise DataFormatError(f"{path}: unreadable container ({type(exc).__name__}: {exc})") from None
    with fh:
        head = fh.read(20)
        if head[:8] != _MAGIC:
            raise DataFormatError(f"{path}: not a tailshare container")
        if len(head) < 20:
            raise DataFormatError(f"{path}: truncated header ({len(head)} of 20 bytes)")
        version, meta_len = struct.unpack("<IQ", head[8:20])
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported container version {version}")
        size = os.fstat(fh.fileno()).st_size - 20
        shift = -meta_len % 8
        buf = np.empty((shift + size + 7) // 8, dtype="<f8")
        body = buf.view(np.uint8)[shift:shift + size]
        size = fh.readinto(body)
    if meta_len > size:
        raise DataFormatError(f"{path}: metadata of {meta_len} bytes runs past the end of the file")
    try:
        meta = json.loads(bytes(body[:meta_len]).decode("utf-8"))
        entries = [(e["name"], e["length"]) for e in meta["arrays"]]
    except (KeyError, TypeError, *UNDECODABLE) as exc:
        raise DataFormatError(f"{path}: unreadable metadata ({type(exc).__name__}: {exc})") from None
    arrays = {}
    offset = meta_len
    for name, n in entries:
        if not isinstance(name, str) or type(n) is not int or n < 0:
            raise DataFormatError(f"{path}: bad array entry {name!r} of length {n!r}")
        if name in arrays:
            raise DataFormatError(f"{path}: array {name!r} is declared twice")
        if offset + 8 * n > size:
            raise DataFormatError(f"{path}: array {name!r} of {n} values runs past the end of the file")
        start = (shift + offset) // 8
        arrays[name] = buf[start:start + n]
        offset += 8 * n
    if offset != size:
        raise DataFormatError(f"{path}: trailing bytes after declared arrays")
    return meta, arrays


def save_params(path, spec: ModelSpec, params: ParamVector, extra: dict | None = None) -> None:
    save_container(path, {"kind": "params", "spec": asdict(spec), **(extra or {})}, {"params": params.values})


@contextmanager
def _opened(path, finite: tuple):
    """(spec, meta, arrays) of a container whose arrays named in `finite`
    are all finite. Metadata its kind needs but lacks, or values that do
    not fit together, raise DataFormatError naming the file."""
    meta, arrays = load_container(path)
    try:
        spec = ModelSpec(**meta["spec"])
        for name in finite:
            if not _finite(arrays[name]):
                raise DataFormatError(f"{path}: {name} has a non-finite entry")
        yield spec, meta, arrays
    except DataFormatError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DataFormatError(f"{path}: inconsistent artifact ({type(exc).__name__}: {exc})") from None


def load_params(path) -> tuple:
    """The params container; every parameter must be finite."""
    with _opened(path, ("params",)) as (spec, meta, arrays):
        return spec, ParamVector(arrays["params"], spec.block_table()), meta


def save_stage1(path, spec: ModelSpec, s1: Stage1Result, split: TaskSplit,
                priors: np.ndarray, extra: dict | None = None) -> None:
    meta = {"kind": "stage1", "spec": asdict(spec), "split": asdict(split),
            "sample_count": s1.fisher_a.sample_count, "losses_a": list(s1.losses_a),
            "losses_b": list(s1.losses_b), **(extra or {})}
    save_container(path, meta, {
        "params_a": s1.params_a.values,
        "params_b": s1.params_b.values,
        "fisher_a": s1.fisher_a.values,
        "fisher_b": s1.fisher_b.values,
        "priors": np.asarray(priors, dtype=np.float64),
    })


def load_stage1(path) -> tuple:
    """The stage-1 container; its sample_count is the training-set size N.
    Each Fisher must hold one entry per parameter, every parameter and
    Fisher entry must be finite, and the split must fit the heads."""
    with _opened(path, ("params_a", "params_b", "fisher_a", "fisher_b")) as (spec, meta, arrays):
        if "sample_count" not in meta:
            raise DataFormatError(f"{path}: no sample_count in the container's metadata")
        n = meta["sample_count"]
        if type(n) is not int or n < 1:  # JSON's true is not an int
            raise DataFormatError(f"{path}: sample_count must be an int >= 1, got {json.dumps(n)}")
        for name in ("fisher_a", "fisher_b"):
            if arrays[name].size != spec.param_count:
                raise DataFormatError(f"{path}: {name} holds {arrays[name].size} entries, "
                                      f"not one per parameter ({spec.param_count})")
        table = spec.block_table()
        s1 = Stage1Result(
            params_a=ParamVector(arrays["params_a"], table),
            params_b=ParamVector(arrays["params_b"], table),
            fisher_a=DiagFisher(arrays["fisher_a"], n),
            fisher_b=DiagFisher(arrays["fisher_b"], n),
            losses_a=meta["losses_a"],
            losses_b=meta["losses_b"],
        )
        return spec, s1, fitted_split(spec, TaskSplit(**meta["split"])), arrays["priors"], meta


def save_model(path, model: AssembledModel, extra: dict | None = None) -> None:
    meta = {"kind": "model", "spec": asdict(model.spec), "split": asdict(model.split), "c": model.c,
            **(extra or {})}
    save_container(path, meta, {"branch_a": model.branch_a.values, "branch_b": model.branch_b.values})


def load_model(path) -> tuple:
    """The model container; every parameter must be finite, and the priors
    array of an older one is ignored."""
    with _opened(path, ("branch_a", "branch_b")) as (spec, meta, arrays):
        if type(meta["c"]) is not int:  # JSON's true is not an int
            raise DataFormatError(f"{path}: c must be an int, got {json.dumps(meta['c'])}")
        branches = (ParamVector(arrays[name], spec.block_table()) for name in ("branch_a", "branch_b"))
        return AssembledModel(spec, meta["c"], TaskSplit(**meta["split"]), *branches), meta


_VERSION_RE = re.compile(r"_v(\d{3,})$")


def _latest_version(run_dir: Path, stem: str, ext: str) -> tuple:
    """(version, path) of the highest `<stem>_vNNN<ext>` in run_dir, or
    (-1, None) when there is none."""
    found = []
    for p in run_dir.glob(f"{stem}_v*{ext}"):
        m = _VERSION_RE.search(p.name[: -len(ext)] if ext else p.name)
        if m:
            found.append((int(m.group(1)), p))
    return max(found, default=(-1, None))


def next_version_path(run_dir, stem: str, ext: str) -> Path:
    """Claim the next free `<stem>_vNNN<ext>` path inside run_dir.

    The path is created empty with O_CREAT | O_EXCL, so concurrent writers
    never receive the same version; the caller must write it."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    version = max(_latest_version(run_dir, stem, ext)[0], 0)
    while True:
        version += 1
        path = run_dir / f"{stem}_v{version:03d}{ext}"
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
        except FileExistsError:
            continue
        return path


def latest_version_path(run_dir, stem: str, ext: str) -> Path:
    path = _latest_version(Path(run_dir), stem, ext)[1]
    if path is None:
        raise MissingArtifactError(f"no {stem}_vNNN{ext} artifact in {run_dir}")
    return path

