"""Synthetic long-tailed datasets with analytically known class posteriors.

Class counts follow the standard exponential imbalance profile
n_k = round(n_max * IR^(-k / (K-1))), and every class draws from an
isotropic Gaussian with a seeded random mean. Keeping the realized means
around makes the exact Bayes posterior (and hence the task-wise KL risk)
computable for any point.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
import json
from pathlib import Path

import numpy as np

from .errors import (UNDECODABLE, ConfigError, DataFormatError, DomainError, MissingArtifactError,
                     StructuralError)


@dataclass(frozen=True)
class GenConfig:
    """Settings of the Gaussian-mixture long-tail generator."""

    n_classes: int
    input_dim: int
    imbalance_ratio: float
    n_max: int
    class_mean_scale: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.imbalance_ratio < 1:
            raise ConfigError("imbalance_ratio must be >= 1")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be positive")
        if self.class_counts()[-1] < 1:
            raise ConfigError(
                "rarest class rounds to zero samples; raise n_max or lower imbalance_ratio"
            )

    def class_counts(self) -> np.ndarray:
        """Exponentially decaying per-class counts, most frequent first."""
        k = np.arange(self.n_classes, dtype=np.float64)
        raw = self.n_max * self.imbalance_ratio ** (-k / (self.n_classes - 1))
        return np.floor(raw + 0.5).astype(np.int64)


@dataclass
class MixtureGenerator:
    """Isotropic Gaussian mixture with known means, shared sigma, and priors."""

    means: np.ndarray
    noise_sigma: float
    priors: np.ndarray
    config: GenConfig | None = None

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.priors = np.asarray(self.priors, dtype=np.float64)
        if self.means.ndim != 2:
            raise StructuralError("means must be a (K, input_dim) matrix")
        if self.priors.shape != (self.means.shape[0],):
            raise StructuralError("priors must give one value per class")
        if np.any(self.priors < 0) or abs(self.priors.sum() - 1.0) > 1e-9:
            raise DomainError("priors must be nonnegative and sum to 1")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def input_dim(self) -> int:
        return self.means.shape[1]

    def posterior(self, features: np.ndarray) -> np.ndarray:
        """Exact Bayes posterior over classes, one row per feature vector.

        Stable log-sum-exp evaluation; rows are positive and sum to 1.
        """
        y = np.atleast_2d(np.asarray(features, dtype=np.float64))
        sq = ((y[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        with np.errstate(divide="ignore"):
            logp = np.log(self.priors)[None, :] - sq / (2.0 * self.noise_sigma ** 2)
        logp = logp - logp.max(axis=1, keepdims=True)
        p = np.exp(logp)
        return p / p.sum(axis=1, keepdims=True)

    def sample_features(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Unlabeled draws from the feature marginal of the mixture."""
        return self.sample_labeled(n, rng)[0]

    def sample_labeled(self, n: int, rng: np.random.Generator) -> tuple:
        return self._draw(rng.choice(self.n_classes, size=n, p=self.priors), rng)

    def sample_balanced(self, per_class: int, rng: np.random.Generator) -> tuple:
        """A balanced evaluation set: per_class draws from each class in
        class order, with one-hot labels."""
        return self._draw(np.repeat(np.arange(self.n_classes), per_class), rng)

    def _draw(self, classes: np.ndarray, rng: np.random.Generator) -> tuple:
        """(features, one-hot labels) of one draw from each class in `classes`,
        in order. The means go onto the noise in place: one feature buffer."""
        feats = rng.normal(0.0, self.noise_sigma, size=(len(classes), self.input_dim))
        feats += self.means[classes]
        return feats, np.eye(self.n_classes)[classes]


@dataclass
class LongTailDataset:
    """Feature matrix, one-hot labels, per-class counts, and the generator
    they came from (when known)."""

    features: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray
    generator: MixtureGenerator | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise StructuralError("features and labels must be 2-D")
        if self.labels.shape[0] != self.features.shape[0]:
            raise StructuralError("label rows must match feature rows")
        if self.labels.shape[1] != self.class_counts.size:
            raise StructuralError("label columns must match class_counts length")
        one_hot = np.all(np.isin(self.labels, (0.0, 1.0))) and np.all(self.labels.sum(axis=1) == 1.0)
        if not one_hot:
            raise StructuralError("labels must be one-hot rows")
        if not np.array_equal(self.labels.sum(axis=0).astype(np.int64), self.class_counts):
            raise StructuralError("class_counts do not match the realized label counts")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_counts.size

    @property
    def priors(self) -> np.ndarray:
        return self.class_counts / self.class_counts.sum()

    def class_indices(self) -> np.ndarray:
        return self.labels.argmax(axis=1)


@dataclass(frozen=True)
class TaskSplit:
    """Disjoint head/tail class groups, each kept in its own column order."""

    head_classes: tuple
    tail_classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "head_classes", tuple(int(c) for c in self.head_classes))
        object.__setattr__(self, "tail_classes", tuple(int(c) for c in self.tail_classes))
        head, tail = set(self.head_classes), set(self.tail_classes)
        k = len(self.head_classes) + len(self.tail_classes)
        if head & tail:
            raise StructuralError("head and tail groups overlap")
        if head | tail != set(range(k)):
            raise StructuralError("head and tail groups must partition 0..K-1")
        if len(self.head_classes) - len(self.tail_classes) not in (0, 1):
            raise StructuralError("group sizes may differ by at most one, head larger")

    @property
    def n_classes(self) -> int:
        return len(self.head_classes) + len(self.tail_classes)


def _seeded_generator(cfg: GenConfig) -> tuple:
    """(generator, rng): the means are rng's first draw, seeded by cfg."""
    rng = np.random.default_rng(cfg.seed)
    means = rng.normal(size=(cfg.n_classes, cfg.input_dim)) * cfg.class_mean_scale
    counts = cfg.class_counts()
    return MixtureGenerator(means, cfg.noise_sigma, counts / counts.sum(), cfg), rng


def build_generator(cfg: GenConfig) -> MixtureGenerator:
    """generate(cfg)'s generator, without sampling any data points."""
    return _seeded_generator(cfg)[0]


def generate(cfg: GenConfig) -> LongTailDataset:
    """Draw exactly n_k points per class (rows grouped by class)."""
    gen, rng = _seeded_generator(cfg)
    counts = cfg.class_counts()
    return LongTailDataset(*gen._draw(np.repeat(np.arange(cfg.n_classes), counts), rng), counts, gen)


def sample_iid(gen: MixtureGenerator, n: int, seed: int) -> LongTailDataset:
    """Fresh i.i.d. draws from the mixture; realized counts may wobble."""
    rng = np.random.default_rng(seed)
    features, labels = gen.sample_labeled(n, rng)
    counts = labels.sum(axis=0).astype(np.int64)
    return LongTailDataset(features, labels, counts, gen)


def split_classes(class_counts) -> TaskSplit:
    """Sort classes by descending count (ties by ascending index); the more
    frequent half is the head. Odd K puts the extra class on the head side."""
    counts = np.asarray(class_counts, dtype=np.float64)
    k = counts.size
    if k < 2:
        raise ConfigError("need at least 2 classes to split")
    order = sorted(range(k), key=lambda i: (-counts[i], i))
    n_head = (k + 1) // 2
    return TaskSplit(tuple(order[:n_head]), tuple(order[n_head:]))


def project_labels(labels: np.ndarray, split: TaskSplit) -> tuple:
    """Restrict one-hot labels to each group's columns, in group order.

    For every row exactly one of the two projections is all-zero.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape[1] != split.n_classes:
        raise StructuralError("label columns do not match the split's class count")
    return labels[:, list(split.head_classes)], labels[:, list(split.tail_classes)]


def holdout_split(dataset: LongTailDataset, fraction: float, seed: int) -> tuple:
    """Seeded stratified split: round(fraction * n_k) test rows per class."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("holdout fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    classes = dataset.class_indices()
    test_rows = []
    for k in range(dataset.n_classes):
        idx = np.flatnonzero(classes == k)
        n_test = int(np.floor(fraction * idx.size + 0.5))
        perm = rng.permutation(idx.size)
        test_rows.append(idx[perm[:n_test]])
    test_idx = np.sort(np.concatenate(test_rows)) if test_rows else np.empty(0, np.intp)
    mask = np.zeros(dataset.n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)

    def subset(rows):
        labels = dataset.labels[rows]
        return LongTailDataset(
            dataset.features[rows], labels, labels.sum(axis=0).astype(np.int64), dataset.generator
        )

    return subset(train_idx), subset(test_idx)


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".generator.json")


def save_csv(dataset: LongTailDataset, path) -> None:
    """Rows are feature values then the integer class label. When the
    generator is known a JSON sidecar (means, sigma, priors) is written so
    oracle code can recover exact posteriors."""
    path = Path(path)
    rows = zip(dataset.features.tolist(), dataset.class_indices().tolist())
    with path.open("w") as fh:
        fh.writelines(",".join(map(repr, row)) + f",{k}\n" for row, k in rows)
    if dataset.generator is not None:
        gen = dataset.generator
        payload = {
            "format": "tailshare-generator-v1",
            "means": gen.means.tolist(),
            "noise_sigma": gen.noise_sigma,
            "priors": gen.priors.tolist(),
        }
        if gen.config is not None:
            payload["config"] = asdict(gen.config)
        _sidecar_path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def load_generator_sidecar(path) -> MixtureGenerator:
    """The generator a sidecar describes; undecodable JSON, missing or
    non-finite fields, bad config keys and shapes that do not fit raise
    DataFormatError naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"generator sidecar not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        cfg = GenConfig(**payload["config"]) if "config" in payload else None
        gen = MixtureGenerator(
            np.asarray(payload["means"], dtype=np.float64), float(payload["noise_sigma"]),
            np.asarray(payload["priors"], dtype=np.float64), cfg,
        )
    except (OSError, KeyError, TypeError, *UNDECODABLE) as exc:  # OSError: a directory, say
        raise DataFormatError(f"{path}: bad generator sidecar ({type(exc).__name__}: {exc})") from None
    if not (np.isfinite(gen.means).all() and np.isfinite(gen.priors).all()
            and np.isfinite(gen.noise_sigma) and gen.noise_sigma > 0):
        raise DataFormatError(f"{path}: means, priors and a positive noise_sigma must be finite")
    return gen


def load_csv(path) -> LongTailDataset:
    """Parse a feature+label CSV; malformed rows name the offending line.

    A `<stem>.generator.json` sidecar, when present, is attached so the
    exact posterior stays available. A missing file raises
    MissingArtifactError, one that cannot be opened (a directory, say)
    DataFormatError.
    """
    path = Path(path)
    features = []
    classes = []
    linenos = []
    width = None
    try:
        fh = path.open(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        raise MissingArtifactError(f"dataset not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise DataFormatError(f"{path}: unreadable dataset ({type(exc).__name__}: {exc})") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise DataFormatError(f"{path}: line {lineno}: need features and a label")
            elif len(parts) != width:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {width} fields, found {len(parts)}"
                )
            try:
                features.append([float(v) for v in parts[:-1]])
                label = int(parts[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if label < 0:
                raise DataFormatError(f"{path}: line {lineno}: negative class label {label}")
            classes.append(label)
            linenos.append(lineno)
    if not features:
        raise DataFormatError(f"{path}: no data rows")
    features = np.asarray(features)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}: line {linenos[int(bad[0])]}: non-finite feature value")
    classes = np.asarray(classes)
    # n rows fill at most n classes; a larger label is a typo, and its
    # one-hot matrix could exhaust memory.
    k = int(classes.max()) + 1
    if k > classes.size:
        raise DataFormatError(
            f"{path}: line {linenos[int(classes.argmax())]}: class label {k - 1} "
            f"but only {classes.size} rows")
    labels = np.zeros((classes.size, k))
    labels[np.arange(classes.size), classes] = 1.0
    counts = labels.sum(axis=0).astype(np.int64)
    if not counts.all():
        # The class count comes from the largest label, so every smaller
        # label must have rows; an empty class has no prior to adjust by.
        raise DataFormatError(
            f"{path}: no rows for class label(s) {', '.join(map(str, np.flatnonzero(counts == 0)))} "
            f"of 0..{k - 1}")
    generator = None
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        generator = load_generator_sidecar(sidecar)
        if generator.means.shape != (k, features.shape[1]):
            raise DataFormatError(
                f"{sidecar}: generator has {generator.n_classes} classes of dimension "
                f"{generator.input_dim}, the data {k} of dimension {features.shape[1]}")
    return LongTailDataset(features, labels, counts, generator)
