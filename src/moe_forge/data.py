"""Datasets: synthetic Gaussian-mode generators, CSV loading, splits, sampling."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ShapeError
from .seeding import derive_rng


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix with integer labels.

    features: [N, D] float64, labels: [N] ints in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeError(f"features must be [N, D], got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ShapeError("labels must be a 1-d array with one entry per row")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), found range "
                f"[{labels.min()}, {labels.max()}]"
            )
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture layout: every class owns modes_per_class isotropic modes."""

    num_classes: int
    modes_per_class: int
    dim: int
    mode_stddev: float
    samples_per_mode: int
    seed: int
    mode_means: np.ndarray | None = None  # [num_classes * modes_per_class, dim]

    @property
    def num_modes(self) -> int:
        return self.num_classes * self.modes_per_class

    def validate(self) -> None:
        if min(self.num_classes, self.modes_per_class, self.dim, self.samples_per_mode) < 1:
            raise DataError("synthetic spec counts must all be positive")
        if self.mode_stddev < 0:
            raise DataError("mode_stddev must be non-negative")
        if self.mode_means is not None:
            means = np.asarray(self.mode_means, dtype=np.float64)
            if means.shape != (self.num_modes, self.dim):
                raise ShapeError(
                    f"mode_means must have shape [{self.num_modes}, {self.dim}], got {means.shape}"
                )


class SyntheticSample(NamedTuple):
    dataset: LabeledDataset
    mode_ids: np.ndarray  # [N] index of the generating mode; metadata, not a label


def lattice_mode_means(num_modes: int, dim: int, spacing: float) -> np.ndarray:
    """Deterministic mode centers on an integer lattice scaled by ``spacing``.

    Adjacent lattice points differ by spacing in at least one coordinate,
    so the minimum pairwise distance is exactly spacing.
    """
    base = 1
    while base**min(dim, 16) < num_modes:
        base += 1
    means = np.zeros((num_modes, dim))
    for m in range(num_modes):
        rest = m
        for d in range(dim):
            means[m, d] = (rest % base) * spacing
            rest //= base
            if rest == 0:
                break
    return means


def generate_synthetic(spec: SyntheticSpec) -> SyntheticSample:
    """Draw samples_per_mode points around every (class, mode) center.

    When mode_means is omitted, centers are placed on a lattice spaced so
    the minimum pairwise distance is 8 * mode_stddev (well separated).
    Deterministic given spec.seed; mode ids are returned as side metadata.
    """
    spec.validate()
    if spec.mode_means is not None:
        means = np.asarray(spec.mode_means, dtype=np.float64)
    else:
        spacing = 8.0 * spec.mode_stddev if spec.mode_stddev > 0 else 1.0
        means = lattice_mode_means(spec.num_modes, spec.dim, spacing)

    rng = derive_rng(spec.seed, "synthetic")
    n = spec.num_modes * spec.samples_per_mode
    features = np.empty((n, spec.dim))
    labels = np.empty(n, dtype=np.int64)
    mode_ids = np.empty(n, dtype=np.int64)
    row = 0
    for mode in range(spec.num_modes):
        cls = mode // spec.modes_per_class
        block = slice(row, row + spec.samples_per_mode)
        noise = rng.standard_normal((spec.samples_per_mode, spec.dim))
        features[block] = means[mode] + spec.mode_stddev * noise
        labels[block] = cls
        mode_ids[block] = mode
        row += spec.samples_per_mode
    dataset = LabeledDataset(features=features, labels=labels, num_classes=spec.num_classes)
    return SyntheticSample(dataset=dataset, mode_ids=mode_ids)


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str | Path, num_classes: int | None = None) -> LabeledDataset:
    """Load "label,f1,...,fD" rows; a non-numeric first line is treated as a header.

    Malformed rows raise DataError naming the offending line number.
    When num_classes is omitted it is inferred as max(label) + 1.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with path.open(newline="") as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if not record:
                continue
            if line_no == 1 and not _looks_numeric(record[0]):
                continue  # header
            if width is None:
                width = len(record)
                if width < 2:
                    raise DataError(f"{path}: line {line_no}: need a label and at least one feature")
            if len(record) != width:
                raise DataError(
                    f"{path}: line {line_no}: expected {width} fields, got {len(record)}"
                )
            raw_label = record[0].strip()
            try:
                label = int(raw_label)
            except ValueError:
                raise DataError(f"{path}: line {line_no}: label {raw_label!r} is not an integer")
            if label < 0:
                raise DataError(f"{path}: line {line_no}: label {label} is negative")
            if num_classes is not None and label >= num_classes:
                raise DataError(
                    f"{path}: line {line_no}: label {label} >= declared class count {num_classes}"
                )
            try:
                values = [float(cell) for cell in record[1:]]
            except ValueError:
                raise DataError(f"{path}: line {line_no}: non-numeric feature value")
            if not all(np.isfinite(values)):
                raise DataError(f"{path}: line {line_no}: non-finite feature value")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    resolved = num_classes if num_classes is not None else max(labels) + 1
    return LabeledDataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=resolved,
    )


def save_csv(path: str | Path, dataset: LabeledDataset) -> None:
    """Write "label,f1,...,fD" rows (no header)."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        for label, row in zip(dataset.labels, dataset.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def split(
    dataset: LabeledDataset, fractions: Sequence[float], seed: int
) -> list[LabeledDataset]:
    """Stratified split: class proportions preserved per part, partition exhaustive.

    Within each class, floor counts are assigned first and the remainder
    goes to the splits with the largest fractional parts (ties favor the
    earlier split).  A split receiving zero samples of some class is an error.
    """
    fractions = list(fractions)
    if not fractions or any(f < 0 for f in fractions):
        raise DataError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)}")

    rng = derive_rng(seed, "split")
    part_indices: list[list[np.ndarray]] = [[] for _ in fractions]
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(idx)
        n = len(idx)
        targets = [f * n for f in fractions]
        counts = [int(np.floor(t)) for t in targets]
        remainder = n - sum(counts)
        order = sorted(range(len(fractions)), key=lambda j: (-(targets[j] - counts[j]), j))
        for j in order[:remainder]:
            counts[j] += 1
        start = 0
        for j, count in enumerate(counts):
            if count == 0:
                raise DataError(
                    f"split {j} (fraction {fractions[j]}) would receive no samples of class {cls}"
                )
            part_indices[j].append(idx[start : start + count])
            start += count
    parts = []
    for chunks in part_indices:
        take = np.sort(np.concatenate(chunks))
        parts.append(
            LabeledDataset(
                features=dataset.features[take],
                labels=dataset.labels[take],
                num_classes=dataset.num_classes,
            )
        )
    return parts


def weighted_batches(
    dataset: LabeledDataset, weights: np.ndarray, batch_size: int, seed: int
) -> Iterator[np.ndarray]:
    """Endless stream of index batches drawn i.i.d. proportionally to weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(dataset),):
        raise ShapeError("weights must be 1-d with one entry per sample")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    # The draw Generator.choice(n, size, p=weights / total) makes, without
    # re-validating and re-summing p on every call: same index stream.
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    rng = derive_rng(seed, "weighted-batches")
    while True:
        yield cdf.searchsorted(rng.random(batch_size), side="right")
