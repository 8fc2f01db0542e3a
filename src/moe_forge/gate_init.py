"""Clustering-based gate initialization.

The expert count is fixed by clustering the base model's embeddings:
k-means centroids define a soft assignment of every training sample to
every expert, which later supervises both the gate fit and the per-expert
sample weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ShapeError
from .nn import softmax
from .seeding import derive_rng


@dataclass(frozen=True)
class Centroids:
    """K cluster centers in the embedding space."""

    means: np.ndarray  # [K, dim]
    inertia_history: tuple[float, ...] = ()  # within-cluster SSE after each Lloyd update

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class InitialGate:
    """Row-stochastic soft assignment of samples to experts, plus its temperature."""

    weights: np.ndarray  # [N, K]
    temperature: float

    @property
    def num_experts(self) -> int:
        return self.weights.shape[1]


_MAX_ITERS = 100
_TOL = 1e-8

# Rows per block of _sq_distances: a [256, dim] difference stays in cache for dim up to ~1000.
_BLOCK_ROWS = 256


def _sq_distances(points: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, [N, K].

    A block of rows at a time, and one cluster at a time inside it, so the
    largest temporary is a cache-sized [block, dim], not [N, dim] or [N, K, dim].
    Every row's sum is the same einsum as over all rows at once, so the result
    does not depend on the block size.
    """
    out = np.empty((points.shape[0], means.shape[0]))
    for start in range(0, points.shape[0], _BLOCK_ROWS):
        block = points[start : start + _BLOCK_ROWS]
        rows = out[start : start + _BLOCK_ROWS]
        for j, mean in enumerate(means):
            diff = block - mean
            rows[:, j] = np.einsum("nd,nd->n", diff, diff)
    return out


def _plus_plus_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    means = np.empty((k, points.shape[1]))
    means[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        closest = np.minimum(closest, _sq_distances(points, means[j - 1 : j])[:, 0])
        total = closest.sum()
        if total <= 0:
            means[j] = points[rng.integers(n)]  # all points coincide with a center
        else:
            means[j] = points[rng.choice(n, p=closest / total)]
    return means


def kmeans(points: np.ndarray, k: int, seed: int) -> Centroids:
    """Lloyd's algorithm with k-means++ seeding, deterministic given seed.

    Stops when the largest centroid shift drops below _TOL or after
    _MAX_ITERS updates.  A cluster that empties is re-seeded to the point
    farthest from its assigned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be [N, dim], got shape {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")

    rng = derive_rng(seed, "kmeans")
    means = _plus_plus_seeds(points, k, rng)
    history: list[float] = []
    dists = _sq_distances(points, means)
    for _ in range(_MAX_ITERS):
        assign = dists.argmin(axis=1)
        point_dist = dists[np.arange(n), assign]
        new_means = means.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_means[j] = points[members].mean(axis=0)
            else:
                far = int(point_dist.argmax())
                new_means[j] = points[far]
                point_dist = point_dist.copy()
                point_dist[far] = 0.0  # don't hand the same point to two empty clusters
        shift = np.sqrt(((new_means - means) ** 2).sum(axis=1)).max()
        means = new_means
        # These distances give this update's inertia and the next assignment.
        dists = _sq_distances(points, means)
        history.append(float(dists.min(axis=1).sum()))
        if shift < _TOL:
            break
    return Centroids(means=means, inertia_history=tuple(history))


def median_sq_distance(centroids: Centroids) -> float:
    """Median pairwise squared distance between centroids; the default temperature."""
    if centroids.k < 2:
        return 1.0
    dists = _sq_distances(centroids.means, centroids.means)
    upper = dists[np.triu_indices(centroids.k, k=1)]
    value = float(np.median(upper))
    return value if value > 0 else 1.0


def initial_gate(
    embeddings: np.ndarray, centroids: Centroids, temperature: float | None = None
) -> InitialGate:
    """Soft assignment: softmax over experts of -||z - c_k||^2 / temperature.

    temperature=None uses the median pairwise squared centroid distance.
    Rows are stochastic by construction; as temperature -> 0 the rows
    approach one-hot nearest-centroid assignments.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != centroids.dim:
        raise ShapeError(
            f"embeddings must be [N, {centroids.dim}], got shape {embeddings.shape}"
        )
    if temperature is None:
        temperature = median_sq_distance(centroids)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scores = -_sq_distances(embeddings, centroids.means) / temperature
    return InitialGate(weights=softmax(scores), temperature=float(temperature))


def smooth_weights(weights: np.ndarray, floor: float) -> np.ndarray:
    """Clip soft-assignment weights into [floor, 1]; rows are NOT renormalized.

    The floor keeps every expert exposed to a trickle of every sample so
    no expert trains on a degenerate single-cluster distribution.
    """
    if not 0 <= floor <= 1:
        raise ValueError(f"floor must lie in [0, 1], got {floor}")
    return np.clip(weights, floor, 1.0)


def per_class_assignment(gate: InitialGate, ds: LabeledDataset) -> np.ndarray:
    """Collapse a soft per-sample assignment of ``ds`` to one expert per class.

    Each class goes to the expert with the highest mean soft weight over
    that class's samples (ties pick the lower expert index).  Returns the
    [num_classes] class-to-expert map; a class without samples is an error.
    """
    if len(ds) != gate.weights.shape[0]:
        raise ShapeError("the dataset must have one row per gate row")
    class_map = np.empty(ds.num_classes, dtype=np.int64)
    for cls in range(ds.num_classes):
        members = ds.labels == cls
        if not members.any():
            raise ValueError(f"class {cls} has no samples")
        class_map[cls] = int(gate.weights[members].mean(axis=0).argmax())
    return class_map
