"""Clustering and soft-assignment construction, checked against exhaustive oracles."""

import itertools
import math

import numpy as np
import pytest

from moe_forge.data import LabeledDataset
from moe_forge.errors import ShapeError
from moe_forge.gate_init import (
    _BLOCK_ROWS,
    _MAX_ITERS,
    Centroids,
    _sq_distances,
    initial_gate,
    kmeans,
    median_sq_distance,
    per_class_assignment,
    smooth_weights,
)
from moe_forge.nn import softmax
from moe_forge.seeding import derive_rng


class TestKmeans:
    def test_single_cluster_is_the_mean(self, rng):
        points = rng.normal(size=(40, 3))
        cent = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(cent.means[0], points.mean(axis=0), atol=1e-12)

    def test_two_clusters_match_exhaustive_partition_search(self):
        # Four points, two obvious pairs.  Enumerate every 2-partition and
        # verify Lloyd's answer reaches the global SSE minimum.
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        best = math.inf
        for mask in itertools.product([0, 1], repeat=4):
            if len(set(mask)) < 2:
                continue
            sse = 0.0
            for j in (0, 1):
                members = points[np.array(mask) == j]
                sse += ((members - members.mean(axis=0)) ** 2).sum()
            best = min(best, sse)
        cent = kmeans(points, 2, seed=0)
        diff = points[:, None] - cent.means[None]
        sse = ((diff**2).sum(-1).min(axis=1)).sum()
        assert sse == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(1.0)

    def test_inertia_never_increases(self, rng):
        for seed in range(3):
            points = np.random.default_rng(seed).normal(size=(60, 4))
            history = kmeans(points, 5, seed=seed).inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_deterministic_given_seed(self, rng):
        points = rng.normal(size=(50, 3))
        a = kmeans(points, 4, seed=3)
        b = kmeans(points, 4, seed=3)
        np.testing.assert_array_equal(a.means, b.means)

    def test_every_cluster_owns_points_at_convergence(self, rng):
        for seed in range(4):
            points = np.random.default_rng(seed + 10).normal(size=(50, 2))
            cent = kmeans(points, 8, seed=seed)
            diff = points[:, None] - cent.means[None]
            assign = (diff**2).sum(-1).argmin(axis=1)
            assert len(np.unique(assign)) == 8

    def test_duplicate_points_fewer_than_k_still_terminate(self):
        points = np.zeros((6, 2))
        points[3:] += 1.0
        cent = kmeans(points, 3, seed=0)
        assert cent.means.shape == (3, 2)
        assert np.all(np.isfinite(cent.means))

    def test_separated_blobs_converge_before_the_iteration_cap(self, rng):
        centres = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        points = np.concatenate([c + rng.normal(size=(20, 2)) for c in centres])
        cent = kmeans(points, 3, seed=0)
        assert len(cent.inertia_history) < _MAX_ITERS
        # The last update moved no centroid, so it left the inertia unchanged.
        assert cent.inertia_history[-1] == pytest.approx(cent.inertia_history[-2], rel=1e-12)
        found = sorted(map(tuple, np.round(cent.means, 6)))
        expected = sorted(map(tuple, np.round([points[20 * j : 20 * (j + 1)].mean(axis=0) for j in range(3)], 6)))
        assert found == expected

    def test_more_clusters_than_points_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 4, seed=0)

    @pytest.mark.parametrize(
        "n, dim, k", [(40, 3, 1), (200, 7, 5), (300, 64, 8), (6, 2, 3), (500, 16, 12)]
    )
    def test_equals_the_dense_distance_formula(self, n, dim, k):
        points = np.random.default_rng(n + dim + k).normal(size=(n, dim))
        if n == 6:
            points[:3] = 0.0
            points[3:] = 1.0  # fewer distinct points than clusters: empty-cluster re-seeding
        for seed in range(3):
            cent = kmeans(points, k, seed=seed)
            means, history = dense_kmeans(points, k, seed)
            np.testing.assert_array_equal(cent.means, means)
            assert cent.inertia_history == history
            gate = initial_gate(points, cent)
            scores = -dense_sq_distances(points, cent.means) / median_sq_distance(cent)
            np.testing.assert_array_equal(gate.weights, softmax(scores))


class TestSqDistances:
    @pytest.mark.parametrize("n", [2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 37, 17])
    def test_blocks_equal_the_unblocked_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for dim in (3, 64, 257):
            points, means = rng.normal(size=(n, dim)), rng.normal(size=(5, dim))
            want = np.empty((n, 5))
            for j, mean in enumerate(means):
                diff = points - mean
                want[:, j] = np.einsum("nd,nd->n", diff, diff)
            np.testing.assert_array_equal(_sq_distances(points, means), want)


def dense_sq_distances(points, means):
    diff = points[:, None, :] - means[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def dense_kmeans(points, k, seed, max_iters=100, tol=1e-8):
    """kmeans with an [N, K, dim] distance temporary and two distance passes per iteration."""
    rng = derive_rng(seed, "kmeans")
    n = len(points)
    means = np.empty((k, points.shape[1]))
    means[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        dist = np.einsum("nd,nd->n", points - means[j - 1], points - means[j - 1])
        closest = np.minimum(closest, dist)
        total = closest.sum()
        if total <= 0:
            means[j] = points[rng.integers(n)]
        else:
            means[j] = points[rng.choice(n, p=closest / total)]
    history = []
    for _ in range(max_iters):
        dists = dense_sq_distances(points, means)
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
                point_dist[far] = 0.0
        shift = np.sqrt(((new_means - means) ** 2).sum(axis=1)).max()
        means = new_means
        history.append(float(dense_sq_distances(points, means).min(axis=1).sum()))
        if shift < tol:
            break
    return means, tuple(history)


class TestInitialGate:
    def test_two_centroid_closed_form(self):
        # embedding sits exactly on centroid 0; centroid 1 is 2 away
        cent = Centroids(means=np.array([[0.0, 0.0], [2.0, 0.0]]))
        gate = initial_gate(np.array([[0.0, 0.0]]), cent, temperature=2.0)
        expected = np.array([1.0, math.exp(-2.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(gate.weights[0], expected, atol=1e-15)
        assert gate.weights[0, 0] == pytest.approx(0.8807970779778823)

    def test_rows_are_stochastic(self, rng):
        cent = Centroids(means=rng.normal(size=(5, 3)))
        gate = initial_gate(rng.normal(size=(30, 3)), cent, temperature=1.0)
        assert np.all(gate.weights > 0)
        np.testing.assert_allclose(gate.weights.sum(axis=1), np.ones(30), atol=1e-12)

    def test_low_temperature_approaches_nearest_centroid_one_hot(self, rng):
        cent = Centroids(means=rng.normal(size=(4, 3)))
        points = rng.normal(size=(25, 3))
        gate = initial_gate(points, cent, temperature=1e-6)
        diff = points[:, None] - cent.means[None]
        nearest = (diff**2).sum(-1).argmin(axis=1)
        np.testing.assert_array_equal(gate.weights.argmax(axis=1), nearest)
        assert gate.weights.max(axis=1).min() > 0.999

    def test_default_temperature_is_median_pairwise_squared_distance(self):
        cent = Centroids(means=np.array([[0.0], [1.0], [3.0]]))
        # pairwise squared distances: 1, 9, 4 -> median 4
        assert median_sq_distance(cent) == pytest.approx(4.0)
        gate = initial_gate(np.array([[0.5]]), cent)
        assert gate.temperature == pytest.approx(4.0)

    def test_equidistant_point_gets_uniform_weights(self):
        cent = Centroids(means=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        gate = initial_gate(np.array([[0.0, 0.0]]), cent, temperature=0.7)
        np.testing.assert_allclose(gate.weights[0], [0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch_rejected(self, rng):
        cent = Centroids(means=rng.normal(size=(3, 4)))
        with pytest.raises(ShapeError):
            initial_gate(rng.normal(size=(5, 3)), cent, temperature=1.0)

    def test_non_positive_temperature_rejected(self, rng):
        cent = Centroids(means=rng.normal(size=(3, 2)))
        with pytest.raises(ValueError):
            initial_gate(rng.normal(size=(5, 2)), cent, temperature=0.0)


class TestSmoothWeights:
    def test_clips_only_entries_below_the_floor(self):
        weights = np.array([[0.9, 0.1], [0.99, 0.01]])
        out = smooth_weights(weights, 0.05)
        np.testing.assert_allclose(out, [[0.9, 0.1], [0.99, 0.05]])

    def test_zero_floor_is_identity(self, rng):
        weights = rng.dirichlet(np.ones(4), size=10)
        np.testing.assert_array_equal(smooth_weights(weights, 0.0), weights)

    def test_floor_of_one_saturates_everything(self, rng):
        weights = rng.dirichlet(np.ones(4), size=10)
        np.testing.assert_array_equal(smooth_weights(weights, 1.0), np.ones((10, 4)))

    def test_rows_are_not_renormalized(self):
        out = smooth_weights(np.array([[0.5, 0.3, 0.2]]), 0.4)
        assert out.sum() == pytest.approx(1.3)

    def test_row_order_is_preserved(self, rng):
        weights = rng.dirichlet(np.ones(5), size=20)
        out = smooth_weights(weights, 0.05)
        for before, after in zip(weights, out):
            assert np.all(np.argsort(np.argsort(-before)) <= np.argsort(np.argsort(-after)) + 4)
            # clipping never swaps strict orderings
            for i in range(5):
                for j in range(5):
                    if before[i] > before[j]:
                        assert after[i] >= after[j]

    def test_floor_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            smooth_weights(np.ones((2, 2)), 1.5)


def labeled(labels, num_classes: int) -> LabeledDataset:
    """A dataset of the given labels over ``num_classes`` classes, with one zero feature."""
    return LabeledDataset(np.zeros((len(labels), 1)), np.asarray(labels), num_classes)


class TestPerClassAssignment:
    def test_matches_brute_force_mean_argmax(self, rng):
        from moe_forge.gate_init import InitialGate

        weights = rng.dirichlet(np.ones(4), size=60)
        labels = rng.integers(0, 3, size=60)
        labels[:3] = [0, 1, 2]  # every class populated
        gate = InitialGate(weights=weights, temperature=1.0)
        class_map = per_class_assignment(gate, labeled(labels, 3))
        for cls in range(3):
            expected = weights[labels == cls].mean(axis=0).argmax()
            assert class_map[cls] == expected

    def test_tie_picks_the_lower_expert_index(self):
        from moe_forge.gate_init import InitialGate

        weights = np.array([[0.5, 0.5], [0.5, 0.5]])
        gate = InitialGate(weights=weights, temperature=1.0)
        class_map = per_class_assignment(gate, labeled([0, 0], 1))
        assert class_map[0] == 0

    @pytest.mark.parametrize(
        "labels, missing", [([0, 2], 1), ([0, 1], 2)], ids=["middle_class_missing", "last_class_missing"]
    )
    def test_unpopulated_class_rejected(self, labels, missing):
        from moe_forge.gate_init import InitialGate

        gate = InitialGate(weights=np.ones((2, 2)) / 2, temperature=1.0)
        with pytest.raises(ValueError, match=f"class {missing} has no samples"):
            per_class_assignment(gate, labeled(labels, 3))
