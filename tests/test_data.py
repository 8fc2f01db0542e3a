"""Synthetic generation, CSV loading, splitting, and weighted sampling."""

import numpy as np
import pytest
from scipy import stats

from moe_forge.data import (
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    lattice_mode_means,
    load_csv,
    save_csv,
    split,
    weighted_batches,
)
from moe_forge.errors import DataError, ShapeError
from moe_forge.gate_init import kmeans
from moe_forge.seeding import derive_rng


def spec(**overrides) -> SyntheticSpec:
    base = dict(
        num_classes=3, modes_per_class=2, dim=4, mode_stddev=0.5, samples_per_mode=50, seed=0
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_counts_and_label_layout(self):
        ds, mode_ids = generate_synthetic(spec())
        assert len(ds) == 3 * 2 * 50
        assert ds.dim == 4
        # mode m belongs to class m // modes_per_class
        np.testing.assert_array_equal(ds.labels, mode_ids // 2)
        assert all(np.sum(mode_ids == m) == 50 for m in range(6))

    def test_deterministic_given_seed(self):
        a = generate_synthetic(spec()).dataset
        b = generate_synthetic(spec()).dataset
        np.testing.assert_array_equal(a.features, b.features)

    def test_different_seed_changes_samples(self):
        a = generate_synthetic(spec()).dataset
        b = generate_synthetic(spec(seed=1)).dataset
        assert not np.array_equal(a.features, b.features)

    def test_zero_stddev_collapses_onto_means(self):
        ds, mode_ids = generate_synthetic(spec(mode_stddev=0.0))
        means = lattice_mode_means(6, 4, 1.0)
        np.testing.assert_allclose(ds.features, means[mode_ids])

    def test_auto_mode_means_are_well_separated(self):
        means = lattice_mode_means(8, 16, 8.0 * 0.5)
        dists = np.sqrt(((means[:, None] - means[None]) ** 2).sum(-1))
        off_diag = dists[~np.eye(8, dtype=bool)]
        assert off_diag.min() >= 8.0 * 0.5 - 1e-12

    def test_explicit_mode_means_respected(self):
        means = np.arange(6 * 4, dtype=float).reshape(6, 4) * 10
        ds, mode_ids = generate_synthetic(spec(mode_stddev=0.0, mode_means=means))
        np.testing.assert_allclose(ds.features, means[mode_ids])

    def test_wrong_mode_means_shape_rejected(self):
        with pytest.raises(ShapeError):
            generate_synthetic(spec(mode_means=np.zeros((2, 4))))

    def test_kmeans_recovers_the_modes(self):
        # well-separated modes: clustering raw features should be nearly pure
        for seed in (0, 1, 2):
            ds, mode_ids = generate_synthetic(spec(seed=seed, mode_stddev=0.3))
            cent = kmeans(ds.features, 6, seed=seed)
            diff = ds.features[:, None, :] - cent.means[None]
            assign = (diff**2).sum(-1).argmin(axis=1)
            purity = 0
            for j in range(6):
                members = mode_ids[assign == j]
                if len(members):
                    purity += np.bincount(members).max()
            assert purity / len(ds) >= 0.99

    def test_dataset_is_immutable(self):
        ds = generate_synthetic(spec()).dataset
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(DataError):
            generate_synthetic(spec(samples_per_mode=0))


class TestLabeledDataset:
    def test_label_out_of_declared_range_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, 3]), num_classes=2)

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(
                features=np.array([[np.nan, 0.0]]), labels=np.array([0]), num_classes=1
            )


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(spec()).dataset
        path = tmp_path / "data.csv"
        save_csv(path, ds)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_allclose(loaded.features, ds.features)
        assert loaded.num_classes == ds.num_classes

    def test_header_line_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f1,f2\n0,1.0,2.0\n1,3.0,4.0\n")
        ds = load_csv(path)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_error_names_the_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_non_numeric_feature_error_names_the_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0,2.0\n1,3.0,oops\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_label_beyond_declared_count_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n5,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, num_classes=3)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n1.5,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_class_count_inferred_from_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n4,2.0\n")
        assert load_csv(path).num_classes == 5


class TestSplit:
    def test_half_half_preserves_class_proportions(self):
        ds = generate_synthetic(spec(samples_per_mode=50)).dataset  # 100 per class
        left, right = split(ds, [0.5, 0.5], seed=0)
        for part in (left, right):
            assert len(part) == 150
            assert all((part.labels == c).sum() == 50 for c in range(3))

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = generate_synthetic(spec(samples_per_mode=17)).dataset
        parts = split(ds, [0.6, 0.2, 0.2], seed=1)
        assert sum(len(p) for p in parts) == len(ds)
        rows = np.vstack([p.features for p in parts])
        assert np.unique(rows, axis=0).shape[0] == len(ds)

    def test_deterministic(self):
        ds = generate_synthetic(spec()).dataset
        a = split(ds, [0.7, 0.3], seed=5)[0]
        b = split(ds, [0.7, 0.3], seed=5)[0]
        np.testing.assert_array_equal(a.features, b.features)

    def test_empty_stratum_is_an_error(self):
        ds = generate_synthetic(spec(samples_per_mode=2, modes_per_class=1)).dataset
        with pytest.raises(DataError):
            split(ds, [0.9, 0.1], seed=0)  # 0.1 of 2 samples floors to 0

    def test_fractions_must_sum_to_one(self):
        ds = generate_synthetic(spec()).dataset
        with pytest.raises(DataError):
            split(ds, [0.5, 0.4], seed=0)


class TestWeightedBatches:
    def test_one_hot_weight_yields_only_that_sample(self):
        ds = generate_synthetic(spec()).dataset
        weights = np.zeros(len(ds))
        weights[17] = 1.0
        stream = weighted_batches(ds, weights, batch_size=8, seed=0)
        for _ in range(5):
            np.testing.assert_array_equal(next(stream), np.full(8, 17))

    def test_uniform_weights_cover_all_samples_evenly(self):
        ds = generate_synthetic(spec(samples_per_mode=10)).dataset  # N = 60
        n = len(ds)
        stream = weighted_batches(ds, np.ones(n), batch_size=100, seed=1)
        draws = np.concatenate([next(stream) for _ in range(1000)])  # 1e5 draws
        counts = np.bincount(draws, minlength=n)
        expected = len(draws) / n
        sigma = np.sqrt(len(draws) * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 3 * sigma + 1e-9)

    def test_two_to_one_ratio_converges(self):
        ds = generate_synthetic(spec(samples_per_mode=1)).dataset  # 6 samples
        weights = np.array([2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        stream = weighted_batches(ds, weights, batch_size=1000, seed=2)
        draws = np.concatenate([next(stream) for _ in range(300)])  # 3e5 draws
        frac = (draws == 0).mean()
        assert abs(frac - 2.0 / 3.0) <= 0.01

    def test_chi_square_goodness_of_fit(self):
        ds = generate_synthetic(spec(samples_per_mode=10)).dataset
        n = len(ds)
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.5, 2.0, size=n)
        stream = weighted_batches(ds, weights, batch_size=1000, seed=3)
        draws = np.concatenate([next(stream) for _ in range(100)])  # 1e5 draws
        counts = np.bincount(draws, minlength=n)
        expected = weights / weights.sum() * len(draws)
        _, p_value = stats.chisquare(counts, expected)
        assert p_value > 0.001

    def test_deterministic_given_seed(self):
        ds = generate_synthetic(spec()).dataset
        a = next(weighted_batches(ds, np.ones(len(ds)), 32, seed=9))
        b = next(weighted_batches(ds, np.ones(len(ds)), 32, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_stream_equals_generator_choice(self):
        ds = generate_synthetic(spec()).dataset
        n = len(ds)
        for seed in range(4):
            weights = np.random.default_rng(seed).uniform(0.0, 3.0, size=n) ** 3
            weights[::5] = 0.0
            stream = weighted_batches(ds, weights, batch_size=64, seed=seed)
            rng = derive_rng(seed, "weighted-batches")
            for _ in range(50):
                expected = rng.choice(n, size=64, p=weights / weights.sum())
                batch = next(stream)
                assert batch.dtype == expected.dtype
                np.testing.assert_array_equal(batch, expected)

    def test_negative_weights_rejected(self):
        ds = generate_synthetic(spec()).dataset
        weights = np.ones(len(ds))
        weights[0] = -1.0
        with pytest.raises(ValueError):
            next(weighted_batches(ds, weights, 8, seed=0))

    def test_all_zero_weights_rejected(self):
        ds = generate_synthetic(spec()).dataset
        with pytest.raises(ValueError):
            next(weighted_batches(ds, np.zeros(len(ds)), 8, seed=0))
