"""Specialization tables, reliability diagrams, and routing disagreement."""

import numpy as np
import pytest

from moe_forge.analysis import (
    gate_disagreement,
    model_reliability,
    oracle_per_class_eval,
    reliability_table,
    specialization_table,
)
from moe_forge.data import LabeledDataset
from moe_forge.errors import ShapeError
from moe_forge.model import evaluate_dataset
from moe_forge.nn import forward_batch

from conftest import blob_dataset, random_model
from test_anytime import fixed_output_model


class TestSpecialization:
    def test_matches_a_per_sample_loss_loop(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=101, samples_per_mode=12)
        ev = evaluate_dataset(model, ds.features)
        table = specialization_table(ev, ds)
        expected = np.zeros((model.num_experts, ds.num_classes), dtype=np.int64)
        for i in range(len(ds)):
            losses = [
                -np.log(ev.expert_probs[k, i, ds.labels[i]]) for k in range(model.num_experts)
            ]
            expected[int(np.argmin(losses)), ds.labels[i]] += 1
        np.testing.assert_array_equal(table.counts, expected)
        assert table.counts.sum() == len(ds)

    def test_crafted_experts_win_their_own_class(self, rng):
        # Expert k is confident in class k, so it wins every class-k sample.
        biases = [np.eye(3)[k] * 8.0 for k in range(3)]
        model = fixed_output_model(
            base_probs=(1 / 3, 1 / 3, 1 / 3), gate_probs=(1 / 3, 1 / 3, 1 / 3),
            expert_biases=biases,
        )
        features = rng.normal(size=(30, 4))
        labels = np.repeat(np.arange(3), 10).astype(np.int64)
        ds = LabeledDataset(features=features, labels=labels, num_classes=3)
        table = specialization_table(evaluate_dataset(model, ds.features), ds)
        np.testing.assert_array_equal(table.counts, np.eye(3, dtype=np.int64) * 10)

    def test_per_class_view_normalizes_columns(self):
        from moe_forge.analysis import SpecializationTable

        table = SpecializationTable(counts=np.array([[3, 0], [1, 0]]))
        frac = table.per_class()
        np.testing.assert_allclose(frac.counts, [[0.75, 0.0], [0.25, 0.0]])
        assert frac.normalization == "per_class"

    def test_csv_shape_and_header(self):
        from moe_forge.analysis import SpecializationTable

        table = SpecializationTable(counts=np.array([[3, 2], [1, 4]]))
        lines = table.to_csv().splitlines()
        assert lines[0] == "expert,class_0,class_1"
        assert lines[1] == "0,3,2"
        assert lines[2] == "1,1,4"


class TestReliability:
    def test_hand_counted_bins(self):
        conf = np.array([0.05, 0.15, 0.15, 0.95, 0.95, 0.95])
        correct = np.array([True, True, False, True, True, False])
        table = reliability_table(conf, correct, num_bins=10)
        assert table.counts[0] == 1 and table.accuracy[0] == 1.0
        assert table.counts[1] == 2 and table.accuracy[1] == 0.5
        assert table.counts[9] == 3 and table.accuracy[9] == pytest.approx(2 / 3)
        assert table.counts.sum() == 6

    def test_confidence_one_lands_in_the_top_bin(self):
        table = reliability_table(np.array([1.0]), np.array([True]), num_bins=4)
        assert table.counts[3] == 1
        assert table.counts[:3].sum() == 0

    def test_empty_bins_report_nan_accuracy(self):
        table = reliability_table(np.array([0.05]), np.array([True]), num_bins=2)
        assert table.counts[1] == 0
        assert np.isnan(table.accuracy[1])

    def test_single_bin_collects_everything(self, rng):
        conf = rng.uniform(size=50)
        correct = rng.uniform(size=50) > 0.5
        table = reliability_table(conf, correct, num_bins=1)
        assert table.counts[0] == 50
        assert table.accuracy[0] == pytest.approx(correct.mean())

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(ValueError):
            reliability_table(np.array([1.2]), np.array([True]))
        with pytest.raises(ValueError):
            reliability_table(np.array([-0.1]), np.array([True]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reliability_table(np.array([0.5, 0.5]), np.array([True]))

    def test_well_calibrated_predictions_track_the_diagonal(self, rng):
        # Correctness drawn as Bernoulli(confidence): bin accuracy should sit
        # near the bin center, within 3 sigma of the binomial noise.
        n = 20000
        conf = rng.uniform(size=n)
        correct = rng.uniform(size=n) < conf
        table = reliability_table(conf, correct, num_bins=10)
        centers = 0.5 * (table.bin_edges[:-1] + table.bin_edges[1:])
        for center, count, acc in zip(centers, table.counts, table.accuracy):
            sigma = np.sqrt(center * (1 - center) / count)
            assert abs(acc - center) <= 3 * sigma + 0.01

    def test_csv_header_and_rows(self):
        table = reliability_table(np.array([0.25, 0.75]), np.array([True, False]), num_bins=2)
        lines = table.to_csv().splitlines()
        assert lines[0] == "bin_low,bin_high,count,accuracy"
        assert lines[1] == "0.0,0.5,1,1.0"
        assert lines[2] == "0.5,1.0,1,0.0"

    def test_model_reliability_runs_on_a_real_model(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=111, samples_per_mode=20)
        table = model_reliability(evaluate_dataset(model, ds.features), ds, num_bins=5)
        assert table.counts.sum() == len(ds)


class TestOraclePerClass:
    def test_true_class_routing_uses_the_mapped_expert(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=121, samples_per_mode=10)
        class_map = np.array([0, 2, 1])
        ev = evaluate_dataset(model, ds.features)
        acc = oracle_per_class_eval(ev, class_map, ds)
        hits = 0
        for i in range(len(ds)):
            expert = class_map[ds.labels[i]]
            hits += int(ev.combined[expert, i].argmax() == ds.labels[i])
        assert acc == pytest.approx(hits / len(ds), abs=1e-12)

    def test_single_expert_oracle_equals_that_experts_accuracy(self, rng):
        model = random_model(rng, num_experts=1)
        ds = blob_dataset(seed=122, samples_per_mode=10)
        ev = evaluate_dataset(model, ds.features)
        acc = oracle_per_class_eval(ev, np.zeros(3, dtype=np.int64), ds)
        expected = (ev.combined[0].argmax(axis=1) == ds.labels).mean()
        assert acc == pytest.approx(expected, abs=1e-12)

    def test_bad_class_map_rejected(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=123, samples_per_mode=5)
        ev = evaluate_dataset(model, ds.features)
        with pytest.raises(ShapeError):
            oracle_per_class_eval(ev, np.zeros(2, dtype=np.int64), ds)
        with pytest.raises(ShapeError):
            oracle_per_class_eval(ev, np.array([0, 1, 5]), ds)


class TestGateDisagreement:
    def test_three_of_ten_moved_from_two_to_five(self):
        a = np.full(10, 2, dtype=np.int64)
        b = a.copy()
        b[:3] = 5
        labels = np.zeros(10, dtype=np.int64)
        report = gate_disagreement(a, b, labels, num_experts=6)
        assert report.fraction == pytest.approx(0.3)
        assert report.transition_counts[2, 5] == 3
        assert report.transition_counts[2, 2] == 7
        assert report.transition_counts.sum() == 10
        assert report.per_class_transitions == [(0, 2, 5, 3)]

    def test_identical_assignments_only_fill_the_diagonal(self, rng):
        a = rng.integers(0, 4, size=50)
        report = gate_disagreement(a, a, rng.integers(0, 3, size=50))
        assert report.fraction == 0.0
        off_diagonal = report.transition_counts.sum() - np.trace(report.transition_counts)
        assert off_diagonal == 0
        assert report.per_class_transitions == []

    def test_transitions_sorted_by_count_then_keys(self):
        a = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        b = np.array([1, 1, 1, 0, 0, 0], dtype=np.int64)
        labels = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        report = gate_disagreement(a, b, labels)
        assert report.per_class_transitions == [
            (0, 0, 1, 3),
            (1, 1, 0, 2),
            (2, 2, 0, 1),
        ]
        csv = report.transitions_csv().splitlines()
        assert csv[0] == "class,from_expert,to_expert,count"
        assert csv[1] == "0,0,1,3"

    def test_tied_counts_order_by_class_then_experts(self):
        a = np.array([0, 1], dtype=np.int64)
        b = np.array([1, 0], dtype=np.int64)
        labels = np.array([1, 0], dtype=np.int64)
        report = gate_disagreement(a, b, labels)
        assert report.per_class_transitions == [(0, 1, 0, 1), (1, 0, 1, 1)]

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ShapeError):
            gate_disagreement(np.array([0, 1]), np.array([0]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            gate_disagreement(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
