"""Gate fitting, expert training, the EM machinery, and the full pipeline."""

import json
from dataclasses import replace

import numpy as np
import pytest

from moe_forge.errors import PipelineError, ShapeError
from moe_forge.gate_init import initial_gate, kmeans
from moe_forge.jsonio import dumps
from moe_forge.model import Ensembler, Gate, MoEModel, model_to_doc
from moe_forge.seeding import derive_seed
from moe_forge.nn import (
    Layer,
    Network,
    SgdConfig,
    dataset_loss,
    forward_batch,
    init_network,
    softmax,
)
from moe_forge.training import (
    Posterior,
    TrainPlan,
    dataset_hash,
    e_step,
    elbo,
    expert_tail,
    fit_linear_softmax,
    m_step,
    mean_kl,
    plan_hash,
    run_algorithm1,
    run_em,
    run_pipeline,
    segment_lengths,
    train_base,
    train_ensembler,
    train_expert,
    train_gate,
)

from conftest import blob_dataset, random_model


def small_plan(**overrides) -> TrainPlan:
    """A plan sized for sub-second pipeline runs."""
    defaults = dict(
        layer_dims=(4, 6, 3),
        num_experts=2,
        expert_epochs=4,
        seed=7,
        sgd_base=SgdConfig(epochs=4, seed=0),
        sgd_gate=SgdConfig(learning_rate=0.5, epochs=10, seed=0),
        sgd_expert=SgdConfig(epochs=2, seed=0),
        sgd_ensembler=SgdConfig(learning_rate=0.2, epochs=3, seed=0),
    )
    defaults.update(overrides)
    return TrainPlan(**defaults)


class TestMeanKl:
    def test_zero_for_identical_distributions(self, rng):
        p = rng.dirichlet(np.ones(4), size=8)
        assert mean_kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_against_uniform_is_log_k(self):
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        assert mean_kl(t, p) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_target_entries_contribute_nothing(self):
        t = np.array([[0.0, 1.0]])
        p = np.array([[0.3, 0.7]])
        assert mean_kl(t, p) == pytest.approx(-np.log(0.7), abs=1e-12)

    def test_nonnegative(self, rng):
        t = rng.dirichlet(np.ones(3), size=20)
        p = rng.dirichlet(np.ones(3), size=20)
        assert mean_kl(t, p) >= 0.0


class TestFitLinearSoftmax:
    def test_recovers_a_realizable_target_map(self, rng):
        true = Gate(weight=rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        x = rng.normal(size=(200, 5))
        targets = true.distribution_batch(x)
        cfg = SgdConfig(learning_rate=0.5, epochs=150, batch_size=64, seed=1)
        fitted = fit_linear_softmax(x, targets, cfg)
        assert mean_kl(targets, fitted.distribution_batch(x)) < 1e-3

    def test_uniform_targets_leave_zero_parameters_untouched(self, rng):
        x = rng.normal(size=(50, 4))
        targets = np.full((50, 3), 1.0 / 3.0)
        fitted = fit_linear_softmax(x, targets, SgdConfig(epochs=5, seed=0))
        np.testing.assert_array_equal(fitted.weight, np.zeros((3, 4)))
        np.testing.assert_array_equal(fitted.bias, np.zeros(3))

    def test_zero_weight_samples_are_ignored(self, rng):
        # Two contradictory samples at the same input; only one carries weight.
        x = np.vstack([np.ones((20, 2)), np.ones((20, 2))])
        targets = np.vstack([np.tile([1.0, 0.0], (20, 1)), np.tile([0.0, 1.0], (20, 1))])
        weights = np.concatenate([np.ones(20), np.zeros(20)])
        cfg = SgdConfig(learning_rate=0.5, epochs=200, batch_size=8, seed=2)
        fitted = fit_linear_softmax(x, targets, cfg, sample_weights=weights)
        probs = fitted.distribution_batch(np.ones((1, 2)))
        assert probs[0, 0] > 0.99

    def test_warm_start_with_wrong_shape_rejected(self, rng):
        start = Gate(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            fit_linear_softmax(rng.normal(size=(10, 5)), rng.dirichlet(np.ones(2), 10), SgdConfig(), start=start)

    def test_misaligned_targets_rejected(self, rng):
        with pytest.raises(ShapeError):
            fit_linear_softmax(rng.normal(size=(10, 5)), rng.dirichlet(np.ones(2), 9), SgdConfig())


class TestTrainGate:
    def test_gate_reproduces_the_clustering_assignment(self):
        # The soft assignment is an exact linear-softmax function of the
        # embedding (the shared ||z||^2 term cancels), so a fitted gate
        # should match it closely in total variation.
        ds = blob_dataset(seed=3, num_classes=3, samples_per_mode=60)
        base = train_base(ds, [4, 6, 3], 0, SgdConfig(epochs=10, seed=0))
        prelogits = forward_batch(base, ds.features).prelogits
        centroids = kmeans(prelogits, 3, seed=5)
        init = initial_gate(prelogits, centroids)
        gate = train_gate(init.weights, base, ds, SgdConfig(learning_rate=0.5, epochs=60, seed=0))
        tv = 0.5 * np.abs(gate.distribution_batch(prelogits) - init.weights).sum(axis=1)
        assert tv.mean() <= 0.05


class TestExpertTail:
    def test_tail_copies_layers_beyond_the_tap(self):
        base = init_network([4, 6, 5, 3], tap_index=0, seed=0)
        tail = expert_tail(base)
        assert tail.input_dim == 6
        assert tail.output_dim == 3
        assert len(tail.layers) == 2
        np.testing.assert_array_equal(tail.layers[0].weight, base.layers[1].weight)

    def test_tail_is_an_independent_copy(self):
        base = init_network([4, 6, 3], tap_index=0, seed=0)
        tail = expert_tail(base)
        tail.layers[0].weight += 1.0
        assert not np.array_equal(tail.layers[0].weight, base.layers[1].weight)

    def test_single_layer_tail_has_tap_zero(self):
        base = init_network([4, 6, 3], tap_index=0, seed=0)
        assert expert_tail(base).tap_index == 0

    def test_tap_at_final_layer_leaves_no_tail(self):
        net = init_network([4, 3], tap_index=0, seed=0)
        with pytest.raises(ShapeError):
            expert_tail(net)


class TestTrainExpert:
    def setup_method(self):
        self.ds = blob_dataset(seed=11, samples_per_mode=40)
        self.base = train_base(self.ds, [4, 6, 3], 0, SgdConfig(epochs=6, seed=0))
        self.tap = forward_batch(self.base, self.ds.features).tap

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            train_expert(0, self.base, np.zeros(len(self.ds)), self.ds, SgdConfig(epochs=1))

    def test_unknown_negative_handling_rejected(self):
        with pytest.raises(ValueError, match="negative_handling"):
            train_expert(
                0, self.base, np.ones(len(self.ds)), self.ds, SgdConfig(epochs=1),
                negative_handling="drop",
            )

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(ShapeError):
            train_expert(0, self.base, np.ones(3), self.ds, SgdConfig(epochs=1))

    def test_reweight_training_reduces_weighted_loss(self):
        w = np.where(self.ds.labels == 0, 1.0, 0.05)
        before = dataset_loss(expert_tail(self.base), self.tap, self.ds.labels, w)
        expert = train_expert(0, self.base, w, self.ds, SgdConfig(epochs=8, seed=1))
        after = dataset_loss(expert, self.tap, self.ds.labels, w)
        assert after < before

    def test_sampled_training_reduces_weighted_loss(self):
        w = np.where(self.ds.labels == 1, 1.0, 0.05)
        before = dataset_loss(expert_tail(self.base), self.tap, self.ds.labels, w)
        expert = train_expert(
            0, self.base, w, self.ds, SgdConfig(epochs=8, seed=1), negative_handling="sample"
        )
        after = dataset_loss(expert, self.tap, self.ds.labels, w)
        assert after < before

    def test_routes_differ_but_both_specialize(self):
        # The two negative-sample treatments are distinct algorithms; they
        # should produce different parameters yet both favor the upweighted class.
        w = np.where(self.ds.labels == 2, 1.0, 0.05)
        cfg = SgdConfig(epochs=8, seed=3)
        reweighted = train_expert(0, self.base, w, self.ds, cfg, negative_handling="reweight")
        sampled = train_expert(0, self.base, w, self.ds, cfg, negative_handling="sample")
        assert not np.array_equal(reweighted.layers[-1].weight, sampled.layers[-1].weight)
        mask = self.ds.labels == 2
        for net in (reweighted, sampled):
            acc = (forward_batch(net, self.tap[mask]).probs.argmax(axis=1) == 2).mean()
            assert acc >= 0.9

    def test_given_start_continues_training_it(self):
        w = np.ones(len(self.ds))
        first = train_expert(0, self.base, w, self.ds, SgdConfig(epochs=2, seed=4))
        second = train_expert(0, self.base, w, self.ds, SgdConfig(epochs=2, seed=5), start=first)
        assert not np.array_equal(first.layers[-1].weight, second.layers[-1].weight)


class TestTrainEnsembler:
    def test_parameter_free_kinds_need_no_training(self):
        ds = blob_dataset(seed=1, samples_per_mode=10)
        base = init_network([4, 6, 3], 0, seed=0)
        for kind in ("none", "bagging", "top2"):
            ens = train_ensembler(kind, base, expert_tail(base), ds, np.ones(len(ds)), SgdConfig())
            assert ens.kind == kind and ens.weight is None

    def test_stacking_fits_a_combiner_at_least_as_good_as_the_expert(self):
        ds = blob_dataset(seed=2, samples_per_mode=50)
        base = train_base(ds, [4, 6, 3], 0, SgdConfig(epochs=8, seed=0))
        fp = forward_batch(base, ds.features)
        w = np.ones(len(ds))
        expert = train_expert(0, base, w, ds, SgdConfig(epochs=6, seed=1))
        ens = train_ensembler(
            "stacking", base, expert, ds, w, SgdConfig(learning_rate=0.2, epochs=40, seed=2)
        )
        assert ens.weight.shape == (3, 6)
        from moe_forge.model import apply_ensembler

        expert_probs = forward_batch(expert, fp.tap).probs
        combined = apply_ensembler(ens, fp.probs, expert_probs)
        nll = lambda p: -np.log(p[np.arange(len(ds)), ds.labels]).mean()
        assert nll(combined) <= nll(expert_probs) + 0.05


def uniform_gate_model(num_experts: int, num_classes: int, expert_biases: list[np.ndarray]):
    """Base with zero weights, uniform gate, and single-layer experts with fixed biases."""
    base = Network(
        layers=[
            Layer(np.zeros((6, 4)), np.zeros(6), "relu"),
            Layer(np.zeros((num_classes, 6)), np.zeros(num_classes), "identity"),
        ],
        tap_index=0,
    )
    experts = [
        Network(layers=[Layer(np.zeros((num_classes, 6)), b.astype(np.float64), "identity")], tap_index=0)
        for b in expert_biases
    ]
    gate = Gate(weight=np.zeros((num_experts, 6)), bias=np.zeros(num_experts))
    ens = [Ensembler("none") for _ in range(num_experts)]
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens, shared_prefix=1)


class TestEStep:
    def test_matches_brute_force_bayes_rule(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=9, samples_per_mode=15)
        post = e_step(model, ds)
        fp = forward_batch(model.base, ds.features)
        gate = model.gate.distribution_batch(fp.prelogits)
        for i in range(len(ds)):
            joint = np.array(
                [
                    gate[i, k] * forward_batch(model.experts[k], fp.tap[i : i + 1]).probs[0, ds.labels[i]]
                    for k in range(model.num_experts)
                ]
            )
            np.testing.assert_allclose(post.q[i], joint / joint.sum(), atol=1e-12)
        assert post.zero_mass_rows == 0
        np.testing.assert_allclose(post.q.sum(axis=1), np.ones(len(ds)), atol=1e-12)

    def test_confident_expert_takes_ten_thirteenths_of_the_posterior(self, rng):
        # Uniform gate, 10 classes.  One expert is certain of the true class,
        # the other three are uniform: q = (1, .1, .1, .1) normalized.
        c = 10
        biases = [np.zeros(c) for _ in range(4)]
        biases[0] = np.zeros(c)
        biases[0][0] = 50.0
        model = uniform_gate_model(4, c, biases)
        features = rng.normal(size=(8, 4))
        labels = np.zeros(8, dtype=np.int64)
        from moe_forge.data import LabeledDataset

        ds = LabeledDataset(features=features, labels=labels, num_classes=c)
        post = e_step(model, ds)
        np.testing.assert_allclose(post.q[:, 0], np.full(8, 10.0 / 13.0), atol=1e-10)
        np.testing.assert_allclose(post.q[:, 1:], np.full((8, 3), 1.0 / 13.0), atol=1e-10)

    def test_rows_with_no_likelihood_anywhere_fall_back_to_uniform(self, rng):
        # Every expert assigns probability exactly 0 to the true class
        # (the logit gap underflows), so the posterior is undefined.
        c = 3
        bias = np.array([-800.0, 0.0, 0.0])
        model = uniform_gate_model(2, c, [bias, bias.copy()])
        features = rng.normal(size=(5, 4))
        from moe_forge.data import LabeledDataset

        ds = LabeledDataset(features=features, labels=np.zeros(5, dtype=np.int64), num_classes=c)
        post = e_step(model, ds)
        assert post.zero_mass_rows == 5
        np.testing.assert_array_equal(post.q, np.full((5, 2), 0.5))


class TestMStep:
    def test_one_hot_posterior_pulls_the_gate_to_that_expert(self):
        ds = blob_dataset(seed=21, samples_per_mode=30)
        plan = small_plan()
        result = run_pipeline(ds, plan)
        q = np.zeros((len(ds), 2))
        q[:, 0] = 1.0
        updated = m_step(result.model, Posterior(q=q), ds, epochs=2, plan=plan)
        fp = forward_batch(updated.base, ds.features)
        routed = updated.gate.distribution_batch(fp.prelogits).argmax(axis=1)
        assert (routed == 0).mean() >= 0.9

    def test_base_is_shared_not_retrained(self):
        ds = blob_dataset(seed=21, samples_per_mode=20)
        plan = small_plan()
        result = run_pipeline(ds, plan)
        post = e_step(result.model, ds)
        updated = m_step(result.model, post, ds, epochs=1, plan=plan)
        assert updated.base is result.model.base
        assert updated.experts[0] is not result.model.experts[0]


class TestElbo:
    def test_posterior_from_e_step_maximizes_the_bound(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=31, samples_per_mode=10)
        best = elbo(model, e_step(model, ds), ds)
        for trial in range(5):
            q = rng.dirichlet(np.ones(model.num_experts), size=len(ds))
            assert elbo(model, Posterior(q=q), ds) <= best + 1e-12

    def test_bound_is_tight_at_the_posterior(self, rng):
        # With q set by the E step the bound equals the mean log evidence.
        model = random_model(rng)
        ds = blob_dataset(seed=32, samples_per_mode=10)
        fp = forward_batch(model.base, ds.features)
        gate = model.gate.distribution_batch(fp.prelogits)
        rows = np.arange(len(ds))
        evidence = np.zeros(len(ds))
        for k in range(model.num_experts):
            probs = forward_batch(model.experts[k], fp.tap).probs
            evidence += gate[:, k] * probs[rows, ds.labels]
        expected = float(np.log(evidence).mean())
        assert elbo(model, e_step(model, ds), ds) == pytest.approx(expected, abs=1e-9)


class TestSegmentLengths:
    def test_even_split_with_remainder_on_the_last(self):
        assert segment_lengths(8, 3) == [2, 2, 2, 2]
        assert segment_lengths(9, 3) == [2, 2, 2, 3]
        assert segment_lengths(5, 0) == [5]
        assert segment_lengths(0, 2) == [0, 0, 0]
        assert segment_lengths(3, 4) == [0, 0, 0, 0, 3]

    def test_lengths_always_sum_to_the_budget(self):
        for total in range(0, 17):
            for steps in range(0, 6):
                assert sum(segment_lengths(total, steps)) == total


class TestHashes:
    def test_worker_count_does_not_change_the_plan_hash(self):
        plan = small_plan()
        assert plan_hash(plan) == plan_hash(replace(plan, workers=8))

    def test_any_training_knob_changes_the_plan_hash(self):
        plan = small_plan()
        assert plan_hash(plan) != plan_hash(replace(plan, gamma=0.1))
        assert plan_hash(plan) != plan_hash(replace(plan, seed=8))
        assert plan_hash(plan) != plan_hash(
            replace(plan, sgd_expert=replace(plan.sgd_expert, epochs=3))
        )

    def test_dataset_hash_tracks_labels_and_features(self):
        ds = blob_dataset(seed=1, samples_per_mode=5)
        other = blob_dataset(seed=2, samples_per_mode=5)
        assert dataset_hash(ds) == dataset_hash(ds)
        assert dataset_hash(ds) != dataset_hash(other)


class TestPlanValidation:
    def test_tap_must_leave_room_for_expert_tails(self):
        with pytest.raises(ShapeError):
            small_plan(layer_dims=(4, 3)).validate()
        with pytest.raises(ShapeError):
            small_plan(tap_index=1).validate()

    def test_bad_enum_values_rejected(self):
        with pytest.raises(ValueError):
            small_plan(negative_handling="drop").validate()
        with pytest.raises(ValueError):
            small_plan(routing="per_mode").validate()

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            small_plan(workers=0).validate()
        with pytest.raises(ValueError):
            small_plan(em_steps=-1).validate()
        with pytest.raises(ShapeError):
            small_plan(num_experts=0).validate()


class TestPipeline:
    def test_same_plan_same_data_same_bits(self):
        ds = blob_dataset(seed=41, samples_per_mode=25)
        plan = small_plan()
        a = run_pipeline(ds, plan).model
        b = run_pipeline(ds, plan).model
        assert dumps(model_to_doc(a)) == dumps(model_to_doc(b))

    def test_worker_count_never_changes_the_result(self):
        ds = blob_dataset(seed=42, samples_per_mode=25)
        serial = run_pipeline(ds, small_plan(num_experts=3, workers=1)).model
        parallel = run_pipeline(ds, small_plan(num_experts=3, workers=4)).model
        assert dumps(model_to_doc(serial)) == dumps(model_to_doc(parallel))

    def test_stages_run_in_the_documented_order(self):
        ds = blob_dataset(seed=43, samples_per_mode=15)
        result = run_pipeline(ds, small_plan())
        assert [s.name for s in result.stages] == [
            "base",
            "gate_init",
            "gate",
            "experts",
            "ensemblers",
        ]
        assert not any(s.loaded for s in result.stages)

    def test_posterior_refinement_changes_the_experts(self):
        ds = blob_dataset(seed=44, samples_per_mode=25)
        plain = run_pipeline(ds, small_plan()).model
        refined = run_pipeline(ds, small_plan(em_steps=2)).model
        assert dumps(model_to_doc(plain)) != dumps(model_to_doc(refined))

    def test_zero_refinement_steps_match_the_async_recipe_bit_for_bit(self):
        ds = blob_dataset(seed=45, samples_per_mode=25)
        plan = small_plan(em_steps=3)
        via_async = run_algorithm1(ds, plan)
        via_em = run_em(ds, replace(plan, em_steps=0))
        assert dumps(model_to_doc(via_async)) == dumps(model_to_doc(via_em))

    def test_per_class_routing_produces_a_class_map(self):
        ds = blob_dataset(seed=46, samples_per_mode=20)
        result = run_pipeline(ds, small_plan(routing="per_class"))
        assert result.class_map.shape == (3,)
        assert set(np.unique(result.class_map)) <= {0, 1}

    def test_mismatched_layer_dims_rejected(self):
        ds = blob_dataset(seed=47, samples_per_mode=5)
        with pytest.raises(ShapeError):
            run_pipeline(ds, small_plan(layer_dims=(5, 6, 3)))
        with pytest.raises(ShapeError):
            run_pipeline(ds, small_plan(layer_dims=(4, 6, 4)))


class TestPipelineCheckpoints:
    def test_second_run_loads_every_stage_and_reproduces_the_model(self, tmp_path):
        ds = blob_dataset(seed=51, samples_per_mode=20)
        plan = small_plan(em_steps=1)
        first = run_pipeline(ds, plan, tmp_path)
        again = run_pipeline(ds, plan, tmp_path)
        assert all(s.loaded for s in again.stages)
        assert dumps(model_to_doc(first.model)) == dumps(model_to_doc(again.model))
        for name in ("base", "gate_init", "gate", "experts", "ensemblers"):
            assert (tmp_path / "stages" / f"{name}.json").exists()

    def test_deleting_a_late_stage_recomputes_only_that_tail(self, tmp_path):
        ds = blob_dataset(seed=52, samples_per_mode=20)
        plan = small_plan()
        first = run_pipeline(ds, plan, tmp_path)
        (tmp_path / "stages" / "experts.json").unlink()
        (tmp_path / "stages" / "ensemblers.json").unlink()
        again = run_pipeline(ds, plan, tmp_path)
        loaded = {s.name: s.loaded for s in again.stages}
        assert loaded == {
            "base": True,
            "gate_init": True,
            "gate": True,
            "experts": False,
            "ensemblers": False,
        }
        assert dumps(model_to_doc(first.model)) == dumps(model_to_doc(again.model))

    def test_fresh_and_resumed_runs_keep_the_kmeans_inertia_history(self, tmp_path):
        ds = blob_dataset(seed=57, samples_per_mode=20)
        plan = small_plan(num_experts=3)
        fresh = run_pipeline(ds, plan, tmp_path)
        prelogits = forward_batch(fresh.model.base, ds.features).prelogits
        direct = kmeans(prelogits, 3, seed=derive_seed(plan.seed, "kmeans")).inertia_history
        assert len(direct) >= 2
        resumed = run_pipeline(ds, plan, tmp_path)
        assert all(s.loaded for s in resumed.stages)
        assert fresh.centroids.inertia_history == direct
        assert resumed.centroids.inertia_history == direct

    def test_stage_file_without_inertia_history_restores_an_empty_one(self, tmp_path):
        ds = blob_dataset(seed=58, samples_per_mode=15)
        first = run_pipeline(ds, small_plan(), tmp_path)
        path = tmp_path / "stages" / "gate_init.json"
        doc = json.loads(path.read_text())
        del doc["payload"]["inertia_history"]
        path.write_text(json.dumps(doc))
        again = run_pipeline(ds, small_plan(), tmp_path)
        assert again.centroids.inertia_history == ()
        np.testing.assert_array_equal(again.centroids.means, first.centroids.means)

    def test_checkpoints_from_a_different_plan_refuse_to_load(self, tmp_path):
        ds = blob_dataset(seed=53, samples_per_mode=15)
        run_pipeline(ds, small_plan(), tmp_path)
        with pytest.raises(PipelineError, match="different plan or dataset"):
            run_pipeline(ds, small_plan(gamma=0.2), tmp_path)

    def test_checkpoints_from_a_different_dataset_refuse_to_load(self, tmp_path):
        run_pipeline(blob_dataset(seed=54, samples_per_mode=15), small_plan(), tmp_path)
        with pytest.raises(PipelineError, match="different plan or dataset"):
            run_pipeline(blob_dataset(seed=55, samples_per_mode=15), small_plan(), tmp_path)

    def test_diagnostics_written_alongside_checkpoints(self, tmp_path):
        ds = blob_dataset(seed=56, samples_per_mode=15)
        run_pipeline(ds, small_plan(), tmp_path)
        mass = (tmp_path / "diagnostics" / "expert_mass.csv").read_text().splitlines()
        assert mass[0] == "expert,argmax_count,weight_mass"
        assert len(mass) == 3  # header + one row per expert
        assert sum(int(line.split(",")[1]) for line in mass[1:]) == len(ds)
        dis = (tmp_path / "diagnostics" / "gate_disagreement.csv").read_text().splitlines()
        assert dis[0] == "fraction,changed,total"
        assert int(dis[1].split(",")[2]) == len(ds)
        trans = (tmp_path / "diagnostics" / "gate_transitions.csv").read_text().splitlines()
        assert trans[0] == "from_expert,to_expert,count"
        assert len(trans) == 1 + 2 * 2
        assert sum(int(line.split(",")[2]) for line in trans[1:]) == len(ds)
