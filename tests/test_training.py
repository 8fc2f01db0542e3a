"""Gate fitting, expert training, the EM machinery, and the full pipeline."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from moe_forge.data import LabeledDataset, weighted_batches
from moe_forge.errors import PipelineError, ShapeError
from moe_forge.gate_init import initial_gate, kmeans
from moe_forge.jsonio import dumps
from moe_forge.model import Ensembler, Gate, MoEModel, gate_to_doc, model_to_doc
from moe_forge.seeding import derive_seed
from moe_forge.nn import (
    Layer,
    Network,
    SgdConfig,
    dataset_loss,
    forward_batch,
    init_network,
    network_to_doc,
    sgd_train,
    softmax,
)
from moe_forge.training import (
    Posterior,
    TrainPlan,
    dataset_hash,
    e_step,
    elbo,
    expert_tail,
    fit_gate,
    m_step,
    mean_kl,
    plan_hash,
    run_pipeline,
    segment_lengths,
    train_base,
    train_ensembler,
    train_expert,
    train_gate,
)

from conftest import blob_dataset, random_model, staged_recipe


def network_doc(dims: list[int]) -> dict:
    """The JSON document of a fresh network of the given layer widths, tapped at layer 0."""
    return json.loads(dumps(network_to_doc(init_network(dims, tap_index=0, seed=0))))


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


def old_fit_linear_softmax(inputs, targets, cfg, start=None):
    """The gate fit's own momentum-SGD loop, as it was before the gate went through sgd_train."""
    n, p = inputs.shape
    rows = targets.shape[1]
    gate = Gate(start.weight.copy(), start.bias.copy()) if start is not None else Gate(np.zeros((rows, p)), np.zeros(rows))
    vel_w = np.zeros_like(gate.weight)
    vel_b = np.zeros_like(gate.bias)
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        decays = sum(1 for e in cfg.lr_decay_epochs if epoch >= e)
        lr = cfg.learning_rate / (cfg.lr_decay_factor**decays)
        perm = rng.permutation(n)
        for startx in range(0, n, cfg.batch_size):
            idx = perm[startx : startx + cfg.batch_size]
            x = inputs[idx]
            probs = softmax(x @ gate.weight.T + gate.bias)
            delta = (probs - targets[idx]) * np.ones(n)[idx, None] / len(idx)
            vel_w = cfg.momentum * vel_w + delta.T @ x
            vel_b = cfg.momentum * vel_b + delta.sum(axis=0)
            gate.weight -= lr * vel_w
            gate.bias -= lr * vel_b
    return gate


def old_sgd_train_sampled(net, features, labels, ds, sample_weights, cfg):
    """The weighted-sampling training loop, as it was before it became an sgd_train batch source."""
    out = net.copy()
    velocity = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in out.layers]
    stream = weighted_batches(ds, sample_weights, cfg.batch_size, seed=cfg.seed)
    for epoch in range(cfg.epochs):
        decays = sum(1 for e in cfg.lr_decay_epochs if epoch >= e)
        lr = cfg.learning_rate / (cfg.lr_decay_factor**decays)
        for _ in range(math.ceil(len(ds) / cfg.batch_size)):
            idx = next(stream)
            # backward with label indices and unit loss weights, as it was
            x, batch_labels, weights = features[idx], labels[idx], np.ones(cfg.batch_size)
            acts, pre, a = [x], [], x
            for layer in out.layers:
                z = a @ layer.weight.T + layer.bias
                pre.append(z)
                a = np.maximum(z, 0.0) if layer.activation == "relu" else z
                acts.append(a)
            probs = softmax(acts[-1])
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(idx)), batch_labels] = 1.0
            delta = (probs - onehot) * weights[:, None] / len(idx)
            grads = [None] * len(out.layers)
            for i in range(len(out.layers) - 1, -1, -1):
                grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
                if i > 0:
                    delta = delta @ out.layers[i].weight
                    if out.layers[i - 1].activation == "relu":
                        delta = delta * (pre[i - 1] > 0)
            for layer, (vw, vb), (gw, gb) in zip(out.layers, velocity, grads):
                vw *= cfg.momentum
                vw += gw
                vb *= cfg.momentum
                vb += gb
                layer.weight -= lr * vw
                layer.bias -= lr * vb
    return out


class TestFitLinearSoftmax:
    """The gate fit: a one-layer linear network trained by sgd_train on target rows."""

    def test_recovers_a_realizable_target_map(self, rng):
        true = Gate(weight=rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        x = rng.normal(size=(200, 5))
        targets = true.distribution_batch(x)
        cfg = SgdConfig(learning_rate=0.5, epochs=150, batch_size=64, seed=1)
        fitted = fit_gate(x, targets, cfg)
        assert mean_kl(targets, fitted.distribution_batch(x)) < 1e-3

    def test_uniform_targets_leave_zero_parameters_untouched(self, rng):
        x = rng.normal(size=(50, 4))
        targets = np.full((50, 3), 1.0 / 3.0)
        fitted = fit_gate(x, targets, SgdConfig(epochs=5, seed=0))
        np.testing.assert_array_equal(fitted.weight, np.zeros((3, 4)))
        np.testing.assert_array_equal(fitted.bias, np.zeros(3))

    def test_zero_weight_samples_are_ignored(self, rng):
        # Two contradictory samples at the same input; only one carries weight.
        x = np.vstack([np.ones((20, 2)), np.ones((20, 2))])
        targets = np.vstack([np.tile([1.0, 0.0], (20, 1)), np.tile([0.0, 1.0], (20, 1))])
        weights = np.concatenate([np.ones(20), np.zeros(20)])
        cfg = SgdConfig(learning_rate=0.5, epochs=200, batch_size=8, seed=2)
        net = Network([Layer(np.zeros((2, 2)), np.zeros(2), "identity")], tap_index=0)
        fitted = sgd_train(net, x, targets, weights, cfg).layers[0]
        probs = Gate(fitted.weight, fitted.bias).distribution_batch(np.ones((1, 2)))
        assert probs[0, 0] > 0.99

    def test_warm_start_with_wrong_shape_rejected(self, rng):
        start = Gate(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            fit_gate(rng.normal(size=(10, 5)), rng.dirichlet(np.ones(2), 10), SgdConfig(), start=start)
        start = Gate(weight=np.zeros((3, 5)), bias=np.zeros(3))
        with pytest.raises(ShapeError):
            fit_gate(rng.normal(size=(10, 5)), rng.dirichlet(np.ones(2), 10), SgdConfig(), start=start)

    def test_misaligned_targets_rejected(self, rng):
        with pytest.raises(ShapeError):
            fit_gate(rng.normal(size=(10, 5)), rng.dirichlet(np.ones(2), 9), SgdConfig())

    @pytest.mark.parametrize(
        "n, dim, rows, warm, seed",
        [(71, 2, 3, False, 0), (650, 26, 7, False, 1), (300, 13, 5, True, 2),
         (129, 8, 4, True, 3), (512, 20, 6, False, 4), (97, 5, 3, True, 5)],
    )
    def test_equals_the_old_fit_loop_bit_for_bit(self, n, dim, rows, warm, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        targets = rng.dirichlet(np.ones(rows), size=n)
        start = Gate(rng.normal(size=(rows, dim)), rng.normal(size=rows)) if warm else None
        before = Gate(start.weight.copy(), start.bias.copy()) if warm else None
        cfg = SgdConfig(learning_rate=0.5, momentum=0.9, batch_size=64, epochs=6,
                        lr_decay_epochs=(2, 4), lr_decay_factor=5.0, seed=seed)
        got = fit_gate(x, targets, cfg, start)
        want = old_fit_linear_softmax(x, targets, cfg, start)
        assert np.array_equal(got.weight, want.weight) and np.array_equal(got.bias, want.bias)
        if warm:  # the start is copied, not trained in place
            assert np.array_equal(start.weight, before.weight) and np.array_equal(start.bias, before.bias)


class TestTrainGate:
    def test_gate_reproduces_the_clustering_assignment(self):
        # The soft assignment is an exact linear-softmax function of the
        # embedding (the shared ||z||^2 term cancels), so a fitted gate
        # should match it closely in total variation.
        ds = blob_dataset(seed=3, num_classes=3, samples_per_mode=60)
        base = train_base(ds, [4, 6, 3], 0, SgdConfig(epochs=10, seed=0))
        fp = forward_batch(base, ds.features)
        centroids = kmeans(fp.prelogits, 3, seed=5)
        init = initial_gate(fp.prelogits, centroids)
        gate = train_gate(init.weights, fp, SgdConfig(learning_rate=0.5, epochs=60, seed=0))
        tv = 0.5 * np.abs(gate.distribution_batch(fp.prelogits) - init.weights).sum(axis=1)
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
        self.fp = forward_batch(self.base, self.ds.features)
        self.tap = self.fp.tap
        self.start = expert_tail(self.base)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            train_expert(0, self.fp, np.zeros(len(self.ds)), self.ds, SgdConfig(epochs=1), self.start)

    def test_unknown_negative_handling_rejected(self):
        with pytest.raises(ValueError, match="negative_handling"):
            train_expert(0, self.fp, np.ones(len(self.ds)), self.ds, SgdConfig(epochs=1), self.start, "drop")

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(ShapeError):
            train_expert(0, self.fp, np.ones(3), self.ds, SgdConfig(epochs=1), self.start)

    def test_reweight_training_reduces_weighted_loss(self):
        w = np.where(self.ds.labels == 0, 1.0, 0.05)
        before = dataset_loss(self.start, self.tap, self.ds.labels, w)
        expert = train_expert(0, self.fp, w, self.ds, SgdConfig(epochs=8, seed=1), self.start)
        after = dataset_loss(expert, self.tap, self.ds.labels, w)
        assert after < before

    def test_sampled_training_reduces_weighted_loss(self):
        w = np.where(self.ds.labels == 1, 1.0, 0.05)
        before = dataset_loss(self.start, self.tap, self.ds.labels, w)
        expert = train_expert(0, self.fp, w, self.ds, SgdConfig(epochs=8, seed=1), self.start, "sample")
        after = dataset_loss(expert, self.tap, self.ds.labels, w)
        assert after < before

    def test_routes_differ_but_both_specialize(self):
        # The two negative-sample treatments are distinct algorithms; they
        # should produce different parameters yet both favor the upweighted class.
        w = np.where(self.ds.labels == 2, 1.0, 0.05)
        cfg = SgdConfig(epochs=8, seed=3)
        reweighted = train_expert(0, self.fp, w, self.ds, cfg, self.start, "reweight")
        sampled = train_expert(0, self.fp, w, self.ds, cfg, self.start, "sample")
        assert not np.array_equal(reweighted.layers[-1].weight, sampled.layers[-1].weight)
        mask = self.ds.labels == 2
        for net in (reweighted, sampled):
            acc = (forward_batch(net, self.tap[mask]).probs.argmax(axis=1) == 2).mean()
            assert acc >= 0.9

    def test_given_start_continues_training_it(self):
        w = np.ones(len(self.ds))
        first = train_expert(0, self.fp, w, self.ds, SgdConfig(epochs=2, seed=4), self.start)
        second = train_expert(0, self.fp, w, self.ds, SgdConfig(epochs=2, seed=5), first)
        assert not np.array_equal(first.layers[-1].weight, second.layers[-1].weight)

    @pytest.mark.parametrize("net_dims", [[6, 3], [6, 5, 3]], ids=["linear", "relu"])
    def test_sampled_training_equals_the_old_sampling_loop_bit_for_bit(self, rng, net_dims):
        w = np.where(self.ds.labels == 1, 1.0, 0.05)
        cfg = SgdConfig(learning_rate=0.1, momentum=0.9, batch_size=32, epochs=5,
                        lr_decay_epochs=(3,), seed=6)
        start = init_network(net_dims, tap_index=0, seed=8)
        got = train_expert(0, self.fp, w, self.ds, cfg, start, "sample")
        want = old_sgd_train_sampled(start, self.tap, self.ds.labels, self.ds, w, cfg)
        for a, b in zip(got.layers, want.layers):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


class TestTrainEnsembler:
    def test_parameter_free_kinds_need_no_training(self):
        ds = blob_dataset(seed=1, samples_per_mode=10)
        base = init_network([4, 6, 3], 0, seed=0)
        fp = forward_batch(base, ds.features)
        for kind in ("none", "bagging"):
            ens = train_ensembler(kind, fp, expert_tail(base), ds, np.ones(len(ds)), SgdConfig())
            assert ens.kind == kind and ens.weight is None

    def test_stacking_fits_a_combiner_at_least_as_good_as_the_expert(self):
        ds = blob_dataset(seed=2, samples_per_mode=50)
        base = train_base(ds, [4, 6, 3], 0, SgdConfig(epochs=8, seed=0))
        fp = forward_batch(base, ds.features)
        w = np.ones(len(ds))
        expert = train_expert(0, fp, w, ds, SgdConfig(epochs=6, seed=1), expert_tail(base))
        ens = train_ensembler("stacking", fp, expert, ds, w, SgdConfig(learning_rate=0.2, epochs=40, seed=2))
        assert ens.weight.shape == (3, 6)
        from moe_forge.model import apply_ensembler

        expert_probs = forward_batch(expert, fp.tap).probs
        combined = apply_ensembler(ens, fp.probs, expert_probs)
        nll = lambda p: -np.log(p[np.arange(len(ds)), ds.labels]).mean()
        assert nll(combined) <= nll(expert_probs) + 0.05


class TestBasePassRows:
    """Each stage reads the caller's base pass over the training rows; a pass over other rows is rejected."""

    def setup_method(self):
        self.ds = blob_dataset(seed=5, samples_per_mode=20)
        self.base = init_network([4, 6, 3], 0, seed=0)
        self.short = forward_batch(self.base, self.ds.features[:-1])

    def test_gate(self):
        with pytest.raises(ShapeError):
            train_gate(np.full((len(self.ds), 2), 0.5), self.short, SgdConfig(epochs=1))

    @pytest.mark.parametrize("negative_handling", ["reweight", "sample"])
    def test_expert(self, negative_handling):
        with pytest.raises(ShapeError):
            train_expert(
                0, self.short, np.ones(len(self.ds)), self.ds, SgdConfig(epochs=1), expert_tail(self.base),
                negative_handling,
            )

    def test_stacking_ensembler(self):
        with pytest.raises(ShapeError):
            train_ensembler(
                "stacking", self.short, expert_tail(self.base), self.ds, np.ones(len(self.ds)), SgdConfig(epochs=1)
            )


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
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens)


class TestEStep:
    def test_matches_brute_force_bayes_rule(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=9, samples_per_mode=15)
        fp = forward_batch(model.base, ds.features)
        post = e_step(fp, model.gate, model.experts, ds.labels)
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
        post = e_step(forward_batch(model.base, ds.features), model.gate, model.experts, ds.labels)
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
        post = e_step(forward_batch(model.base, ds.features), model.gate, model.experts, ds.labels)
        assert post.zero_mass_rows == 5
        np.testing.assert_array_equal(post.q, np.full((5, 2), 0.5))


class TestMStep:
    def test_one_hot_posterior_pulls_the_gate_to_that_expert(self):
        ds = blob_dataset(seed=21, samples_per_mode=30)
        plan = small_plan()
        result = run_pipeline(ds, plan)
        q = np.zeros((len(ds), 2))
        q[:, 0] = 1.0
        model = result.model
        gate, _ = m_step(result.base_pass, model.gate, model.experts, Posterior(q=q), ds, epochs=2, plan=plan, segment=1)
        routed = gate.distribution_batch(result.base_pass.prelogits).argmax(axis=1)
        assert (routed == 0).mean() >= 0.9

    def test_base_is_shared_not_retrained(self):
        # m_step sees only the base's forward pass, and returns new parameters
        # without touching the pass, the gate or the experts it was given.
        ds = blob_dataset(seed=21, samples_per_mode=20)
        plan = small_plan()
        result = run_pipeline(ds, plan)
        model, fp = result.model, result.base_pass
        before = dumps(model_to_doc(model))
        tap, prelogits = fp.tap.copy(), fp.prelogits.copy()
        post = e_step(fp, model.gate, model.experts, ds.labels)
        gate, experts = m_step(fp, model.gate, model.experts, post, ds, epochs=1, plan=plan, segment=1)
        assert gate is not model.gate and experts[0] is not model.experts[0]
        assert not np.array_equal(experts[0].layers[-1].weight, model.experts[0].layers[-1].weight)
        assert dumps(model_to_doc(model)) == before
        assert np.array_equal(fp.tap, tap) and np.array_equal(fp.prelogits, prelogits)


class TestElbo:
    def test_posterior_from_e_step_maximizes_the_bound(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=31, samples_per_mode=10)
        fp = forward_batch(model.base, ds.features)
        parts = (fp, model.gate, model.experts)
        best = elbo(*parts, e_step(*parts, ds.labels), ds.labels)
        for trial in range(5):
            q = rng.dirichlet(np.ones(model.num_experts), size=len(ds))
            assert elbo(*parts, Posterior(q=q), ds.labels) <= best + 1e-12

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
        parts = (fp, model.gate, model.experts)
        assert elbo(*parts, e_step(*parts, ds.labels), ds.labels) == pytest.approx(expected, abs=1e-9)


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
    def test_any_training_knob_changes_the_plan_hash(self):
        plan = small_plan()
        assert plan_hash(plan) != plan_hash(replace(plan, gamma=0.1))
        assert plan_hash(plan) != plan_hash(replace(plan, seed=8))
        assert plan_hash(plan) != plan_hash(
            replace(plan, sgd_expert=replace(plan.sgd_expert, epochs=3))
        )

    def test_plan_hash_is_stable_so_older_run_directories_resume(self):
        assert plan_hash(small_plan()) == "3a663f23bee17304c781989b54a7b0b8394e1271626874973633466c08a730da"

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
            small_plan(em_steps=-1).validate()
        with pytest.raises(ShapeError):
            small_plan(num_experts=0).validate()

    def test_unknown_ensembler_fails_before_any_stage_is_written(self, tmp_path):
        with pytest.raises(ValueError, match="boosting"):
            run_pipeline(blob_dataset(seed=45, samples_per_mode=5), small_plan(ensembler="boosting"), tmp_path)
        assert not any(tmp_path.iterdir())


class TestPipeline:
    def test_same_plan_same_data_same_bits(self):
        ds = blob_dataset(seed=41, samples_per_mode=25)
        plan = small_plan()
        a = run_pipeline(ds, plan).model
        b = run_pipeline(ds, plan).model
        assert dumps(model_to_doc(a)) == dumps(model_to_doc(b))

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
        # The asynchronous recipe, called stage by stage from the public training functions.
        ds = blob_dataset(seed=45, samples_per_mode=25)
        for plan in (small_plan(), small_plan(ensembler="stacking", negative_handling="sample")):
            via_async = staged_recipe(ds, plan)
            via_pipeline = run_pipeline(ds, replace(plan, em_steps=0)).model
            assert dumps(model_to_doc(via_async)) == dumps(model_to_doc(via_pipeline))

    def test_em_steps_are_the_e_step_m_step_loop(self):
        # The experts stage runs exactly the tested EM functions, segment by segment.
        ds = blob_dataset(seed=48, samples_per_mode=25)
        plan = small_plan(em_steps=2, expert_epochs=6, ensembler="stacking")
        result = run_pipeline(ds, plan)
        first = run_pipeline(ds, replace(plan, em_steps=0, expert_epochs=2))
        fp, gate, experts = first.base_pass, first.model.gate, first.model.experts
        for step, epochs in enumerate(segment_lengths(6, 2)[1:], start=1):
            posterior = e_step(fp, gate, experts, ds.labels)
            gate, experts = m_step(fp, gate, experts, posterior, ds, epochs, plan, segment=step)
        assert dumps(gate_to_doc(gate)) == dumps(gate_to_doc(result.model.gate))
        assert [dumps(network_to_doc(e)) for e in experts] == [
            dumps(network_to_doc(e)) for e in result.model.experts
        ]

    def test_per_class_routing_produces_a_class_map(self):
        ds = blob_dataset(seed=46, samples_per_mode=20)
        result = run_pipeline(ds, small_plan(routing="per_class"))
        assert result.class_map.shape == (3,)
        assert set(np.unique(result.class_map)) <= {0, 1}

    def test_per_class_routing_rejects_a_training_set_without_its_last_class(self):
        # The class map has one entry per class of the dataset, so a class without training
        # rows has no expert, whether it is a middle class or the last.
        ds = blob_dataset(seed=46, samples_per_mode=20)
        keep = ds.labels < 2
        ds = LabeledDataset(ds.features[keep], ds.labels[keep], ds.num_classes)
        with pytest.raises(ValueError, match="class 2 has no samples"):
            run_pipeline(ds, small_plan(routing="per_class"))

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

    def test_a_resumed_run_returns_what_the_fresh_run_returned(self, tmp_path):
        ds = blob_dataset(seed=61, samples_per_mode=20)
        plan = small_plan(routing="per_class", em_steps=2, ensembler="stacking")
        fresh = run_pipeline(ds, plan, tmp_path)
        resumed = run_pipeline(ds, plan, tmp_path)
        assert [(s.name, s.loaded) for s in resumed.stages] == [(s.name, True) for s in fresh.stages]
        np.testing.assert_array_equal(resumed.init.weights, fresh.init.weights)
        assert resumed.init.temperature == fresh.init.temperature
        np.testing.assert_array_equal(resumed.class_map, fresh.class_map)
        assert resumed.class_map.dtype == fresh.class_map.dtype
        assert resumed.zero_mass_rows == fresh.zero_mass_rows
        for name in ("tap", "prelogits", "logits", "probs"):
            np.testing.assert_array_equal(getattr(resumed.base_pass, name), getattr(fresh.base_pass, name))
        assert resumed.model.centroids.inertia_history == fresh.model.centroids.inertia_history
        assert dumps(model_to_doc(resumed.model)) == dumps(model_to_doc(fresh.model))

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
        assert fresh.model.centroids.inertia_history == direct
        assert resumed.model.centroids.inertia_history == direct

    def test_a_version_1_stage_file_is_refused_by_name(self, tmp_path):
        ds = blob_dataset(seed=58, samples_per_mode=15)
        run_pipeline(ds, small_plan(), tmp_path)
        path = tmp_path / "stages" / "gate.json"
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(PipelineError) as info:
            run_pipeline(ds, small_plan(), tmp_path)
        assert str(info.value) == f"stage checkpoint {path}: unsupported format_version 1 (expected 2)"

    def test_stage_payloads_use_the_model_document_helpers(self, tmp_path):
        ds = blob_dataset(seed=60, samples_per_mode=15)
        result = run_pipeline(ds, small_plan(ensembler="stacking"), tmp_path)
        payload = lambda name: json.loads((tmp_path / "stages" / f"{name}.json").read_text())["payload"]
        model_doc = json.loads(dumps(model_to_doc(result.model)))
        assert payload("experts")["gate"] == model_doc["gate"]
        assert payload("ensemblers")["ensemblers"] == model_doc["ensemblers"]
        assert payload("gate")["gate"]["rows"] == 2

    @pytest.mark.parametrize(
        "stage, corrupt, message, routing",
        [
            ("base", lambda p: p["network"].pop("weights"), "missing key 'network.weights'", "per_sample"),
            (
                "gate",
                lambda p: p["gate"].update(bias="0.5"),
                "key 'gate.bias': expected a list, got a string",
                "per_sample",
            ),
            (
                "experts",
                lambda p: p["experts"][1]["weights"][0].pop(),
                "key 'experts[1].weights[0]': expected 18 values for shape [3, 6], got 17",
                "per_sample",
            ),
            ("gate_init", lambda p: p.update(temperature=None), "key 'temperature': expected a number", "per_sample"),
            ("ensemblers", lambda p: p["ensemblers"].pop(), "key 'ensemblers': expected 2 entries", "per_sample"),
            ("gate_init", lambda p: p.pop("inertia_history"), "missing key 'inertia_history'", "per_sample"),
            (
                "experts",
                lambda p: p["gate"].update(rows=3, weight=p["gate"]["weight"] + [0.0] * 6, bias=[0.0] * 3),
                "key 'gate': expected a [2, 6] gate, got [3, 6]",
                "per_sample",
            ),
            (
                "ensemblers",
                lambda p: p["ensemblers"][0].update(kind="stack"),
                "unknown ensembler kind 'stack'",
                "per_sample",
            ),
            (
                "ensemblers",
                lambda p: p["ensemblers"].__setitem__(1, {"kind": "none"}),
                "key 'ensemblers[1].kind': 'none', but the plan has 'bagging'",
                "per_sample",
            ),
            (
                "ensemblers",
                lambda p: p.update(ensemblers=[{"kind": "none"}] * 2),
                "key 'ensemblers[0].kind': 'none', but the plan has 'bagging'",
                "per_sample",
            ),
            (
                "experts",
                lambda p: p["experts"].__setitem__(0, network_doc([6, 6, 3])),
                "experts[0] has layers [6->6 relu, 6->3 identity], not the base tail's [6->3 identity]",
                "per_sample",
            ),
            (
                "base",
                lambda p: p.__setitem__("network", network_doc([4, 5, 3])),
                "key 'network': layers [4->5 relu, 5->3 identity] with tap_index 0, "
                "not the plan's [4->6 relu, 6->3 identity] with tap_index 0",
                "per_sample",
            ),
            (
                "base",
                lambda p: p["network"].update(tap_index=1),
                "key 'network': layers [4->6 relu, 6->3 identity] with tap_index 1, "
                "not the plan's [4->6 relu, 6->3 identity] with tap_index 0",
                "per_sample",
            ),
            (
                "base",
                lambda p: p["network"]["activations"].__setitem__(0, "identity"),
                "key 'network': layers [4->6 identity, 6->3 identity] with tap_index 0, "
                "not the plan's [4->6 relu, 6->3 identity] with tap_index 0",
                "per_sample",
            ),
            (
                "gate_init",
                lambda p: p.update(class_map=[-1, 0, 1]),
                "key 'class_map': entries must lie in 0..1, got [-1, 0, 1]",
                "per_class",
            ),
            (
                "gate_init",
                lambda p: p.update(class_map=[7, 0, 1]),
                "key 'class_map': entries must lie in 0..1, got [7, 0, 1]",
                "per_class",
            ),
            (
                "gate_init",
                lambda p: p.update(class_map=None),
                "key 'class_map': null, but the plan's routing is 'per_class'",
                "per_class",
            ),
            (
                "gate_init",
                lambda p: p.update(class_map=[0, 1, 1]),
                "key 'class_map': a map, but the plan's routing is 'per_sample'",
                "per_sample",
            ),
            (
                "gate_init",
                lambda p: p.update(temperature=0),
                "key 'temperature': must be positive, got 0.0",
                "per_sample",
            ),
        ],
        ids=[
            "base", "gate", "experts", "gate_init", "ensemblers", "inertia_history", "gate_rows", "kind",
            "plan_kind", "plan_kind_everywhere", "expert_layout", "base_dims", "base_tap", "base_activation",
            "class_map_negative", "class_map_beyond_k", "class_map_missing", "class_map_unplanned", "temperature_zero",
        ],
    )
    def test_malformed_stage_file_names_the_file_and_the_key(self, tmp_path, stage, corrupt, message, routing):
        ds = blob_dataset(seed=59, samples_per_mode=15)
        plan = small_plan(routing=routing)
        run_pipeline(ds, plan, tmp_path)
        path = tmp_path / "stages" / f"{stage}.json"
        doc = json.loads(path.read_text())
        corrupt(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(PipelineError) as info:
            run_pipeline(ds, plan, tmp_path)
        assert str(info.value).startswith(f"stage checkpoint {path}: ")
        assert message in str(info.value)

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
