"""Network forward/backward/SGD contracts, checked against independent arithmetic."""

import math

import numpy as np
import pytest

from moe_forge import jsonio
from moe_forge.errors import DataError, ShapeError
from moe_forge.nn import (
    Layer,
    Network,
    SgdConfig,
    backward,
    dataset_loss,
    forward,
    forward_batch,
    init_network,
    learning_rate,
    network_from_doc,
    network_to_doc,
    nll_batch,
    one_hot,
    sgd_train,
    softmax,
)
from moe_forge.training import mean_kl

from conftest import blob_dataset, random_network


def hand_built_net() -> Network:
    return Network(
        layers=[
            Layer(
                weight=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                bias=np.array([0.5, -0.5, 0.25]),
                activation="relu",
            ),
            Layer(
                weight=np.array([[1.0, -1.0, 0.5], [0.25, 0.5, -1.0]]),
                bias=np.array([0.1, -0.2]),
                activation="identity",
            ),
        ],
        tap_index=0,
    )


class TestForward:
    def test_hand_evaluated_two_layer_pass(self):
        # z1 = W1 x + b1 = (2.5, 4.5, 8.25), all positive so relu passes them
        # logits = (2.5 - 4.5 + 4.125 + 0.1, 0.625 + 2.25 - 8.25 - 0.2)
        out = forward(hand_built_net(), np.array([1.0, 0.5]))
        np.testing.assert_allclose(out.tap, [2.5, 4.5, 8.25], rtol=0, atol=0)
        np.testing.assert_allclose(out.prelogits, [2.5, 4.5, 8.25], rtol=0, atol=0)
        np.testing.assert_allclose(out.logits, [2.225, -5.575], rtol=0, atol=1e-15)
        gap = math.exp(-5.575 - 2.225)
        np.testing.assert_allclose(out.probs, [1 / (1 + gap), gap / (1 + gap)], atol=1e-15)

    def test_relu_clamps_negative_preactivations(self):
        out = forward(hand_built_net(), np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(out.tap, [0.0, 0.0, 0.0])

    def test_probs_are_a_distribution(self, rng):
        net = random_network(rng, [4, 7, 5, 3], tap_index=1)
        out = forward_batch(net, rng.normal(size=(20, 4)))
        assert np.all(out.probs > 0)
        np.testing.assert_allclose(out.probs.sum(axis=1), np.ones(20), atol=1e-12)

    def test_tap_and_prelogits_track_the_right_layers(self, rng):
        net = random_network(rng, [3, 6, 5, 4], tap_index=0)
        x = rng.normal(size=(8, 3))
        out = forward_batch(net, x)
        assert out.tap.shape == (8, 6)
        assert out.prelogits.shape == (8, 5)
        # pre-logits are the input of the final layer
        np.testing.assert_allclose(
            out.logits, out.prelogits @ net.layers[-1].weight.T + net.layers[-1].bias
        )

    def test_softmax_is_stable_under_huge_logits(self):
        probs = softmax(np.array([[1000.0, 999.0], [-1000.0, -1001.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])

    def test_wrong_input_width_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            forward(hand_built_net(), np.zeros(3))

    @pytest.mark.parametrize(
        "logits",
        [
            np.random.default_rng(1).normal(size=(1, 32)),
            np.random.default_rng(2).normal(scale=5.0, size=(200, 7)),
            np.random.default_rng(3).normal(size=9),
            np.array([[1000.0, 999.0, -1000.0], [-1000.0, -1001.0, 3e5], [7e307, -7e307, 0.0]]),
        ],
        ids=["one-row", "many-rows", "1-d", "large"],
    )
    def test_softmax_equals_the_max_sum_formula_bit_for_bit(self, logits):
        # Training and every checkpoint run through softmax, so it must not move a bit.
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want = exp / exp.sum(axis=-1, keepdims=True)
        got = softmax(logits)
        assert got.shape == logits.shape
        assert np.array_equal(got, want)


class TestNetworkValidation:
    def test_mismatched_layer_dims_rejected(self):
        with pytest.raises(ShapeError):
            Network(
                layers=[
                    Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                    Layer(np.zeros((2, 4)), np.zeros(2), "identity"),
                ],
                tap_index=0,
            )

    def test_nonlinear_final_layer_rejected(self):
        with pytest.raises(ShapeError):
            Network(layers=[Layer(np.zeros((2, 2)), np.zeros(2), "relu")], tap_index=0)

    def test_tap_index_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            Network(layers=[Layer(np.zeros((2, 2)), np.zeros(2), "identity")], tap_index=1)


def nll_one(probs: np.ndarray, label: int, weight: float) -> float:
    """nll_batch on a batch of one sample."""
    return nll_batch(probs[None, :], np.array([label]), np.array([weight]))


class TestLoss:
    def test_weighted_nll_arithmetic(self):
        probs = np.array([0.1, 0.8, 0.1])
        assert nll_one(probs, 1, 0.5) == pytest.approx(-0.5 * math.log(0.8), abs=1e-15)
        batch = np.array([[0.1, 0.8, 0.1], [0.5, 0.25, 0.25]])
        mean = (-0.5 * math.log(0.8) - 2.0 * math.log(0.25)) / 2
        assert nll_batch(batch, np.array([1, 2]), np.array([0.5, 2.0])) == pytest.approx(mean, abs=1e-15)

    def test_uniform_probability_gives_log_num_classes(self):
        probs = np.full(4, 0.25)
        assert nll_one(probs, 2, 1.0) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_zero_probability_is_clamped_not_infinite(self):
        loss = nll_one(np.array([1.0, 0.0]), 1, 1.0)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_zero_weight_means_zero_loss(self):
        assert nll_one(np.array([0.5, 0.5]), 0, 0.0) == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([0, 2]), 2)
        with pytest.raises(ShapeError):
            one_hot(np.array([-1]), 2)


def finite_difference_grads(net, x, labels, weights, loss=dataset_loss, h=1e-5):
    """Central differences on every parameter of ``loss(net, x, labels, weights)``."""
    grads = []
    for layer in net.layers:
        for param in (layer.weight, layer.bias):
            grad = np.zeros_like(param)
            flat = param.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = loss(net, x, labels, weights)
                flat[j] = orig - h
                down = loss(net, x, labels, weights)
                flat[j] = orig
                grad.reshape(-1)[j] = (up - down) / (2 * h)
            grads.append(grad)
    return grads


def max_grad_rel_error(net, x, labels, weights, loss=dataset_loss) -> float:
    """Worst relative gap between backward and central differences of ``loss``.

    ``labels`` are class labels, or target rows when ``loss`` takes rows.
    """
    targets = one_hot(labels, net.output_dim) if np.ndim(labels) == 1 else labels
    analytic = backward(net, x, targets, weights)
    numeric = finite_difference_grads(net, x, labels, weights, loss)
    flat_analytic = [g for pair in analytic for g in pair]
    worst = 0.0
    for a, f in zip(flat_analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def sample_safe_case(seed: int):
    """A random net + batch with no pre-activation near a relu kink."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
    net = random_network(rng, dims, tap_index=int(rng.integers(0, depth)))
    x = rng.normal(size=(int(rng.integers(1, 5)), dims[0]))
    labels = rng.integers(0, dims[-1], size=x.shape[0])
    weights = rng.uniform(0.1, 1.0, size=x.shape[0])
    # reject batches that straddle a relu kink; finite differences lie there
    a = x
    margin = np.inf
    for layer in net.layers:
        z = a @ layer.weight.T + layer.bias
        if layer.activation == "relu":
            margin = min(margin, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return (net, x, labels, weights) if margin > 1e-3 else None


class TestBackward:
    def test_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 10:
            case = sample_safe_case(seed)
            seed += 1
            if case is None:
                continue
            assert max_grad_rel_error(*case) <= 1e-4
            checked += 1

    def test_soft_target_rows_match_finite_differences_of_the_mean_kl(self):
        # Against a distribution the cross-entropy is the KL plus the target's entropy,
        # a constant, so backward on target rows is the gradient of mean_kl.
        kl = lambda net, x, targets, weights: mean_kl(targets, forward_batch(net, x).probs)
        checked = 0
        seed = 0
        while checked < 10:
            case = sample_safe_case(seed)
            seed += 1
            if case is None:
                continue
            net, x, labels, _ = case
            rng = np.random.default_rng(seed)
            targets = rng.dirichlet(np.ones(net.output_dim), size=len(x))
            targets[0, 0] = 0.0  # a zero entry, where the KL's 0 log 0 convention applies
            targets[0] /= targets[0].sum()
            assert max_grad_rel_error(net, x, targets, np.ones(len(x)), loss=kl) <= 1e-4
            checked += 1

    def test_one_hot_puts_a_one_at_each_label(self, rng):
        net = random_network(rng, [3, 5, 4])
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        rows = one_hot(labels, 4)
        assert rows.shape == (6, 4) and np.array_equal(rows.argmax(axis=1), labels)
        assert np.array_equal(rows.sum(axis=1), np.ones(6))

    def test_single_linear_layer_closed_form(self):
        # For softmax regression the gradient is weight * (probs - onehot) x^T.
        net = Network(
            layers=[Layer(np.array([[0.2, -0.1, 0.4], [0.0, 0.3, -0.2]]), np.array([0.1, -0.3]), "identity")],
            tap_index=0,
        )
        x = np.array([[1.5, -2.0, 0.5]])
        label, weight = 0, 0.7
        probs = forward_batch(net, x).probs[0]
        expected_delta = weight * (probs - np.array([1.0, 0.0]))
        (gw, gb), = backward(net, x, one_hot(np.array([label]), 2), np.array([weight]))
        np.testing.assert_allclose(gw, np.outer(expected_delta, x[0]), atol=1e-14)
        np.testing.assert_allclose(gb, expected_delta, atol=1e-14)

    def test_gradients_average_over_the_batch(self, rng):
        net = random_network(rng, [3, 4, 2])
        x = rng.normal(size=(4, 3))
        labels = rng.integers(0, 2, size=4)
        weights = rng.uniform(0.5, 1.5, size=4)
        rows = one_hot(labels, 2)
        full = backward(net, x, rows, weights)
        per_sample = [backward(net, x[i : i + 1], rows[i : i + 1], weights[i : i + 1]) for i in range(4)]
        for layer_idx in range(len(net.layers)):
            for part in range(2):
                mean = sum(p[layer_idx][part] for p in per_sample) / 4
                np.testing.assert_allclose(full[layer_idx][part], mean, atol=1e-14)

    def test_empty_batch_rejected(self, rng):
        net = random_network(rng, [3, 4, 2])
        with pytest.raises(DataError):
            backward(net, np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))


class TestSgdTrain:
    def test_zero_epochs_returns_identical_parameters(self, rng):
        net = random_network(rng, [4, 5, 3])
        ds = blob_dataset(num_classes=3, dim=4)
        out = sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), SgdConfig(epochs=0))
        for before, after in zip(net.layers, out.layers):
            np.testing.assert_array_equal(before.weight, after.weight)
            np.testing.assert_array_equal(before.bias, after.bias)

    def test_input_network_is_never_mutated(self, rng):
        net = random_network(rng, [4, 5, 3])
        snapshot = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        ds = blob_dataset(num_classes=3, dim=4)
        sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), SgdConfig(epochs=2, seed=1))
        for layer, (w, b) in zip(net.layers, snapshot):
            np.testing.assert_array_equal(layer.weight, w)
            np.testing.assert_array_equal(layer.bias, b)

    def test_same_config_is_bit_identical(self, rng):
        net = random_network(rng, [4, 6, 3])
        ds = blob_dataset(num_classes=3, dim=4)
        cfg = SgdConfig(epochs=3, seed=7, batch_size=16)
        a = sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), cfg)
        b = sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), cfg)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_labels_and_their_one_hot_rows_train_the_same_bits(self, rng):
        net = random_network(rng, [4, 6, 3])
        ds = blob_dataset(num_classes=3, dim=4)
        weights = rng.uniform(0.1, 1.0, size=len(ds))
        cfg = SgdConfig(epochs=3, seed=2, batch_size=16)
        a = sgd_train(net, ds.features, ds.labels, weights, cfg)
        b = sgd_train(net, ds.features, one_hot(ds.labels, 3), weights, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)

    def test_misaligned_targets_or_labels_out_of_range_rejected(self, rng):
        net = random_network(rng, [4, 6, 3])
        ds = blob_dataset(num_classes=3, dim=4)
        ones = np.ones(len(ds))
        with pytest.raises(ShapeError):
            sgd_train(net, ds.features, ds.labels[1:], ones, SgdConfig(epochs=1))
        with pytest.raises(ShapeError):
            sgd_train(net, ds.features, np.ones((len(ds), 4)) / 4, ones, SgdConfig(epochs=1))
        with pytest.raises(ShapeError):
            sgd_train(net, ds.features, ds.labels + 1, ones, SgdConfig(epochs=1))

    def test_learns_separable_blobs(self):
        ds = blob_dataset(seed=3, num_classes=3, dim=4, stddev=0.4, samples_per_mode=80)
        net = init_network([4, 8, 3], tap_index=0, seed=5)
        cfg = SgdConfig(learning_rate=0.1, epochs=40, batch_size=32, seed=11)
        trained = sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), cfg)
        accuracy = (forward_batch(trained, ds.features).probs.argmax(axis=1) == ds.labels).mean()
        assert accuracy >= 0.99

    def test_learning_rate_decay_schedule(self):
        cfg = SgdConfig(learning_rate=0.1, lr_decay_epochs=(2, 4), lr_decay_factor=5.0)
        assert learning_rate(cfg, 0) == pytest.approx(0.1)
        assert learning_rate(cfg, 1) == pytest.approx(0.1)
        assert learning_rate(cfg, 2) == pytest.approx(0.02)
        assert learning_rate(cfg, 4) == pytest.approx(0.004)

    def test_empty_dataset_rejected(self, rng):
        net = random_network(rng, [3, 4, 2])
        with pytest.raises(DataError):
            sgd_train(net, np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0), SgdConfig())

    def test_negative_weights_rejected(self, rng):
        net = random_network(rng, [3, 4, 2])
        ds = blob_dataset(num_classes=2, dim=3)
        weights = np.ones(len(ds))
        weights[0] = -0.5
        with pytest.raises(ValueError):
            sgd_train(net, ds.features, ds.labels, weights, SgdConfig(epochs=1))


class TestInit:
    def test_weight_bounds_follow_fan_in_fan_out(self):
        net = init_network([10, 20, 5], tap_index=0, seed=0)
        limit0 = math.sqrt(6.0 / 30.0)
        limit1 = math.sqrt(6.0 / 25.0)
        assert np.abs(net.layers[0].weight).max() <= limit0
        assert np.abs(net.layers[1].weight).max() <= limit1
        assert np.array_equal(net.layers[0].bias, np.zeros(20))

    def test_default_activations_hidden_relu_final_identity(self):
        net = init_network([3, 4, 4, 2], tap_index=1, seed=0)
        assert [l.activation for l in net.layers] == ["relu", "relu", "identity"]

    def test_deterministic_given_seed(self):
        a = init_network([3, 4, 2], tap_index=0, seed=9)
        b = init_network([3, 4, 2], tap_index=0, seed=9)
        np.testing.assert_array_equal(a.layers[0].weight, b.layers[0].weight)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        net = random_network(rng, [4, 7, 3], tap_index=1)
        path = tmp_path / "net.json"
        jsonio.save_json(path, network_to_doc(net))
        loaded = network_from_doc(jsonio.load_json(path))
        assert loaded.tap_index == net.tap_index
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_serialization_is_byte_deterministic(self, rng, tmp_path):
        net = random_network(rng, [4, 7, 3])
        jsonio.save_json(tmp_path / "a.json", network_to_doc(net))
        jsonio.save_json(tmp_path / "b.json", network_to_doc(net))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unsupported_version_rejected(self, rng):
        from moe_forge.errors import PipelineError

        doc = network_to_doc(random_network(rng, [2, 3, 2]))
        doc["format_version"] = 99
        with pytest.raises(PipelineError):
            network_from_doc(doc)

    def test_floats_written_with_seventeen_significant_digits(self, tmp_path):
        net = Network(
            layers=[Layer(np.array([[1.0 / 3.0]]), np.array([0.1]), "identity")],
            tap_index=0,
        )
        jsonio.save_json(tmp_path / "net.json", network_to_doc(net))
        text = (tmp_path / "net.json").read_text()
        assert "0.33333333333333331" in text
        assert "0.10000000000000001" in text
