"""Dense feed-forward networks trained with minibatch SGD.

This is the only place in the package that touches gradients.  Networks
are small (a handful of dense layers), activations are relu or identity,
and the final layer is always linear so its input can serve as the
pre-logit embedding.  One layer is designated as the tap: its
post-activation output is the intermediate feature map that downstream
expert networks consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import jsonio
from .errors import DataError, PipelineError, ShapeError

ACTIVATIONS = ("relu", "identity")

PROB_FLOOR = 1e-12


@dataclass
class Layer:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class Network:
    """A dense feed-forward classifier.

    ``tap_index`` names the layer whose post-activation output is exposed
    as the intermediate feature map.  The final layer must be linear;
    its input is the pre-logit embedding.
    """

    layers: list[Layer]
    tap_index: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ShapeError(f"layer {i}: unknown activation {layer.activation!r}")
            if layer.weight.ndim != 2 or layer.bias.ndim != 1:
                raise ShapeError(f"layer {i}: weight must be 2-d and bias 1-d")
            if layer.weight.shape[0] != layer.bias.shape[0]:
                raise ShapeError(
                    f"layer {i}: weight rows {layer.weight.shape[0]} != bias size {layer.bias.shape[0]}"
                )
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ShapeError(
                    f"layer {i}: input dim {layer.in_dim} does not chain with "
                    f"previous output dim {self.layers[i - 1].out_dim}"
                )
        if self.layers[-1].activation != "identity":
            raise ShapeError("final layer must be linear")
        if not 0 <= self.tap_index < len(self.layers):
            raise ShapeError(f"tap_index {self.tap_index} out of range for {len(self.layers)} layers")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def prelogit_dim(self) -> int:
        return self.layers[-1].in_dim

    def copy(self) -> "Network":
        return Network(
            layers=[Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers],
            tap_index=self.tap_index,
        )


def layer_layout(layers: list[Layer]) -> str:
    """The layers' shapes and activations, as in ``4->6 relu, 6->3 identity``."""
    return ", ".join(f"{l.in_dim}->{l.out_dim} {l.activation}" for l in layers)


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 50
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.lr_decay_factor > 0:
            raise ValueError(f"lr_decay_factor must be positive, got {self.lr_decay_factor}")


@dataclass
class ForwardPass:
    tap: np.ndarray
    prelogits: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits."""
    # The ufuncs behind .max and .sum, called without their Python wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=-1, keepdims=True)


def _activations(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """[x, each layer's post-activation output], first layer to last."""
    acts = [x]
    for layer in net.layers:
        z = acts[-1] @ layer.weight.T + layer.bias
        acts.append(np.maximum(z, 0.0) if layer.activation == "relu" else z)
    return acts


def forward_batch(net: Network, x: np.ndarray) -> ForwardPass:
    """Run a [B, in_dim] batch through the net.

    Returns the tap feature map, the pre-logit embedding (input to the
    final layer), raw logits, and softmax probabilities.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"expected input of shape [B, {net.input_dim}], got {x.shape}")
    acts = _activations(net, x)
    return ForwardPass(tap=acts[net.tap_index + 1], prelogits=acts[-2], logits=acts[-1], probs=softmax(acts[-1]))


def forward(net: Network, x: np.ndarray) -> ForwardPass:
    """Single-sample forward pass; returns 1-d arrays."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d feature vector, got shape {x.shape}")
    out = forward_batch(net, x[None, :])
    return ForwardPass(out.tap[0], out.prelogits[0], out.logits[0], out.probs[0])


def nll_batch(probs: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
    """Mean weighted negative log-likelihood over a batch."""
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-weights * np.log(np.maximum(picked, PROB_FLOOR))))


def dataset_loss(net: Network, x: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
    return nll_batch(forward_batch(net, x).probs, labels, weights)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[N, num_classes] target rows with a 1 at each label."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {labels.shape}")
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(f"labels out of range for {num_classes} outputs")
    rows = np.zeros((len(labels), num_classes))
    rows[np.arange(len(labels)), labels] = 1.0
    return rows


def backward(
    net: Network, x: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients of the mean weighted cross-entropy over the batch.

    ``targets`` holds one row per sample: a one-hot class label or any
    distribution over the outputs.  For a distribution the loss differs
    from the mean KL to it only by a constant, so the gradients are the
    same.  Returns one (d_weight, d_bias) pair per layer.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot compute gradients on an empty batch")

    acts = _activations(net, x)
    probs = softmax(acts[-1])

    delta = (probs - targets) * weights[:, None] / n

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = delta @ net.layers[i].weight
            if net.layers[i - 1].activation == "relu":  # relu(z) > 0 exactly where z > 0
                delta = delta * (acts[i] > 0)
    return grads


def learning_rate(cfg: SgdConfig, epoch: int) -> float:
    """cfg.learning_rate divided by lr_decay_factor once per decay epoch reached."""
    decays = sum(1 for e in cfg.lr_decay_epochs if epoch >= e)
    return cfg.learning_rate / (cfg.lr_decay_factor**decays)


def sgd_train(
    net: Network,
    x: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    cfg: SgdConfig,
    batches: Iterator[np.ndarray] | None = None,
) -> Network:
    """Train a private copy of the net with momentum SGD; the input network is untouched.

    ``targets`` are [N] class labels, turned into one-hot rows once here,
    or [N, outputs] target rows.  Without ``batches`` each epoch runs over
    a seeded shuffle of the data in batches of cfg.batch_size (the last
    batch may be short).  Given an index-batch stream, each epoch draws
    ceil(N / cfg.batch_size) batches from it instead.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"expected features of shape [N, {net.input_dim}], got {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    if targets.ndim == 1:
        targets = one_hot(targets, net.output_dim)
    if targets.shape != (n, net.output_dim) or weights.shape != (n,):
        raise ShapeError(
            f"targets must be [{n}] labels or [{n}, {net.output_dim}] rows, and weights [{n}]"
        )
    if np.any(weights < 0):
        raise ValueError("per-sample weights must be non-negative")

    out = net.copy()
    velocity = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in out.layers]
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        if batches is None:
            perm = rng.permutation(n)
            epoch_batches = (perm[start : start + cfg.batch_size] for start in range(0, n, cfg.batch_size))
        else:
            epoch_batches = (next(batches) for _ in range(math.ceil(n / cfg.batch_size)))
        for idx in epoch_batches:
            grads = backward(out, x[idx], targets[idx], weights[idx])
            for layer, (vw, vb), (gw, gb) in zip(out.layers, velocity, grads):
                vw *= cfg.momentum
                vw += gw
                vb *= cfg.momentum
                vb += gb
                layer.weight -= lr * vw
                layer.bias -= lr * vb
    return out


def init_network(layer_dims: list[int], tap_index: int, seed: int) -> Network:
    """Fresh network with uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases.

    layer_dims chains input through hidden sizes to the class count,
    e.g. [4, 8, 3] builds a relu hidden layer and a linear output layer.
    """
    if len(layer_dims) < 2:
        raise ShapeError("layer_dims needs at least an input and an output size")
    num_layers = len(layer_dims) - 1
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(num_layers):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        activation = "relu" if i < num_layers - 1 else "identity"
        layers.append(Layer(weight=weight, bias=np.zeros(fan_out), activation=activation))
    return Network(layers=layers, tap_index=tap_index)


def network_to_doc(net: Network) -> dict:
    """JSON-ready dict for a network; weights flattened row-major per layer."""
    return {
        "format_version": 1,
        "layer_dims": [net.input_dim] + [l.out_dim for l in net.layers],
        "activations": [l.activation for l in net.layers],
        "tap_index": net.tap_index,
        "weights": [l.weight.reshape(-1) for l in net.layers],
        "biases": [l.bias for l in net.layers],
    }


def network_from_doc(doc: dict, where: str = "") -> Network:
    """Inverse of network_to_doc.

    ``where`` is the document's key path inside a larger document.  A
    missing key, a value of the wrong type, or a weight list whose length
    does not match ``layer_dims`` raises PipelineError naming the key.
    """
    context = where or "network checkpoint"
    jsonio.check_format_version(doc, 1, context)
    dims = jsonio.get_value(doc, "layer_dims", list, where)
    activations = jsonio.get_value(doc, "activations", list, where)
    weights = jsonio.get_value(doc, "weights", list, where)
    biases = jsonio.get_value(doc, "biases", list, where)
    tap_index = jsonio.get_value(doc, "tap_index", int, where)
    dims_path = jsonio.key_path(where, "layer_dims")
    for i in range(len(dims)):
        if jsonio.get_value(dims, i, int, dims_path) < 1:
            raise PipelineError(f"key {jsonio.key_path(dims_path, i)!r}: a layer size must be >= 1")
    if not len(dims) - 1 == len(activations) == len(weights) == len(biases):
        raise PipelineError(
            f"{context}: {len(dims)} layer_dims need {len(dims) - 1} activations, weights "
            f"and biases, got {len(activations)}, {len(weights)} and {len(biases)}"
        )
    layers = []
    for i, activation in enumerate(activations):
        weight = jsonio.get_array(weights, i, (dims[i + 1], dims[i]), jsonio.key_path(where, "weights"))
        bias = jsonio.get_array(biases, i, (dims[i + 1],), jsonio.key_path(where, "biases"))
        layers.append(Layer(weight=weight, bias=bias, activation=activation))
    try:
        return Network(layers=layers, tap_index=tap_index)
    except ShapeError as exc:
        raise PipelineError(f"{context}: {exc}") from exc
