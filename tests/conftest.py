"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from moe_forge.data import LabeledDataset, SyntheticSpec, generate_synthetic
from moe_forge.gate_init import Centroids
from moe_forge.model import Ensembler, Gate, MoEModel
from moe_forge.nn import Layer, Network, forward_batch, init_network


def random_network(rng: np.random.Generator, dims: list[int], tap_index: int = 0) -> Network:
    """Random net with the standard init plus random biases (exercises more paths)."""
    net = init_network(dims, tap_index, seed=int(rng.integers(2**32)))
    for layer in net.layers:
        layer.bias += rng.normal(scale=0.3, size=layer.bias.shape)
    return net


def random_model(
    rng: np.random.Generator,
    in_dim: int = 4,
    hidden: int = 6,
    num_classes: int = 3,
    num_experts: int = 3,
    ensembler: str = "bagging",
) -> MoEModel:
    """Shape-consistent model with random parameters (not trained)."""
    base = random_network(rng, [in_dim, hidden, hidden, num_classes], tap_index=0)
    experts = []
    for _ in range(num_experts):
        tail = random_network(rng, [hidden, hidden, num_classes], tap_index=0)
        experts.append(tail)
    gate = Gate(
        weight=rng.normal(size=(num_experts, hidden)),
        bias=rng.normal(size=num_experts),
    )
    if ensembler == "stacking":
        ens = [
            Ensembler(
                kind="stacking",
                weight=rng.normal(size=(num_classes, 2 * num_classes)),
                bias=rng.normal(size=num_classes),
            )
            for _ in range(num_experts)
        ]
    else:
        ens = [Ensembler(kind=ensembler) for _ in range(num_experts)]
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens, shared_prefix=1)


def with_exit_head(model: MoEModel, rng: np.random.Generator, x: np.ndarray) -> MoEModel:
    """The same model with a random exit row added to its gate; it wins on about half of x."""
    prelogits = forward_batch(model.base, x).prelogits
    exit_weight = rng.normal(size=model.gate.in_dim)
    best_expert = (prelogits @ model.gate.weight.T + model.gate.bias).max(axis=1)
    gate = Gate(
        weight=np.vstack([model.gate.weight, exit_weight]),
        bias=np.append(model.gate.bias, np.median(best_expert - prelogits @ exit_weight)),
    )
    return MoEModel(
        base=model.base, gate=gate, experts=model.experts,
        ensemblers=model.ensemblers, shared_prefix=model.shared_prefix,
    )


def blob_dataset(
    seed: int = 0,
    num_classes: int = 3,
    modes_per_class: int = 1,
    dim: int = 4,
    stddev: float = 0.5,
    samples_per_mode: int = 60,
) -> LabeledDataset:
    spec = SyntheticSpec(
        num_classes=num_classes,
        modes_per_class=modes_per_class,
        dim=dim,
        mode_stddev=stddev,
        samples_per_mode=samples_per_mode,
        seed=seed,
    )
    return generate_synthetic(spec).dataset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
