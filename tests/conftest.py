"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

from moe_forge.data import LabeledDataset, SyntheticSpec, generate_synthetic
from moe_forge.gate_init import Centroids, initial_gate, kmeans, smooth_weights
from moe_forge.model import Ensembler, Gate, MoEModel
from moe_forge.nn import Layer, Network, forward_batch, init_network
from moe_forge.seeding import derive_seed
from moe_forge.training import (
    TrainPlan,
    e_step,
    fit_gate,
    segment_lengths,
    train_base,
    train_ensembler,
    train_expert,
    train_gate,
)


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


def mixed_model(rng, kinds, widths) -> MoEModel:
    """random_model's base and gate with [6 -> width -> 3] tails and the given ensembler kinds."""
    scaffold = random_model(rng, num_experts=len(kinds))
    experts = [random_network(rng, [6, width, 3]) for width in widths]
    ensemblers = [
        Ensembler(kind, rng.normal(size=(3, 6)), rng.normal(size=3)) if kind == "stacking" else Ensembler(kind)
        for kind in kinds
    ]
    return MoEModel(scaffold.base, scaffold.gate, experts, ensemblers, shared_prefix=1)


def tie_gate(model: MoEModel) -> None:
    """Make the gate ignore its input: the odd experts tie on top, the even ones below them."""
    model.gate.weight[:] = 0.0
    model.gate.bias[:] = np.arange(model.num_experts) % 2


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


def staged_recipe(ds: LabeledDataset, plan: TrainPlan, order=None) -> MoEModel:
    """The training recipe of a per-sample-routed plan, called stage by stage from the public
    functions, with each expert and ensembler trained alone, one call each, in ``order``."""
    k_all = range(plan.num_experts)
    order = list(k_all) if order is None else list(order)
    assert sorted(order) == list(k_all) and plan.routing == "per_sample"
    cfg = replace(plan.sgd_base, seed=derive_seed(plan.seed, "base"))
    base = train_base(ds, plan.layer_dims, plan.tap_index, cfg)
    fp = forward_batch(base, ds.features)
    centroids = kmeans(fp.prelogits, plan.num_experts, seed=derive_seed(plan.seed, "kmeans"))
    init = initial_gate(fp.prelogits, centroids, plan.temperature)
    gate = train_gate(init.weights, base, ds, replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate")))
    q, experts = init.weights, [None] * plan.num_experts
    for segment, epochs in enumerate(segment_lengths(plan.expert_epochs, plan.em_steps)):
        if segment:
            q = e_step(fp, gate, experts, ds.labels).q
            cfg = replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate", "segment", segment))
            gate = fit_gate(fp.prelogits, q, cfg, start=gate)
        weights = smooth_weights(q, plan.gamma)
        trained = [None] * plan.num_experts
        for k in order:
            seed = derive_seed(plan.seed, "expert", k, "segment", segment)
            cfg = replace(plan.sgd_expert, epochs=epochs, seed=seed)
            trained[k] = train_expert(k, base, weights[:, k], ds, cfg, plan.negative_handling, start=experts[k])
        experts = trained
    ensemblers = [None] * plan.num_experts
    for k in order:
        cfg = replace(plan.sgd_ensembler, seed=derive_seed(plan.seed, "ensembler", k))
        ensemblers[k] = train_ensembler(plan.ensembler, base, experts[k], ds, weights[:, k], cfg)
    return MoEModel(
        base=base, gate=gate, experts=experts, ensemblers=ensemblers,
        shared_prefix=plan.tap_index + 1, centroids=centroids, temperature=init.temperature,
    )
