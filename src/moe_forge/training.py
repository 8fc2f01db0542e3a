"""Training pipelines for the mixture.

The asynchronous recipe trains the base first, clusters its embeddings
to fix a soft sample-to-expert assignment, fits the gate to that
assignment, then trains every expert independently on its weighted slice
of the data (optionally in parallel) and finally the per-expert
ensemblers.  The EM variant interleaves posterior re-estimation with
expert/gate updates, splitting the expert epoch budget into segments;
with zero E steps it reduces exactly to the asynchronous recipe.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import jsonio
from .data import LabeledDataset, weighted_batches
from .errors import PipelineError, ShapeError
from .gate_init import (
    Centroids,
    InitialGate,
    initial_gate,
    kmeans,
    per_class_assignment,
    smooth_weights,
)
from .model import (
    Ensembler,
    Gate,
    MoEModel,
    model_from_doc,
    model_to_doc,
)
from .nn import (
    PROB_FLOOR,
    Network,
    SgdConfig,
    SgdStepper,
    backward,
    forward_batch,
    init_network,
    network_from_doc,
    network_to_doc,
    softmax,
)
from .seeding import derive_seed

NEGATIVE_HANDLING = ("reweight", "sample")
ROUTING = ("per_sample", "per_class")


@dataclass(frozen=True)
class TrainPlan:
    """Everything a full training run depends on, minus the dataset."""

    layer_dims: tuple[int, ...]
    num_experts: int
    tap_index: int = 0
    ensembler: str = "bagging"
    gamma: float = 0.05
    temperature: float | None = None
    negative_handling: str = "reweight"
    routing: str = "per_sample"
    em_steps: int = 0  # number of posterior re-estimation steps
    expert_epochs: int = 8  # total expert epochs, split across em_steps + 1 segments
    seed: int = 0
    workers: int = 1
    sgd_base: SgdConfig = field(default_factory=SgdConfig)
    sgd_gate: SgdConfig = field(default_factory=lambda: SgdConfig(learning_rate=0.5, epochs=60))
    sgd_expert: SgdConfig = field(default_factory=SgdConfig)
    sgd_ensembler: SgdConfig = field(default_factory=lambda: SgdConfig(learning_rate=0.2, epochs=30))

    def validate(self) -> None:
        if len(self.layer_dims) < 2:
            raise ShapeError("layer_dims needs at least input and output sizes")
        if not 0 <= self.tap_index < len(self.layer_dims) - 2:
            raise ShapeError(
                "tap_index must leave at least one layer for the expert tails "
                f"(got {self.tap_index} for {len(self.layer_dims) - 1} layers)"
            )
        if self.num_experts < 1:
            raise ShapeError("num_experts must be positive")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if self.negative_handling not in NEGATIVE_HANDLING:
            raise ValueError(f"unknown negative_handling {self.negative_handling!r}")
        if self.routing not in ROUTING:
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.em_steps < 0 or self.expert_epochs < 0:
            raise ValueError("em_steps and expert_epochs must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass
class Posterior:
    """Row-stochastic expert responsibilities for every training sample."""

    q: np.ndarray  # [N, K]
    zero_mass_rows: int = 0


def mean_kl(targets: np.ndarray, probs: np.ndarray) -> float:
    """Mean KL(targets || probs) over rows; 0 log 0 taken as 0."""
    t = np.asarray(targets, dtype=np.float64)
    safe_t = np.where(t > 0, t, 1.0)
    logs = np.log(safe_t) - np.log(np.maximum(probs, PROB_FLOOR))
    return float(np.mean(np.sum(t * logs, axis=1)))


def fit_linear_softmax(
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: SgdConfig,
    start: Gate | None = None,
    sample_weights: np.ndarray | None = None,
) -> Gate:
    """Fit a linear-softmax map to row-stochastic targets by minibatch SGD.

    Minimizes the mean (optionally sample-weighted) KL from the targets
    to the model distribution, which is convex in the parameters.  With
    start=None the parameters begin at zero (a uniform distribution).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, p = inputs.shape
    if targets.ndim != 2 or targets.shape[0] != n:
        raise ShapeError("targets must be [N, rows] aligned with inputs")
    rows = targets.shape[1]
    if sample_weights is None:
        sample_weights = np.ones(n)
    gate = start.copy() if start is not None else Gate(np.zeros((rows, p)), np.zeros(rows))
    if gate.weight.shape != (rows, p):
        raise ShapeError(f"start gate has shape {gate.weight.shape}, expected {(rows, p)}")

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
            delta = (probs - targets[idx]) * sample_weights[idx, None] / len(idx)
            vel_w = cfg.momentum * vel_w + delta.T @ x
            vel_b = cfg.momentum * vel_b + delta.sum(axis=0)
            gate.weight -= lr * vel_w
            gate.bias -= lr * vel_b
    return gate


def train_base(
    ds: LabeledDataset, layer_dims: Sequence[int], tap_index: int, cfg: SgdConfig
) -> Network:
    """Train the base classifier on the full dataset with unit weights."""
    from .nn import sgd_train

    net = init_network(list(layer_dims), tap_index, seed=derive_seed(cfg.seed, "init"))
    return sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), cfg)


def train_gate(
    targets: np.ndarray,
    base: Network,
    ds: LabeledDataset,
    cfg: SgdConfig,
    start: Gate | None = None,
    prelogits: np.ndarray | None = None,
) -> Gate:
    """Fit the linear gate on base pre-logits to match a soft assignment."""
    if prelogits is None:
        prelogits = forward_batch(base, ds.features).prelogits
    return fit_linear_softmax(prelogits, targets, cfg, start=start)


def expert_tail(base: Network) -> Network:
    """A fresh expert: copies of the base layers beyond the tap."""
    layers = base.layers[base.tap_index + 1 :]
    if not layers:
        raise ShapeError("base has no layers beyond the tap; experts would be empty")
    tail = Network(
        layers=[copy.deepcopy(l) for l in layers],
        tap_index=max(len(layers) - 2, 0),
    )
    return tail


def _sgd_train_sampled(
    net: Network,
    features: np.ndarray,
    labels: np.ndarray,
    ds: LabeledDataset,
    sample_weights: np.ndarray,
    cfg: SgdConfig,
) -> Network:
    """Train on batches drawn proportionally to sample_weights (loss weight 1)."""
    out = net.copy()
    stepper = SgdStepper(out, cfg)
    stream = weighted_batches(ds, sample_weights, cfg.batch_size, seed=cfg.seed)
    steps_per_epoch = math.ceil(len(ds) / cfg.batch_size)
    ones = np.ones(cfg.batch_size)
    for epoch in range(cfg.epochs):
        lr = stepper.learning_rate(epoch)
        for _ in range(steps_per_epoch):
            idx = next(stream)
            grads = backward(out, features[idx], labels[idx], ones)
            stepper.step(out, grads, lr)
    return out


def train_expert(
    k: int,
    base: Network,
    sample_weights: np.ndarray,
    ds: LabeledDataset,
    cfg: SgdConfig,
    negative_handling: str = "reweight",
    start: Network | None = None,
    tap_features: np.ndarray | None = None,
) -> Network:
    """Train expert k on the base tap features under per-sample weights.

    "reweight" scales each sample's loss by its weight; "sample" draws
    training batches proportionally to the weights instead.  The expert
    starts from the base tail unless a partially trained start is given.
    """
    from .nn import sgd_train

    sample_weights = np.asarray(sample_weights, dtype=np.float64)
    if sample_weights.shape != (len(ds),):
        raise ShapeError("sample_weights must be 1-d with one entry per sample")
    if sample_weights.sum() <= 0:
        raise ValueError(f"expert {k}: total sample weight is zero; nothing to train on")
    if negative_handling not in NEGATIVE_HANDLING:
        raise ValueError(f"unknown negative_handling {negative_handling!r}")

    net = start if start is not None else expert_tail(base)
    if tap_features is None:
        tap_features = forward_batch(base, ds.features).tap
    if negative_handling == "reweight":
        return sgd_train(net, tap_features, ds.labels, sample_weights, cfg)
    return _sgd_train_sampled(net, tap_features, ds.labels, ds, sample_weights, cfg)


def train_ensembler(
    kind: str,
    base: Network,
    expert: Network,
    ds: LabeledDataset,
    sample_weights: np.ndarray,
    cfg: SgdConfig,
    tap_features: np.ndarray | None = None,
    base_probs: np.ndarray | None = None,
) -> Ensembler:
    """Build the combiner for one expert; only stacking has parameters to fit.

    Stacking learns a linear map from the concatenated base/expert
    log-probabilities back to class logits, trained with the same
    per-sample weights the expert saw.
    """
    from .nn import Layer, sgd_train

    if kind != "stacking":
        return Ensembler(kind=kind)
    if base_probs is None or tap_features is None:
        fp = forward_batch(base, ds.features)
        base_probs = fp.probs
        tap_features = fp.tap
    expert_probs = forward_batch(expert, tap_features).probs
    stacked = np.concatenate(
        [np.log(np.maximum(base_probs, PROB_FLOOR)), np.log(np.maximum(expert_probs, PROB_FLOOR))],
        axis=1,
    )
    c = base_probs.shape[1]
    net = init_network([2 * c, c], tap_index=0, seed=derive_seed(cfg.seed, "init"))
    trained = sgd_train(net, stacked, ds.labels, sample_weights, cfg)
    return Ensembler(kind="stacking", weight=trained.layers[0].weight, bias=trained.layers[0].bias)


# -- EM steps -------------------------------------------------------------------


def e_step(model: MoEModel, ds: LabeledDataset) -> Posterior:
    """Posterior over experts given the true label, using raw expert outputs.

    q[i, k] is proportional to gate(k | x_i) * expert_k(y_i | x_i),
    normalized per row.  Rows with zero mass fall back to uniform and are
    counted so a run can report how often that happened.
    """
    return _responsibilities(model.base, model.gate, model.experts, ds)


def _responsibilities(
    base: Network, gate: Gate, experts: list[Network], ds: LabeledDataset
) -> Posterior:
    fp = forward_batch(base, ds.features)
    gate_probs = gate.distribution_batch(fp.prelogits)[:, : len(experts)]
    n = len(ds)
    rows = np.arange(n)
    joint = np.empty((n, len(experts)))
    for k, expert in enumerate(experts):
        probs = forward_batch(expert, fp.tap).probs
        joint[:, k] = gate_probs[:, k] * probs[rows, ds.labels]
    mass = joint.sum(axis=1, keepdims=True)
    zero = mass[:, 0] <= 0.0
    q = np.where(zero[:, None], 1.0 / len(experts), joint / np.where(mass > 0, mass, 1.0))
    return Posterior(q=q, zero_mass_rows=int(zero.sum()))


def m_step(
    model: MoEModel,
    posterior: Posterior,
    ds: LabeledDataset,
    epochs: int,
    plan: TrainPlan,
    segment: int = 1,
) -> MoEModel:
    """Continue expert training under smoothed responsibilities, refit the gate."""
    weights = smooth_weights(posterior.q, plan.gamma)
    fp = forward_batch(model.base, ds.features)
    gate = fit_linear_softmax(
        fp.prelogits,
        posterior.q,
        replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate", "segment", segment)),
        start=model.gate,
    )
    experts = _train_expert_set(
        model.base,
        [e.copy() for e in model.experts],
        weights,
        ds,
        plan,
        epochs,
        segment,
        fp.tap,
    )
    return MoEModel(
        base=model.base,
        gate=gate,
        experts=experts,
        ensemblers=model.ensemblers,
        shared_prefix=model.shared_prefix,
        centroids=model.centroids,
        temperature=model.temperature,
    )


def elbo(model: MoEModel, posterior: Posterior, ds: LabeledDataset) -> float:
    """Mean evidence lower bound: E_q[log expert likelihood] - KL(q || gate)."""
    fp = forward_batch(model.base, ds.features)
    gate_probs = model.gate.distribution_batch(fp.prelogits)[:, : model.num_experts]
    n = len(ds)
    rows = np.arange(n)
    q = posterior.q
    log_like = np.empty_like(q)
    for k, expert in enumerate(model.experts):
        probs = forward_batch(expert, fp.tap).probs
        log_like[:, k] = np.log(np.maximum(probs[rows, ds.labels], PROB_FLOOR))
    safe_q = np.where(q > 0, q, 1.0)
    kl = q * (np.log(safe_q) - np.log(np.maximum(gate_probs, PROB_FLOOR)))
    return float(np.mean((q * log_like - kl).sum(axis=1)))


def segment_lengths(total_epochs: int, em_steps: int) -> list[int]:
    """Split the expert epoch budget into em_steps + 1 integer segments.

    Floor division, remainder on the last segment: (8, 3) -> [2, 2, 2, 2].
    """
    parts = em_steps + 1
    base_len = total_epochs // parts
    lengths = [base_len] * parts
    lengths[-1] += total_epochs - base_len * parts
    return lengths


# -- full pipelines -------------------------------------------------------------


@dataclass
class StageRecord:
    name: str
    seconds: float
    loaded: bool


@dataclass
class PipelineResult:
    model: MoEModel
    init: InitialGate
    centroids: Centroids
    class_map: np.ndarray | None
    stages: list[StageRecord]
    zero_mass_rows: int


def plan_to_doc(plan: TrainPlan) -> dict:
    """Plan as a JSON-ready dict; the worker count is excluded because it
    never changes the result, only the wall-clock."""

    def sgd_doc(cfg: SgdConfig) -> dict:
        return {
            "learning_rate": cfg.learning_rate,
            "momentum": cfg.momentum,
            "batch_size": cfg.batch_size,
            "epochs": cfg.epochs,
            "lr_decay_epochs": list(cfg.lr_decay_epochs),
            "lr_decay_factor": cfg.lr_decay_factor,
            "seed": cfg.seed,
        }

    return {
        "layer_dims": list(plan.layer_dims),
        "num_experts": plan.num_experts,
        "tap_index": plan.tap_index,
        "ensembler": plan.ensembler,
        "gamma": plan.gamma,
        "temperature": plan.temperature,
        "negative_handling": plan.negative_handling,
        "routing": plan.routing,
        "em_steps": plan.em_steps,
        "expert_epochs": plan.expert_epochs,
        "seed": plan.seed,
        "sgd_base": sgd_doc(plan.sgd_base),
        "sgd_gate": sgd_doc(plan.sgd_gate),
        "sgd_expert": sgd_doc(plan.sgd_expert),
        "sgd_ensembler": sgd_doc(plan.sgd_ensembler),
    }


def plan_hash(plan: TrainPlan) -> str:
    return hashlib.sha256(jsonio.dumps(plan_to_doc(plan)).encode()).hexdigest()


def dataset_hash(ds: LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    h.update(str(ds.num_classes).encode())
    return h.hexdigest()


class _StageStore:
    """Loads and saves per-stage checkpoints, guarding plan/data identity."""

    def __init__(self, out_dir: Path | None, plan_digest: str, data_digest: str):
        self.dir = out_dir / "stages" if out_dir is not None else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.plan_digest = plan_digest
        self.data_digest = data_digest

    def load(self, name: str) -> dict | None:
        if self.dir is None:
            return None
        path = self.dir / f"{name}.json"
        if not path.exists():
            return None
        doc = jsonio.load_json(path)
        jsonio.check_format_version(doc, 1, f"stage {name}")
        if doc.get("plan_hash") != self.plan_digest or doc.get("data_hash") != self.data_digest:
            raise PipelineError(
                f"stage checkpoint {path} was produced by a different plan or dataset; "
                "remove the output directory to retrain"
            )
        return doc["payload"]

    def save(self, name: str, payload: dict) -> None:
        if self.dir is None:
            return
        doc = {
            "format_version": 1,
            "stage": name,
            "plan_hash": self.plan_digest,
            "data_hash": self.data_digest,
            "payload": payload,
        }
        jsonio.save_json(self.dir / f"{name}.json", doc)


def _train_expert_set(
    base: Network,
    starts: list[Network | None],
    weights: np.ndarray,
    ds: LabeledDataset,
    plan: TrainPlan,
    epochs: int,
    segment: int,
    tap_features: np.ndarray,
) -> list[Network]:
    """Train every expert for one segment; order and worker count never matter."""

    def task(k: int) -> Network:
        cfg = replace(
            plan.sgd_expert,
            epochs=epochs,
            seed=derive_seed(plan.seed, "expert", k, "segment", segment),
        )
        return train_expert(
            k,
            base,
            weights[:, k],
            ds,
            cfg,
            negative_handling=plan.negative_handling,
            start=starts[k],
            tap_features=tap_features,
        )

    if plan.workers > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            return list(pool.map(task, range(plan.num_experts)))
    return [task(k) for k in range(plan.num_experts)]


def _train_ensembler_set(
    base: Network,
    experts: list[Network],
    weights: np.ndarray,
    ds: LabeledDataset,
    plan: TrainPlan,
    tap_features: np.ndarray,
    base_probs: np.ndarray,
) -> list[Ensembler]:
    def task(k: int) -> Ensembler:
        cfg = replace(plan.sgd_ensembler, seed=derive_seed(plan.seed, "ensembler", k))
        return train_ensembler(
            plan.ensembler,
            base,
            experts[k],
            ds,
            weights[:, k],
            cfg,
            tap_features=tap_features,
            base_probs=base_probs,
        )

    if plan.workers > 1 and plan.ensembler == "stacking":
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            return list(pool.map(task, range(plan.num_experts)))
    return [task(k) for k in range(plan.num_experts)]


def run_pipeline(
    ds: LabeledDataset, plan: TrainPlan, out_dir: str | Path | None = None
) -> PipelineResult:
    """Full training run with optional resumable stage checkpoints."""
    plan.validate()
    if plan.layer_dims[0] != ds.dim or plan.layer_dims[-1] != ds.num_classes:
        raise ShapeError(
            f"layer_dims {plan.layer_dims} do not match dataset "
            f"(dim {ds.dim}, {ds.num_classes} classes)"
        )
    out_path = Path(out_dir) if out_dir is not None else None
    store = _StageStore(out_path, plan_hash(plan), dataset_hash(ds))
    stages: list[StageRecord] = []

    def run_stage(name: str, compute: Callable[[], dict], restore: Callable[[dict], None]) -> None:
        begin = time.perf_counter()
        payload = store.load(name)
        loaded = payload is not None
        if payload is None:
            payload = compute()
            store.save(name, payload)
        restore(payload)
        stages.append(StageRecord(name, time.perf_counter() - begin, loaded))

    state: dict = {}

    # Step 1: base model on all data.
    def compute_base() -> dict:
        cfg = replace(plan.sgd_base, seed=derive_seed(plan.seed, "base"))
        return {"network": network_to_doc(train_base(ds, plan.layer_dims, plan.tap_index, cfg))}

    run_stage("base", compute_base, lambda p: state.update(base=network_from_doc(p["network"])))
    base = state["base"]
    fp = forward_batch(base, ds.features)

    # Step 2: cluster the base embeddings into the initial soft assignment.
    def compute_init() -> dict:
        centroids = kmeans(fp.prelogits, plan.num_experts, seed=derive_seed(plan.seed, "kmeans"))
        init = initial_gate(fp.prelogits, centroids, plan.temperature)
        payload = {
            "centroid_means": centroids.means,
            "inertia_history": centroids.inertia_history,
            "temperature": init.temperature,
            "weights": init.weights,
            "class_map": None,
        }
        if plan.routing == "per_class":
            class_map, _ = per_class_assignment(init, ds.labels)
            payload["class_map"] = class_map
        return payload

    def restore_init(p: dict) -> None:
        means = np.asarray(p["centroid_means"], dtype=np.float64)
        history = tuple(map(float, p.get("inertia_history", ())))  # older stage files lack it
        state["centroids"] = Centroids(means.reshape(plan.num_experts, -1), history)
        state["init"] = InitialGate(
            weights=np.asarray(p["weights"], dtype=np.float64).reshape(len(ds), plan.num_experts),
            temperature=float(p["temperature"]),
        )
        state["class_map"] = (
            np.asarray(p["class_map"], dtype=np.int64) if p["class_map"] is not None else None
        )

    run_stage("gate_init", compute_init, restore_init)
    init: InitialGate = state["init"]
    centroids: Centroids = state["centroids"]
    class_map = state["class_map"]

    if plan.routing == "per_class":
        targets = np.zeros_like(init.weights)
        targets[np.arange(len(ds)), class_map[ds.labels]] = 1.0
    else:
        targets = init.weights

    # Step 3: fit the gate to the initial assignment.
    def compute_gate() -> dict:
        cfg = replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate"))
        gate = train_gate(targets, base, ds, cfg, prelogits=fp.prelogits)
        return {"weight": gate.weight.reshape(-1), "bias": gate.bias}

    def restore_gate(p: dict) -> None:
        weight = np.asarray(p["weight"], dtype=np.float64)
        state["gate"] = Gate(
            weight=weight.reshape(plan.num_experts, base.prelogit_dim),
            bias=np.asarray(p["bias"], dtype=np.float64),
        )

    run_stage("gate", compute_gate, restore_gate)

    # Step 4: experts, in epoch segments separated by posterior re-estimation.
    def compute_experts() -> dict:
        gate = state["gate"]
        lengths = segment_lengths(plan.expert_epochs, plan.em_steps)
        weights = smooth_weights(targets, plan.gamma)
        experts = _train_expert_set(
            base, [None] * plan.num_experts, weights, ds, plan, lengths[0], 0, fp.tap
        )
        zero_rows = 0
        for step in range(1, plan.em_steps + 1):
            posterior = _responsibilities(base, gate, experts, ds)
            zero_rows += posterior.zero_mass_rows
            gate = fit_linear_softmax(
                fp.prelogits,
                posterior.q,
                replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate", "segment", step)),
                start=gate,
            )
            weights = smooth_weights(posterior.q, plan.gamma)
            experts = _train_expert_set(
                base, experts, weights, ds, plan, lengths[step], step, fp.tap
            )
        return {
            "experts": [network_to_doc(e) for e in experts],
            "gate_weight": gate.weight.reshape(-1),
            "gate_bias": gate.bias,
            "final_weights": weights,
            "zero_mass_rows": zero_rows,
        }

    def restore_experts(p: dict) -> None:
        state["experts"] = [network_from_doc(doc) for doc in p["experts"]]
        weight = np.asarray(p["gate_weight"], dtype=np.float64)
        state["gate"] = Gate(
            weight=weight.reshape(plan.num_experts, base.prelogit_dim),
            bias=np.asarray(p["gate_bias"], dtype=np.float64),
        )
        state["final_weights"] = np.asarray(p["final_weights"], dtype=np.float64).reshape(
            len(ds), plan.num_experts
        )
        state["zero_mass_rows"] = int(p["zero_mass_rows"])

    run_stage("experts", compute_experts, restore_experts)

    # Step 5: ensemblers, once every expert is fully trained.
    def compute_ensemblers() -> dict:
        ensemblers = _train_ensembler_set(
            base, state["experts"], state["final_weights"], ds, plan, fp.tap, fp.probs
        )
        docs = []
        for ens in ensemblers:
            doc: dict = {"kind": ens.kind}
            if ens.kind == "stacking":
                doc["weight"] = ens.weight.reshape(-1)
                doc["bias"] = ens.bias
            docs.append(doc)
        return {"ensemblers": docs}

    def restore_ensemblers(p: dict) -> None:
        ensemblers = []
        for doc in p["ensemblers"]:
            if doc["kind"] == "stacking":
                c = ds.num_classes
                ensemblers.append(
                    Ensembler(
                        kind="stacking",
                        weight=np.asarray(doc["weight"], dtype=np.float64).reshape(c, 2 * c),
                        bias=np.asarray(doc["bias"], dtype=np.float64),
                    )
                )
            else:
                ensemblers.append(Ensembler(kind=doc["kind"]))
        state["ensemblers"] = ensemblers

    run_stage("ensemblers", compute_ensemblers, restore_ensemblers)

    model = MoEModel(
        base=base,
        gate=state["gate"],
        experts=state["experts"],
        ensemblers=state["ensemblers"],
        shared_prefix=plan.tap_index + 1,
        centroids=centroids,
        temperature=init.temperature,
    )
    result = PipelineResult(
        model=model,
        init=init,
        centroids=centroids,
        class_map=class_map,
        stages=stages,
        zero_mass_rows=state.get("zero_mass_rows", 0),
    )
    if out_path is not None:
        _write_diagnostics(out_path, result, targets, ds)
    return result


def run_algorithm1(
    ds: LabeledDataset, plan: TrainPlan, out_dir: str | Path | None = None
) -> MoEModel:
    """The asynchronous recipe: base, clustering, gate, experts, ensemblers."""
    return run_pipeline(ds, replace(plan, em_steps=0), out_dir).model


def run_em(ds: LabeledDataset, plan: TrainPlan, out_dir: str | Path | None = None) -> MoEModel:
    """EM variant; plan.em_steps = 0 matches run_algorithm1 bit for bit."""
    return run_pipeline(ds, plan, out_dir).model


def _write_diagnostics(
    out_dir: Path, result: PipelineResult, targets: np.ndarray, ds: LabeledDataset
) -> None:
    """Per-expert sample mass and drift between initial and trained routing."""
    diag = out_dir / "diagnostics"
    diag.mkdir(parents=True, exist_ok=True)
    model = result.model

    argmax = targets.argmax(axis=1)
    lines = ["expert,argmax_count,weight_mass"]
    for k in range(model.num_experts):
        lines.append(f"{k},{int((argmax == k).sum())},{repr(float(targets[:, k].sum()))}")
    (diag / "expert_mass.csv").write_text("\n".join(lines) + "\n")

    fp = forward_batch(model.base, ds.features)
    trained = model.gate.distribution_batch(fp.prelogits)[:, : model.num_experts].argmax(axis=1)
    changed = int((argmax != trained).sum())
    (diag / "gate_disagreement.csv").write_text(
        "fraction,changed,total\n"
        f"{repr(changed / len(ds))},{changed},{len(ds)}\n"
    )
    counts = np.zeros((model.num_experts, model.num_experts), dtype=np.int64)
    np.add.at(counts, (argmax, trained), 1)
    rows = ["from_expert,to_expert,count"]
    for i in range(model.num_experts):
        for j in range(model.num_experts):
            rows.append(f"{i},{j},{int(counts[i, j])}")
    (diag / "gate_transitions.csv").write_text("\n".join(rows) + "\n")
