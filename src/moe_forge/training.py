"""Training pipelines for the mixture.

The asynchronous recipe trains the base first, clusters its embeddings
to fix a soft sample-to-expert assignment, fits the gate to that
assignment, then trains every expert independently on its weighted slice
of the data and finally the per-expert ensemblers.  The EM variant
interleaves posterior re-estimation (``e_step``) with expert/gate updates
(``m_step``), splitting the expert epoch budget into segments; with zero
E steps it reduces exactly to the asynchronous recipe.  Every network,
the gate included, is trained by ``nn.sgd_train``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import jsonio
from .analysis import gate_disagreement
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
    ENSEMBLER_KINDS,
    Ensembler,
    Gate,
    MoEModel,
    check_tails,
    ensembler_from_doc,
    ensembler_to_doc,
    gate_from_doc,
    gate_to_doc,
    save_model,
    stacking_inputs,
)
from .nn import (
    PROB_FLOOR,
    ForwardPass,
    Layer,
    Network,
    SgdConfig,
    forward_batch,
    init_network,
    layer_layout,
    network_from_doc,
    network_to_doc,
    sgd_train,
)
from .seeding import derive_seed

NEGATIVE_HANDLING = ("reweight", "sample")
ROUTING = ("per_sample", "per_class")

_Value = TypeVar("_Value")


@dataclass(frozen=True)
class TrainPlan:
    """Everything a full training run depends on, minus the dataset."""

    layer_dims: tuple[int, ...]
    num_experts: int = 4
    tap_index: int = 0
    ensembler: str = "bagging"
    gamma: float = 0.05
    temperature: float | None = None
    negative_handling: str = "reweight"
    routing: str = "per_sample"
    em_steps: int = 0  # number of posterior re-estimation steps
    expert_epochs: int = 8  # total expert epochs, split across em_steps + 1 segments
    seed: int = 0
    sgd_base: SgdConfig = field(default_factory=SgdConfig)
    sgd_gate: SgdConfig = field(default_factory=lambda: SgdConfig(learning_rate=0.5, epochs=60))
    sgd_expert: SgdConfig = field(default_factory=SgdConfig)
    sgd_ensembler: SgdConfig = field(default_factory=lambda: SgdConfig(learning_rate=0.2, epochs=30))

    def validate(self) -> None:
        if len(self.layer_dims) < 2:
            raise ShapeError("layer_dims needs at least input and output sizes")
        if not 0 <= self.tap_index < len(self.layer_dims) - 2:
            layers = len(self.layer_dims) - 1
            raise ShapeError(
                f"tap_index must be 0..{layers - 2}: the experts share 1..{layers - 1} of the base's "
                f"{layers} layers and keep at least one of their own (got {self.tap_index})"
            )
        if self.num_experts < 1:
            raise ShapeError("num_experts must be positive")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if self.ensembler not in ENSEMBLER_KINDS:
            raise ValueError(f"unknown ensembler {self.ensembler!r}")
        if self.negative_handling not in NEGATIVE_HANDLING:
            raise ValueError(f"unknown negative_handling {self.negative_handling!r}")
        if self.routing not in ROUTING:
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.em_steps < 0 or self.expert_epochs < 0:
            raise ValueError("em_steps and expert_epochs must be non-negative")
        if self.temperature is not None and not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        for name in ("sgd_base", "sgd_gate", "sgd_expert", "sgd_ensembler"):
            try:
                getattr(self, name).validate()
            except ValueError as exc:
                raise ValueError(f"{name}.{exc}") from exc

    def check_data(self, ds: LabeledDataset) -> None:
        """Raise ShapeError unless ``layer_dims`` fit the dataset's dimension and class count."""
        if self.layer_dims[0] != ds.dim or self.layer_dims[-1] != ds.num_classes:
            raise ShapeError(
                f"layer_dims {self.layer_dims} do not match dataset "
                f"(dim {ds.dim}, {ds.num_classes} classes)"
            )


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


def fit_gate(
    inputs: np.ndarray, targets: np.ndarray, cfg: SgdConfig, start: Gate | None = None
) -> Gate:
    """Fit a linear-softmax gate to row-stochastic [N, rows] targets.

    The gate is trained as a one-layer linear network by ``sgd_train``,
    which minimizes the mean KL from the targets to the gate's
    distribution, a convex objective.  With start=None the parameters
    begin at zero (a uniform distribution).
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ShapeError("targets must be [N, rows]")
    if start is None:
        start = Gate(np.zeros((targets.shape[1], np.shape(inputs)[1])), np.zeros(targets.shape[1]))
    net = Network([Layer(start.weight, start.bias, "identity")], tap_index=0)
    fitted = sgd_train(net, inputs, targets, np.ones(len(targets)), cfg).layers[0]
    return Gate(fitted.weight, fitted.bias)


def train_base(
    ds: LabeledDataset, layer_dims: Sequence[int], tap_index: int, cfg: SgdConfig
) -> Network:
    """Train the base classifier on the full dataset with unit weights."""
    net = init_network(list(layer_dims), tap_index, seed=derive_seed(cfg.seed, "init"))
    return sgd_train(net, ds.features, ds.labels, np.ones(len(ds)), cfg)


def train_gate(targets: np.ndarray, base_pass: ForwardPass, cfg: SgdConfig) -> Gate:
    """Fit the linear gate on the base's pre-logits to match a soft assignment.

    ``base_pass`` is the base's forward pass over the training rows, one per target row.
    """
    return fit_gate(base_pass.prelogits, targets, cfg)


def expert_tail(base: Network) -> Network:
    """A fresh expert: copies of the base layers beyond the tap."""
    layers = base.layers[base.tap_index + 1 :]
    if not layers:
        raise ShapeError("base has no layers beyond the tap; experts would be empty")
    return Network(layers=layers, tap_index=max(len(layers) - 2, 0)).copy()


def train_expert(
    k: int,
    base_pass: ForwardPass,
    sample_weights: np.ndarray,
    ds: LabeledDataset,
    cfg: SgdConfig,
    start: Network,
    negative_handling: str = "reweight",
) -> Network:
    """Train expert k from ``start`` on the base's tap output under per-sample weights.

    ``base_pass`` is the base's forward pass over ``ds``; ``start`` is a fresh
    ``expert_tail`` or a partially trained expert.  "reweight" scales each
    sample's loss by its weight; "sample" draws training batches
    proportionally to the weights instead.
    """
    sample_weights = np.asarray(sample_weights, dtype=np.float64)
    if sample_weights.shape != (len(ds),):
        raise ShapeError("sample_weights must be 1-d with one entry per sample")
    if sample_weights.sum() <= 0:
        raise ValueError(f"expert {k}: total sample weight is zero; nothing to train on")
    if negative_handling not in NEGATIVE_HANDLING:
        raise ValueError(f"unknown negative_handling {negative_handling!r}")

    if negative_handling == "reweight":
        return sgd_train(start, base_pass.tap, ds.labels, sample_weights, cfg)
    stream = weighted_batches(ds, sample_weights, cfg.batch_size, seed=cfg.seed)
    return sgd_train(start, base_pass.tap, ds.labels, np.ones(len(ds)), cfg, batches=stream)


def train_ensembler(
    kind: str,
    base_pass: ForwardPass,
    expert: Network,
    ds: LabeledDataset,
    sample_weights: np.ndarray,
    cfg: SgdConfig,
) -> Ensembler:
    """Build the combiner for one expert; only stacking has parameters to fit.

    Stacking learns a linear map from the concatenated base/expert
    log-probabilities back to class logits, trained with the same
    per-sample weights the expert saw.  ``base_pass`` is the base's forward
    pass over ``ds``.
    """
    if kind != "stacking":
        return Ensembler(kind=kind)
    stacked = stacking_inputs(base_pass.probs, forward_batch(expert, base_pass.tap).probs)
    c = base_pass.probs.shape[1]
    net = init_network([2 * c, c], tap_index=0, seed=derive_seed(cfg.seed, "init"))
    trained = sgd_train(net, stacked, ds.labels, sample_weights, cfg)
    return Ensembler(kind="stacking", weight=trained.layers[0].weight, bias=trained.layers[0].bias)


# -- EM steps -------------------------------------------------------------------


def _expert_likelihood(base_pass: ForwardPass, experts: list[Network], labels: np.ndarray) -> np.ndarray:
    """[N, K] probability each expert gives the true label, run on the base's tap output."""
    rows = np.arange(len(labels))
    like = np.empty((len(labels), len(experts)))
    for k, expert in enumerate(experts):
        like[:, k] = forward_batch(expert, base_pass.tap).probs[rows, labels]
    return like


def e_step(base_pass: ForwardPass, gate: Gate, experts: list[Network], labels: np.ndarray) -> Posterior:
    """Posterior over experts given the true label, using raw expert outputs.

    ``base_pass`` is the base's forward pass over the samples.  q[i, k] is
    proportional to gate(k | x_i) * expert_k(y_i | x_i), normalized per
    row.  Rows with zero mass fall back to uniform and are counted so a
    run can report how often that happened.
    """
    k = len(experts)
    joint = gate.distribution_batch(base_pass.prelogits) * _expert_likelihood(base_pass, experts, labels)
    mass = joint.sum(axis=1, keepdims=True)
    zero = mass[:, 0] <= 0.0
    q = np.where(zero[:, None], 1.0 / k, joint / np.where(mass > 0, mass, 1.0))
    return Posterior(q=q, zero_mass_rows=int(zero.sum()))


def m_step(
    base_pass: ForwardPass,
    gate: Gate,
    experts: list[Network],
    posterior: Posterior,
    ds: LabeledDataset,
    epochs: int,
    plan: TrainPlan,
    segment: int,
) -> tuple[Gate, list[Network]]:
    """Refit the gate to the responsibilities and continue every expert under them, smoothed.

    ``base_pass`` is the base's forward pass over ``ds``; ``segment`` (1 for the first
    EM step) seeds the gate and experts.  Returns the new gate and experts; the given
    ones are left as they are.
    """
    cfg = replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate", "segment", segment))
    gate = fit_gate(base_pass.prelogits, posterior.q, cfg, start=gate)
    weights = smooth_weights(posterior.q, plan.gamma)
    return gate, _train_expert_set(experts, weights, ds, plan, epochs, segment, base_pass)


def elbo(
    base_pass: ForwardPass, gate: Gate, experts: list[Network], posterior: Posterior, labels: np.ndarray
) -> float:
    """Mean evidence lower bound: E_q[log expert likelihood] - KL(q || gate)."""
    gate_probs = gate.distribution_batch(base_pass.prelogits)
    log_like = np.log(np.maximum(_expert_likelihood(base_pass, experts, labels), PROB_FLOOR))
    q = posterior.q
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
    class_map: np.ndarray | None
    stages: list[StageRecord]
    zero_mass_rows: int
    base_pass: ForwardPass  # the base over the training rows


def plan_hash(plan: TrainPlan) -> str:
    return hashlib.sha256(jsonio.dumps(asdict(plan)).encode()).hexdigest()


def dataset_hash(ds: LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    h.update(str(ds.num_classes).encode())
    return h.hexdigest()


class _StageStore:
    """Runs the pipeline's stages, each from its checkpoint file when there is one, guarding
    plan/data identity, and keeps the record of each stage.

    Version 2 payloads write gates and ensemblers with the model
    checkpoint's document helpers.
    """

    FORMAT_VERSION = 2

    def __init__(self, out_dir: Path | None, plan_digest: str, data_digest: str):
        self.dir = out_dir / "stages" if out_dir is not None else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.plan_digest = plan_digest
        self.data_digest = data_digest
        self.stages: list[StageRecord] = []

    def run(self, name: str, compute: Callable[[], tuple[_Value, dict]], restore: Callable[[dict], _Value]) -> _Value:
        """The stage's value: ``restore`` of the payload in its checkpoint file, or else the
        value of ``compute``, which returns it with the payload to save.

        A malformed file raises PipelineError naming the file and the key.
        """
        begin = time.perf_counter()
        path = self.dir / f"{name}.json" if self.dir is not None else None
        loaded = path is not None and path.exists()
        if loaded:
            doc = jsonio.load_json(path)
            jsonio.check_format_version(doc, self.FORMAT_VERSION, f"stage checkpoint {path}")
            if doc.get("plan_hash") != self.plan_digest or doc.get("data_hash") != self.data_digest:
                raise PipelineError(
                    f"stage checkpoint {path} was produced by a different plan or dataset; "
                    "remove the output directory to retrain"
                )
            try:
                value = restore(jsonio.get_value(doc, "payload", dict))
            except (PipelineError, ShapeError) as exc:
                raise PipelineError(f"stage checkpoint {path}: {exc}") from exc
        else:
            value, payload = compute()
            if path is not None:
                doc = {
                    "format_version": self.FORMAT_VERSION,
                    "stage": name,
                    "plan_hash": self.plan_digest,
                    "data_hash": self.data_digest,
                    "payload": payload,
                }
                jsonio.save_json(path, doc)
        self.stages.append(StageRecord(name, time.perf_counter() - begin, loaded))
        return value


def _stage_list(payload: dict, key: str, length: int) -> list:
    """payload[key], checked to be a list of the given length."""
    items = jsonio.get_value(payload, key, list)
    if len(items) != length:
        raise PipelineError(f"key {key!r}: expected {length} entries, got {len(items)}")
    return items


def _stage_gate(payload: dict, shape: tuple[int, int]) -> Gate:
    """The gate document at payload["gate"], checked to have the plan's [rows, dim] shape."""
    gate = gate_from_doc(jsonio.get_value(payload, "gate", dict), "gate")
    if gate.weight.shape != shape:
        raise PipelineError(f"key 'gate': expected a {list(shape)} gate, got {list(gate.weight.shape)}")
    return gate


def _train_expert_set(
    starts: list[Network],
    weights: np.ndarray,
    ds: LabeledDataset,
    plan: TrainPlan,
    epochs: int,
    segment: int,
    base_pass: ForwardPass,
) -> list[Network]:
    """Train every expert for one segment; each depends only on its own seed, so order never matters."""
    experts = []
    for k, start in enumerate(starts):
        cfg = replace(
            plan.sgd_expert, epochs=epochs, seed=derive_seed(plan.seed, "expert", k, "segment", segment)
        )
        experts.append(train_expert(k, base_pass, weights[:, k], ds, cfg, start, plan.negative_handling))
    return experts


def run_pipeline(
    ds: LabeledDataset, plan: TrainPlan, out_dir: str | Path | None = None
) -> PipelineResult:
    """Full training run; given ``out_dir``, it also writes the run directory there.

    That is the resumable stage checkpoints under ``stages/``, the ``diagnostics/`` CSVs
    and ``model.json``.
    """
    plan.validate()
    plan.check_data(ds)
    out_path = Path(out_dir) if out_dir is not None else None
    store = _StageStore(out_path, plan_hash(plan), dataset_hash(ds))

    # Step 1: base model on all data.
    def compute_base() -> tuple[Network, dict]:
        cfg = replace(plan.sgd_base, seed=derive_seed(plan.seed, "base"))
        base = train_base(ds, plan.layer_dims, plan.tap_index, cfg)
        return base, {"network": network_to_doc(base)}

    def restore_base(p: dict) -> Network:
        net = network_from_doc(jsonio.get_value(p, "network", dict), "network")
        planned = init_network(list(plan.layer_dims), plan.tap_index, seed=0)  # the layout train_base builds
        got, want = (f"[{layer_layout(n.layers)}] with tap_index {n.tap_index}" for n in (net, planned))
        if got != want:
            raise PipelineError(f"key 'network': layers {got}, not the plan's {want}")
        return net

    base = store.run("base", compute_base, restore_base)
    fp = forward_batch(base, ds.features)

    # Step 2: cluster the base embeddings into the initial soft assignment.
    def compute_init() -> tuple[tuple[Centroids, InitialGate, np.ndarray | None], dict]:
        centroids = kmeans(fp.prelogits, plan.num_experts, seed=derive_seed(plan.seed, "kmeans"))
        init = initial_gate(fp.prelogits, centroids, plan.temperature)
        class_map = per_class_assignment(init, ds) if plan.routing == "per_class" else None
        payload = {
            "centroid_means": centroids.means,
            "inertia_history": centroids.inertia_history,
            "temperature": init.temperature,
            "weights": init.weights,
            "class_map": class_map,
        }
        return (centroids, init, class_map), payload

    def restore_init(p: dict) -> tuple[Centroids, InitialGate, np.ndarray | None]:
        k, dim = plan.num_experts, base.prelogit_dim
        history = tuple(jsonio.get_array(p, "inertia_history", None).tolist())
        centroids = Centroids(jsonio.get_array(p, "centroid_means", (k, dim)), history)
        temperature = float(jsonio.get_value(p, "temperature", float))
        if not temperature > 0:
            raise PipelineError(f"key 'temperature': must be positive, got {temperature}")
        init = InitialGate(
            weights=jsonio.get_array(p, "weights", (len(ds), k)),
            temperature=temperature,
        )
        class_map = jsonio.get_value(p, "class_map", (list, np.ndarray, type(None)))
        if (class_map is None) == (plan.routing == "per_class"):
            found = "null" if class_map is None else "a map"
            raise PipelineError(f"key 'class_map': {found}, but the plan's routing is {plan.routing!r}")
        if class_map is not None:
            class_map = jsonio.get_array(p, "class_map", (ds.num_classes,), dtype=np.int64)
            if not ((class_map >= 0) & (class_map < k)).all():
                raise PipelineError(f"key 'class_map': entries must lie in 0..{k - 1}, got {class_map.tolist()}")
        return centroids, init, class_map

    centroids, init, class_map = store.run("gate_init", compute_init, restore_init)

    if plan.routing == "per_class":
        targets = np.zeros_like(init.weights)
        targets[np.arange(len(ds)), class_map[ds.labels]] = 1.0
    else:
        targets = init.weights

    # Step 3: fit the gate to the initial assignment.
    def compute_gate() -> tuple[Gate, dict]:
        cfg = replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate"))
        gate = train_gate(targets, fp, cfg)
        return gate, {"gate": gate_to_doc(gate)}

    gate_shape = (plan.num_experts, base.prelogit_dim)
    fitted_gate = store.run("gate", compute_gate, lambda p: _stage_gate(p, gate_shape))

    # Step 4: experts, in epoch segments separated by posterior re-estimation.
    def compute_experts() -> tuple[tuple[list[Network], list[jsonio.Fragment], Gate, np.ndarray, int], dict]:
        lengths = segment_lengths(plan.expert_epochs, plan.em_steps)
        weights = smooth_weights(targets, plan.gamma)
        starts = [expert_tail(base)] * plan.num_experts  # sgd_train never changes its input
        experts = _train_expert_set(starts, weights, ds, plan, lengths[0], 0, fp)
        gate = fitted_gate
        zero_rows = 0
        for step in range(1, plan.em_steps + 1):
            posterior = e_step(fp, gate, experts, ds.labels)
            zero_rows += posterior.zero_mass_rows
            gate, experts = m_step(fp, gate, experts, posterior, ds, lengths[step], plan, step)
            weights = smooth_weights(posterior.q, plan.gamma)  # the weights m_step trained under
        # Encoded once here; the checkpoint and model.json both write this text.
        text = [jsonio.encode(network_to_doc(e)) for e in experts]
        payload = {
            "experts": text,
            "gate": gate_to_doc(gate),
            "final_weights": weights,
            "zero_mass_rows": zero_rows,
        }
        return (experts, text, gate, weights, zero_rows), payload

    def restore_experts(p: dict) -> tuple[list[Network], list[jsonio.Fragment], Gate, np.ndarray, int]:
        docs = _stage_list(p, "experts", plan.num_experts)
        experts = [network_from_doc(doc, f"experts[{k}]") for k, doc in enumerate(docs)]
        check_tails(base, experts)
        text = [jsonio.encode(network_to_doc(e)) for e in experts]
        weights = jsonio.get_array(p, "final_weights", (len(ds), plan.num_experts))
        return experts, text, _stage_gate(p, gate_shape), weights, jsonio.get_value(p, "zero_mass_rows", int)

    experts, encoded, gate, final_weights, zero_mass_rows = store.run("experts", compute_experts, restore_experts)

    # Step 5: ensemblers, once every expert is fully trained.
    def compute_ensemblers() -> tuple[list[Ensembler], dict]:
        ensemblers = [
            train_ensembler(
                plan.ensembler,
                fp,
                expert,
                ds,
                final_weights[:, k],
                replace(plan.sgd_ensembler, seed=derive_seed(plan.seed, "ensembler", k)),
            )
            for k, expert in enumerate(experts)
        ]
        return ensemblers, {"ensemblers": [ensembler_to_doc(e) for e in ensemblers]}

    def restore_ensemblers(p: dict) -> list[Ensembler]:
        docs = _stage_list(p, "ensemblers", plan.num_experts)
        ensemblers = [ensembler_from_doc(doc, f"ensemblers[{k}]") for k, doc in enumerate(docs)]
        for k, ens in enumerate(ensemblers):
            if ens.kind != plan.ensembler:
                raise PipelineError(f"key 'ensemblers[{k}].kind': {ens.kind!r}, but the plan has {plan.ensembler!r}")
        return ensemblers

    ensemblers = store.run("ensemblers", compute_ensemblers, restore_ensemblers)

    model = MoEModel(
        base=base,
        gate=gate,
        experts=experts,
        ensemblers=ensemblers,
        centroids=centroids,
        temperature=init.temperature,
    )
    result = PipelineResult(
        model=model,
        init=init,
        class_map=class_map,
        stages=store.stages,
        zero_mass_rows=zero_mass_rows,
        base_pass=fp,
    )
    if out_path is not None:
        _write_diagnostics(out_path, result, targets, ds)
        save_model(out_path / "model.json", model, encoded)
    return result


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

    trained = model.gate.distribution_batch(result.base_pass.prelogits)
    report = gate_disagreement(argmax, trained.argmax(axis=1), ds.labels, model.num_experts)
    changed = len(ds) - int(report.transition_counts.trace())
    (diag / "gate_disagreement.csv").write_text(
        f"fraction,changed,total\n{report.fraction!r},{changed},{len(ds)}\n"
    )
    rows = ["from_expert,to_expert,count"]
    for (i, j), count in np.ndenumerate(report.transition_counts):
        rows.append(f"{i},{j},{count}")
    (diag / "gate_transitions.csv").write_text("\n".join(rows) + "\n")
