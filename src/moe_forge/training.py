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

import copy
import hashlib
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

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
    ensembler_from_doc,
    ensembler_to_doc,
    gate_from_doc,
    gate_to_doc,
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
    network_from_doc,
    network_to_doc,
    sgd_train,
)
from .seeding import derive_seed

NEGATIVE_HANDLING = ("reweight", "sample")
ROUTING = ("per_sample", "per_class")


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
            raise ShapeError(
                "tap_index must leave at least one layer for the expert tails "
                f"(got {self.tap_index} for {len(self.layer_dims) - 1} layers)"
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
    return fit_gate(prelogits, targets, cfg, start)


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


def train_expert(
    k: int,
    base: Network | None,
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
    starts from the base tail unless a partially trained start is given;
    the base is needed only for what ``start`` and ``tap_features`` leave
    out.
    """
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
    stream = weighted_batches(ds, sample_weights, cfg.batch_size, seed=cfg.seed)
    return sgd_train(net, tap_features, ds.labels, np.ones(len(ds)), cfg, batches=stream)


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
    if kind != "stacking":
        return Ensembler(kind=kind)
    if base_probs is None or tap_features is None:
        fp = forward_batch(base, ds.features)
        base_probs = fp.probs
        tap_features = fp.tap
    stacked = stacking_inputs(base_probs, forward_batch(expert, tap_features).probs)
    c = base_probs.shape[1]
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
    segment: int = 1,
) -> tuple[Gate, list[Network]]:
    """Refit the gate to the responsibilities and continue every expert under them, smoothed.

    ``base_pass`` is the base's forward pass over ``ds``.  Returns the new
    gate and experts; the given ones are left as they are.
    """
    cfg = replace(plan.sgd_gate, seed=derive_seed(plan.seed, "gate", "segment", segment))
    gate = fit_gate(base_pass.prelogits, posterior.q, cfg, start=gate)
    weights = smooth_weights(posterior.q, plan.gamma)
    return gate, _train_expert_set(experts, weights, ds, plan, epochs, segment, base_pass.tap)


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
    centroids: Centroids
    class_map: np.ndarray | None
    stages: list[StageRecord]
    zero_mass_rows: int
    base_pass: ForwardPass  # the base over the training rows
    # Each expert as the experts stage encoded it into its checkpoint; None when that
    # stage was loaded.  model.json reuses the text instead of encoding the tails again.
    expert_text: list[jsonio.Fragment] | None = None


def plan_hash(plan: TrainPlan) -> str:
    return hashlib.sha256(jsonio.dumps(asdict(plan)).encode()).hexdigest()


def dataset_hash(ds: LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    h.update(str(ds.num_classes).encode())
    return h.hexdigest()


class _StageStore:
    """Loads and saves per-stage checkpoints, guarding plan/data identity.

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

    def load(self, name: str, restore: Callable[[dict], None]) -> bool:
        """Restore the stage from its checkpoint file; False when there is none.

        A malformed file raises PipelineError naming the file and the key.
        """
        if self.dir is None:
            return False
        path = self.dir / f"{name}.json"
        if not path.exists():
            return False
        doc = jsonio.load_json(path)
        jsonio.check_format_version(doc, self.FORMAT_VERSION, f"stage checkpoint {path}")
        if doc.get("plan_hash") != self.plan_digest or doc.get("data_hash") != self.data_digest:
            raise PipelineError(
                f"stage checkpoint {path} was produced by a different plan or dataset; "
                "remove the output directory to retrain"
            )
        try:
            restore(jsonio.get_value(doc, "payload", dict))
        except (PipelineError, ShapeError) as exc:
            raise PipelineError(f"stage checkpoint {path}: {exc}") from exc
        return True

    def save(self, name: str, payload: dict) -> None:
        if self.dir is None:
            return
        doc = {
            "format_version": self.FORMAT_VERSION,
            "stage": name,
            "plan_hash": self.plan_digest,
            "data_hash": self.data_digest,
            "payload": payload,
        }
        jsonio.save_json(self.dir / f"{name}.json", doc)


def _stage_list(payload: dict, key: str, length: int) -> list:
    """payload[key], checked to be a list of the given length."""
    items = jsonio.get_value(payload, key, list)
    if len(items) != length:
        raise PipelineError(f"key {key!r}: expected {length} entries, got {len(items)}")
    return items


def _stage_gate(payload: dict, key: str, shape: tuple[int, int]) -> Gate:
    """The gate document at payload[key], checked to have the plan's [rows, dim] shape."""
    gate = gate_from_doc(jsonio.get_value(payload, key, dict), key)
    if gate.weight.shape != shape:
        raise PipelineError(f"key {key!r}: expected a {list(shape)} gate, got {list(gate.weight.shape)}")
    return gate


def _train_expert_set(
    starts: list[Network],
    weights: np.ndarray,
    ds: LabeledDataset,
    plan: TrainPlan,
    epochs: int,
    segment: int,
    tap_features: np.ndarray,
) -> list[Network]:
    """Train every expert for one segment; each depends only on its own seed, so order never matters."""
    experts = []
    for k, start in enumerate(starts):
        cfg = replace(
            plan.sgd_expert, epochs=epochs, seed=derive_seed(plan.seed, "expert", k, "segment", segment)
        )
        expert = train_expert(k, None, weights[:, k], ds, cfg, plan.negative_handling, start, tap_features)
        experts.append(expert)
    return experts


def run_pipeline(
    ds: LabeledDataset, plan: TrainPlan, out_dir: str | Path | None = None
) -> PipelineResult:
    """Full training run with optional resumable stage checkpoints."""
    plan.validate()
    plan.check_data(ds)
    out_path = Path(out_dir) if out_dir is not None else None
    store = _StageStore(out_path, plan_hash(plan), dataset_hash(ds))
    stages: list[StageRecord] = []

    def run_stage(name: str, compute: Callable[[], dict], restore: Callable[[dict], None]) -> None:
        """Fill ``state`` from the stage's checkpoint, or by ``compute``, which returns the payload to save."""
        begin = time.perf_counter()
        loaded = store.load(name, restore)
        if not loaded:
            store.save(name, compute())
        stages.append(StageRecord(name, time.perf_counter() - begin, loaded))

    state: dict = {}

    # Step 1: base model on all data.
    def compute_base() -> dict:
        cfg = replace(plan.sgd_base, seed=derive_seed(plan.seed, "base"))
        state["base"] = train_base(ds, plan.layer_dims, plan.tap_index, cfg)
        return {"network": network_to_doc(state["base"])}

    def restore_base(p: dict) -> None:
        state["base"] = network_from_doc(jsonio.get_value(p, "network", dict), "network")

    run_stage("base", compute_base, restore_base)
    base = state["base"]
    fp = forward_batch(base, ds.features)

    # Step 2: cluster the base embeddings into the initial soft assignment.
    def compute_init() -> dict:
        centroids = kmeans(fp.prelogits, plan.num_experts, seed=derive_seed(plan.seed, "kmeans"))
        init = initial_gate(fp.prelogits, centroids, plan.temperature)
        class_map = per_class_assignment(init, ds.labels)[0] if plan.routing == "per_class" else None
        state.update(centroids=centroids, init=init, class_map=class_map)
        return {
            "centroid_means": centroids.means,
            "inertia_history": centroids.inertia_history,
            "temperature": init.temperature,
            "weights": init.weights,
            "class_map": class_map,
        }

    def restore_init(p: dict) -> None:
        k, dim = plan.num_experts, base.prelogit_dim
        history = tuple(jsonio.get_array(p, "inertia_history", None).tolist())
        state["centroids"] = Centroids(jsonio.get_array(p, "centroid_means", (k, dim)), history)
        state["init"] = InitialGate(
            weights=jsonio.get_array(p, "weights", (len(ds), k)),
            temperature=float(jsonio.get_value(p, "temperature", float)),
        )
        state["class_map"] = None
        if jsonio.get_value(p, "class_map", (list, np.ndarray, type(None))) is not None:
            state["class_map"] = jsonio.get_array(p, "class_map", (ds.num_classes,), dtype=np.int64)

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
        state["gate"] = train_gate(targets, base, ds, cfg, prelogits=fp.prelogits)
        return {"gate": gate_to_doc(state["gate"])}

    gate_shape = (plan.num_experts, base.prelogit_dim)

    def restore_gate(p: dict) -> None:
        state["gate"] = _stage_gate(p, "gate", gate_shape)

    run_stage("gate", compute_gate, restore_gate)

    # Step 4: experts, in epoch segments separated by posterior re-estimation.
    def compute_experts() -> dict:
        gate = state["gate"]
        lengths = segment_lengths(plan.expert_epochs, plan.em_steps)
        weights = smooth_weights(targets, plan.gamma)
        starts = [expert_tail(base)] * plan.num_experts  # sgd_train never changes its input
        experts = _train_expert_set(starts, weights, ds, plan, lengths[0], 0, fp.tap)
        zero_rows = 0
        for step in range(1, plan.em_steps + 1):
            posterior = e_step(fp, gate, experts, ds.labels)
            zero_rows += posterior.zero_mass_rows
            gate, experts = m_step(fp, gate, experts, posterior, ds, lengths[step], plan, step)
            weights = smooth_weights(posterior.q, plan.gamma)  # the weights m_step trained under
        # Encoded once here; the checkpoint and model.json both write this text.
        text = [jsonio.encode(network_to_doc(e)) for e in experts]
        state.update(
            experts=experts, gate=gate, final_weights=weights, zero_mass_rows=zero_rows, expert_text=text
        )
        return {
            "experts": text,
            "gate": gate_to_doc(gate),
            "final_weights": weights,
            "zero_mass_rows": zero_rows,
        }

    def restore_experts(p: dict) -> None:
        docs = _stage_list(p, "experts", plan.num_experts)
        state["experts"] = [network_from_doc(doc, f"experts[{k}]") for k, doc in enumerate(docs)]
        state["gate"] = _stage_gate(p, "gate", gate_shape)
        state["final_weights"] = jsonio.get_array(p, "final_weights", (len(ds), plan.num_experts))
        state["zero_mass_rows"] = jsonio.get_value(p, "zero_mass_rows", int)

    run_stage("experts", compute_experts, restore_experts)

    # Step 5: ensemblers, once every expert is fully trained.
    def compute_ensemblers() -> dict:
        ensemblers = state["ensemblers"] = [
            train_ensembler(
                plan.ensembler,
                base,
                expert,
                ds,
                state["final_weights"][:, k],
                replace(plan.sgd_ensembler, seed=derive_seed(plan.seed, "ensembler", k)),
                tap_features=fp.tap,
                base_probs=fp.probs,
            )
            for k, expert in enumerate(state["experts"])
        ]
        return {"ensemblers": [ensembler_to_doc(e) for e in ensemblers]}

    def restore_ensemblers(p: dict) -> None:
        docs = _stage_list(p, "ensemblers", plan.num_experts)
        state["ensemblers"] = [ensembler_from_doc(doc, f"ensemblers[{k}]") for k, doc in enumerate(docs)]

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
        zero_mass_rows=state["zero_mass_rows"],
        base_pass=fp,
        expert_text=state.get("expert_text"),
    )
    if out_path is not None:
        _write_diagnostics(out_path, result, targets, ds)
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
