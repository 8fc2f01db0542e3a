"""The assembled mixture: base network, linear gate, expert tails, ensemblers.

Experts consume the base network's tap output, so the layers up to the
tap are computed once per sample and shared.  Every expert has the layer
shapes and activations of the base's tail, so the K tails share one weight
stack per layer.  MAC accounting follows the same structure: the base is
counted once and every executed expert adds only its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import jsonio
from .errors import PipelineError, ShapeError
from .gate_init import Centroids
from .nn import (
    PROB_FLOOR,
    ForwardPass,
    Network,
    forward_batch,
    layer_layout,
    network_from_doc,
    network_to_doc,
    softmax,
)

ENSEMBLER_KINDS = ("none", "bagging", "stacking")

# Rows per block of a stacked tail pass: a [8, 256, 256] float64 hidden block is 4 MB.  No block
# has 1 row unless N does: numpy runs that as a matrix-vector product, which rounds differently.
_BLOCK_ROWS = 256


@dataclass
class Gate:
    """Linear-softmax router over the base pre-logit embedding, one row per expert."""

    weight: np.ndarray  # [rows, prelogit_dim]
    bias: np.ndarray  # [rows]

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError("gate weight must be [rows, dim] with a matching bias")

    @property
    def rows(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def distribution_batch(self, prelogits: np.ndarray) -> np.ndarray:
        if prelogits.ndim != 2 or prelogits.shape[1] != self.in_dim:
            raise ShapeError(f"expected prelogits [B, {self.in_dim}], got {prelogits.shape}")
        return softmax(prelogits @ self.weight.T + self.bias)


@dataclass
class Ensembler:
    """Combines the base and one expert's class probabilities.

    kinds:
      none     - pass the expert probabilities through
      bagging  - elementwise mean of base and expert probabilities
      stacking - linear map over concatenated log-probabilities, softmaxed
    """

    kind: str
    weight: np.ndarray | None = None  # stacking only: [C, 2C]
    bias: np.ndarray | None = None  # stacking only: [C]

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLER_KINDS:
            raise ShapeError(f"unknown ensembler kind {self.kind!r}")
        if self.kind == "stacking":
            if self.weight is None or self.bias is None:
                raise ShapeError("stacking ensembler needs weight and bias")
            c = self.weight.shape[0]
            if self.weight.shape != (c, 2 * c) or self.bias.shape != (c,):
                raise ShapeError(
                    f"stacking weight must be [C, 2C] with matching bias, got {self.weight.shape}"
                )
        elif self.weight is not None or self.bias is not None:
            raise ShapeError(f"{self.kind} ensembler takes no parameters")


@dataclass(frozen=True)
class CostModel:
    """Multiply-accumulate counts for every component (dense in*out, biases free)."""

    macs_base: int
    macs_expert_tail: int  # every expert has the base's tail layout
    macs_gate: int
    macs_ensembler: int  # every ensembler has the model's one kind


@dataclass(frozen=True)
class ExecutionTrace:
    """The expert tails and ensemblers that ran for one prediction, besides the base and gate."""

    expert_tails: tuple[int, ...] = ()
    ensemblers: tuple[int, ...] = ()


def network_macs(net: Network) -> int:
    return sum(l.in_dim * l.out_dim for l in net.layers)


@dataclass
class MoEModel:
    base: Network
    gate: Gate
    experts: list[Network]
    ensemblers: list[Ensembler]
    centroids: Centroids | None = None  # clustering that seeded the gate, kept for analysis
    temperature: float | None = None

    def __post_init__(self) -> None:
        self.validate()
        self.cost = make_cost_model(self)
        # Constants of every conditional-execution call (evaluate_dataset, slot_macs), built once:
        # per tail layer (weight [K, in, out], bias [K, 1, out], activation), and each expert's slices.
        self._tails = [
            (_stack(same, "weight").transpose(0, 2, 1), _stack(same, "bias")[:, None, :], same[0].activation)
            for same in zip(*(e.layers for e in self.experts))
        ]
        self._alone = [[(w[j], b[j], activation) for w, b, activation in self._tails] for j in range(self.num_experts)]
        # [K] MACs of each slot: its expert's tail plus its ensembler, so a MAC sum is one product.
        self._slot_macs = np.full(self.num_experts, self.cost.macs_expert_tail + self.cost.macs_ensembler)

    def validate(self) -> None:
        if not self.experts:
            raise ShapeError("model needs at least one expert")
        if len(self.ensemblers) != len(self.experts):
            raise ShapeError("need exactly one ensembler per expert")
        if len(kinds := {e.kind for e in self.ensemblers}) > 1:
            raise ShapeError(f"ensemblers mix kinds {', '.join(sorted(kinds))}; a model has one kind")
        check_tails(self.base, self.experts)
        if self.gate.in_dim != self.base.prelogit_dim:
            raise ShapeError(f"gate expects dim {self.gate.in_dim}, base pre-logits have dim {self.base.prelogit_dim}")
        if self.gate.rows != len(self.experts):
            raise ShapeError(f"gate has {self.gate.rows} rows, must have one per expert (K={len(self.experts)})")
        if self.centroids is not None and self.centroids.means.shape != (len(self.experts), self.base.prelogit_dim):
            raise ShapeError(
                f"centroids have shape {self.centroids.means.shape}, must be "
                f"(K={len(self.experts)}, base pre-logit dim {self.base.prelogit_dim})"
            )
        for k, ens in enumerate(self.ensemblers):
            if ens.kind == "stacking" and ens.weight.shape[0] != self.base.output_dim:
                raise ShapeError(f"stacking ensembler {k} sized for the wrong class count")

    @property
    def shared_prefix(self) -> int:
        """Layer count of the base every expert reuses."""
        return self.base.tap_index + 1

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def num_classes(self) -> int:
        return self.base.output_dim

    # -- per-sample operations ------------------------------------------------

    def top1_predict(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Route to the gate's argmax expert; ties pick the lower index."""
        select = lambda base_probs, gate_probs: top1_slots(self, gate_probs)
        ev = evaluate_dataset(self, np.asarray(x, dtype=np.float64)[None, :], select)
        chosen = int(ev.gate_probs[0].argmax())
        return ev.combined[chosen, 0], chosen


def check_tails(base: Network, experts: list[Network]) -> None:
    """Raise ShapeError unless every expert has the layer shapes and activations of the base's tail."""
    tail, *layouts = [
        layer_layout(layers) for layers in (base.layers[base.tap_index + 1 :], *(e.layers for e in experts))
    ]
    for k, layout in enumerate(layouts):
        if layout != tail:
            raise ShapeError(f"experts[{k}] has layers [{layout}], not the base tail's [{tail}]")


def _stack(layers: list, attr: str) -> np.ndarray:
    """[K, ...] stack of the layers' ``attr`` arrays, which become its slices, copied one at a
    time so no second full copy is held; arrays that already are its slices keep their stack."""
    owner = getattr(layers[0], attr).base
    views = [getattr(l, attr).__array_interface__ for l in layers]
    if owner is not None and views == [s.__array_interface__ for s in owner[: len(layers) + 1]]:
        return owner
    stack = np.empty((len(layers), *getattr(layers[0], attr).shape))
    for g, layer in enumerate(layers):
        stack[g] = getattr(layer, attr)
        setattr(layer, attr, stack[g])
    return stack


def make_cost_model(model: MoEModel) -> CostModel:
    c = model.num_classes
    return CostModel(
        macs_base=network_macs(model.base),
        macs_expert_tail=network_macs(model.experts[0]),
        macs_gate=model.gate.in_dim * model.gate.rows,
        macs_ensembler=2 * c * c if model.ensemblers[0].kind == "stacking" else 0,
    )


def mac_count(model: MoEModel, trace: ExecutionTrace) -> int:
    """Total multiply-accumulates for one prediction: the base, the gate and the trace's components."""
    for name, ids in (("expert", trace.expert_tails), ("ensembler", trace.ensemblers)):
        for k in ids:
            if not 0 <= k < model.num_experts:
                raise ShapeError(f"trace references absent {name} {k}")
    cost = model.cost
    tails, combines = len(trace.expert_tails), len(trace.ensemblers)
    return cost.macs_base + cost.macs_gate + tails * cost.macs_expert_tail + combines * cost.macs_ensembler


def stacking_inputs(base_probs: np.ndarray, expert_probs: np.ndarray) -> np.ndarray:
    """[N, 2C] inputs of a stacking ensembler: the base's and the expert's log-probabilities."""
    return np.concatenate(
        [np.log(np.maximum(base_probs, PROB_FLOOR)), np.log(np.maximum(expert_probs, PROB_FLOOR))], axis=1
    )


def apply_ensembler(ens: Ensembler, base_probs: np.ndarray, expert_probs: np.ndarray) -> np.ndarray:
    """Combine [N, C] base and expert probabilities under the ensembler's kind."""
    if ens.kind == "none":
        return expert_probs
    if ens.kind == "bagging":
        return (expert_probs + base_probs) * 0.5
    return softmax(stacking_inputs(base_probs, expert_probs) @ ens.weight.T + ens.bias)


@dataclass
class ModelEval:
    """Cached per-dataset forward passes shared by inference and analysis."""

    base: ForwardPass
    gate_probs: np.ndarray  # [N, K]
    expert_probs: np.ndarray  # [K, N, C] raw expert outputs, zero where a tail did not run
    combined: np.ndarray  # [K, N, C] ensembled outputs e'_k, zero where a slot did not run


def top1_slots(model: MoEModel, gate_probs: np.ndarray) -> np.ndarray:
    """[N, K] one-hot slots of the gate's argmax expert; ties pick the lower index."""
    chosen = gate_probs.argmax(axis=1)
    return np.arange(model.num_experts) == chosen[:, None]


def slot_macs(model: MoEModel, slots: np.ndarray) -> np.ndarray:
    """[N] MACs of the given [N, K] ensembler slots, each with its own expert tail."""
    return slots @ model._slot_macs


def _row_sets(mask: np.ndarray):
    """(j, rows) per column j of an [N, K] mask that sets a row; a full slice if it sets all."""
    counts = mask.sum(axis=0)
    for j in counts.nonzero()[0]:
        yield j, slice(None) if counts[j] == len(mask) else mask[:, j].nonzero()[0]


def _run_tails(layers: list[tuple], a: np.ndarray) -> np.ndarray:
    """Class probabilities of one tail, [N, C], or of the K stacked tails, [K, N, C], on rows a [N, in];
    each slice of a stack is the same BLAS product as its tail alone."""
    for weight_t, bias, activation in layers:
        a = a @ weight_t
        a += bias
        a = np.maximum(a, 0.0, out=a) if activation == "relu" else a
    return softmax(a)


def evaluate_dataset(
    model: MoEModel,
    x: np.ndarray,
    select: Callable | None = None,
    base: ForwardPass | None = None,
) -> ModelEval:
    """Run the model over a feature matrix.

    The shared prefix, base tail and gate always run on every row.  Without
    ``select`` every expert tail and ensembler runs on every row too.  Given
    ``select(base probs, gate probs) -> [N, K] bool`` ensembler slots, only
    the slots it selects and their own expert tails run on each row, and the
    outputs of the rest stay zero.  When every slot runs on every row, the K
    tails run as one batched product per layer, in row blocks; otherwise each
    selected slot runs its tail alone on its rows and combines them there.
    ``base`` is the base's forward pass over ``x`` when the caller already
    holds it; it is then not run again.
    """
    x = np.asarray(x, dtype=np.float64)
    if base is not None and (x.ndim != 2 or len(x) != len(base.probs)):
        raise ShapeError(f"x must have the base pass's {len(base.probs)} rows, got shape {x.shape}")
    fp = base if base is not None else forward_batch(model.base, x)
    gate_probs = model.gate.distribution_batch(fp.prelogits)
    k = model.num_experts
    n, c = fp.probs.shape

    if select is None:
        slots = np.ones((n, k), dtype=bool)
    else:
        slots = np.asarray(select(fp.probs, gate_probs), dtype=bool)
        if slots.shape != (n, k):
            raise ShapeError(f"slot selector must return [{n}, {k}], got {slots.shape}")
        if not slots.any():
            return ModelEval(fp, gate_probs, np.zeros((k, n, c)), np.zeros((k, n, c)))

    expert_probs = np.zeros((k, n, c))
    if slots.all():
        parts = max(1, -(-n // _BLOCK_ROWS))  # near-equal row blocks
        for rows in (slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)):
            expert_probs[:, rows] = _run_tails(model._tails, fp.tap[rows])
        # Allocated only after the tails ran: allocating it first raised the peak RSS of a
        # 6400-row dense pass (64-256-256-32, K=8) by 3.5 MB.
        combined = np.zeros_like(expert_probs)
        for j, ens in enumerate(model.ensemblers):
            combined[j] = apply_ensembler(ens, fp.probs, expert_probs[j])
    else:
        combined = np.zeros_like(expert_probs)
        for j, rows in _row_sets(slots):
            expert_probs[j, rows] = probs = _run_tails(model._alone[j], fp.tap[rows])
            combined[j, rows] = apply_ensembler(model.ensemblers[j], fp.probs[rows], probs)
    return ModelEval(fp, gate_probs, expert_probs, combined)


# -- serialization -------------------------------------------------------------


def gate_to_doc(gate: Gate) -> dict:
    return {
        "rows": gate.rows,
        "cols": gate.in_dim,
        "weight": gate.weight.reshape(-1),
        "bias": gate.bias,
    }


def gate_from_doc(doc: dict, where: str) -> Gate:
    rows = jsonio.get_value(doc, "rows", int, where)
    cols = jsonio.get_value(doc, "cols", int, where)
    return Gate(
        weight=jsonio.get_array(doc, "weight", (rows, cols), where),
        bias=jsonio.get_array(doc, "bias", (rows,), where),
    )


def ensembler_to_doc(ens: Ensembler) -> dict:
    doc: dict = {"kind": ens.kind}
    if ens.kind == "stacking":
        doc["weight"] = ens.weight.reshape(-1)
        doc["bias"] = ens.bias
        doc["num_classes"] = ens.weight.shape[0]
    return doc


def ensembler_from_doc(doc: dict, where: str) -> Ensembler:
    kind = jsonio.get_value(doc, "kind", str, where)
    if kind != "stacking":
        return Ensembler(kind=kind)
    c = jsonio.get_value(doc, "num_classes", int, where)
    return Ensembler(
        kind="stacking",
        weight=jsonio.get_array(doc, "weight", (c, 2 * c), where),
        bias=jsonio.get_array(doc, "bias", (c,), where),
    )


def model_to_doc(model: MoEModel, experts: list[jsonio.Fragment] | None = None) -> dict:
    """JSON-ready dict of the model.

    ``experts`` are the tails already encoded by ``jsonio.encode(network_to_doc(...))``,
    one per expert, when the caller holds that text; otherwise they are encoded here.
    """
    if experts is not None and len(experts) != model.num_experts:
        raise ShapeError(f"need {model.num_experts} encoded experts, got {len(experts)}")
    doc = {
        "format_version": 1,
        "kind": "moe_model",
        "shared_prefix": model.shared_prefix,
        "base": network_to_doc(model.base),
        "gate": gate_to_doc(model.gate),
        "experts": experts if experts is not None else [network_to_doc(e) for e in model.experts],
        "ensemblers": [ensembler_to_doc(e) for e in model.ensemblers],
        "centroids": None,
        "temperature": model.temperature,
    }
    if model.centroids is not None:
        doc["centroids"] = {
            "k": model.centroids.k,
            "dim": model.centroids.dim,
            "means": model.centroids.means.reshape(-1),
        }
    return doc


def model_from_doc(doc: dict) -> MoEModel:
    """Inverse of model_to_doc; a malformed document raises PipelineError naming the key."""
    jsonio.check_format_version(doc, 1, "model checkpoint")
    try:
        base = network_from_doc(jsonio.get_value(doc, "base", dict), "base")
        shared_prefix = jsonio.get_value(doc, "shared_prefix", int)
        if shared_prefix != base.tap_index + 1:
            raise PipelineError(f"key 'shared_prefix': {shared_prefix}, not base tap_index + 1 = {base.tap_index + 1}")
        gate = gate_from_doc(jsonio.get_value(doc, "gate", dict), "gate")
        experts = jsonio.get_value(doc, "experts", list)
        ensemblers = jsonio.get_value(doc, "ensemblers", list)
        centroids = None
        if doc.get("centroids") is not None:
            cdoc = jsonio.get_value(doc, "centroids", dict)
            k = jsonio.get_value(cdoc, "k", int, "centroids")
            dim = jsonio.get_value(cdoc, "dim", int, "centroids")
            centroids = Centroids(means=jsonio.get_array(cdoc, "means", (k, dim), "centroids"))
        temperature = None
        if "temperature" in doc:
            temperature = jsonio.get_value(doc, "temperature", (float, type(None)))
            if temperature is not None and not temperature > 0:
                raise PipelineError(f"key 'temperature': must be positive, got {temperature}")
        return MoEModel(
            base=base,
            gate=gate,
            experts=[network_from_doc(e, f"experts[{i}]") for i, e in enumerate(experts)],
            ensemblers=[ensembler_from_doc(e, f"ensemblers[{i}]") for i, e in enumerate(ensemblers)],
            centroids=centroids,
            temperature=temperature,
        )
    except ShapeError as exc:
        raise PipelineError(f"model checkpoint: {exc}") from exc


def save_model(path: str | Path, model: MoEModel, experts: list[jsonio.Fragment] | None = None) -> None:
    """Write model.json; ``experts`` as in ``model_to_doc``."""
    jsonio.save_json(path, model_to_doc(model, experts))


def load_model(path: str | Path) -> MoEModel:
    doc = jsonio.load_json(path)
    try:
        return model_from_doc(doc)
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
