"""The assembled mixture: base network, linear gate, expert tails, ensemblers.

Experts consume the base network's tap output, so the layers up to the
tap are computed once per sample and shared; tails of equal shapes share one
weight stack per layer.  MAC accounting follows the same structure: the base
is counted once and every executed expert adds only its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    network_from_doc,
    network_to_doc,
    softmax,
)

ENSEMBLER_KINDS = ("none", "bagging", "stacking", "top2")

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

    def copy(self) -> "Gate":
        return Gate(self.weight.copy(), self.bias.copy())


@dataclass
class Ensembler:
    """Combines the base and one expert's class probabilities.

    kinds:
      none     - pass the expert probabilities through
      bagging  - elementwise mean of base and expert probabilities
      stacking - linear map over concatenated log-probabilities, softmaxed
      top2     - plain mean of the gate's two strongest experts (skips the base)
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
    macs_prefix: int
    macs_expert_tail: tuple[int, ...]
    macs_gate: int
    macs_ensembler: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionTrace:
    """Which components ran for one prediction."""

    base: bool = True
    gate: bool = True
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
    shared_prefix: int  # layer count of the base every expert reuses
    centroids: Centroids | None = None  # clustering that seeded the gate, kept for analysis
    temperature: float | None = None

    def __post_init__(self) -> None:
        self.validate()
        self.cost = make_cost_model(self)
        # Constants of every conditional-execution call (_slot_tails, slot_macs), built once.
        kinds = np.array([ens.kind for ens in self.ensemblers])
        self._kinds, self._top2 = set(kinds.tolist()), kinds == "top2"
        self._bagging, self._none = (kinds == "bagging")[:, None, None], (kinds == "none")[:, None, None]
        self._looped = ~(self._bagging | self._none)[:, 0, 0]
        self._stacks = _stack_tails(self.experts)
        self._tail_macs = np.asarray(self.cost.macs_expert_tail)
        self._ensembler_macs = np.asarray(self.cost.macs_ensembler)

    def validate(self) -> None:
        if not self.experts:
            raise ShapeError("model needs at least one expert")
        if len(self.ensemblers) != len(self.experts):
            raise ShapeError("need exactly one ensembler per expert")
        if self.shared_prefix != self.base.tap_index + 1:
            raise ShapeError(
                f"shared_prefix {self.shared_prefix} must equal base tap_index + 1 "
                f"= {self.base.tap_index + 1}"
            )
        for k, expert in enumerate(self.experts):
            if expert.input_dim != self.base.tap_dim:
                raise ShapeError(
                    f"expert {k} input dim {expert.input_dim} != base tap dim {self.base.tap_dim}"
                )
            if expert.output_dim != self.base.output_dim:
                raise ShapeError(f"expert {k} must predict {self.base.output_dim} classes")
        if self.gate.in_dim != self.base.prelogit_dim:
            raise ShapeError(
                f"gate expects dim {self.gate.in_dim}, base pre-logits have dim "
                f"{self.base.prelogit_dim}"
            )
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
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def num_classes(self) -> int:
        return self.base.output_dim

    # -- per-sample operations ------------------------------------------------

    def ensemble_output(self, k: int, x: np.ndarray) -> np.ndarray:
        """Class probabilities of expert k combined with the base by its ensembler."""
        if not 0 <= k < self.num_experts:
            raise ShapeError(f"expert index {k} out of range")
        only_k = lambda base_probs, gate_probs: (np.arange(self.num_experts) == k)[None, :]
        ev = evaluate_dataset(self, np.asarray(x, dtype=np.float64)[None, :], only_k)
        return ev.combined[k, 0]

    def top1_predict(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Route to the gate's argmax expert; ties pick the lower index."""
        select = lambda base_probs, gate_probs: top1_slots(self, gate_probs)
        ev = evaluate_dataset(self, np.asarray(x, dtype=np.float64)[None, :], select)
        chosen = int(ev.gate_probs[0].argmax())
        return ev.combined[chosen, 0], chosen


def _stack(layers: list, attr: str) -> np.ndarray:
    """[g, ...] stack of the layers' ``attr`` arrays, which become its slices, copied one at a
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


def _stack_tails(experts: list[Network]) -> list[tuple]:
    """Per group of experts with equal layer shapes and activations: their indices (a slice if
    consecutive), layers as (weight [g, in, out], bias [g, 1, out], activation), and (expert,
    its layers as slices of those) for each."""
    groups: dict[tuple, list[int]] = {}
    for j, e in enumerate(experts):
        groups.setdefault(tuple((l.weight.shape, l.activation) for l in e.layers), []).append(j)
    stacks = []
    for members in groups.values():
        stack = [
            (_stack(same, "weight").transpose(0, 2, 1), _stack(same, "bias")[:, None, :], same[0].activation)
            for same in zip(*(experts[j].layers for j in members))
        ]
        alone = [(j, [(w[g], b[g], activation) for w, b, activation in stack]) for g, j in enumerate(members)]
        lo, hi = members[0], members[-1] + 1
        stacks.append((slice(lo, hi) if hi - lo == len(members) else np.array(members), stack, alone))
    return stacks


def make_cost_model(model: MoEModel) -> CostModel:
    prefix = sum(
        l.in_dim * l.out_dim for l in model.base.layers[: model.shared_prefix]
    )
    ens_costs = []
    for ens in model.ensemblers:
        if ens.kind == "stacking":
            c = model.num_classes
            ens_costs.append(2 * c * c)
        else:
            ens_costs.append(0)
    return CostModel(
        macs_base=network_macs(model.base),
        macs_prefix=prefix,
        macs_expert_tail=tuple(network_macs(e) for e in model.experts),
        macs_gate=model.gate.in_dim * model.gate.rows,
        macs_ensembler=tuple(ens_costs),
    )


def mac_count(model: MoEModel, trace: ExecutionTrace) -> int:
    """Total multiply-accumulates for one prediction under the given trace."""
    cost = model.cost
    total = 0
    if trace.base:
        total += cost.macs_base
    if trace.gate:
        total += cost.macs_gate
    for k in trace.expert_tails:
        if not 0 <= k < model.num_experts:
            raise ShapeError(f"trace references absent expert {k}")
        total += cost.macs_expert_tail[k]
    for k in trace.ensemblers:
        if not 0 <= k < model.num_experts:
            raise ShapeError(f"trace references absent ensembler {k}")
        total += cost.macs_ensembler[k]
    return total


def stacking_inputs(base_probs: np.ndarray, expert_probs: np.ndarray) -> np.ndarray:
    """[N, 2C] inputs of a stacking ensembler: the base's and the expert's log-probabilities."""
    return np.concatenate(
        [np.log(np.maximum(base_probs, PROB_FLOOR)), np.log(np.maximum(expert_probs, PROB_FLOOR))], axis=1
    )


def apply_ensembler(ens: Ensembler, base_probs: np.ndarray, expert_probs: np.ndarray) -> np.ndarray:
    """Combine [N, C] base and expert probabilities with a stacking ensembler.

    ``evaluate_dataset`` combines the other kinds over all slots at once.
    """
    if ens.kind != "stacking":
        raise ShapeError(f"{ens.kind} slots are combined by evaluate_dataset")
    return softmax(stacking_inputs(base_probs, expert_probs) @ ens.weight.T + ens.bias)


def _top_pair(gate_probs: np.ndarray) -> np.ndarray:
    """[N, 2] gate's two strongest experts; with one expert, that expert twice."""
    return np.argsort(-gate_probs, axis=1, kind="stable")[:, [0, min(1, gate_probs.shape[1] - 1)]]


@dataclass
class ModelEval:
    """Cached per-dataset forward passes shared by inference and analysis."""

    base: ForwardPass
    gate_probs: np.ndarray  # [N, K]
    expert_probs: np.ndarray  # [K, N, C] raw expert outputs, zero where a tail did not run
    combined: np.ndarray  # [K, N, C] ensembled outputs e'_k, zero where a slot did not run

    @cached_property
    def top_pair(self) -> np.ndarray:
        """[N, 2] gate's two strongest experts, computed on first read."""
        return _top_pair(self.gate_probs)


def top1_slots(model: MoEModel, gate_probs: np.ndarray) -> np.ndarray:
    """[N, K] one-hot slots of the gate's argmax expert; ties pick the lower index."""
    chosen = gate_probs.argmax(axis=1)
    return np.arange(model.num_experts) == chosen[:, None]


def _slot_tails(model: MoEModel, gate_probs: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """[N, K] tails the [N, K] slots need: a top2 slot its row's top pair, any other its own."""
    if "top2" not in model._kinds:
        return slots
    top2 = model._top2
    tails = slots & ~top2
    rows = slots[:, top2].any(axis=1)
    pair = _top_pair(gate_probs[rows])
    tails[rows, pair[:, 0]] = True
    tails[rows, pair[:, 1]] = True
    return tails


def slot_macs(model: MoEModel, gate_probs: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """[N] MACs of the given ensembler slots plus the expert tails they need."""
    return _slot_tails(model, gate_probs, slots) @ model._tail_macs + slots @ model._ensembler_macs


def _row_sets(mask: np.ndarray):
    """(j, rows) per column j of an [N, K] mask that sets a row; a full slice if it sets all."""
    counts = mask.sum(axis=0)
    for j in counts.nonzero()[0]:
        yield j, slice(None) if counts[j] == len(mask) else mask[:, j].nonzero()[0]


def _run_tails(layers: list[tuple], a: np.ndarray) -> np.ndarray:
    """Class probabilities of one tail, [N, C], or of a stack of g, [g, N, C], on rows a [N, in];
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
    the slots it selects and the expert tails they need run on each row; the
    outputs of the rest stay zero; a stack of tails that all run on every row
    runs as one batched product per layer.  ``base`` is the base's forward pass
    over ``x`` when the caller already holds it; it is then not run again.
    """
    x = np.asarray(x, dtype=np.float64)
    if base is not None and (x.ndim != 2 or len(x) != len(base.probs)):
        raise ShapeError(f"x must have the base pass's {len(base.probs)} rows, got shape {x.shape}")
    fp = base if base is not None else forward_batch(model.base, x)
    gate_probs = model.gate.distribution_batch(fp.prelogits)
    k = model.num_experts
    n, c = fp.probs.shape

    if select is None:
        slots = tails = np.ones((n, k), dtype=bool)
    else:
        slots = np.asarray(select(fp.probs, gate_probs), dtype=bool)
        if slots.shape != (n, k):
            raise ShapeError(f"slot selector must return [{n}, {k}], got {slots.shape}")
        if not slots.any():
            return ModelEval(fp, gate_probs, np.zeros((k, n, c)), np.zeros((k, n, c)))
        tails = _slot_tails(model, gate_probs, slots)

    expert_probs = np.zeros((k, n, c))
    for cols, stack, alone in model._stacks:
        need = tails[:, cols]
        if np.logical_and.reduce(need, axis=None):
            parts = max(1, -(-n // _BLOCK_ROWS))  # near-equal row blocks
            for rows in (slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)):
                expert_probs[cols, rows] = _run_tails(stack, fp.tap[rows])
        else:
            for g, rows in _row_sets(need):
                j, tail = alone[g]
                expert_probs[j, rows] = _run_tails(tail, fp.tap[rows])

    # Allocated only after the tails ran: allocating it first raised the peak RSS of a
    # 6400-row dense pass (64-256-256-32, K=8) by 3.5 MB.
    ev = ModelEval(fp, gate_probs, expert_probs, np.zeros_like(expert_probs))
    # Bagging slots, the mean of base and expert, and none slots, each in one pass over [K, N, C].
    if "bagging" in model._kinds:
        np.add(expert_probs, fp.probs, out=ev.combined, where=slots.T[:, :, None] & model._bagging)
        ev.combined *= 0.5
    if "none" in model._kinds:
        np.copyto(ev.combined, expert_probs, where=slots.T[:, :, None] & model._none)
    for j, rows in _row_sets(slots & model._looped) if model._kinds & {"stacking", "top2"} else ():
        ens = model.ensemblers[j]
        if ens.kind == "top2":
            pair, at = ev.top_pair[rows], np.arange(n)[rows]
            ev.combined[j, rows] = 0.5 * (expert_probs[pair[:, 0], at] + expert_probs[pair[:, 1], at])
        else:
            ev.combined[j, rows] = apply_ensembler(ens, fp.probs[rows], expert_probs[j, rows])
    return ev


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
        return MoEModel(
            base=base,
            gate=gate,
            experts=[network_from_doc(e, f"experts[{i}]") for i, e in enumerate(experts)],
            ensemblers=[ensembler_from_doc(e, f"ensemblers[{i}]") for i, e in enumerate(ensemblers)],
            shared_prefix=jsonio.get_value(doc, "shared_prefix", int),
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
