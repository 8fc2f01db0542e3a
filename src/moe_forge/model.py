"""The assembled mixture: base network, linear gate, expert tails, ensemblers.

Experts consume the base network's tap output, so the layers up to the
tap are computed once per sample and shared.  MAC accounting follows the
same structure: the base is counted once and every executed expert adds
only its tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import jsonio
from .errors import ShapeError
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


@dataclass
class Gate:
    """Linear-softmax router over the base pre-logit embedding.

    Rows equal the expert count, or expert count + 1 when an extra
    early-exit head has been added.
    """

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
        if self.gate.rows not in (len(self.experts), len(self.experts) + 1):
            raise ShapeError(
                f"gate rows {self.gate.rows} must be K={len(self.experts)} or K+1"
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

    @property
    def has_exit_head(self) -> bool:
        return self.gate.rows == len(self.experts) + 1

    # -- per-sample operations ------------------------------------------------

    def gate_distribution(self, x: np.ndarray) -> np.ndarray:
        """Softmax routing weights for one feature vector."""
        fp = forward_batch(self.base, np.asarray(x, dtype=np.float64)[None, :])
        return self.gate.distribution_batch(fp.prelogits)[0]

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
        chosen = int(ev.gate_probs[0, : self.num_experts].argmax())
        return ev.combined[chosen, 0], chosen

    def soft_mixture(self, x: np.ndarray) -> np.ndarray:
        """Full gate-weighted mixture over all ensembled experts (no routing)."""
        ev = evaluate_dataset(self, np.asarray(x, dtype=np.float64)[None, :])
        gate = ev.gate_probs[:, : self.num_experts]
        return np.einsum("nk,knc->nc", gate, ev.combined)[0]


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


def apply_ensembler(ens: Ensembler, base_probs: np.ndarray, expert_probs: np.ndarray) -> np.ndarray:
    """Combine [N, C] base and expert probabilities (all kinds except top2)."""
    if ens.kind == "none":
        return expert_probs.copy()
    if ens.kind == "bagging":
        return 0.5 * (base_probs + expert_probs)
    if ens.kind == "stacking":
        stacked = np.concatenate(
            [
                np.log(np.maximum(base_probs, PROB_FLOOR)),
                np.log(np.maximum(expert_probs, PROB_FLOOR)),
            ],
            axis=1,
        )
        return softmax(stacked @ ens.weight.T + ens.bias)
    raise ShapeError("top2 combines expert pairs; use evaluate_dataset")


@dataclass
class ModelEval:
    """Cached per-dataset forward passes shared by inference and analysis."""

    base: ForwardPass
    gate_probs: np.ndarray  # [N, rows]
    expert_probs: np.ndarray  # [K, N, C] raw expert outputs, zero where a tail did not run
    combined: np.ndarray  # [K, N, C] ensembled outputs e'_k, zero where a slot did not run
    top_pair: np.ndarray  # [N, 2] gate's two strongest experts


def top1_slots(model: MoEModel, gate_probs: np.ndarray) -> np.ndarray:
    """[N, K] one-hot slots of the gate's argmax expert; ties pick the lower index."""
    chosen = gate_probs[:, : model.num_experts].argmax(axis=1)
    return np.arange(model.num_experts) == chosen[:, None]


def _slot_tails(model: MoEModel, top_pair: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """[N, K] tails the [N, K] slots need: a top2 slot its row's top pair, any other its own."""
    top2 = np.array([ens.kind == "top2" for ens in model.ensemblers])
    if not top2.any():
        return slots
    tails = slots & ~top2
    rows = slots[:, top2].any(axis=1)
    tails[rows, top_pair[rows, 0]] = True
    tails[rows, top_pair[rows, 1]] = True
    return tails


def slot_macs(model: MoEModel, top_pair: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """[N] MACs of the given ensembler slots plus the expert tails they need."""
    cost = model.cost
    tails = _slot_tails(model, top_pair, slots)
    return tails @ np.asarray(cost.macs_expert_tail) + slots @ np.asarray(cost.macs_ensembler)


def _row_sets(mask: np.ndarray):
    """(j, rows) per column j of an [N, K] mask that sets a row; a full slice if it sets all."""
    full = mask.all(axis=0)
    for j in np.flatnonzero(mask.any(axis=0)):
        yield j, slice(None) if full[j] else np.flatnonzero(mask[:, j])


def evaluate_dataset(model: MoEModel, x: np.ndarray, select: Callable | None = None) -> ModelEval:
    """Run the model over a feature matrix.

    The shared prefix, base tail and gate always run on every row.  Without
    ``select`` every expert tail and ensembler runs on every row too.  Given
    ``select(base probs, gate probs) -> [N, K] bool`` ensembler slots, only
    the slots it selects and the expert tails they need run on each row; the
    outputs of the rest stay zero.
    """
    x = np.asarray(x, dtype=np.float64)
    fp = forward_batch(model.base, x)
    gate_probs = model.gate.distribution_batch(fp.prelogits)
    k = model.num_experts
    n, c = fp.probs.shape
    # With one expert the pair is that expert twice.
    top_pair = np.argsort(-gate_probs[:, :k], axis=1, kind="stable")[:, [0, min(1, k - 1)]]

    if select is None:
        slots = tails = np.ones((n, k), dtype=bool)
    else:
        slots = np.asarray(select(fp.probs, gate_probs), dtype=bool)
        if slots.shape != (n, k):
            raise ShapeError(f"slot selector must return [{n}, {k}], got {slots.shape}")
        tails = _slot_tails(model, top_pair, slots)

    expert_probs = np.zeros((k, n, c))
    for j, rows in _row_sets(tails):
        expert_probs[j, rows] = forward_batch(model.experts[j], fp.tap[rows]).probs

    combined = np.zeros_like(expert_probs)
    for j, rows in _row_sets(slots):
        ens = model.ensemblers[j]
        if ens.kind == "top2":
            pair, at = top_pair[rows], np.arange(n)[rows]
            combined[j, rows] = 0.5 * (expert_probs[pair[:, 0], at] + expert_probs[pair[:, 1], at])
        else:
            combined[j, rows] = apply_ensembler(ens, fp.probs[rows], expert_probs[j, rows])
    return ModelEval(
        base=fp,
        gate_probs=gate_probs,
        expert_probs=expert_probs,
        combined=combined,
        top_pair=top_pair,
    )


# -- serialization -------------------------------------------------------------


def _gate_to_doc(gate: Gate) -> dict:
    return {
        "rows": gate.rows,
        "cols": gate.in_dim,
        "weight": gate.weight.reshape(-1),
        "bias": gate.bias,
    }


def _gate_from_doc(doc: dict) -> Gate:
    weight = np.asarray(doc["weight"], dtype=np.float64).reshape(doc["rows"], doc["cols"])
    return Gate(weight=weight, bias=np.asarray(doc["bias"], dtype=np.float64))


def _ensembler_to_doc(ens: Ensembler) -> dict:
    doc: dict = {"kind": ens.kind}
    if ens.kind == "stacking":
        doc["weight"] = ens.weight.reshape(-1)
        doc["bias"] = ens.bias
        doc["num_classes"] = ens.weight.shape[0]
    return doc


def _ensembler_from_doc(doc: dict) -> Ensembler:
    if doc["kind"] != "stacking":
        return Ensembler(kind=doc["kind"])
    c = doc["num_classes"]
    return Ensembler(
        kind="stacking",
        weight=np.asarray(doc["weight"], dtype=np.float64).reshape(c, 2 * c),
        bias=np.asarray(doc["bias"], dtype=np.float64),
    )


def model_to_doc(model: MoEModel) -> dict:
    doc = {
        "format_version": 1,
        "kind": "moe_model",
        "shared_prefix": model.shared_prefix,
        "base": network_to_doc(model.base),
        "gate": _gate_to_doc(model.gate),
        "experts": [network_to_doc(e) for e in model.experts],
        "ensemblers": [_ensembler_to_doc(e) for e in model.ensemblers],
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
    jsonio.check_format_version(doc, 1, "model checkpoint")
    centroids = None
    if doc.get("centroids") is not None:
        cdoc = doc["centroids"]
        means = np.asarray(cdoc["means"], dtype=np.float64).reshape(cdoc["k"], cdoc["dim"])
        centroids = Centroids(means=means)
    return MoEModel(
        base=network_from_doc(doc["base"]),
        gate=_gate_from_doc(doc["gate"]),
        experts=[network_from_doc(e) for e in doc["experts"]],
        ensemblers=[_ensembler_from_doc(e) for e in doc["ensemblers"]],
        shared_prefix=doc["shared_prefix"],
        centroids=centroids,
        temperature=doc.get("temperature"),
    )


def save_model(path: str | Path, model: MoEModel) -> None:
    jsonio.save_json(path, model_to_doc(model))


def load_model(path: str | Path) -> MoEModel:
    return model_from_doc(jsonio.load_json(path))
