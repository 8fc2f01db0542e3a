"""Threshold-based anytime inference and compute/accuracy trade-off tooling.

A prediction may stop at the base model when no expert looks worth
running.  The joint score for expert k is the gate weight times the base
model's uncertainty; when every score falls below the threshold the
sample exits early with the base output, otherwise the experts whose
scores clear the threshold are executed and mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import LabeledDataset
from .errors import ShapeError
from .model import Gate, ModelEval, MoEModel, evaluate_dataset, slot_macs, top1_slots
from .nn import SgdConfig, forward_batch

POLICIES = ("alpha_threshold", "base_confidence", "gate_confidence", "learned_gate")

CURVE_HEADER = "tau,accuracy,mean_macs,exit_ratio"


@dataclass(frozen=True)
class AnytimeConfig:
    tau: float
    policy: str = "alpha_threshold"
    renormalize: bool = True  # renormalize gate weights over the executed set

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")


@dataclass
class PredictOutcome:
    probs: np.ndarray
    exited: bool
    executed_experts: tuple[int, ...]
    macs: int


@dataclass(frozen=True)
class CurvePoint:
    tau: float
    accuracy: float
    mean_macs: float
    exit_ratio: float


@dataclass
class TradeoffCurve:
    points: list[CurvePoint]

    def to_csv(self) -> str:
        lines = [CURVE_HEADER]
        for p in self.points:
            lines.append(
                f"{p.tau!r},{p.accuracy!r},{p.mean_macs!r},{p.exit_ratio!r}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def anytime_scores(model: MoEModel, x: np.ndarray) -> np.ndarray:
    """Per-expert scores: gate weight times (1 - max base class probability)."""
    run_none = lambda base_probs, gate_probs: np.zeros((1, model.num_experts), dtype=bool)
    ev = evaluate_dataset(model, np.asarray(x, dtype=np.float64)[None, :], run_none)
    return _scores(model, ev.base.probs, ev.gate_probs)[0]


def _scores(model: MoEModel, base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
    uncertainty = 1.0 - base_probs.max(axis=1)
    return gate_probs[:, : model.num_experts] * uncertainty[:, None]


def _decide(model: MoEModel, cfg: AnytimeConfig, base_probs: np.ndarray, gate_probs: np.ndarray):
    """Exit mask [N], executed slots [N, K], mixing weights [N, K] (None: the one slot as is)."""
    gate = gate_probs[:, : model.num_experts]
    if cfg.policy == "alpha_threshold":
        executed = _scores(model, base_probs, gate_probs) >= cfg.tau
        weights = np.where(executed, gate, 0.0)
        if cfg.renormalize:
            mass = weights.sum(axis=1, keepdims=True)
            weights = np.divide(weights, mass, out=np.zeros_like(weights), where=mass > 0)
        return ~executed.any(axis=1), executed, weights
    # The other policies run the gate's argmax expert unless the row exits.
    if cfg.policy == "base_confidence":
        exited = base_probs.max(axis=1) >= cfg.tau
    elif cfg.policy == "gate_confidence":
        exited = gate.max(axis=1) < cfg.tau
    else:  # learned_gate: the extra gate head votes for exiting; tau is unused.
        if not model.has_exit_head:
            raise ShapeError("learned_gate policy needs a gate with an exit head (K+1 rows)")
        exited = gate_probs.argmax(axis=1) == model.num_experts
    return exited, top1_slots(model, gate_probs) & ~exited[:, None], None


@dataclass
class _BatchOutcome:
    probs: np.ndarray  # [N, C]
    exited: np.ndarray  # [N] bool
    executed: np.ndarray  # [N, K] bool, ensembler slots that contributed
    macs: np.ndarray  # [N] int


def _predict_batch(model: MoEModel, ev: ModelEval, cfg: AnytimeConfig, d=None) -> _BatchOutcome:
    """Combine, exit and count MACs for the policy's decision d (made from ev when not given)."""
    cfg.validate()
    exited, executed, weights = d or _decide(model, cfg, ev.base.probs, ev.gate_probs)
    if weights is None:
        probs = ev.combined[executed.argmax(axis=1), np.arange(len(exited))]
    else:
        probs = np.einsum("nk,knc->nc", weights, ev.combined)
    probs[exited] = ev.base.probs[exited]
    # base_confidence's exit test only needs the base output, so its exits skip the gate.
    gate_ran = ~exited if cfg.policy == "base_confidence" else np.ones_like(exited)
    cost = model.cost
    macs = cost.macs_base + gate_ran * cost.macs_gate + slot_macs(model, ev.top_pair, executed)
    return _BatchOutcome(probs, exited, executed, macs)


def anytime_predict(model: MoEModel, x: np.ndarray, cfg: AnytimeConfig) -> PredictOutcome:
    """Predict one sample under the early-exit rule, running only the experts it picks.

    tau=1 always exits (scores never reach 1), reproducing the base
    model's output exactly; tau=0 never exits and runs every expert.
    """
    cfg.validate()
    decided = []

    def select(base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
        decided.append(_decide(model, cfg, base_probs, gate_probs))
        return decided[0][1]

    ev = evaluate_dataset(model, np.asarray(x, dtype=np.float64)[None, :], select)
    out = _predict_batch(model, ev, cfg, decided[0])
    return PredictOutcome(
        probs=out.probs[0],
        exited=bool(out.exited[0]),
        executed_experts=tuple(int(j) for j in np.flatnonzero(out.executed[0])),
        macs=int(out.macs[0]),
    )


def gate_confidence_exit(model: MoEModel, x: np.ndarray, tau: float) -> PredictOutcome:
    """Exit with the base output when the gate itself is unsure (max weight < tau)."""
    return anytime_predict(model, x, AnytimeConfig(tau=tau, policy="gate_confidence"))


def sweep_thresholds(
    model: MoEModel,
    ds: LabeledDataset,
    taus: Sequence[float],
    policy: str = "alpha_threshold",
    renormalize: bool = True,
) -> TradeoffCurve:
    """Accuracy / mean MACs / exit ratio at every threshold."""
    ev = evaluate_dataset(model, ds.features)
    points = []
    for tau in taus:
        out = _predict_batch(model, ev, AnytimeConfig(float(tau), policy, renormalize))
        accuracy = float((out.probs.argmax(axis=1) == ds.labels).mean())
        points.append(
            CurvePoint(
                tau=float(tau),
                accuracy=accuracy,
                mean_macs=float(out.macs.mean()),
                exit_ratio=float(out.exited.mean()),
            )
        )
    return TradeoffCurve(points=points)


def convex_envelope(points: Sequence[CurvePoint]) -> TradeoffCurve:
    """Upper concave frontier over (mean_macs, accuracy).

    Dominated points (cheaper-or-equal point with at least the same
    accuracy exists) are dropped first, then points on or below a chord
    between two survivors.  Ties keep the earliest input point.
    """
    seen: set[tuple[float, float]] = set()
    unique: list[CurvePoint] = []
    for p in points:
        key = (p.mean_macs, p.accuracy)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    unique.sort(key=lambda p: (p.mean_macs, -p.accuracy))

    pareto: list[CurvePoint] = []
    best = -math.inf
    for p in unique:
        if p.accuracy > best:
            pareto.append(p)
            best = p.accuracy

    hull: list[CurvePoint] = []
    for p in pareto:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a.mean_macs - o.mean_macs) * (p.accuracy - o.accuracy) - (
                a.accuracy - o.accuracy
            ) * (p.mean_macs - o.mean_macs)
            if cross >= 0:  # middle point is on or below the chord
                hull.pop()
            else:
                break
        hull.append(p)
    return TradeoffCurve(points=hull)


def select_threshold(
    model: MoEModel,
    ds: LabeledDataset,
    taus: Sequence[float],
    max_accuracy_drop: float,
    policy: str = "alpha_threshold",
) -> float:
    """Largest threshold whose accuracy stays within max_accuracy_drop of tau=0.

    tau=0 (run everything) is the reference; returns 0.0 when no
    candidate threshold qualifies.
    """
    curve = sweep_thresholds(model, ds, [0.0, *taus], policy)
    ref_acc = curve.points[0].accuracy
    passing = [p.tau for p in curve.points[1:] if p.accuracy >= ref_acc - max_accuracy_drop]
    return max(passing, default=0.0)


def ilp_exit_assignment(model: MoEModel, ds: LabeledDataset, tau: float) -> np.ndarray:
    """Budgeted exit labels maximizing true-class probability.

    Exactly floor(tau * N) samples exit: those where the base model beats
    the full gate-weighted mixture by the largest margin (ties take the
    lower sample index).  Separable objective + cardinality constraint
    makes the greedy top-margin choice optimal.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    ev = evaluate_dataset(model, ds.features)
    n = len(ds)
    rows = np.arange(n)
    gate = ev.gate_probs[:, : model.num_experts]
    mixture = np.einsum("nk,knc->nc", gate, ev.combined)
    delta = ev.base.probs[rows, ds.labels] - mixture[rows, ds.labels]
    budget = int(math.floor(tau * n + 1e-9))
    order = np.argsort(-delta, kind="stable")
    ee = np.zeros(n, dtype=np.int64)
    ee[order[:budget]] = 1
    return ee


def train_exit_gate(
    model: MoEModel, ds: LabeledDataset, exit_labels: np.ndarray, cfg: SgdConfig
) -> Gate:
    """Extend the gate with an exit head and fit it to the exit labels.

    Samples labeled 1 target the new head; the rest keep targeting the
    expert the original gate would have picked.  Warm-starts from the
    trained gate with a zeroed exit row.
    """
    from .training import fit_linear_softmax

    exit_labels = np.asarray(exit_labels, dtype=np.int64)
    if exit_labels.shape != (len(ds),):
        raise ShapeError("exit_labels must be 1-d with one entry per sample")
    if model.has_exit_head:
        raise ShapeError("model gate already has an exit head")
    k = model.num_experts
    fp = forward_batch(model.base, ds.features)
    gate_probs = model.gate.distribution_batch(fp.prelogits)
    chosen = gate_probs.argmax(axis=1)
    target_index = np.where(exit_labels == 1, k, chosen)
    targets = np.zeros((len(ds), k + 1))
    targets[np.arange(len(ds)), target_index] = 1.0
    start = Gate(
        weight=np.vstack([model.gate.weight, np.zeros((1, model.gate.in_dim))]),
        bias=np.append(model.gate.bias, 0.0),
    )
    return fit_linear_softmax(fp.prelogits, targets, cfg, start=start)
