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
from .model import ModelEval, MoEModel, evaluate_dataset, slot_macs, top1_slots
from .nn import ForwardPass

POLICIES = ("alpha_threshold", "base_confidence", "gate_confidence")

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
    return _scores(ev.base.probs, ev.gate_probs)[0]


def _scores(base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
    return gate_probs * (1.0 - base_probs.max(axis=1))[:, None]


def _decide(model: MoEModel, cfg: AnytimeConfig, base_probs: np.ndarray, gate_probs: np.ndarray):
    """Exit mask [N], executed slots [N, K], mixing weights [N, K] (None: the one slot as is)."""
    if cfg.policy == "alpha_threshold":
        executed = _scores(base_probs, gate_probs) >= cfg.tau
        exited = ~executed.any(axis=1)
        if exited.all():  # no row mixes anything, so every weight is zero
            return exited, executed, np.zeros_like(gate_probs)
        weights = np.where(executed, gate_probs, 0.0)
        if cfg.renormalize:
            mass = weights.sum(axis=1, keepdims=True)
            weights = np.divide(weights, mass, out=np.zeros_like(weights), where=mass > 0)
        return exited, executed, weights
    # The other policies run the gate's argmax expert unless the row exits.
    if cfg.policy == "base_confidence":
        exited = base_probs.max(axis=1) >= cfg.tau
    else:  # gate_confidence
        exited = gate_probs.max(axis=1) < cfg.tau
    return exited, top1_slots(model, gate_probs) & ~exited[:, None], None


@dataclass
class _BatchOutcome:
    probs: np.ndarray  # [N, C]
    exited: np.ndarray  # [N] bool
    executed: np.ndarray  # [N, K] bool, ensembler slots that contributed
    macs: np.ndarray  # [N] int


def _predict_batch(model: MoEModel, ev: ModelEval, cfg: AnytimeConfig, d: tuple) -> _BatchOutcome:
    """Combine, exit and count MACs for ``_decide``'s decision d under the policy of cfg."""
    exited, executed, weights = d
    if exited.all():  # every row takes the base output, so skip the combine
        probs = ev.base.probs.copy()
    else:
        if weights is None:
            probs = ev.combined[executed.argmax(axis=1), np.arange(len(exited))]
        else:
            probs = np.einsum("nk,knc->nc", weights, ev.combined)
        probs[exited] = ev.base.probs[exited]
    # base_confidence's exit test only needs the base output, so its exits skip the gate.
    gate_ran = ~exited if cfg.policy == "base_confidence" else True
    cost = model.cost
    macs = cost.macs_base + gate_ran * cost.macs_gate + slot_macs(model, ev.gate_probs, executed)
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
        executed_experts=tuple(out.executed[0].nonzero()[0].tolist()),
        macs=int(out.macs[0]),
    )


def sweep_thresholds(
    model: MoEModel,
    ds: LabeledDataset,
    taus: Sequence[float],
    policy: str = "alpha_threshold",
    renormalize: bool = True,
    base: ForwardPass | None = None,
) -> TradeoffCurve:
    """Accuracy / mean MACs / exit ratio at every threshold.

    Each threshold's decision is made once, from one base and gate pass, and
    each expert tail runs only on the rows that some threshold executes it on.
    ``base`` is the base's forward pass over ``ds`` when the caller already holds it.
    """
    configs = [AnytimeConfig(float(tau), policy, renormalize) for tau in taus]
    for cfg in configs:
        cfg.validate()
    decided = []

    def select(base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
        decided.extend(_decide(model, cfg, base_probs, gate_probs) for cfg in configs)
        executed = np.zeros((len(base_probs), model.num_experts), dtype=bool)
        for _, slots, _ in decided:
            executed |= slots
        return executed

    ev = evaluate_dataset(model, ds.features, select, base)
    points = []
    for cfg, d in zip(configs, decided):
        out = _predict_batch(model, ev, cfg, d)
        accuracy = float((out.probs.argmax(axis=1) == ds.labels).mean())
        points.append(
            CurvePoint(
                tau=cfg.tau,
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
