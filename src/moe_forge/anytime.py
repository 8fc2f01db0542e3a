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
from .model import MoEModel, evaluate_dataset, slot_macs, top1_slots
from .nn import ForwardPass, forward_batch

POLICIES = ("alpha_threshold", "base_confidence", "gate_confidence")

CURVE_HEADER = "tau,accuracy,mean_macs,exit_ratio"


@dataclass(frozen=True)
class AnytimeConfig:
    tau: float
    policy: str = "alpha_threshold"

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
    fp = forward_batch(model.base, np.asarray(x, dtype=np.float64)[None, :])
    return _scores(fp.probs, model.gate.distribution_batch(fp.prelogits))[0]


def _scores(base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
    return gate_probs * (1.0 - base_probs.max(axis=1))[:, None]


def _decide(model: MoEModel, cfg: AnytimeConfig, base_probs: np.ndarray, gate_probs: np.ndarray):
    """Exit mask [N], executed slots [N, K], mixing weights [N, K] (None: the one slot as is)."""
    if cfg.policy == "alpha_threshold":
        executed = _scores(base_probs, gate_probs) >= cfg.tau
        exited = ~executed.any(axis=1)
        if exited.all():  # no row mixes anything, so every weight is zero
            return exited, executed, np.zeros_like(gate_probs)
        # The gate weights, renormalized over the executed set.
        weights = np.where(executed, gate_probs, 0.0)
        mass = weights.sum(axis=1, keepdims=True)
        return exited, executed, np.divide(weights, mass, out=np.zeros_like(weights), where=mass > 0)
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


def _predict_batch(
    model: MoEModel, x: np.ndarray, configs: Sequence[AnytimeConfig], base: ForwardPass | None = None
) -> list[_BatchOutcome]:
    """Decide, run, combine and count MACs for every config over the rows of x.

    Every config is decided from one base and gate pass, and each expert tail
    runs only on the rows that some config executes it on.  ``base`` is the
    base's forward pass over ``x`` when the caller already holds it.
    """
    for cfg in configs:
        cfg.validate()
    decided = []

    def select(base_probs: np.ndarray, gate_probs: np.ndarray) -> np.ndarray:
        decided.extend([_decide(model, cfg, base_probs, gate_probs) for cfg in configs])
        executed = decided[0][1] if decided else np.zeros((len(base_probs), model.num_experts), dtype=bool)
        for _, slots, _ in decided[1:]:
            executed = executed | slots
        return executed

    ev = evaluate_dataset(model, x, select, base)
    cost = model.cost
    outcomes = []
    for cfg, (exited, executed, weights) in zip(configs, decided):
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
        macs = cost.macs_base + gate_ran * cost.macs_gate + slot_macs(model, executed)
        outcomes.append(_BatchOutcome(probs, exited, executed, macs))
    return outcomes


def anytime_predict(model: MoEModel, x: np.ndarray, cfg: AnytimeConfig) -> PredictOutcome:
    """Predict one sample under the early-exit rule, running only the experts it picks.

    Under alpha_threshold tau=1 always exits (scores never reach 1), giving the base output
    exactly, and tau=0 runs every expert.  base_confidence exits every row at tau=0, and at
    tau=1 only rows whose base maximum is exactly 1.0; gate_confidence runs the argmax expert
    at tau=0, and at tau=1 still runs it on rows whose gate maximum is exactly 1.0 in float64.
    """
    (out,) = _predict_batch(model, np.asarray(x, dtype=np.float64)[None, :], [cfg])
    return PredictOutcome(
        probs=out.probs[0],
        exited=bool(out.exited[0]),
        executed_experts=tuple(out.executed[0].nonzero()[0].tolist()),
        macs=int(out.macs[0]),
    )


def _curve_points(
    model: MoEModel, ds: LabeledDataset, configs: Sequence[AnytimeConfig], base: ForwardPass | None
) -> list[CurvePoint]:
    """Accuracy / mean MACs / exit ratio under every config, all from one ``_predict_batch``.

    ``base`` is the base's forward pass over ``ds``, or None to run it here.
    """
    points = []
    for cfg, out in zip(configs, _predict_batch(model, ds.features, configs, base)):
        accuracy = float((out.probs.argmax(axis=1) == ds.labels).mean())
        points.append(CurvePoint(cfg.tau, accuracy, float(out.macs.mean()), float(out.exited.mean())))
    return points


def sweep_thresholds(
    model: MoEModel,
    ds: LabeledDataset,
    taus: Sequence[float],
    policy: str = "alpha_threshold",
) -> TradeoffCurve:
    """The trade-off curve of ``policy`` at every threshold, all from one ``_predict_batch``."""
    return TradeoffCurve(_curve_points(model, ds, [AnytimeConfig(float(tau), policy) for tau in taus], None))


def convex_envelope(points: Sequence[CurvePoint]) -> TradeoffCurve:
    """Upper concave frontier over (mean_macs, accuracy).

    Dominated points (cheaper-or-equal point with at least the same
    accuracy exists) are dropped first, then points on or below a chord
    between two survivors.  Ties keep the earliest input point.
    """
    pareto: list[CurvePoint] = []
    best = -math.inf
    # The sort is stable and a point must beat the best so far, so equal points keep the earliest.
    for p in sorted(points, key=lambda p: (p.mean_macs, -p.accuracy)):
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
    """Cheapest threshold whose accuracy stays within max_accuracy_drop of the reference's.

    Under base_confidence a smaller tau exits more rows, so the reference is tau=1 and the
    smallest qualifying tau is returned; under the other policies a larger tau exits more rows,
    so the reference is tau=0 (every expert runs under alpha_threshold) and the largest
    qualifying tau is returned.  Returns the reference tau when no candidate qualifies.
    """
    ref, pick = (1.0, min) if policy == "base_confidence" else (0.0, max)
    curve = sweep_thresholds(model, ds, [ref, *taus], policy)
    ref_acc = curve.points[0].accuracy
    passing = [p.tau for p in curve.points[1:] if p.accuracy >= ref_acc - max_accuracy_drop]
    return pick(passing, default=ref)
