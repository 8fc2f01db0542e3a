"""Post-hoc analysis: specialization, calibration, routing comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledDataset
from .errors import ShapeError
from .model import ModelEval
from .nn import PROB_FLOOR


@dataclass
class SpecializationTable:
    """counts[k, c]: samples of class c on which expert k has the lowest loss."""

    counts: np.ndarray  # [K, C] ints
    normalization: str = "raw"  # or "per_class"

    def per_class(self) -> "SpecializationTable":
        """Column-normalized view: the share of each class won by each expert."""
        totals = self.counts.sum(axis=0, keepdims=True)
        fractions = self.counts / np.where(totals > 0, totals, 1)
        return SpecializationTable(counts=fractions, normalization="per_class")

    def to_csv(self) -> str:
        k, c = self.counts.shape
        lines = ["expert," + ",".join(f"class_{j}" for j in range(c))]
        for i in range(k):
            cells = [
                str(int(v)) if self.normalization == "raw" else repr(float(v))
                for v in self.counts[i]
            ]
            lines.append(f"{i}," + ",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass
class ReliabilityTable:
    """Per-confidence-bin counts and accuracy for calibration inspection."""

    bin_edges: np.ndarray  # [B + 1]
    counts: np.ndarray  # [B] ints
    accuracy: np.ndarray  # [B] floats, NaN for empty bins

    def to_csv(self) -> str:
        lines = ["bin_low,bin_high,count,accuracy"]
        for low, high, count, acc in zip(
            self.bin_edges[:-1], self.bin_edges[1:], self.counts, self.accuracy
        ):
            lines.append(f"{float(low)!r},{float(high)!r},{int(count)},{float(acc)!r}")
        return "\n".join(lines) + "\n"


def specialization_table(ev: ModelEval, ds: LabeledDataset) -> SpecializationTable:
    """Assign every sample to the raw expert with the lowest cross-entropy.

    ``ev`` is the model's dense evaluation of ``ds``.  The winner is
    equivalently the expert giving the true class the highest probability;
    ties go to the lower expert index.
    """
    rows = np.arange(len(ds))
    true_probs = ev.expert_probs[:, rows, ds.labels]  # [K, N]
    winner = true_probs.argmax(axis=0)
    counts = np.zeros((len(ev.expert_probs), ds.num_classes), dtype=np.int64)
    np.add.at(counts, (winner, ds.labels), 1)
    return SpecializationTable(counts=counts)


def reliability_table(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 10
) -> ReliabilityTable:
    """Bucket predictions into equal-width confidence bins over [0, 1].

    The last bin is right-inclusive so confidence 1.0 lands in it.  Empty
    bins report count 0 and accuracy NaN.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape or confidences.ndim != 1:
        raise ShapeError("confidences and correct must be matching 1-d arrays")
    if np.any(confidences < 0) or np.any(confidences > 1):
        raise ValueError("confidences must lie in [0, 1]")
    if num_bins < 1:
        raise ValueError("num_bins must be positive")
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins = np.minimum((confidences * num_bins).astype(np.int64), num_bins - 1)
    counts = np.bincount(bins, minlength=num_bins)
    hits = np.bincount(bins, weights=correct.astype(np.float64), minlength=num_bins)
    accuracy = np.divide(
        hits, counts, out=np.full(num_bins, np.nan), where=counts > 0
    )
    return ReliabilityTable(bin_edges=edges, counts=counts, accuracy=accuracy)


def model_reliability(ev: ModelEval, ds: LabeledDataset, num_bins: int = 10) -> ReliabilityTable:
    """Reliability of the full soft mixture's top-1 confidence; ``ev`` is the dense evaluation of ``ds``."""
    mixture = np.einsum("nk,knc->nc", ev.gate_probs, ev.combined)
    confidence = mixture.max(axis=1)
    correct = mixture.argmax(axis=1) == ds.labels
    return reliability_table(np.clip(confidence, 0.0, 1.0), correct, num_bins)


def oracle_per_class_eval(ev: ModelEval, class_map: np.ndarray, ds: LabeledDataset) -> float:
    """Accuracy when each sample is routed by its TRUE class's expert.

    Upper-bounds what per-class routing can achieve once gate mistakes
    are removed; the ensembled expert outputs of ``ev``, the dense
    evaluation of ``ds``, are used.
    """
    class_map = np.asarray(class_map, dtype=np.int64)
    if class_map.shape != (ds.num_classes,):
        raise ShapeError(f"class_map must have one entry per class ({ds.num_classes})")
    if class_map.min() < 0 or class_map.max() >= len(ev.combined):
        raise ShapeError("class_map references an absent expert")
    rows = np.arange(len(ds))
    routed = ev.combined[class_map[ds.labels], rows]
    return float((routed.argmax(axis=1) == ds.labels).mean())


@dataclass
class DisagreementReport:
    fraction: float
    transition_counts: np.ndarray  # [K, K], diagonal = unchanged assignments
    per_class_transitions: list[tuple[int, int, int, int]]  # (class, from, to, count)

    def transitions_csv(self) -> str:
        lines = ["class,from_expert,to_expert,count"]
        for cls, src, dst, count in self.per_class_transitions:
            lines.append(f"{cls},{src},{dst},{count}")
        return "\n".join(lines) + "\n"


def gate_disagreement(
    assign_a: np.ndarray,
    assign_b: np.ndarray,
    labels: np.ndarray,
    num_experts: int | None = None,
) -> DisagreementReport:
    """Compare two hard expert assignments of the same samples.

    Reports the changed fraction, the full [K, K] transition matrix
    (diagonal holds unchanged samples), and per-class off-diagonal
    transitions sorted by count (descending, ties by class/from/to).
    """
    assign_a = np.asarray(assign_a, dtype=np.int64)
    assign_b = np.asarray(assign_b, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not (assign_a.shape == assign_b.shape == labels.shape) or assign_a.ndim != 1:
        raise ShapeError("assignments and labels must be matching 1-d arrays")
    if len(assign_a) == 0:
        raise ShapeError("need at least one sample")
    if num_experts is None:
        num_experts = int(max(assign_a.max(), assign_b.max())) + 1
    counts = np.zeros((num_experts, num_experts), dtype=np.int64)
    np.add.at(counts, (assign_a, assign_b), 1)
    fraction = float((assign_a != assign_b).mean())

    moved = assign_a != assign_b
    per_class: dict[tuple[int, int, int], int] = {}
    for cls, src, dst in zip(labels[moved], assign_a[moved], assign_b[moved]):
        key = (int(cls), int(src), int(dst))
        per_class[key] = per_class.get(key, 0) + 1
    ordered = sorted(per_class.items(), key=lambda item: (-item[1], item[0]))
    transitions = [(cls, src, dst, count) for (cls, src, dst), count in ordered]
    return DisagreementReport(
        fraction=fraction, transition_counts=counts, per_class_transitions=transitions
    )
