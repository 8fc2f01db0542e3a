"""Independent reference for the mixture's inference outputs.

Plain numpy working from a ``model.json`` document: it never imports
moe_forge, so a fault in the package's math cannot hide in both sides of
a comparison.  It recomputes the shared prefix, the base tail, the gate
softmax, the expert tails, the ensemblers (none, bagging, stacking), the
anytime scores, the exit mask, the renormalised mixture and the
multiply-accumulate counts, all over a whole batch of rows at once.

MACs follow the documented accounting: every dense layer costs
in * out, biases are free, the base network (which holds the shared
prefix) is charged once, the gate costs in * rows, each executed expert
adds its tail and a stacking ensembler adds 2C * C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12
TOLERANCE = 1e-12


@dataclass
class Dense:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    relu: bool

    @property
    def macs(self) -> int:
        return int(self.weight.shape[0] * self.weight.shape[1])


def _layers(doc: dict) -> list[Dense]:
    dims = doc["layer_dims"]
    layers = []
    for i, activation in enumerate(doc["activations"]):
        weight = np.asarray(doc["weights"][i], dtype=np.float64).reshape(dims[i + 1], dims[i])
        layers.append(Dense(weight, np.asarray(doc["biases"][i], dtype=np.float64), activation == "relu"))
    return layers


def _run(layers: list[Dense], a: np.ndarray) -> np.ndarray:
    for layer in layers:
        a = a @ layer.weight.T + layer.bias
        if layer.relu:
            a = np.maximum(a, 0.0)
    return a


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Batch:
    """Every component's output for a batch of rows."""

    base: np.ndarray  # [N, C]
    gate: np.ndarray  # [N, K] expert columns of the gate softmax
    experts: np.ndarray  # [K, N, C] raw expert probabilities
    combined: np.ndarray  # [K, N, C] ensembled expert outputs


@dataclass
class Decision:
    """One routing decision per row: output, exit flag, executed experts, MACs."""

    probs: np.ndarray  # [N, C]
    exited: np.ndarray  # [N] bool
    executed: np.ndarray  # [N, K] bool
    macs: np.ndarray  # [N] int

    @classmethod
    def of(cls, outcomes: list, k: int) -> "Decision":
        """Stack per-row outcomes (``probs``, ``exited``, ``executed_experts``, ``macs``)."""
        executed = np.zeros((len(outcomes), k), dtype=bool)
        for i, o in enumerate(outcomes):
            executed[i, list(o.executed_experts)] = True
        return cls(
            probs=np.stack([o.probs for o in outcomes]),
            exited=np.array([o.exited for o in outcomes]),
            executed=executed,
            macs=np.array([o.macs for o in outcomes]),
        )


class Reference:
    def __init__(self, doc: dict):
        base = doc["base"]
        self.base = _layers(base)
        self.tap = int(base["tap_index"])
        self.experts = [_layers(e) for e in doc["experts"]]
        gate = doc["gate"]
        self.gate_w = np.asarray(gate["weight"], dtype=np.float64).reshape(gate["rows"], gate["cols"])
        self.gate_b = np.asarray(gate["bias"], dtype=np.float64)
        self.ensemblers = []
        for ens in doc["ensemblers"]:
            if ens["kind"] not in ("none", "bagging", "stacking"):
                raise ValueError(f"the reference does not model {ens['kind']!r} ensemblers")
            if ens["kind"] == "stacking":
                c = ens["num_classes"]
                w = np.asarray(ens["weight"], dtype=np.float64).reshape(c, 2 * c)
                self.ensemblers.append(("stacking", w, np.asarray(ens["bias"], dtype=np.float64)))
            else:
                self.ensemblers.append((ens["kind"], None, None))
        self.k = len(self.experts)
        c = self.base[-1].weight.shape[0]
        self.macs_base = sum(layer.macs for layer in self.base)
        self.macs_gate = int(self.gate_w.shape[0] * self.gate_w.shape[1])
        self.macs_expert = np.array(
            [
                sum(layer.macs for layer in tail) + (2 * c * c if kind == "stacking" else 0)
                for tail, (kind, _, _) in zip(self.experts, self.ensemblers)
            ]
        )

    def batch(self, x: np.ndarray) -> Batch:
        x = np.asarray(x, dtype=np.float64)
        tap = _run(self.base[: self.tap + 1], x)
        prelogits = _run(self.base[self.tap + 1 : -1], tap)
        base = _softmax(_run(self.base[-1:], prelogits))
        gate = _softmax(prelogits @ self.gate_w.T + self.gate_b)[:, : self.k]
        experts = np.stack([_softmax(_run(tail, tap)) for tail in self.experts])
        combined = np.empty_like(experts)
        log_base = np.log(np.maximum(base, PROB_FLOOR))
        for j, (kind, w, b) in enumerate(self.ensemblers):
            if kind == "none":
                combined[j] = experts[j]
            elif kind == "bagging":
                combined[j] = 0.5 * (base + experts[j])
            else:
                stacked = np.concatenate([log_base, np.log(np.maximum(experts[j], PROB_FLOOR))], axis=1)
                combined[j] = _softmax(stacked @ w.T + b)
        return Batch(base, gate, experts, combined)

    def anytime(self, b: Batch, tau: float) -> Decision:
        """alpha_threshold policy with renormalised gate weights."""
        alpha = b.gate * (1.0 - b.base.max(axis=1))[:, None]
        executed = alpha >= tau
        exited = ~executed.any(axis=1)
        weights = np.where(executed, b.gate, 0.0)
        mass = weights.sum(axis=1, keepdims=True)
        weights = weights / np.where(mass > 0, mass, 1.0)
        mixture = np.einsum("nk,knc->nc", weights, b.combined)
        probs = np.where(exited[:, None], b.base, mixture)
        macs = self.macs_base + self.macs_gate + executed.astype(np.int64) @ self.macs_expert
        return Decision(probs, exited, executed, macs)

    def top1(self, b: Batch) -> tuple[Decision, np.ndarray]:
        """Gate-argmax routing (ties take the lower index); returns the chosen experts too."""
        n = b.base.shape[0]
        chosen = b.gate.argmax(axis=1)
        executed = np.zeros((n, self.k), dtype=bool)
        executed[np.arange(n), chosen] = True
        probs = b.combined[chosen, np.arange(n)]
        macs = self.macs_base + self.macs_gate + self.macs_expert[chosen]
        return Decision(probs, np.zeros(n, dtype=bool), executed, macs), chosen


def compare(label: str, got: Decision, want: Decision, tol: float = TOLERANCE) -> list[str]:
    """Mismatches between a program's decisions and the reference's, as messages."""
    problems = []
    diff = np.abs(got.probs - want.probs)
    bad = np.flatnonzero(diff.max(axis=1) > tol)
    if bad.size:
        problems.append(
            f"{label}: {bad.size} rows differ from the reference by up to {diff.max():.3g} "
            f"(first row {bad[0]})"
        )
    for name in ("exited", "executed", "macs"):
        g, w = getattr(got, name), getattr(want, name)
        rows = np.flatnonzero((g != w).reshape(len(g), -1).any(axis=1))
        if rows.size:
            problems.append(f"{label}: {name} differs from the reference on {rows.size} rows (first row {rows[0]})")
    return problems


def check_distribution(label: str, probs: np.ndarray, tol: float = TOLERANCE) -> list[str]:
    """Every row finite, non-negative and summing to 1 within tol."""
    problems = []
    if not np.all(np.isfinite(probs)):
        problems.append(f"{label}: non-finite probabilities")
    elif np.any(probs < 0):
        problems.append(f"{label}: negative probabilities")
    else:
        err = np.abs(probs.sum(axis=1) - 1.0).max()
        if err > tol:
            problems.append(f"{label}: a row sums to 1 only within {err:.3g}")
    return problems
