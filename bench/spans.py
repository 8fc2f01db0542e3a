"""Spans around the calls into moe_forge's public functions, and the per-layer metrics.

The tracer rebinds each traced function, in every moe_forge module that
imported it, to a wrapper that records a span: name, start, end, parent
span and the trace id of the workload run.  Spans stay in memory until
``write`` is called at the end of the run.  Nothing inside the package
changes; an untraced run installs no wrapper except ``PipelineCapture``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import moe_forge
import moe_forge.anytime
import moe_forge.cli
import moe_forge.data
import moe_forge.gate_init
import moe_forge.jsonio
import moe_forge.model
import moe_forge.nn
import moe_forge.training

MODULES = (
    moe_forge.anytime,
    moe_forge.cli,
    moe_forge.data,
    moe_forge.gate_init,
    moe_forge.jsonio,
    moe_forge.model,
    moe_forge.nn,
    moe_forge.training,
)


def _rows(args: tuple, kwargs: dict) -> dict:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": len(x)}


def _sgd_steps(args: tuple, kwargs: dict) -> dict:
    # sgd_train(net, x, labels, weights, cfg, ...)
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return {"steps": cfg.epochs * math.ceil(len(args[1]) / cfg.batch_size)}


def _expert_steps(args: tuple, kwargs: dict) -> dict:
    # train_expert(k, base, sample_weights, ds, cfg, ...): both negative-handling
    # modes take ceil(N / batch) steps per epoch.
    ds = args[3] if len(args) > 3 else kwargs["ds"]
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return {"steps": cfg.epochs * math.ceil(len(ds) / cfg.batch_size)}


def _tau(args: tuple, kwargs: dict) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"tau": cfg.tau}


# (module holding the definition, function name, span name, attributes taken from the call)
TRACED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (moe_forge.training, "run_pipeline", "run_pipeline", None),
    (moe_forge.training, "train_base", "train_base", None),
    (moe_forge.training, "train_gate", "train_gate", None),
    (moe_forge.training, "train_expert", "train_expert", _expert_steps),
    (moe_forge.training, "train_ensembler", "train_ensembler", None),
    (moe_forge.gate_init, "kmeans", "kmeans", None),
    (moe_forge.gate_init, "initial_gate", "initial_gate", None),
    (moe_forge.nn, "forward_batch", "forward_batch", _rows),
    (moe_forge.nn, "sgd_train", "sgd_train", _sgd_steps),
    (moe_forge.data, "generate_synthetic", "generate_synthetic", None),
    (moe_forge.data, "split", "split", None),
    (moe_forge.data, "weighted_batches", "weighted_batches", None),
    (moe_forge.model, "evaluate_dataset", "evaluate_dataset", _rows),
    (moe_forge.model, "save_model", "save_model", None),
    (moe_forge.model, "load_model", "load_model", None),
    (moe_forge.jsonio, "dumps", "jsonio.dumps", None),
    (moe_forge.jsonio, "load_json", "jsonio.load_json", None),
    (moe_forge.anytime, "anytime_predict", "anytime_predict", _tau),
    (moe_forge.anytime, "sweep_thresholds", "sweep_thresholds", None),
)


# attributes taken from the return value
RESULT_ATTRS: dict[str, Callable] = {
    "kmeans": lambda result: {"iters": len(result.inertia_history)},
    "run_pipeline": lambda result: {"stages": {s.name: s.seconds for s in result.stages}},
}


def _rebind(original: Callable, replacement: Callable) -> list[tuple[Any, str, Callable]]:
    """Point every moe_forge module name bound to ``original`` at ``replacement``."""
    undo = []
    for module in MODULES + (moe_forge,):
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


class PipelineCapture:
    """Keeps every PipelineResult the CLI produces, so checks can use the in-memory model."""

    def __init__(self):
        self.results: list = []
        original = moe_forge.training.run_pipeline

        @functools.wraps(original)
        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        self._undo = _rebind(original, capture)

    def close(self) -> None:
        for module, name, original in self._undo:
            setattr(module, name, original)


class Tracer:
    """In-memory spans; ``install`` wraps the functions listed in TRACED."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Callable]] = []
        self.active = True  # wrappers call straight through while False

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        tracer = self

        if name == "weighted_batches":

            @functools.wraps(fn)
            def stream(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield next(inner)
                        continue
                    span = tracer.begin("weighted_batches.next")
                    try:
                        item = next(inner)
                    finally:
                        tracer.end(span)
                    yield item

            return stream

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if name in RESULT_ATTRS:
                span["attrs"].update(RESULT_ATTRS[name](result))
            return result

        return traced

    def install(self) -> None:
        for module, fname, name, attrs in TRACED:
            original = getattr(module, fname)
            self._undo += _rebind(original, self.wrap(original, name, attrs))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo = []

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({"trace": self.trace_id, **s}) + "\n")


# -- per-layer metrics -------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time its children cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + _dur(s)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + _dur(s) - covered.get(s["id"], 0.0)
    return totals


STAGE_CHILDREN = {
    "base": ("train_base",),
    "gate_init": ("kmeans", "initial_gate"),
    "gate": ("train_gate",),
    "experts": ("train_expert",),
    "ensemblers": ("train_ensembler",),
}


def per_layer(spans: list[dict], extra: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values from the spans, and any inconsistency found in them.

    ``extra`` holds counts the benchmark measured at the same boundaries
    (checkpoint bytes, exit share, experts run, MACs per path).
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def median_dur(name, where=lambda s: True):
        values = [_dur(s) for s in named(name) if where(s)]
        return statistics.median(values) if values else 0.0

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    problems = []
    pipelines = named("run_pipeline")
    stage_seconds: dict[str, list[float]] = {stage: [] for stage in STAGE_CHILDREN}
    steps, steps_per_s = [], []
    for p in pipelines:
        kids = children.get(p["id"], [])
        for stage, names in STAGE_CHILDREN.items():
            seconds = p["attrs"]["stages"][stage]
            stage_seconds[stage].append(seconds)
            covered = sum(_dur(k) for k in kids if k["name"] in names)
            if covered > seconds + 1e-6:
                problems.append(f"trace: stage {stage} spans cover {covered:.6f}s of a {seconds:.6f}s stage")
        experts = [k for k in kids if k["name"] == "train_expert"]
        n_steps = sum(k["attrs"]["steps"] for k in experts)
        steps.append(n_steps)
        steps_per_s.append(n_steps / sum(_dur(k) for k in experts))

    draws = named("weighted_batches.next")
    sgd = named("sgd_train")
    fwd1 = [s for s in named("forward_batch") if s["attrs"]["rows"] == 1]
    fwdn = [s for s in named("forward_batch") if s["attrs"]["rows"] > 1]
    ev1 = [s for s in named("evaluate_dataset") if s["attrs"]["rows"] == 1]
    evn = [s for s in named("evaluate_dataset") if s["attrs"]["rows"] > 1]
    clis = named("cli.main")
    overhead = []
    for c in clis:
        inner = sum(_dur(k) for k in children.get(c["id"], []) if k["name"] == "run_pipeline")
        overhead.append(_dur(c) - inner)

    def us_per_call(group):
        return 1e6 * sum(_dur(s) for s in group) / len(group)

    def rows_per_s(group):
        return sum(s["attrs"]["rows"] for s in group) / sum(_dur(s) for s in group)

    def anytime_us(tau):
        group = [s for s in named("anytime_predict") if s["attrs"]["tau"] == tau]
        return us_per_call(group)

    metrics = {
        "data.generate_s": median_dur("generate_synthetic"),
        "data.weighted_draw_us": us_per_call(draws),
        "nn.sgd_step_us": 1e6 * sum(_dur(s) for s in sgd) / sum(s["attrs"]["steps"] for s in sgd),
        "nn.forward_b1_us": us_per_call(fwd1),
        "nn.forward_rows_per_s": rows_per_s(fwdn),
        "gate_init.kmeans_s": median_dur("kmeans"),
        "gate_init.kmeans_iters": statistics.median(s["attrs"]["iters"] for s in named("kmeans")),
        "gate_init.initial_gate_s": median_dur("initial_gate"),
        **{f"training.{stage}_s": statistics.median(v) for stage, v in stage_seconds.items()},
        "training.expert_steps": statistics.median(steps),
        "training.expert_steps_per_s": statistics.median(steps_per_s),
        "training.stage_ckpt_bytes": extra["stage_ckpt_bytes"],
        "model.evaluate_b1_us": us_per_call(ev1),
        "model.evaluate_rows_per_s": rows_per_s(evn),
        "model.ckpt_bytes": extra["ckpt_bytes"],
        "model.save_s": median_dur("save_model"),
        "model.load_s": median_dur("load_model"),
        "jsonio.dumps_s": median_dur("jsonio.dumps", lambda s: parent_name(s) == "save_model"),
        "jsonio.load_s": median_dur("jsonio.load_json", lambda s: parent_name(s) == "load_model"),
        "anytime.exit_share": extra["exit_share"],
        "anytime.experts_run_mean": extra["experts_run_mean"],
        "anytime.us_per_mmac_tau1": anytime_us(1.0) / (extra["macs_tau1"] / 1e6),
        "anytime.us_per_mmac_tau0": anytime_us(0.0) / (extra["macs_tau0"] / 1e6),
        "anytime.sweep_s": median_dur("sweep_thresholds"),
        "cli.train_s": median_dur("cli.main"),
        "cli.overhead_s": statistics.median(overhead),
    }
    return metrics, problems
