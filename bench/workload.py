"""The benchmark's workloads: inputs from a seed, timed rounds, output checks, metrics.

Every workload is one use of the tool: train a model through the CLI,
save and load its checkpoint, then serve held-out rows one at a time and
sweep thresholds over them.  The workloads differ in what each round of
the timed window repeats: wide_train trains in every round; serve_anytime
trains once and then repeats checkpoints and serving.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import moe_forge.anytime as anytime
import moe_forge.cli as cli
import moe_forge.data as data
import moe_forge.model as model_mod
import moe_forge.nn as nn
import moe_forge.training as training
from moe_forge.anytime import AnytimeConfig
from moe_forge.data import LabeledDataset, SyntheticSpec
from moe_forge.model import ExecutionTrace

import reference
import spans

SPLIT = (0.8, 0.2)
OPERATING_TAU = 0.01
PATH_TAUS = {"exit": 1.0, "anytime": OPERATING_TAU, "full": 0.0}
SWEEP_TAUS = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
SWEEP_POLICIES = ("alpha_threshold", "base_confidence", "gate_confidence")
SETUP_REPEATS = 5  # set-ups timed before the window opens
SETUP_REPEATS_PER_STEP = 2  # set-ups timed after each step of a round
WARMUP_ROWS = 20

# Eight sites sit SITE_GAP apart on axes 0-7.  Each holds four classes whose
# two modes lie at +/- MODE_DELTA on the class's own axis.  The sites are far
# enough apart that k-means on the base's pre-logits needs a similar number
# of Lloyd iterations on every seed (4-6 in probes).  On the default lattice
# it took 10-24, which moved train_s by a quarter from one seed to the next.
SITES = 8
CLASSES_PER_SITE = 4
DIM = 64
SITE_GAP = 8.0
MODE_DELTA = 3.0


def site_means() -> list[list[float]]:
    """One mean per mode: class c of site s at SITE_GAP on axis s and +/- MODE_DELTA on its own axis."""
    means = []
    for s in range(SITES):
        for c in range(CLASSES_PER_SITE):
            for sign in (1.0, -1.0):
                row = [0.0] * DIM
                row[s] = SITE_GAP
                row[SITES + s * CLASSES_PER_SITE + c] = sign * MODE_DELTA
                means.append(row)
    return means


SYNTHETIC = {"num_classes": SITES * CLASSES_PER_SITE, "modes_per_class": 2, "dim": DIM,
             "mode_stddev": 0.35, "samples_per_mode": 125, "mode_means": site_means()}
MODEL = {"layer_dims": [DIM, 256, 256, SITES * CLASSES_PER_SITE], "num_experts": 8, "ensembler": "bagging"}
TRAIN = {"gamma": 0.05, "expert_epochs": 3, "negative_handling": "sample",
         "sgd_base": {"epochs": 3, "learning_rate": 0.05},
         "sgd_gate": {"epochs": 3, "learning_rate": 0.5},
         "sgd_expert": {"learning_rate": 0.05},
         "sgd_ensembler": {"epochs": 3}}


@dataclass(frozen=True)
class Spec:
    """What a workload's rounds repeat."""

    train_every_round: bool  # False: train once, then repeat checkpoints and serving
    serve_rows: int  # held-out rows served one at a time per round


SPECS = {"wide_train": Spec(train_every_round=True, serve_rows=400),
         "serve_anytime": Spec(train_every_round=False, serve_rows=800)}


def config_doc(seed: int, out_dir: Path) -> dict:
    """The CLI config for one training; every seed in it derives from the run's seed."""
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "workers": 1,
        "data": {
            "synthetic": {**SYNTHETIC, "seed": 1000 + seed},
            "split": {"fractions": list(SPLIT), "seed": 2000 + seed},
        },
        "model": MODEL,
        "train": TRAIN,
    }


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    traced: bool
    work: Path  # scratch directory for the run's trainings and checkpoints
    trace_dir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        return f"{self.name}-{self.seed}-{os.getpid()}"

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@contextlib.contextmanager
def untraced(tracer: spans.Tracer | None):
    """Checks run with the tracer paused, so their calls leave no spans."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def maybe_span(tracer: spans.Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# -- set-up ------------------------------------------------------------------------


def make_inputs(seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The training and held-out parts, generated exactly as the CLI generates them."""
    synth = dict(SYNTHETIC)
    means = np.asarray(synth.pop("mode_means"), dtype=np.float64)
    sample = data.generate_synthetic(SyntheticSpec(**synth, seed=1000 + seed, mode_means=means))
    train, held = data.split(sample.dataset, list(SPLIT), seed=2000 + seed)
    return train, held


def timed_setup(run: Run, repeats: int) -> tuple[LabeledDataset, LabeledDataset]:
    gc.collect()
    for _ in range(repeats):
        t0 = time.perf_counter()
        train, held = make_inputs(run.seed)
        run.sample("setup_s", time.perf_counter() - t0)
    return train, held


# -- training and checkpoints -------------------------------------------------------


@dataclass
class Trained:
    model: model_mod.MoEModel  # the pipeline's in-memory result
    model_json: bytes  # the CLI's model.json


def train_once(run: Run, index: int, train: LabeledDataset,
               capture: spans.PipelineCapture, tracer: spans.Tracer | None,
               first: Trained | None) -> Trained:
    """One CLI training into a fresh output directory, so no stage checkpoint resumes it."""
    out = run.work / f"train-{index}"
    cfg_path = run.work / f"config-{index}.json"
    cfg_path.write_text(json.dumps(config_doc(run.seed, out)))
    before = len(capture.results)
    gc.collect()
    run.attempted += 1
    with contextlib.redirect_stdout(io.StringIO()) as log, maybe_span(tracer, "cli.main"):
        t0 = time.perf_counter()
        code = cli.main(["train", str(cfg_path)])
        seconds = time.perf_counter() - t0
    if code != 0 or len(capture.results) != before + 1:
        print(f"training {index} exited with {code}:\n{log.getvalue()}", file=sys.stderr)
        raise RuntimeError("the CLI training failed")
    run.sample("train_s", seconds)

    with untraced(tracer):
        model_json = (out / "model.json").read_bytes()
        if first is not None:
            run.check(model_json == first.model_json,
                      f"training {index}: model.json differs from the first training's")
        else:
            stage = json.loads((out / "stages" / "base.json").read_text())
            run.check(stage["data_hash"] == training.dataset_hash(train),
                      "the CLI trained on other rows than the benchmark holds out")
        run.sample("stage_ckpt_bytes", sum(f.stat().st_size for f in (out / "stages").iterdir()))
        run.sample("ckpt_bytes", len(model_json))
    shutil.rmtree(out)
    cfg_path.unlink()
    return Trained(capture.results.pop().model, model_json)


def checkpoint(run: Run, trained: Trained, held: LabeledDataset,
               tracer: spans.Tracer | None) -> model_mod.MoEModel:
    """One save_model of the in-memory model and one load_model of the file; returns the loaded model."""
    ckpt = run.work / "ckpt.json"
    gc.collect()
    run.attempted += 2
    model_mod.save_model(ckpt, trained.model)
    loaded = model_mod.load_model(ckpt)
    with untraced(tracer):
        run.check(ckpt.read_bytes() == trained.model_json,
                  "save_model wrote other bytes than the CLI's model.json")
        a = model_mod.evaluate_dataset(trained.model, held.features)
        b = model_mod.evaluate_dataset(loaded, held.features)
        same = all(np.array_equal(x, y) for x, y in (
            (a.base.probs, b.base.probs), (a.gate_probs, b.gate_probs), (a.combined, b.combined)))
        run.check(same, "the reloaded model's held-out outputs differ from the in-memory model's")
    ckpt.unlink()
    return loaded


@dataclass
class HeldOut:
    """Accuracy and mean MACs over the whole held-out set."""

    top1_accuracy: float
    top1_macs: float
    operating_accuracy: float  # anytime at OPERATING_TAU
    operating_macs: float


def check_model(run: Run, trained: Trained, ref: reference.Reference, held: LabeledDataset) -> HeldOut:
    """Dense held-out checks; returns the held-out figures of top-1 and of the operating tau."""
    model = trained.model
    k, n = model.num_experts, len(held)
    rows = np.arange(n)
    b = ref.batch(held.features)
    ev = model_mod.evaluate_dataset(model, held.features)
    for label, got, want in (("base", ev.base.probs, b.base), ("gate", ev.gate_probs[:, :k], b.gate),
                             ("experts", ev.expert_probs, b.experts), ("ensembled", ev.combined, b.combined)):
        err = float(np.abs(got - want).max())
        run.check(err <= reference.TOLERANCE, f"dense {label} outputs differ from the reference by {err:.3g}")
    run.problems += reference.check_distribution("dense base", ev.base.probs)
    for j in range(k):
        run.problems += reference.check_distribution(f"dense ensembled expert {j}", ev.combined[j])

    want_top1, want_chosen = ref.top1(b)
    chosen = ev.gate_probs[:, :k].argmax(axis=1)
    run.check(np.array_equal(chosen, want_chosen), "top-1 routes differ from the reference")
    accuracy = float((ev.combined[chosen, rows].argmax(axis=1) == held.labels).mean())
    run.check(accuracy == float((want_top1.probs.argmax(axis=1) == held.labels).mean()),
              "top-1 accuracy differs from the reference")
    counts = np.bincount(chosen, minlength=k)
    total = sum(int(counts[j]) * model_mod.mac_count(model, ExecutionTrace(expert_tails=(j,), ensemblers=(j,)))
                for j in range(k))
    run.check(total == int(want_top1.macs.sum()), "top-1 MACs differ from the count from layer shapes")

    taus = (1.0, OPERATING_TAU, 0.0)
    points = anytime.sweep_thresholds(model, held, taus).points
    for point, tau in zip(points, taus):
        want = ref.anytime(b, tau)
        run.check(point.accuracy == float((want.probs.argmax(axis=1) == held.labels).mean())
                  and abs(point.mean_macs - float(want.macs.mean())) <= 1e-9 * point.mean_macs,
                  f"held-out accuracy or mean MACs at tau={tau} differ from the reference")
    mixture_acc = points[2].accuracy
    chance = 1.0 / model.num_classes
    run.check(mixture_acc >= (1.0 + chance) / 2,
              f"held-out mixture accuracy {mixture_acc} is not far above chance {chance}")
    return HeldOut(accuracy, total / n, points[1].accuracy, points[1].mean_macs)


# -- serving -----------------------------------------------------------------------


@dataclass
class Pass:
    rows: LabeledDataset
    outcomes: dict[str, list]  # path -> per-row outcome
    curves: dict[str, list]  # policy -> the points of each of its curves in the round


def warm_up(model: model_mod.MoEModel, rows: LabeledDataset, tracer: spans.Tracer | None) -> None:
    """The first rows through every path and one sweep, untimed and untraced."""
    with untraced(tracer):
        for x in rows.features[:WARMUP_ROWS]:
            for tau in PATH_TAUS.values():
                anytime.anytime_predict(model, x, AnytimeConfig(tau=tau))
            model.top1_predict(x)
        anytime.sweep_thresholds(model, rows, SWEEP_TAUS)


def serve(run: Run, model: model_mod.MoEModel, rows: LabeledDataset) -> dict[str, list]:
    """Every row one at a time through the four paths; returns the outcomes per path."""
    predict = anytime.anytime_predict
    configs = {path: AnytimeConfig(tau=tau) for path, tau in PATH_TAUS.items()}
    gc.collect()
    clock = time.perf_counter
    outcomes: dict[str, list] = {path: [] for path in (*configs, "top1")}
    latency: dict[str, list] = {path: [] for path in outcomes}
    for x in rows.features:
        for path, cfg in configs.items():
            t0 = clock()
            out = predict(model, x, cfg)
            latency[path].append(clock() - t0)
            outcomes[path].append(out)
        t0 = clock()
        out = model.top1_predict(x)
        latency["top1"].append(clock() - t0)
        outcomes["top1"].append(out)
    run.attempted += len(outcomes) * len(rows)
    for path, values in latency.items():
        run.samples.setdefault(f"{path}_s", []).extend(values)
    return outcomes


def sweep(run: Run, model: model_mod.MoEModel, rows: LabeledDataset, curves: dict[str, list]) -> None:
    """One threshold sweep over the rows for every policy; appends each curve's points to curves."""
    gc.collect()
    clock = time.perf_counter
    for policy in SWEEP_POLICIES:
        run.attempted += 1
        t0 = clock()
        curve = anytime.sweep_thresholds(model, rows, SWEEP_TAUS, policy=policy)
        run.sample("sweep_rows_per_s", len(rows) / (clock() - t0))
        curves.setdefault(policy, []).append(curve.points)


def serve_rows(spec: Spec, held: LabeledDataset, index: int) -> LabeledDataset:
    """The held-out rows a round serves: consecutive slices that wrap around."""
    take = (index * spec.serve_rows + np.arange(spec.serve_rows)) % len(held)
    return LabeledDataset(held.features[take], held.labels[take], held.num_classes)


def check_serving(run: Run, model: model_mod.MoEModel, ref: reference.Reference, p: Pass,
                  label: str) -> dict[str, reference.Decision]:
    """One pass's per-sample outputs against the reference and its own dense sweeps."""
    k = model.num_experts
    rows, labels = p.rows, p.rows.labels
    b = ref.batch(rows.features)
    for policy, curves in p.curves.items():
        run.check(len(curves) == 2 and curves[0] == curves[1],
                  f"{label}: the second {policy} sweep gave another curve than the first")
    alpha = p.curves["alpha_threshold"][0]
    for tau, point in zip(SWEEP_TAUS, alpha):
        w = ref.anytime(b, tau)
        same = (point.accuracy == float((w.probs.argmax(axis=1) == labels).mean())
                and point.exit_ratio == float(w.exited.mean())
                and abs(point.mean_macs - float(w.macs.mean())) <= 1e-9 * point.mean_macs)
        run.check(same, f"{label}: the dense sweep at tau={tau} differs from the reference")
    sweep_acc = {point.tau: point.accuracy for point in alpha}

    base_b1 = np.stack([nn.forward(model.base, x).probs for x in rows.features])
    decisions = {}
    for path, tau in PATH_TAUS.items():
        got = reference.Decision.of(p.outcomes[path], k)
        run.problems += reference.compare(f"{label} tau={tau}", got, ref.anytime(b, tau))
        run.problems += reference.check_distribution(f"{label} tau={tau}", got.probs)
        accuracy = float((got.probs.argmax(axis=1) == labels).mean())
        run.check(accuracy == sweep_acc[tau],
                  f"{label}: per-sample accuracy at tau={tau} differs from the dense sweep's")
        if path == "exit":
            run.check(bool(got.exited.all()) and not got.executed.any(), f"{label}: a row did not exit at tau=1")
            run.check(np.array_equal(got.probs, base_b1),
                      f"{label}: tau=1 outputs are not exactly the base probabilities")
        elif path == "full":
            run.check(not got.exited.any() and bool(got.executed.all()),
                      f"{label}: a row skipped an expert at tau=0")
        decisions[path] = got

    want_top1, want_chosen = ref.top1(b)
    top_probs = np.stack([o[0] for o in p.outcomes["top1"]])
    chosen = np.array([o[1] for o in p.outcomes["top1"]])
    run.check(np.array_equal(chosen, want_chosen), f"{label}: top-1 routes differ from the reference")
    err = float(np.abs(top_probs - want_top1.probs).max())
    run.check(err <= reference.TOLERANCE, f"{label}: top-1 outputs differ from the reference by {err:.3g}")
    run.problems += reference.check_distribution(f"{label} top-1", top_probs)
    return decisions


# -- the run -----------------------------------------------------------------------


def execute(run: Run) -> tuple[dict, dict, dict]:
    """Run the workload; returns end-to-end metrics, per-layer metrics and span self times.

    Each round trains (every round on wide_train, once on serve_anytime),
    then saves and loads the checkpoint, sweeps the thresholds, serves
    held-out rows one at a time from the loaded model and sweeps again.
    Set-ups are re-timed after every step.  So every metric's samples
    spread over the whole timed window instead of one burst of it.  A
    round starts only while more than half the last round's length is left
    of the window, so runs overshoot it by at most half a round.
    Outputs are checked after each round, outside the timed regions.
    """
    spec = SPECS[run.name]
    run.work.mkdir(parents=True, exist_ok=True)
    capture = spans.PipelineCapture()
    tracer = spans.Tracer(run.trace_id) if run.traced else None
    if tracer is not None:
        tracer.install()
    try:
        train, held = timed_setup(run, SETUP_REPEATS)
        deadline = time.perf_counter() + run.seconds
        first: Trained | None = None
        operating: list[reference.Decision] = []  # per round, at the operating tau
        exits, fulls = [], []
        rounds, last_round = 0, 0.0
        while not rounds or deadline - time.perf_counter() > last_round / 2:
            round_start = time.perf_counter()
            if first is None or spec.train_every_round:
                trained = train_once(run, rounds, train, capture, tracer, first)
                if first is None:
                    first = trained
                    with untraced(tracer):
                        ref = reference.Reference(json.loads(first.model_json))
                        figures = check_model(run, first, ref, held)
                timed_setup(run, SETUP_REPEATS_PER_STEP)
            rows = serve_rows(spec, held, rounds)
            curves: dict[str, list] = {}
            loaded = checkpoint(run, first, held, tracer)
            if not rounds:
                warm_up(loaded, rows, tracer)
            sweep(run, loaded, rows, curves)
            timed_setup(run, SETUP_REPEATS_PER_STEP)
            outcomes = serve(run, loaded, rows)
            timed_setup(run, SETUP_REPEATS_PER_STEP)
            sweep(run, loaded, rows, curves)
            timed_setup(run, SETUP_REPEATS_PER_STEP)
            with untraced(tracer):
                decisions = check_serving(run, loaded, ref, Pass(rows, outcomes, curves), f"round {rounds}")
            operating.append(decisions["anytime"])
            exits.append(decisions["exit"].macs)
            fulls.append(decisions["full"].macs)
            rounds += 1
            last_round = time.perf_counter() - round_start

    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.close()

    s = run.samples
    med = statistics.median
    op = reference.Decision(*(np.concatenate([getattr(d, f) for d in operating])
                              for f in ("probs", "exited", "executed", "macs")))
    if run.name == "serve_anytime":
        accuracy, mean_macs = figures.operating_accuracy, figures.operating_macs
    else:
        accuracy, mean_macs = figures.top1_accuracy, figures.top1_macs

    def us(name: str, q: float) -> float:
        return 1e6 * float(np.percentile(s[name], q))

    e2e = {
        "setup_s": med(s["setup_s"]),
        "train_s": med(s["train_s"]),
        "test_accuracy": accuracy,
        "mean_macs": mean_macs,
        "exit_p50_us": us("exit_s", 50),
        "full_p50_us": us("full_s", 50),
        "anytime_p50_us": us("anytime_s", 50),
        "anytime_p90_us": us("anytime_s", 90),
        "top1_p50_us": us("top1_s", 50),
        "top1_p90_us": us("top1_s", 90),
        "sweep_rows_per_s": med(s["sweep_rows_per_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        return e2e, {}, {}
    extra = {
        "stage_ckpt_bytes": med(s["stage_ckpt_bytes"]),
        "ckpt_bytes": med(s["ckpt_bytes"]),
        "exit_share": float(op.exited.mean()),
        "experts_run_mean": float(op.executed.sum(axis=1).mean()),
        "macs_tau1": float(np.concatenate(exits).mean()),
        "macs_tau0": float(np.concatenate(fulls).mean()),
    }
    layers, problems = spans.per_layer(tracer.spans, extra)
    run.problems += problems
    tracer.write(run.trace_dir / f"{tracer.trace_id}.jsonl")
    return e2e, layers, spans.self_times(tracer.spans)
