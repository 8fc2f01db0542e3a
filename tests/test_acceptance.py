"""Acceptance gate: one test per shipped guarantee.

Each test checks a user-visible property end to end, times itself
against a stated budget, and prints a single summary line so a full
run reads as a checklist.  Ordering tests (mixture vs base, routing
variants, ensembler variants) train on fixed synthetic geometries with
pinned seeds, so their accuracy margins are exact reruns, not samples.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from conftest import blob_dataset, random_model, staged_recipe
from test_nn import max_grad_rel_error, sample_safe_case

from moe_forge.analysis import oracle_per_class_eval
from moe_forge.anytime import AnytimeConfig, anytime_predict, sweep_thresholds
from moe_forge.cli import _load_data_block, _plan_from_config, main
from moe_forge.data import LabeledDataset, SyntheticSpec, generate_synthetic, split
from moe_forge.gate_init import smooth_weights
from moe_forge.model import ExecutionTrace, evaluate_dataset, mac_count, save_model
from moe_forge.nn import SgdConfig, forward_batch
from moe_forge.training import (
    TrainPlan,
    e_step,
    elbo,
    m_step,
    run_pipeline,
)

SEEDS = (0, 1, 2)


def _report(label: str, ok: bool, detail: str, seconds: float, budget: float) -> None:
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"acceptance {label}: {status} ({detail}; {seconds:.1f}s / {budget:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert seconds < budget, f"{label} took {seconds:.1f}s, budget is {budget:.0f}s"


# -- shared synthetic geometries --------------------------------------------------


def _two_site_arm_means(dim: int = 16, site_gap: float = 6.0, delta: float = 4.0) -> np.ndarray:
    """Two far-apart sites; each class owns +/- arms on its own axis.

    The two classes sharing a site put their arms on different axes, so
    locally the label depends on which axis carries the large magnitude,
    a rule a narrow shared trunk struggles to learn for both sites at
    once while per-cluster specialists see only one site each.
    """
    means = np.zeros((8, dim))
    sites = [0, 0, 1, 1]
    axes = [2, 3, 4, 5]
    for c in range(4):
        for m, sign in enumerate((1.0, -1.0)):
            row = means[c * 2 + m]
            row[sites[c]] = site_gap
            row[axes[c]] = sign * delta
    return means


def _straddled_site_means(dim: int = 16, site_gap: float = 6.0, delta: float = 1.5) -> np.ndarray:
    """Four sites; every class has one mode at each of two different sites.

    Site s separates its two resident classes at +/- delta along axis
    4+s.  Because each class straddles two sites, collapsing a class to
    a single expert forces that expert to cover two unrelated regions,
    while per-sample routing can follow the sites.
    """
    means = np.zeros((8, dim))
    placement = {0: [(0, 1), (2, 1)], 1: [(0, -1), (3, 1)],
                 2: [(1, 1), (2, -1)], 3: [(1, -1), (3, -1)]}
    for cls, spots in placement.items():
        for m, (site, sign) in enumerate(spots):
            row = means[cls * 2 + m]
            row[site] = site_gap
            row[4 + site] = sign * delta
    return means


def _multimodal_data(seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """4-class, 2-modes-per-class, D=16; 4000 train / 1000 test rows."""
    spec = SyntheticSpec(
        num_classes=4, modes_per_class=2, dim=16, mode_stddev=1.0,
        samples_per_mode=625, seed=seed, mode_means=_two_site_arm_means(),
    )
    sample = generate_synthetic(spec)
    train, test = split(sample.dataset, [0.8, 0.2], seed=seed + 1000)
    return train, test


def _overlap_data(seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Cross-class mode overlap: classes share sites and straddle two each.

    Small (960 train rows) and noisy on purpose: cluster slices are
    lean enough that specialist training is genuinely unstable, which
    is the regime where combining with the base model earns its keep.
    """
    spec = SyntheticSpec(
        num_classes=4, modes_per_class=2, dim=16, mode_stddev=1.25,
        samples_per_mode=150, seed=seed, mode_means=_straddled_site_means(),
    )
    sample = generate_synthetic(spec)
    train, test = split(sample.dataset, [0.8, 0.2], seed=seed + 1000)
    return train, test


def _ordering_plan(
    seed: int,
    *,
    k: int = 4,
    ensembler: str = "bagging",
    routing: str = "per_sample",
    h2: int,
    base_epochs: int,
    expert_epochs: int,
    expert_lr: float = 0.1,
    expert_batch: int = 64,
    ens_epochs: int = 20,
    ens_lr: float = 0.2,
) -> TrainPlan:
    return TrainPlan(
        layer_dims=(16, 16, h2, 4),
        num_experts=k,
        ensembler=ensembler,
        routing=routing,
        gamma=0.05,
        temperature=8.0,
        expert_epochs=expert_epochs,
        seed=seed,
        sgd_base=SgdConfig(learning_rate=0.1, momentum=0.9, batch_size=64,
                           epochs=base_epochs,
                           lr_decay_epochs=(base_epochs * 3 // 4,), lr_decay_factor=5.0),
        sgd_gate=SgdConfig(learning_rate=0.5, momentum=0.9, batch_size=64, epochs=40),
        sgd_expert=SgdConfig(learning_rate=expert_lr, momentum=0.9, batch_size=expert_batch,
                             epochs=8,
                             lr_decay_epochs=(expert_epochs * 3 // 4,), lr_decay_factor=5.0),
        sgd_ensembler=SgdConfig(learning_rate=ens_lr, momentum=0.9, batch_size=64,
                                epochs=ens_epochs,
                                lr_decay_epochs=(ens_epochs * 3 // 4,), lr_decay_factor=5.0),
    )


def _routed_accuracy(model, ds: LabeledDataset) -> float:
    """Top-1 accuracy under the gate's argmax expert choice."""
    ev = evaluate_dataset(model, ds.features)
    chosen = ev.gate_probs.argmax(axis=1)
    probs = ev.combined[chosen, np.arange(len(ds))]
    return float((probs.argmax(axis=1) == ds.labels).mean())


def _base_accuracy(model, ds: LabeledDataset) -> float:
    out = forward_batch(model.base, ds.features)
    return float((out.probs.argmax(axis=1) == ds.labels).mean())


@lru_cache(maxsize=1)
def _small_trained_model():
    ds = blob_dataset(seed=5, num_classes=3, modes_per_class=2, dim=4,
                      stddev=0.8, samples_per_mode=80)
    plan = TrainPlan(layer_dims=(4, 10, 3), num_experts=3, seed=3, expert_epochs=6,
                     sgd_base=SgdConfig(epochs=10))
    return run_pipeline(ds, plan).model


@lru_cache(maxsize=1)
def _overlap_orderings() -> dict[str, float]:
    """Train the routing/ensembler variants on the overlap data, once.

    Two tests read these numbers; whichever runs first pays the
    training time.  All variants share seeds, so the per-sample bagging
    run and the no/stacking runs differ only in the property under test.
    """
    knobs = dict(h2=3, base_epochs=40, expert_epochs=40, expert_lr=0.3,
                 expert_batch=16, ens_epochs=60, ens_lr=0.02)
    acc: dict[str, list[float]] = {key: [] for key in
                                   ("per_sample", "none", "stacking", "per_class", "oracle")}
    for seed in SEEDS:
        train, test = _overlap_data(seed)
        bag = run_pipeline(train, _ordering_plan(seed, **knobs))
        none = run_pipeline(train, _ordering_plan(seed, ensembler="none", **knobs))
        stack = run_pipeline(train, _ordering_plan(seed, ensembler="stacking", **knobs))
        per_class = run_pipeline(train, _ordering_plan(seed, routing="per_class", **knobs))
        acc["per_sample"].append(_routed_accuracy(bag.model, test))
        acc["none"].append(_routed_accuracy(none.model, test))
        acc["stacking"].append(_routed_accuracy(stack.model, test))
        acc["per_class"].append(_routed_accuracy(per_class.model, test))
        oracle_ev = evaluate_dataset(per_class.model, test.features)
        acc["oracle"].append(oracle_per_class_eval(oracle_ev, per_class.class_map, test))
    return {key: float(np.mean(vals)) for key, vals in acc.items()}


# -- the criteria ------------------------------------------------------------------


def test_analytic_gradients_match_central_differences():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        case = sample_safe_case(seed)
        seed += 1
        if case is None:
            continue
        worst = max(worst, max_grad_rel_error(*case))
        checked += 1
    elapsed = time.perf_counter() - start
    _report("gradient-check", worst <= 1e-4,
            f"100 random nets, max rel err {worst:.2e} vs 1e-4", elapsed, 5.0)


def test_threshold_one_is_the_base_model_and_zero_runs_every_expert():
    start = time.perf_counter()
    model = _small_trained_model()
    # noisy enough that the base model is visibly imperfect, so the
    # accuracy equality below is not a ceiling tie
    test = blob_dataset(seed=6, num_classes=3, modes_per_class=2, dim=4,
                        stddev=2.5, samples_per_mode=40)

    all_experts = tuple(range(model.num_experts))
    bitwise = True
    for i in range(len(test)):
        x = test.features[i]
        hi = anytime_predict(model, x, AnytimeConfig(tau=1.0))
        single = forward_batch(model.base, x[None, :]).probs[0]
        bitwise = bitwise and hi.exited and np.array_equal(hi.probs, single)
        lo = anytime_predict(model, x, AnytimeConfig(tau=0.0))
        bitwise = bitwise and not lo.exited and lo.executed_experts == all_experts

    # dataset accuracy at tau=1 must be the base accuracy, exact float equality
    curve = sweep_thresholds(model, test, [1.0])
    base_acc = _base_accuracy(model, test)
    exact = curve.points[0].accuracy == base_acc
    elapsed = time.perf_counter() - start
    _report("threshold-extremes", bitwise and exact,
            f"{len(test)} samples, tau=1 acc {curve.points[0].accuracy:.4f} == base", elapsed, 10.0)


def test_every_expert_receives_samples_and_training_weight():
    start = time.perf_counter()
    means = np.zeros((4, 8))
    for m in range(4):
        means[m, m] = 4.0
    worst_share = 1.0
    worst_mass = np.inf
    for seed in SEEDS:
        spec = SyntheticSpec(num_classes=2, modes_per_class=2, dim=8, mode_stddev=1.0,
                             samples_per_mode=500, seed=seed, mode_means=means)
        data = generate_synthetic(spec).dataset
        for k in (4, 10):
            plan = TrainPlan(
                layer_dims=(8, 8, 2), num_experts=k, gamma=0.05, seed=seed,
                expert_epochs=4, sgd_base=SgdConfig(epochs=10, batch_size=64),
            )
            result = run_pipeline(data, plan)  # raises if any expert has zero weight
            shares = np.bincount(result.init.weights.argmax(axis=1), minlength=k) / len(data)
            mass = smooth_weights(result.init.weights, plan.gamma).sum(axis=0)
            worst_share = min(worst_share, float(shares.min()))
            worst_mass = min(worst_mass, float(mass.min()))
    elapsed = time.perf_counter() - start
    _report("no-expert-starves", worst_share >= 0.01 and worst_mass > 0.0,
            f"min argmax share {worst_share:.3f} vs 0.01, min weight mass {worst_mass:.1f}",
            elapsed, 120.0)


def test_mixture_beats_single_expert_beats_base_on_multimodal_data():
    start = time.perf_counter()
    base_accs, k1_accs, moe_accs = [], [], []
    for seed in SEEDS:
        train, test = _multimodal_data(seed)
        moe = run_pipeline(train, _ordering_plan(seed, h2=4, base_epochs=25, expert_epochs=40))
        k1 = run_pipeline(train, _ordering_plan(seed, k=1, h2=4, base_epochs=25, expert_epochs=40))
        base_accs.append(_base_accuracy(moe.model, test))
        moe_accs.append(_routed_accuracy(moe.model, test))
        k1_accs.append(_routed_accuracy(k1.model, test))
    base, k1_mean, moe = map(lambda v: float(np.mean(v)), (base_accs, k1_accs, moe_accs))
    ok = moe >= k1_mean >= base and moe - base >= 0.02
    elapsed = time.perf_counter() - start
    _report("mixture-ordering", ok,
            f"moe {moe:.3f} >= K=1 {k1_mean:.3f} >= base {base:.3f}, "
            f"gap {100 * (moe - base):.1f}pts vs 2", elapsed, 300.0)


def test_per_sample_routing_beats_per_class_and_oracle_shows_the_gap_is_routing():
    start = time.perf_counter()
    acc = _overlap_orderings()
    sample_margin = acc["per_sample"] - acc["per_class"]
    oracle_margin = acc["oracle"] - acc["per_class"]
    ok = sample_margin >= 0.01 and oracle_margin >= 0.01
    elapsed = time.perf_counter() - start
    _report("routing-granularity", ok,
            f"per-sample +{100 * sample_margin:.1f}pts, oracle +{100 * oracle_margin:.1f}pts "
            "over per-class (each vs 1)", elapsed, 300.0)


def test_bagging_and_stacking_beat_raw_expert_outputs():
    start = time.perf_counter()
    acc = _overlap_orderings()
    bag_margin = acc["per_sample"] - acc["none"]
    stack_margin = acc["stacking"] - acc["none"]
    ok = bag_margin >= 0.005 and stack_margin >= 0.005
    elapsed = time.perf_counter() - start
    _report("ensembling-value", ok,
            f"bagging +{100 * bag_margin:.1f}pts, stacking +{100 * stack_margin:.1f}pts "
            "over none (each vs 0.5)", elapsed, 300.0)


def test_em_with_zero_sync_steps_matches_async_and_elbo_never_decreases(tmp_path):
    start = time.perf_counter()
    ds = blob_dataset(seed=11, num_classes=2, modes_per_class=2, dim=4,
                      stddev=0.7, samples_per_mode=70)
    # full-batch, momentum-free expert and gate updates keep each M step a
    # plain gradient descent on a convex objective (linear tails, fixed trunk)
    plan = TrainPlan(
        layer_dims=(4, 8, 2), num_experts=2, seed=7, gamma=0.0, expert_epochs=6,
        sgd_base=SgdConfig(epochs=12),
        sgd_gate=SgdConfig(learning_rate=0.02, momentum=0.0, batch_size=len(ds), epochs=10),
        sgd_expert=SgdConfig(learning_rate=0.05, momentum=0.0, batch_size=len(ds), epochs=8),
    )

    # The pipeline with zero E steps against the asynchronous recipe called stage by stage.
    result = run_pipeline(ds, plan)
    save_model(tmp_path / "em.json", result.model)
    save_model(tmp_path / "async.json", staged_recipe(ds, plan))
    identical = (tmp_path / "em.json").read_bytes() == (tmp_path / "async.json").read_bytes()

    fp, gate, experts = result.base_pass, result.model.gate, result.model.experts
    posterior = e_step(fp, gate, experts, ds.labels)
    trace = [elbo(fp, gate, experts, posterior, ds.labels)]
    for step in range(1, 5):
        gate, experts = m_step(fp, gate, experts, posterior, ds, epochs=3, plan=plan, segment=step)
        trace.append(elbo(fp, gate, experts, posterior, ds.labels))
        posterior = e_step(fp, gate, experts, ds.labels)
        trace.append(elbo(fp, gate, experts, posterior, ds.labels))
    deltas = np.diff(trace)
    monotone = bool((deltas >= -1e-6).all())
    elapsed = time.perf_counter() - start
    _report("em-equivalence", identical and monotone,
            f"checkpoints identical: {identical}, min ELBO step {deltas.min():.2e} vs -1e-6",
            elapsed, 120.0)


def test_mac_counts_match_hand_fixtures_and_never_grow_with_threshold():
    from conftest import random_network
    from moe_forge.model import Ensembler, Gate, MoEModel

    start = time.perf_counter()
    rng = np.random.default_rng(17)
    base = random_network(rng, [4, 8, 3], tap_index=0)
    experts = [random_network(rng, [8, 3], tap_index=0) for _ in range(2)]
    gate = Gate(weight=rng.normal(size=(2, 8)), bias=rng.normal(size=2))
    fixture = MoEModel(base=base, gate=gate, experts=experts,
                       ensemblers=[Ensembler(kind="bagging")] * 2, shared_prefix=1)

    base_only = mac_count(fixture, ExecutionTrace(base=True, gate=False))
    routed = mac_count(fixture, ExecutionTrace(expert_tails=(0,), ensemblers=(0,)))
    nothing = mac_count(fixture, ExecutionTrace(base=False, gate=False))
    fixtures_ok = base_only == 56 and routed == 96 and nothing == 0

    taus = np.linspace(0.0, 1.0, 21)
    data = blob_dataset(seed=6, num_classes=3, modes_per_class=2, dim=4,
                        stddev=0.8, samples_per_mode=40)
    monotone = True
    models = [
        _small_trained_model(),
        random_model(np.random.default_rng(3), ensembler="stacking"),
        random_model(np.random.default_rng(4), ensembler="none"),
        random_model(np.random.default_rng(5), ensembler="top2"),
    ]
    for m in models:
        curve = sweep_thresholds(m, data, taus)
        macs = np.array([p.mean_macs for p in curve.points])
        monotone = monotone and bool((np.diff(macs) <= 0).all())
    elapsed = time.perf_counter() - start
    _report("mac-accounting", fixtures_ok and monotone,
            f"fixtures 56/96/0 -> {base_only}/{routed}/{nothing}, "
            f"sweep non-increasing on {len(models)} models", elapsed, 10.0)


def test_training_runs_are_byte_identical_across_reruns_and_expert_order(tmp_path):
    start = time.perf_counter()

    def config(name: str) -> dict:
        return {
            "seed": 9,
            "output_dir": str(tmp_path / name),
            "data": {"synthetic": {"num_classes": 3, "modes_per_class": 2, "dim": 6,
                                   "mode_stddev": 0.9, "samples_per_mode": 70, "seed": 21}},
            "model": {"layer_dims": [6, 10, 3], "num_experts": 3, "ensembler": "stacking"},
            "train": {"em_steps": 1, "expert_epochs": 6, "sgd_base": {"epochs": 10}},
        }

    def run(name: str) -> dict[str, bytes]:
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config(name), indent=2))
        assert main(["train", str(cfg_path)]) == 0
        # manifest holds wall-clock stage timings, everything else must match
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"}

    first = run("first")
    again = run("again")
    assert set(first) == set(again)
    reruns = first == again

    # Every expert and ensembler trained alone, one call each with its derived seed, in
    # reverse order: the model file holds each expert k byte for byte as the CLI wrote it.
    plan = _plan_from_config(config("alone"))
    ds = _load_data_block(config("alone")["data"], "data", tmp_path)[0]
    model = staged_recipe(ds, plan, order=reversed(range(plan.num_experts)))
    save_model(tmp_path / "alone.json", model)
    alone = (tmp_path / "alone.json").read_bytes() == first["model.json"]
    elapsed = time.perf_counter() - start
    _report("determinism", reruns and alone,
            f"{len(first)} artifacts byte-identical across reruns: {reruns}; "
            f"experts trained alone in reverse order give the same model.json: {alone}",
            elapsed, 600.0)
