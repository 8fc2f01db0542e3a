"""Early-exit prediction, threshold sweeps and envelopes."""

import math
from collections import Counter

import numpy as np
import pytest

from moe_forge.anytime import (
    CURVE_HEADER,
    POLICIES,
    AnytimeConfig,
    CurvePoint,
    TradeoffCurve,
    anytime_predict,
    anytime_scores,
    convex_envelope,
    select_threshold,
    sweep_thresholds,
    _decide,
    _predict_batch,
)
from moe_forge.data import LabeledDataset
from moe_forge import anytime as anytime_mod
from moe_forge import model as model_mod
from moe_forge.model import Ensembler, Gate, MoEModel, evaluate_dataset
from moe_forge.nn import Layer, Network, forward_batch

from conftest import blob_dataset, mixed_model, random_model, random_network


def fixed_output_model(
    base_probs=(0.9, 0.1), gate_probs=(0.7, 0.3), expert_biases=None
) -> MoEModel:
    """Model whose base, gate, and expert outputs are constants we pick.

    All weights are zero; the softmax outputs come entirely from biases
    set to log-probabilities.
    """
    c = len(base_probs)
    k = len(gate_probs)
    base = Network(
        layers=[
            Layer(np.zeros((6, 4)), np.zeros(6), "relu"),
            Layer(np.zeros((c, 6)), np.log(np.asarray(base_probs)), "identity"),
        ],
        tap_index=0,
    )
    if expert_biases is None:
        expert_biases = [np.zeros(c) for _ in range(k)]
    experts = [
        Network(layers=[Layer(np.zeros((c, 6)), np.asarray(b, dtype=np.float64), "identity")], tap_index=0)
        for b in expert_biases
    ]
    gate = Gate(weight=np.zeros((k, 6)), bias=np.log(np.asarray(gate_probs)))
    ens = [Ensembler("none") for _ in range(k)]
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens, shared_prefix=1)


class TestScores:
    def test_score_is_gate_weight_times_base_uncertainty(self):
        model = fixed_output_model(base_probs=(0.9, 0.1), gate_probs=(0.7, 0.3))
        alpha = anytime_scores(model, np.zeros(4))
        np.testing.assert_allclose(alpha, [0.07, 0.03], atol=1e-12)

    def test_certain_base_zeroes_every_score(self):
        model = fixed_output_model(base_probs=(0.9, 0.1))
        # Saturate the base softmax so max prob is exactly 1.
        model.base.layers[-1].bias[:] = [800.0, 0.0]
        rebuilt = MoEModel(
            base=model.base, gate=model.gate, experts=model.experts,
            ensemblers=model.ensemblers, shared_prefix=1,
        )
        np.testing.assert_array_equal(anytime_scores(rebuilt, np.zeros(4)), [0.0, 0.0])


class TestThresholdRule:
    def test_threshold_between_the_scores_runs_one_expert(self):
        model = fixed_output_model()
        out = anytime_predict(model, np.zeros(4), AnytimeConfig(tau=0.05))
        assert not out.exited
        assert out.executed_experts == (0,)
        # Renormalized over the executed set, expert 0 gets weight one.
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-12)
        cost = model.cost
        assert out.macs == cost.macs_base + cost.macs_gate + cost.macs_expert_tail[0]

    def test_threshold_above_every_score_exits_with_the_base(self):
        model = fixed_output_model()
        out = anytime_predict(model, np.zeros(4), AnytimeConfig(tau=0.08))
        assert out.exited
        assert out.executed_experts == ()
        assert out.macs == model.cost.macs_base + model.cost.macs_gate

    def test_tau_one_reproduces_the_base_prediction_exactly(self, rng):
        from moe_forge.nn import forward_batch

        model = random_model(rng)
        x = rng.normal(size=(20, 4))
        for i in range(20):
            out = anytime_predict(model, x[i], AnytimeConfig(tau=1.0))
            assert out.exited
            np.testing.assert_array_equal(
                out.probs, forward_batch(model.base, x[i : i + 1]).probs[0]
            )
            assert out.macs == model.cost.macs_base + model.cost.macs_gate

    def test_tau_zero_runs_every_expert_and_mixes_them_all(self, rng):
        model = random_model(rng)
        x = rng.normal(size=4)
        out = anytime_predict(model, x, AnytimeConfig(tau=0.0))
        assert not out.exited
        assert out.executed_experts == (0, 1, 2)
        ev = evaluate_dataset(model, x[None, :])
        mixture = sum(ev.gate_probs[0, k] * model.ensemble_output(k, x) for k in range(3))
        np.testing.assert_allclose(out.probs, mixture, atol=1e-12)

    def test_renormalization_never_moves_the_argmax(self, rng):
        model = random_model(rng)
        x = rng.normal(size=(30, 4))
        for tau in (0.0, 0.01, 0.05, 0.2):
            for i in range(len(x)):
                on = anytime_predict(model, x[i], AnytimeConfig(tau=tau, renormalize=True))
                off = anytime_predict(model, x[i], AnytimeConfig(tau=tau, renormalize=False))
                assert on.exited == off.exited
                assert on.macs == off.macs
                assert int(on.probs.argmax()) == int(off.probs.argmax())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AnytimeConfig(tau=0.5, policy="oracle").validate()
        with pytest.raises(ValueError, match="tau"):
            AnytimeConfig(tau=1.5).validate()


class TestOtherPolicies:
    def test_base_confidence_exit_skips_even_the_gate(self):
        model = fixed_output_model(base_probs=(0.9, 0.1))
        out = anytime_predict(model, np.zeros(4), AnytimeConfig(tau=0.85, policy="base_confidence"))
        assert out.exited
        assert out.macs == model.cost.macs_base

    def test_base_confidence_below_threshold_runs_the_top_expert(self):
        model = fixed_output_model(base_probs=(0.9, 0.1))
        out = anytime_predict(model, np.zeros(4), AnytimeConfig(tau=0.95, policy="base_confidence"))
        assert not out.exited
        assert out.executed_experts == (0,)
        assert out.macs == (
            model.cost.macs_base + model.cost.macs_gate + model.cost.macs_expert_tail[0]
        )

    def test_gate_confidence_exits_when_the_gate_is_unsure(self):
        model = fixed_output_model(gate_probs=(0.7, 0.3))
        policy = lambda tau: AnytimeConfig(tau=tau, policy="gate_confidence")
        unsure = anytime_predict(model, np.zeros(4), policy(0.8))
        assert unsure.exited
        assert unsure.macs == model.cost.macs_base + model.cost.macs_gate
        sure = anytime_predict(model, np.zeros(4), policy(0.6))
        assert not sure.exited
        assert sure.executed_experts == (0,)


class TestSweep:
    def test_sweep_matches_a_per_sample_loop(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=61, samples_per_mode=10)
        taus = [0.0, 0.02, 0.05, 0.5, 1.0]
        curve = sweep_thresholds(model, ds, taus)
        assert [p.tau for p in curve.points] == taus
        for point in curve.points:
            correct = 0
            macs = 0
            exits = 0
            for i in range(len(ds)):
                out = anytime_predict(model, ds.features[i], AnytimeConfig(tau=point.tau))
                correct += int(out.probs.argmax() == ds.labels[i])
                macs += out.macs
                exits += int(out.exited)
            assert point.accuracy == pytest.approx(correct / len(ds), abs=1e-12)
            assert point.mean_macs == pytest.approx(macs / len(ds), abs=1e-9)
            assert point.exit_ratio == pytest.approx(exits / len(ds), abs=1e-12)

    def test_mean_macs_never_increase_with_the_threshold(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=62, samples_per_mode=15)
        curve = sweep_thresholds(model, ds, np.linspace(0.0, 1.0, 21))
        macs = [p.mean_macs for p in curve.points]
        assert all(a >= b for a, b in zip(macs, macs[1:]))

    def test_exit_ratio_covers_both_endpoints(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=63, samples_per_mode=10)
        curve = sweep_thresholds(model, ds, [0.0, 1.0])
        assert curve.points[0].exit_ratio == 0.0
        assert curve.points[1].exit_ratio == 1.0

    def test_csv_round_trip_text(self, tmp_path):
        curve = TradeoffCurve(points=[CurvePoint(0.5, 2.0 / 3.0, 96.0, 0.25)])
        text = curve.to_csv()
        lines = text.splitlines()
        assert lines[0] == CURVE_HEADER
        tau, acc, macs, ratio = lines[1].split(",")
        assert float(tau) == 0.5
        assert float(acc) == 2.0 / 3.0  # repr keeps every bit
        curve.save(tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_text() == text


def envelope_oracle(points):
    """Cubic-time reference: keep Pareto points not under any chord."""
    seen = set()
    unique = []
    for p in points:
        key = (p.mean_macs, p.accuracy)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    unique.sort(key=lambda p: (p.mean_macs, -p.accuracy))
    pareto = []
    best = -math.inf
    for p in unique:
        if p.accuracy > best:
            pareto.append(p)
            best = p.accuracy
    kept = []
    for p in pareto:
        covered = False
        for a in pareto:
            for b in pareto:
                if a.mean_macs < p.mean_macs < b.mean_macs:
                    rise = (b.accuracy - a.accuracy) / (b.mean_macs - a.mean_macs)
                    chord = a.accuracy + rise * (p.mean_macs - a.mean_macs)
                    if p.accuracy <= chord + 1e-12:
                        covered = True
        if not covered:
            kept.append(p)
    return kept


class TestEnvelope:
    def test_single_point_is_its_own_envelope(self):
        points = [CurvePoint(0.5, 0.7, 100.0, 0.1)]
        assert convex_envelope(points).points == points

    def test_dominated_point_is_dropped(self):
        points = [
            CurvePoint(0.1, 0.5, 1.0, 0.0),
            CurvePoint(0.2, 0.6, 2.0, 0.0),
            CurvePoint(0.3, 0.55, 3.0, 0.0),
        ]
        hull = convex_envelope(points).points
        assert [(p.mean_macs, p.accuracy) for p in hull] == [(1.0, 0.5), (2.0, 0.6)]

    def test_point_on_the_chord_is_dropped(self):
        # Dyadic accuracies keep the collinearity exact in floating point.
        points = [
            CurvePoint(0.1, 0.25, 1.0, 0.0),
            CurvePoint(0.2, 0.5, 2.0, 0.0),
            CurvePoint(0.3, 0.75, 3.0, 0.0),
        ]
        hull = convex_envelope(points).points
        assert [(p.mean_macs, p.accuracy) for p in hull] == [(1.0, 0.25), (3.0, 0.75)]

    def test_duplicates_collapse_to_one_point(self):
        p = CurvePoint(0.1, 0.4, 5.0, 0.0)
        assert convex_envelope([p, p, p]).points == [p]

    def test_matches_the_cubic_oracle_on_random_integer_clouds(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 20))
            points = [
                CurvePoint(
                    tau=float(i),
                    accuracy=float(rng.integers(0, 40)),
                    mean_macs=float(rng.integers(0, 25)),
                    exit_ratio=0.0,
                )
                for i in range(n)
            ]
            hull = convex_envelope(points).points
            expected = envelope_oracle(points)
            assert [(p.mean_macs, p.accuracy) for p in hull] == [
                (p.mean_macs, p.accuracy) for p in expected
            ]

    def test_hull_is_concave_and_covers_every_point(self, rng):
        points = [
            CurvePoint(0.0, float(rng.integers(0, 50)), float(rng.integers(0, 30)), 0.0)
            for _ in range(40)
        ]
        hull = convex_envelope(points).points
        slopes = [
            (b.accuracy - a.accuracy) / (b.mean_macs - a.mean_macs)
            for a, b in zip(hull, hull[1:])
        ]
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))
        for p in points:
            under = any(
                a.mean_macs <= p.mean_macs <= b.mean_macs
                and p.accuracy
                <= a.accuracy
                + (b.accuracy - a.accuracy)
                / (b.mean_macs - a.mean_macs)
                * (p.mean_macs - a.mean_macs)
                + 1e-9
                for a, b in zip(hull, hull[1:])
            )
            at_vertex = any(
                p.mean_macs == h.mean_macs and p.accuracy <= h.accuracy for h in hull
            )
            before = hull and p.mean_macs <= hull[0].mean_macs and p.accuracy <= hull[0].accuracy
            after = hull and p.mean_macs >= hull[-1].mean_macs and p.accuracy <= hull[-1].accuracy
            assert under or at_vertex or before or after


class TestSelectThreshold:
    def test_harmless_exits_pick_the_largest_threshold(self):
        # Experts and base agree everywhere, so any threshold keeps accuracy.
        model = fixed_output_model(
            base_probs=(0.9, 0.1), expert_biases=[np.log([0.9, 0.1])] * 2
        )
        ds = LabeledDataset(
            features=np.random.default_rng(0).normal(size=(12, 4)),
            labels=np.zeros(12, dtype=np.int64),
            num_classes=2,
        )
        assert select_threshold(model, ds, [0.0, 0.3, 0.7, 1.0], 0.0) == 1.0

    def test_returns_zero_when_nothing_qualifies(self):
        # The base is always wrong and the experts always right, so any
        # exit destroys accuracy.
        model = fixed_output_model(
            base_probs=(0.001, 0.999), expert_biases=[np.array([5.0, -5.0])] * 2
        )
        ds = LabeledDataset(
            features=np.random.default_rng(1).normal(size=(10, 4)),
            labels=np.zeros(10, dtype=np.int64),
            num_classes=2,
        )
        assert select_threshold(model, ds, [0.9, 1.0], max_accuracy_drop=0.1) == 0.0

    def test_agrees_with_a_sweep_based_reimplementation(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=71, samples_per_mode=10)
        taus = [0.0, 0.01, 0.03, 0.1, 0.5, 1.0]
        drop = 0.05
        curve = sweep_thresholds(model, ds, taus)
        reference = curve.points[0].accuracy
        qualifying = [p.tau for p in curve.points if p.accuracy >= reference - drop]
        expected = max(qualifying) if qualifying else 0.0
        assert select_threshold(model, ds, taus, drop) == expected


ENSEMBLER_KINDS = ("none", "bagging", "stacking", "top2")
POLICY_TAUS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def count_tail_runs(monkeypatch, model: MoEModel, blocks: list | None = None) -> Counter:
    """Count (expert, tap row) executions of the model's expert tails, whether a tail runs alone
    or in one batched product over its stack; a row is keyed by its tap bytes.  ``blocks``
    collects the row count of every stacked product."""
    expert_at = {e.layers[0].weight.__array_interface__["data"][0]: j for j, e in enumerate(model.experts)}
    runs = Counter()
    original = model_mod._run_tails

    def counting(layers, a):
        weight_t = layers[0][0]  # one tail's [in, out] weight, or a stack's [g, in, out]
        start = weight_t.__array_interface__["data"][0]
        if weight_t.ndim == 2:
            experts = [expert_at[start]]
        else:
            experts = [expert_at[start + g * weight_t.strides[0]] for g in range(len(weight_t))]
            if blocks is not None:
                blocks.append(len(a))
        runs.update((j, row.tobytes()) for j in experts for row in a)
        return original(layers, a)

    monkeypatch.setattr(model_mod, "_run_tails", counting)
    return runs


def experts_run_on(runs: Counter, tap: np.ndarray) -> list[int]:
    """The experts of the recorded runs, sorted, one entry per run; every run was on this tap row."""
    assert {key for _, key in runs} <= {tap.tobytes()}
    return sorted(Counter({j: times for (j, _), times in runs.items()}).elements())


class TestConditionalExecution:
    """Per-sample calls run only the selected experts and match the dense evaluation bit for bit."""

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_per_sample_paths_equal_the_dense_evaluation(self, rng, kind):
        x = rng.normal(size=(25, 4))
        model = random_model(rng, num_experts=4, ensembler=kind)
        seen = {policy: set() for policy in POLICIES}
        for i in range(len(x)):
            ev = evaluate_dataset(model, x[i : i + 1])
            for policy in POLICIES:
                for tau in POLICY_TAUS:
                    cfg = AnytimeConfig(tau=tau, policy=policy)
                    want = _predict_batch(model, ev, cfg, _decide(model, cfg, ev.base.probs, ev.gate_probs))
                    got = anytime_predict(model, x[i], cfg)
                    assert np.array_equal(got.probs, want.probs[0])
                    assert got.exited == bool(want.exited[0])
                    assert got.executed_experts == tuple(np.flatnonzero(want.executed[0]))
                    assert got.macs == int(want.macs[0])
                    seen[policy].add(got.exited)
            probs, chosen = model.top1_predict(x[i])
            assert chosen == int(ev.gate_probs[0].argmax())
            assert np.array_equal(probs, ev.combined[chosen, 0])
            for k in range(4):
                assert np.array_equal(model.ensemble_output(k, x[i]), ev.combined[k, 0])
        # every policy both exited and ran experts on some row
        assert seen == {policy: {True, False} for policy in POLICIES}

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_only_the_selected_expert_tails_run(self, rng, monkeypatch, kind):
        model = random_model(rng, num_experts=4, ensembler=kind)
        runs = count_tail_runs(monkeypatch, model)
        partial = 0
        for row in rng.normal(size=(25, 4)):
            fp = forward_batch(model.base, row[None, :])
            pair = np.argsort(-model.gate.distribution_batch(fp.prelogits)[0], kind="stable")[:2].tolist()
            tails_for = lambda slots: (sorted(pair) if slots else []) if kind == "top2" else sorted(slots)
            out = anytime_predict(model, row, AnytimeConfig(tau=1.0))
            assert out.exited and not runs
            out = anytime_predict(model, row, AnytimeConfig(tau=0.0))
            assert out.executed_experts == (0, 1, 2, 3)
            assert experts_run_on(runs, fp.tap[0]) == tails_for([0, 1, 2, 3])
            runs.clear()
            out = anytime_predict(model, row, AnytimeConfig(tau=0.1))
            assert experts_run_on(runs, fp.tap[0]) == tails_for(list(out.executed_experts))
            partial += 0 < len(out.executed_experts) < 4
            runs.clear()
            _, chosen = model.top1_predict(row)
            model.ensemble_output(3, row)
            assert experts_run_on(runs, fp.tap[0]) == sorted(tails_for([chosen]) + tails_for([3]))
            runs.clear()
        assert partial > 0

    def test_dense_evaluation_runs_every_expert_once_on_all_rows(self, rng, monkeypatch):
        block = model_mod._BLOCK_ROWS
        x = rng.normal(size=(2 * block + 1, 4))
        for widths in ((6, 6, 6, 6), (2, 5, 2, 9)):  # one stack; three, one of them experts 0 and 2
            scaffold = random_model(rng, num_experts=4, ensembler="top2")
            scaffold.base.layers[0].bias += 10.0  # no relu zeros, so each row has its own tap
            experts = [random_network(rng, [6, width, 3]) for width in widths]
            model = MoEModel(scaffold.base, scaffold.gate, experts, scaffold.ensemblers, shared_prefix=1)
            stacks, blocks = len(set(widths)), []
            with monkeypatch.context() as patch:
                runs = count_tail_runs(patch, model, blocks)
                for n in (0, 1, 2, block, block + 1, 2 * block + 1):
                    taps = [row.tobytes() for row in forward_batch(model.base, x[:n]).tap]
                    assert len(set(taps)) == n
                    evaluate_dataset(model, x[:n])
                    assert runs == Counter({(j, key): 1 for j in range(4) for key in taps})
                    # each stack in near-equal row blocks, none of 1 row when n >= 2
                    assert len(blocks) == stacks * max(1, math.ceil(n / block)) and sum(blocks) == stacks * n
                    assert max(blocks) - min(blocks) <= 1 and (n < 2 or min(blocks) >= 2)
                    runs.clear()
                    blocks.clear()


def dense_curve(model: MoEModel, ds: LabeledDataset, taus, policy: str, renormalize: bool = True) -> TradeoffCurve:
    """The sweep from one dense evaluation: every tail on every row, each threshold decided from it."""
    ev = evaluate_dataset(model, ds.features)
    points = []
    for tau in taus:
        cfg = AnytimeConfig(tau, policy, renormalize)
        out = _predict_batch(model, ev, cfg, _decide(model, cfg, ev.base.probs, ev.gate_probs))
        accuracy = float((out.probs.argmax(axis=1) == ds.labels).mean())
        points.append(CurvePoint(tau, accuracy, float(out.macs.mean()), float(out.exited.mean())))
    return TradeoffCurve(points)


SWEEP_TAUS = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
SWEEP_MODELS = {  # ensembler kinds and tail widths
    "none": (("none",) * 4, (6,) * 4),
    "bagging": (("bagging",) * 4, (6,) * 4),
    "stacking": (("stacking",) * 4, (6,) * 4),
    "top2": (("top2",) * 4, (6,) * 4),
    "mixed": (("top2", "stacking", "none", "bagging"), (5, 2, 5, 9)),
}


def distinct_tap_model(rng, kind: str) -> MoEModel:
    """random_model with no relu zeros at the tap, so each row has its own tap bytes."""
    model = random_model(rng, num_experts=4, ensembler=kind)
    model.base.layers[0].bias += 10.0
    return model


class TestConditionalSweep:
    """A sweep runs each expert tail only on the rows some threshold executes, with the dense curve."""

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("kinds", SWEEP_MODELS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_curve_equals_the_dense_sweep(self, rng, policy, kinds, renormalize):
        model = mixed_model(rng, *SWEEP_MODELS[kinds])
        ds = blob_dataset(seed=64, samples_per_mode=20)
        curve = sweep_thresholds(model, ds, SWEEP_TAUS, policy, renormalize)
        assert curve == dense_curve(model, ds, SWEEP_TAUS, policy, renormalize)
        assert any(0 < p.exit_ratio < 1 for p in curve.points)

    @pytest.mark.parametrize("policy", ["base_confidence", "gate_confidence"])
    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_top1_policies_run_the_top_tails_of_rows_that_do_not_always_exit(self, rng, monkeypatch, policy, kind):
        model = distinct_tap_model(rng, kind)
        ds = blob_dataset(seed=65, samples_per_mode=20)
        fp = forward_batch(model.base, ds.features)
        gate = model.gate.distribution_batch(fp.prelogits)
        if policy == "base_confidence":  # exits where the base max reaches tau
            cut = float(np.median(fp.probs.max(axis=1)))
            taus, running = (0.0, cut / 2, cut), fp.probs.max(axis=1) < cut
        else:  # exits where the gate max stays below tau
            cut = float(np.median(gate.max(axis=1)))
            taus, running = (cut, (cut + 1) / 2, 1.0), gate.max(axis=1) >= cut
        assert 0 < running.sum() < len(ds)
        order = np.argsort(-gate, axis=1, kind="stable")
        tails = order[:, :2] if kind == "top2" else order[:, :1]
        runs = count_tail_runs(monkeypatch, model)
        curve = sweep_thresholds(model, ds, taus, policy)
        assert runs == Counter({(int(j), fp.tap[i].tobytes()): 1 for i in np.flatnonzero(running) for j in tails[i]})
        assert curve == dense_curve(model, ds, taus, policy)

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_alpha_sweep_with_tau_zero_runs_each_needed_tail_once(self, rng, monkeypatch, kind):
        model = distinct_tap_model(rng, kind)
        ds = blob_dataset(seed=66, samples_per_mode=20)
        fp = forward_batch(model.base, ds.features)
        taps = [row.tobytes() for row in fp.tap]
        blocks = []
        runs = count_tail_runs(monkeypatch, model, blocks)
        sweep_thresholds(model, ds, SWEEP_TAUS)
        if kind == "top2":  # top2 slots need only their row's top pair, each tail alone on its rows
            gate = model.gate.distribution_batch(fp.prelogits)
            pairs = np.argsort(-gate, axis=1, kind="stable")[:, :2]
            assert runs == Counter({(int(j), taps[i]): 1 for i in range(len(ds)) for j in pairs[i]})
            assert not blocks
        else:  # every tail on every row, as one stack in row blocks
            assert runs == Counter({(j, key): 1 for j in range(4) for key in taps})
            assert sum(blocks) == len(ds)

    @pytest.mark.parametrize(
        "policy, taus",
        [("alpha_threshold", (1.0,)), ("base_confidence", (0.0,)), ("gate_confidence", (1.0,)), ("alpha_threshold", ())],
    )
    def test_a_sweep_where_every_threshold_exits_runs_no_tail(self, rng, monkeypatch, policy, taus):
        model = random_model(rng, num_experts=4)
        ds = blob_dataset(seed=67, samples_per_mode=10)
        runs = count_tail_runs(monkeypatch, model)
        curve = sweep_thresholds(model, ds, taus, policy)
        assert not runs
        assert [p.exit_ratio for p in curve.points] == [1.0] * len(taus)

    @pytest.mark.parametrize("policy", ["alpha_threshold", "base_confidence", "gate_confidence"])
    def test_wide_tails_stay_within_rounding_of_the_dense_pass(self, rng, monkeypatch, policy):
        base = random_network(rng, [16, 256, 256, 10])
        experts = [random_network(rng, [256, 256, 10]) for _ in range(8)]
        gate = Gate(weight=rng.normal(scale=0.1, size=(8, 256)), bias=rng.normal(size=8))
        model = MoEModel(base, gate, experts, [Ensembler("bagging") for _ in range(8)], shared_prefix=1)
        x = rng.normal(size=(300, 16))
        dense = evaluate_dataset(model, x)
        ds = LabeledDataset(x, dense.base.probs.argmax(axis=1), 10)
        decides_on = {  # the quantity each policy compares with tau
            "alpha_threshold": dense.gate_probs * (1.0 - dense.base.probs.max(axis=1))[:, None],
            "base_confidence": dense.base.probs.max(axis=1),
            "gate_confidence": dense.gate_probs.max(axis=1),
        }
        taus = np.quantile(decides_on[policy], [0.25, 0.5, 0.75]).tolist()
        selected, evs = [], []
        real_evaluate = anytime_mod.evaluate_dataset

        def recording(model, x, select, base=None):
            def recorded(base_probs, gate_probs):
                selected.append(select(base_probs, gate_probs))
                return selected[-1]

            evs.append(real_evaluate(model, x, recorded, base))
            return evs[-1]

        monkeypatch.setattr(anytime_mod, "evaluate_dataset", recording)
        curve = sweep_thresholds(model, ds, taus, policy)
        (slots,), (ev,) = selected, evs
        assert 0 < slots.sum() < slots.size
        # A tail run on a subset of rows may round differently from the stacked dense pass.
        for got, want in ((ev.expert_probs, dense.expert_probs), (ev.combined, dense.combined)):
            np.testing.assert_allclose(got.transpose(1, 0, 2)[slots], want.transpose(1, 0, 2)[slots], rtol=0, atol=1e-12)
        monkeypatch.undo()
        assert curve == dense_curve(model, ds, taus, policy)
