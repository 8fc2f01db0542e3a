"""Early-exit prediction, threshold sweeps, envelopes, and exit-gate training."""

import itertools
import math

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
    gate_confidence_exit,
    ilp_exit_assignment,
    select_threshold,
    sweep_thresholds,
    train_exit_gate,
    _predict_batch,
)
from moe_forge.data import LabeledDataset
from moe_forge.errors import ShapeError
from moe_forge.model import Ensembler, Gate, MoEModel, evaluate_dataset
from moe_forge.nn import Layer, Network, SgdConfig, forward_batch

from conftest import blob_dataset, random_model


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
        np.testing.assert_allclose(out.probs, model.soft_mixture(x), atol=1e-12)

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
        unsure = gate_confidence_exit(model, np.zeros(4), tau=0.8)
        assert unsure.exited
        assert unsure.macs == model.cost.macs_base + model.cost.macs_gate
        sure = gate_confidence_exit(model, np.zeros(4), tau=0.6)
        assert not sure.exited
        assert sure.executed_experts == (0,)

    def test_learned_gate_policy_needs_an_exit_head(self, rng):
        model = random_model(rng)
        with pytest.raises(ShapeError, match="exit head"):
            anytime_predict(model, rng.normal(size=4), AnytimeConfig(tau=0.5, policy="learned_gate"))


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


def exit_objective(model, ds, ee) -> float:
    """True-class probability achieved by a given exit labeling."""
    ev = evaluate_dataset(model, ds.features)
    rows = np.arange(len(ds))
    gate = ev.gate_probs[:, : model.num_experts]
    mixture = np.einsum("nk,knc->nc", gate, ev.combined)
    base_true = ev.base.probs[rows, ds.labels]
    mix_true = mixture[rows, ds.labels]
    return float(np.where(ee == 1, base_true, mix_true).sum())


class TestExitAssignment:
    def test_budget_is_the_floor_of_tau_n(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=81, samples_per_mode=5)  # 15 samples
        for tau, budget in [(0.0, 0), (0.5, 7), (1.0, 15), (0.2, 3), (0.9, 13)]:
            ee = ilp_exit_assignment(model, ds, tau)
            assert ee.sum() == budget

    def test_matches_exhaustive_search_over_all_exit_sets(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=82, samples_per_mode=4)  # 12 samples
        for tau in (0.25, 0.5, 0.75):
            ee = ilp_exit_assignment(model, ds, tau)
            budget = int(ee.sum())
            achieved = exit_objective(model, ds, ee)
            best = -math.inf
            for subset in itertools.combinations(range(len(ds)), budget):
                candidate = np.zeros(len(ds), dtype=np.int64)
                candidate[list(subset)] = 1
                best = max(best, exit_objective(model, ds, candidate))
            assert achieved == pytest.approx(best, abs=1e-12)

    def test_ties_exit_the_lowest_sample_indices(self):
        model = fixed_output_model()
        features = np.tile(np.ones(4), (6, 1))  # identical samples, identical margins
        ds = LabeledDataset(features=features, labels=np.zeros(6, dtype=np.int64), num_classes=2)
        ee = ilp_exit_assignment(model, ds, 0.5)
        np.testing.assert_array_equal(ee, [1, 1, 1, 0, 0, 0])

    def test_invalid_tau_rejected(self, rng):
        model = random_model(rng)
        ds = blob_dataset(seed=83, samples_per_mode=3)
        with pytest.raises(ValueError):
            ilp_exit_assignment(model, ds, 1.5)


class TestExitGateTraining:
    def setup_method(self):
        self.ds = blob_dataset(seed=91, samples_per_mode=40)
        self.rng = np.random.default_rng(0)
        self.model = random_model(self.rng)
        self.cfg = SgdConfig(learning_rate=0.5, epochs=80, seed=0)

    def extended(self, exit_labels) -> MoEModel:
        gate = train_exit_gate(self.model, self.ds, exit_labels, self.cfg)
        return MoEModel(
            base=self.model.base,
            gate=gate,
            experts=self.model.experts,
            ensemblers=self.model.ensemblers,
            shared_prefix=self.model.shared_prefix,
        )

    def exit_ratio(self, model) -> float:
        curve = sweep_thresholds(model, self.ds, [0.5], policy="learned_gate")
        return curve.points[0].exit_ratio

    def test_never_exit_labels_keep_the_exit_head_quiet(self):
        model = self.extended(np.zeros(len(self.ds), dtype=np.int64))
        assert self.exit_ratio(model) <= 0.05

    def test_always_exit_labels_dominate(self):
        model = self.extended(np.ones(len(self.ds), dtype=np.int64))
        assert self.exit_ratio(model) >= 0.95

    def test_linearly_separable_labels_are_learned(self):
        from moe_forge.nn import forward_batch

        prelogits = forward_batch(self.model.base, self.ds.features).prelogits
        labels = (prelogits[:, 0] > np.median(prelogits[:, 0])).astype(np.int64)
        model = self.extended(labels)
        ev = evaluate_dataset(model, self.ds.features)
        predicted_exit = ev.gate_probs.argmax(axis=1) == model.num_experts
        assert (predicted_exit == labels.astype(bool)).mean() >= 0.9
        # Samples that stay keep routing to the expert the old gate picked.
        old = evaluate_dataset(self.model, self.ds.features).gate_probs.argmax(axis=1)
        stay = ~predicted_exit
        new_choice = ev.gate_probs[:, : model.num_experts].argmax(axis=1)
        assert (new_choice[stay] == old[stay]).mean() >= 0.9

    def test_existing_exit_head_rejected(self):
        labels = np.zeros(len(self.ds), dtype=np.int64)
        extended = self.extended(labels)
        with pytest.raises(ShapeError, match="already"):
            train_exit_gate(extended, self.ds, labels, self.cfg)

    def test_misshapen_labels_rejected(self):
        with pytest.raises(ShapeError):
            train_exit_gate(self.model, self.ds, np.zeros(3, dtype=np.int64), self.cfg)


ENSEMBLER_KINDS = ("none", "bagging", "stacking", "top2")
POLICY_TAUS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def with_exit_head(model: MoEModel, rng: np.random.Generator, x: np.ndarray) -> MoEModel:
    """The same model with a random exit row added to its gate; it wins on about half of x."""
    prelogits = forward_batch(model.base, x).prelogits
    exit_weight = rng.normal(size=model.gate.in_dim)
    best_expert = (prelogits @ model.gate.weight.T + model.gate.bias).max(axis=1)
    gate = Gate(
        weight=np.vstack([model.gate.weight, exit_weight]),
        bias=np.append(model.gate.bias, np.median(best_expert - prelogits @ exit_weight)),
    )
    return MoEModel(
        base=model.base, gate=gate, experts=model.experts,
        ensemblers=model.ensemblers, shared_prefix=model.shared_prefix,
    )


def count_expert_forwards(monkeypatch, model: MoEModel) -> list:
    """Record every forward_batch call the model module makes on one of the model's experts."""
    import moe_forge.model as model_mod

    calls = []
    original = model_mod.forward_batch

    def counting(net, x):
        if any(net is e for e in model.experts):
            calls.append(len(x))
        return original(net, x)

    monkeypatch.setattr(model_mod, "forward_batch", counting)
    return calls


class TestConditionalExecution:
    """Per-sample calls run only the selected experts and match the dense evaluation bit for bit."""

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_per_sample_paths_equal_the_dense_evaluation(self, rng, kind):
        x = rng.normal(size=(25, 4))
        model = with_exit_head(random_model(rng, num_experts=4, ensembler=kind), rng, x)
        seen = {policy: set() for policy in POLICIES}
        for i in range(len(x)):
            ev = evaluate_dataset(model, x[i : i + 1])
            for policy in POLICIES:
                for tau in POLICY_TAUS:
                    cfg = AnytimeConfig(tau=tau, policy=policy)
                    want = _predict_batch(model, ev, cfg)
                    got = anytime_predict(model, x[i], cfg)
                    assert np.array_equal(got.probs, want.probs[0])
                    assert got.exited == bool(want.exited[0])
                    assert got.executed_experts == tuple(np.flatnonzero(want.executed[0]))
                    assert got.macs == int(want.macs[0])
                    seen[policy].add(got.exited)
            probs, chosen = model.top1_predict(x[i])
            assert chosen == int(ev.gate_probs[0, :4].argmax())
            assert np.array_equal(probs, ev.combined[chosen, 0])
            for k in range(4):
                assert np.array_equal(model.ensemble_output(k, x[i]), ev.combined[k, 0])
        # every policy both exited and ran experts on some row
        assert seen == {policy: {True, False} for policy in POLICIES}

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_only_the_selected_expert_tails_run(self, rng, monkeypatch, kind):
        model = random_model(rng, num_experts=4, ensembler=kind)
        tails_per_slot_set = lambda slots: (2 if slots else 0) if kind == "top2" else len(slots)
        calls = count_expert_forwards(monkeypatch, model)
        x = rng.normal(size=(25, 4))
        partial = 0
        for row in x:
            out = anytime_predict(model, row, AnytimeConfig(tau=1.0))
            assert out.exited and calls == []
            out = anytime_predict(model, row, AnytimeConfig(tau=0.0))
            assert out.executed_experts == (0, 1, 2, 3)
            assert len(calls) == (2 if kind == "top2" else 4)
            calls.clear()
            out = anytime_predict(model, row, AnytimeConfig(tau=0.1))
            assert len(calls) == tails_per_slot_set(out.executed_experts)
            partial += 0 < len(out.executed_experts) < 4
            calls.clear()
            model.top1_predict(row)
            model.ensemble_output(3, row)
            assert len(calls) == 2 * (2 if kind == "top2" else 1)
            assert set(calls) == {1}
            calls.clear()
        assert partial > 0

    def test_dense_evaluation_runs_every_expert_once_on_all_rows(self, rng, monkeypatch):
        model = random_model(rng, num_experts=4, ensembler="top2")
        calls = count_expert_forwards(monkeypatch, model)
        evaluate_dataset(model, rng.normal(size=(9, 4)))
        assert calls == [9, 9, 9, 9]
