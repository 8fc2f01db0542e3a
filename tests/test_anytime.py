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
    _predict_batch,
)
from moe_forge.data import LabeledDataset
from moe_forge import anytime as anytime_mod
from moe_forge import model as model_mod
from moe_forge.model import ENSEMBLER_KINDS, Ensembler, ExecutionTrace, Gate, MoEModel, evaluate_dataset, mac_count
from moe_forge.nn import Layer, Network, forward_batch

from conftest import blob_dataset, random_model, random_network


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
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens)


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
            ensemblers=model.ensemblers,
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
        assert out.macs == cost.macs_base + cost.macs_gate + cost.macs_expert_tail

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
        mixture = sum(ev.gate_probs[0, k] * ev.combined[k, 0] for k in range(3))
        np.testing.assert_allclose(out.probs, mixture, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.01, 0.05, 0.2])
    def test_gate_weights_renormalize_over_the_executed_experts(self, rng, tau):
        model = random_model(rng)
        x = rng.normal(size=(30, 4))
        for i in range(len(x)):
            out = anytime_predict(model, x[i], AnytimeConfig(tau=tau))
            ev = evaluate_dataset(model, x[i : i + 1])
            if out.exited:
                np.testing.assert_array_equal(out.probs, ev.base.probs[0])
                continue
            run = list(out.executed_experts)
            weights = ev.gate_probs[0, run] / ev.gate_probs[0, run].sum()
            mixture = sum(w * ev.combined[k, 0] for w, k in zip(weights, run))
            np.testing.assert_allclose(out.probs, mixture, atol=1e-12)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

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
            model.cost.macs_base + model.cost.macs_gate + model.cost.macs_expert_tail
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
        # Equal (mean_macs, accuracy) points of different tau: the first input is the one kept.
        first, *rest = [CurvePoint(tau, 0.4, 5.0, 0.0) for tau in (0.5, 0.1, 0.3)]
        cheap = CurvePoint(0.9, 0.2, 1.0, 0.0)
        hull = convex_envelope([first, *rest, cheap]).points
        assert hull == [cheap, first] and hull[1] is first

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

    def test_base_confidence_takes_tau_one_as_reference_and_the_smallest_qualifying_tau(self):
        # base_confidence exits every row at tau=0 and runs the argmax expert below the base
        # maximum otherwise, so a smaller tau is cheaper.
        model = random_model(np.random.default_rng(3), num_experts=4)
        ds = blob_dataset(seed=5, samples_per_mode=30)
        taus = [0.0, 0.25, 0.5, 0.75, 1.0]
        curve = sweep_thresholds(model, ds, taus, "base_confidence")
        assert {p.accuracy for p in curve.points} == {curve.points[-1].accuracy}
        assert curve.points[0].mean_macs < curve.points[-1].mean_macs
        assert select_threshold(model, ds, taus, 0.0, policy="base_confidence") == 0.0
        # Nothing qualifies at a negative drop, so the reference comes back.
        assert select_threshold(model, ds, taus, -0.5, policy="base_confidence") == 1.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_agrees_with_a_sweep_based_reimplementation(self, rng, policy):
        model = random_model(rng)
        ds = blob_dataset(seed=71, samples_per_mode=10)
        taus = [0.0, 0.01, 0.03, 0.1, 0.5, 1.0]
        drop = 0.05
        ref, pick = (1.0, min) if policy == "base_confidence" else (0.0, max)
        curve = sweep_thresholds(model, ds, taus, policy)
        reference = curve.points[taus.index(ref)].accuracy
        qualifying = [p.tau for p in curve.points if p.accuracy >= reference - drop]
        assert select_threshold(model, ds, taus, drop, policy) == pick(qualifying)


POLICY_TAUS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
ONE_HOT = np.eye(4, dtype=bool)  # the slots of one expert of four


def kind_model(rng, kind: str) -> MoEModel:
    """random_model with four experts of one ensembler kind."""
    return random_model(rng, num_experts=4, ensembler=kind)


def dense_outcomes(model: MoEModel, x: np.ndarray, configs) -> list:
    """``_predict_batch``'s outcomes for the configs when evaluate_dataset runs every tail and
    ensembler on every row, whatever the configs select."""

    def dense(model, x, select, base=None):
        ev = evaluate_dataset(model, x, base=base)
        select(ev.base.probs, ev.gate_probs)  # the decisions, made as the selector makes them
        return ev

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anytime_mod, "evaluate_dataset", dense)
        return _predict_batch(model, x, configs)


def count_tail_runs(monkeypatch, model: MoEModel, blocks: list | None = None) -> Counter:
    """Count (expert, tap row) executions of the model's expert tails, whether a tail runs alone
    or in one batched product over its stack; a row is keyed by its tap bytes.  ``blocks``
    collects the row count of every stacked product."""
    expert_at = {e.layers[0].weight.__array_interface__["data"][0]: j for j, e in enumerate(model.experts)}
    runs = Counter()
    original = model_mod._run_tails

    def counting(layers, a):
        weight_t = layers[0][0]  # one tail's [in, out] weight, or the stack's [K, in, out]
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
        model = kind_model(rng, kind)
        seen = {policy: set() for policy in POLICIES}
        configs = [AnytimeConfig(tau=tau, policy=policy) for policy in POLICIES for tau in POLICY_TAUS]
        for i in range(len(x)):
            ev = evaluate_dataset(model, x[i : i + 1])
            for cfg, want in zip(configs, dense_outcomes(model, x[i : i + 1], configs)):
                got = anytime_predict(model, x[i], cfg)
                assert np.array_equal(got.probs, want.probs[0])
                assert got.exited == bool(want.exited[0])
                assert got.executed_experts == tuple(np.flatnonzero(want.executed[0]))
                assert got.macs == int(want.macs[0])
                seen[cfg.policy].add(got.exited)
            probs, chosen = model.top1_predict(x[i])
            assert chosen == int(ev.gate_probs[0].argmax())
            assert np.array_equal(probs, ev.combined[chosen, 0])
            for k in range(4):
                only_k = evaluate_dataset(model, x[i : i + 1], lambda base_probs, gate_probs: ONE_HOT[k][None, :])
                assert np.array_equal(only_k.combined[k, 0], ev.combined[k, 0])
        # every policy both exited and ran experts on some row
        assert seen == {policy: {True, False} for policy in POLICIES}

    def test_each_prediction_is_one_evaluation_of_its_row(self, rng, monkeypatch):
        model = random_model(rng, num_experts=4)
        real_evaluate, slots = anytime_mod.evaluate_dataset, []

        def recording(model, x, select, base=None):
            def recorded(base_probs, gate_probs):
                slots.append(select(base_probs, gate_probs))
                return slots[-1]

            return real_evaluate(model, x, recorded, base)

        monkeypatch.setattr(anytime_mod, "evaluate_dataset", recording)
        for policy in POLICIES:
            for tau in (0.0, 0.1, 1.0):
                anytime_predict(model, rng.normal(size=4), AnytimeConfig(tau=tau, policy=policy))
        assert [s.shape for s in slots] == [(1, 4)] * 9

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_only_the_selected_expert_tails_run(self, rng, monkeypatch, kind):
        model = kind_model(rng, kind)
        runs = count_tail_runs(monkeypatch, model)
        partial = 0
        for row in rng.normal(size=(25, 4)):
            fp = forward_batch(model.base, row[None, :])
            out = anytime_predict(model, row, AnytimeConfig(tau=1.0))
            assert out.exited and not runs
            out = anytime_predict(model, row, AnytimeConfig(tau=0.0))
            assert out.executed_experts == (0, 1, 2, 3)
            assert experts_run_on(runs, fp.tap[0]) == [0, 1, 2, 3]
            runs.clear()
            out = anytime_predict(model, row, AnytimeConfig(tau=0.1))
            assert experts_run_on(runs, fp.tap[0]) == list(out.executed_experts)
            partial += 0 < len(out.executed_experts) < 4
            runs.clear()
            _, chosen = model.top1_predict(row)
            evaluate_dataset(model, row[None, :], lambda base_probs, gate_probs: ONE_HOT[3][None, :])
            assert experts_run_on(runs, fp.tap[0]) == sorted([chosen, 3])
            runs.clear()
        assert partial > 0

    def test_dense_evaluation_runs_every_expert_once_on_all_rows(self, rng, monkeypatch):
        block = model_mod._BLOCK_ROWS
        x = rng.normal(size=(2 * block + 1, 4))
        model = random_model(rng, num_experts=4, ensembler="none")
        model.base.layers[0].bias += 10.0  # no relu zeros, so each row has its own tap
        blocks = []
        runs = count_tail_runs(monkeypatch, model, blocks)
        for n in (0, 1, 2, block, block + 1, 2 * block + 1):
            taps = [row.tobytes() for row in forward_batch(model.base, x[:n]).tap]
            assert len(set(taps)) == n
            evaluate_dataset(model, x[:n])
            assert runs == Counter({(j, key): 1 for j in range(4) for key in taps})
            # the stack in near-equal row blocks, none of 1 row when n >= 2
            assert len(blocks) == max(1, math.ceil(n / block)) and sum(blocks) == n
            assert max(blocks) - min(blocks) <= 1 and (n < 2 or min(blocks) >= 2)
            runs.clear()
            blocks.clear()


def dense_curve(model: MoEModel, ds: LabeledDataset, taus, policy: str) -> TradeoffCurve:
    """The sweep from one dense evaluation: every tail on every row, each threshold decided from it."""
    configs = [AnytimeConfig(tau, policy) for tau in taus]
    points = []
    for cfg, out in zip(configs, dense_outcomes(model, ds.features, configs)):
        accuracy = float((out.probs.argmax(axis=1) == ds.labels).mean())
        points.append(CurvePoint(cfg.tau, accuracy, float(out.macs.mean()), float(out.exited.mean())))
    return TradeoffCurve(points)


SWEEP_TAUS = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
def distinct_tap_model(rng, kind: str) -> MoEModel:
    """kind_model with no relu zeros at the tap, so each row has its own tap bytes."""
    model = kind_model(rng, kind)
    model.base.layers[0].bias += 10.0
    return model


class TestConditionalSweep:
    """A sweep runs each expert tail only on the rows some threshold executes, with the dense curve."""

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_curve_equals_the_dense_sweep(self, rng, policy, kind):
        model = kind_model(rng, kind)
        ds = blob_dataset(seed=64, samples_per_mode=20)
        curve = sweep_thresholds(model, ds, SWEEP_TAUS, policy)
        assert curve == dense_curve(model, ds, SWEEP_TAUS, policy)
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
        chosen = gate.argmax(axis=1)
        runs = count_tail_runs(monkeypatch, model)
        curve = sweep_thresholds(model, ds, taus, policy)
        assert runs == Counter({(int(chosen[i]), fp.tap[i].tobytes()): 1 for i in np.flatnonzero(running)})
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
        # every tail on every row, the stack of tails as one product per row block
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

    def test_gate_confidence_at_tau_one_runs_the_rows_of_a_saturated_gate(self, rng, monkeypatch):
        # gate_confidence exits a row when its gate maximum is below tau, so at tau=1 a row whose
        # gate maximum is exactly 1.0 in float64 runs its argmax expert and pays for it.
        model = distinct_tap_model(rng, "stacking")
        ds = blob_dataset(seed=67, samples_per_mode=10)
        fp = forward_batch(model.base, ds.features)
        while not (model.gate.distribution_batch(fp.prelogits).max(axis=1) == 1.0).any():
            model.gate.weight *= 2.0
        gate = model.gate.distribution_batch(fp.prelogits)
        saturated, chosen = gate.max(axis=1) == 1.0, gate.argmax(axis=1)
        assert 0 < saturated.sum() < len(ds)
        runs = count_tail_runs(monkeypatch, model)
        (point,) = sweep_thresholds(model, ds, [1.0], "gate_confidence").points
        assert runs == Counter({(int(chosen[i]), fp.tap[i].tobytes()): 1 for i in np.flatnonzero(saturated)})
        traces = [ExecutionTrace((int(j),), (int(j),)) if run else ExecutionTrace() for j, run in zip(chosen, saturated)]
        macs = np.array([mac_count(model, trace) for trace in traces])
        assert (point.exit_ratio, point.mean_macs) == ((~saturated).mean(), macs.mean())
        for i in np.flatnonzero(saturated)[:3]:
            out = anytime_predict(model, ds.features[i], AnytimeConfig(1.0, "gate_confidence"))
            assert not out.exited and out.executed_experts == (chosen[i],) and out.macs == macs[i]

    @pytest.mark.parametrize("policy", ["alpha_threshold", "base_confidence", "gate_confidence"])
    def test_wide_tails_stay_within_rounding_of_the_dense_pass(self, rng, monkeypatch, policy):
        base = random_network(rng, [16, 256, 256, 10])
        experts = [random_network(rng, [256, 256, 10]) for _ in range(8)]
        gate = Gate(weight=rng.normal(scale=0.1, size=(8, 256)), bias=rng.normal(size=8))
        model = MoEModel(base, gate, experts, [Ensembler("bagging") for _ in range(8)])
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
