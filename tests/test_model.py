"""Mixture assembly, ensembler arithmetic, and MAC accounting fixtures."""

import numpy as np
import pytest

from moe_forge.errors import ShapeError
from moe_forge.gate_init import Centroids
from moe_forge.model import (
    Ensembler,
    ExecutionTrace,
    Gate,
    MoEModel,
    apply_ensembler,
    evaluate_dataset,
    load_model,
    mac_count,
    model_from_doc,
    model_to_doc,
    network_macs,
    save_model,
)
from moe_forge.nn import init_network

from conftest import random_model


class TestGate:
    def test_zero_parameters_give_uniform_routing(self):
        gate = Gate(weight=np.zeros((4, 5)), bias=np.zeros(4))
        probs = gate.distribution_batch(np.random.default_rng(0).normal(size=(7, 5)))
        np.testing.assert_allclose(probs, np.full((7, 4), 0.25), atol=1e-15)

    def test_distribution_sums_to_one(self, rng):
        gate = Gate(weight=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        probs = gate.distribution_batch(rng.normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-12)

    def test_mismatched_bias_rejected(self):
        with pytest.raises(ShapeError):
            Gate(weight=np.zeros((3, 4)), bias=np.zeros(2))


class TestEnsemblerArithmetic:
    def test_none_passes_expert_through(self, rng):
        expert = rng.dirichlet(np.ones(3), size=5)
        base = rng.dirichlet(np.ones(3), size=5)
        np.testing.assert_array_equal(apply_ensembler(Ensembler("none"), base, expert), expert)

    def test_bagging_is_the_elementwise_mean(self):
        base = np.array([[0.6, 0.4]])
        expert = np.array([[0.2, 0.8]])
        np.testing.assert_allclose(
            apply_ensembler(Ensembler("bagging"), base, expert), [[0.4, 0.6]], atol=1e-15
        )

    def test_bagging_output_is_a_distribution(self, rng):
        base = rng.dirichlet(np.ones(4), size=6)
        expert = rng.dirichlet(np.ones(4), size=6)
        out = apply_ensembler(Ensembler("bagging"), base, expert)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)

    def test_stacking_with_identity_blocks_multiplies_probabilities(self):
        # weight [I | I] makes the logits log(b) + log(e), so the output is
        # the normalized elementwise product of the two distributions.
        eye = np.eye(2)
        ens = Ensembler("stacking", weight=np.hstack([eye, eye]), bias=np.zeros(2))
        base = np.array([[0.6, 0.4], [0.8, 0.2]])
        expert = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = apply_ensembler(ens, base, expert)
        np.testing.assert_allclose(out[0], [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(out[1], [4.0 / 7.0, 3.0 / 7.0], atol=1e-12)

    def test_stacking_parameter_shape_enforced(self):
        with pytest.raises(ShapeError):
            Ensembler("stacking", weight=np.zeros((2, 3)), bias=np.zeros(2))

    def test_parameter_free_kinds_reject_parameters(self):
        with pytest.raises(ShapeError):
            Ensembler("bagging", weight=np.zeros((2, 4)), bias=np.zeros(2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            Ensembler("boosting")


def mac_fixture_model(ensembler: str = "bagging") -> MoEModel:
    """base [4 -> 8 -> 3], two expert tails [8 -> 3], gate [8 -> 2]."""
    base = init_network([4, 8, 3], tap_index=0, seed=0)
    experts = [init_network([8, 3], tap_index=0, seed=s) for s in (1, 2)]
    gate = Gate(weight=np.zeros((2, 8)), bias=np.zeros(2))
    if ensembler == "stacking":
        ens = [
            Ensembler("stacking", weight=np.zeros((3, 6)), bias=np.zeros(3)) for _ in range(2)
        ]
    else:
        ens = [Ensembler(ensembler) for _ in range(2)]
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens, shared_prefix=1)


class TestMacAccounting:
    def test_dense_network_fixture(self):
        assert network_macs(init_network([4, 8, 3], tap_index=0, seed=0)) == 56

    def test_base_plus_expert_plus_gate_fixture(self):
        model = mac_fixture_model()
        trace = ExecutionTrace(base=True, gate=True, expert_tails=(0,), ensemblers=(0,))
        # 56 (base) + 16 (gate 8x2) + 24 (tail 8x3) + 0 (bagging)
        assert mac_count(model, trace) == 96

    def test_base_only_trace(self):
        model = mac_fixture_model()
        assert mac_count(model, ExecutionTrace(base=True, gate=False)) == 56

    def test_bagging_and_none_cost_nothing(self):
        for kind in ("bagging", "none", "top2"):
            model = mac_fixture_model(kind)
            assert model.cost.macs_ensembler == (0, 0)

    def test_stacking_costs_two_c_squared(self):
        model = mac_fixture_model("stacking")
        assert model.cost.macs_ensembler == (18, 18)

    def test_prefix_cost_is_layers_up_to_the_tap(self):
        model = mac_fixture_model()
        assert model.cost.macs_prefix == 32  # 4x8
        assert model.cost.macs_prefix <= model.cost.macs_base

    def test_trace_naming_absent_expert_rejected(self):
        model = mac_fixture_model()
        with pytest.raises(ShapeError):
            mac_count(model, ExecutionTrace(expert_tails=(5,)))


class TestModelOutputs:
    def test_soft_mixture_matches_brute_force_sum(self, rng):
        model = random_model(rng, num_experts=3)
        x = rng.normal(size=4)
        ev = evaluate_dataset(model, x[None, :])
        expected = np.zeros(3)
        for k in range(3):
            expected += ev.gate_probs[0, k] * model.ensemble_output(k, x)
        np.testing.assert_allclose(model.soft_mixture(x), expected, atol=1e-12)

    def test_ensemble_output_is_a_distribution(self, rng):
        for kind in ("none", "bagging", "stacking", "top2"):
            model = random_model(rng, ensembler=kind)
            probs = model.ensemble_output(1, rng.normal(size=4))
            assert probs.shape == (3,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    def test_top1_tie_breaks_to_lower_index(self, rng):
        model = random_model(rng, num_experts=3)
        model.gate.weight[:] = 0.0
        model.gate.bias[:] = 0.0
        _, chosen = model.top1_predict(rng.normal(size=4))
        assert chosen == 0

    def test_top2_uses_the_two_strongest_experts(self, rng):
        model = random_model(rng, num_experts=3, ensembler="top2")
        x = rng.normal(size=4)
        ev = evaluate_dataset(model, x[None, :])
        pair = ev.top_pair[0]
        expected = 0.5 * (ev.expert_probs[pair[0], 0] + ev.expert_probs[pair[1], 0])
        np.testing.assert_allclose(model.ensemble_output(0, x), expected, atol=1e-15)
        order = np.argsort(-ev.gate_probs[0, :3])
        np.testing.assert_array_equal(sorted(pair), sorted(order[:2]))

    @pytest.mark.parametrize("kind", ("bagging", "stacking", "top2"))
    def test_selected_slots_match_the_dense_pass_and_the_rest_stay_zero(self, rng, kind):
        model = random_model(rng, num_experts=4, ensembler=kind)
        x = rng.normal(size=(12, 4))
        slots = rng.random((12, 4)) < 0.4
        dense = evaluate_dataset(model, x)
        ev = evaluate_dataset(model, x, lambda base_probs, gate_probs: slots)
        np.testing.assert_array_equal(ev.base.probs, dense.base.probs)
        np.testing.assert_array_equal(ev.top_pair, dense.top_pair)
        np.testing.assert_allclose(ev.combined[slots.T], dense.combined[slots.T], rtol=0, atol=1e-12)
        assert not ev.combined[~slots.T].any()
        with pytest.raises(ShapeError, match="slot selector"):
            evaluate_dataset(model, x, lambda base_probs, gate_probs: slots[:1])

    def test_gate_distribution_shape(self, rng):
        model = random_model(rng)
        probs = model.gate_distribution(rng.normal(size=4))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestModelValidation:
    def test_expert_with_wrong_input_dim_rejected(self, rng):
        model = random_model(rng)
        bad_expert = init_network([5, 3], tap_index=0, seed=0)
        with pytest.raises(ShapeError):
            MoEModel(
                base=model.base,
                gate=model.gate,
                experts=[bad_expert] * 3,
                ensemblers=model.ensemblers,
                shared_prefix=1,
            )

    def test_shared_prefix_must_match_tap(self, rng):
        model = random_model(rng)
        with pytest.raises(ShapeError):
            MoEModel(
                base=model.base,
                gate=model.gate,
                experts=model.experts,
                ensemblers=model.ensemblers,
                shared_prefix=2,
            )

    def test_gate_row_count_must_be_k_or_k_plus_one(self, rng):
        model = random_model(rng)
        bad_gate = Gate(weight=np.zeros((5, 6)), bias=np.zeros(5))
        with pytest.raises(ShapeError):
            MoEModel(
                base=model.base,
                gate=bad_gate,
                experts=model.experts,
                ensemblers=model.ensemblers,
                shared_prefix=1,
            )

    def test_exit_head_gate_accepted(self, rng):
        model = random_model(rng)
        wide_gate = Gate(weight=np.zeros((4, 6)), bias=np.zeros(4))
        extended = MoEModel(
            base=model.base,
            gate=wide_gate,
            experts=model.experts,
            ensemblers=model.ensemblers,
            shared_prefix=1,
        )
        assert extended.has_exit_head
        assert extended.cost.macs_gate == 6 * 4


class TestModelCheckpoint:
    def test_round_trip_preserves_everything(self, rng, tmp_path):
        model = random_model(rng, ensembler="stacking")
        model.centroids = Centroids(means=rng.normal(size=(3, 6)))
        model.temperature = 1.75
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(
            evaluate_dataset(model, x).combined, evaluate_dataset(loaded, x).combined
        )
        np.testing.assert_array_equal(loaded.centroids.means, model.centroids.means)
        assert loaded.temperature == model.temperature
        assert loaded.cost == model.cost

    def test_serialization_is_byte_deterministic(self, rng, tmp_path):
        model = random_model(rng)
        save_model(tmp_path / "a.json", model)
        save_model(tmp_path / "b.json", model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unsupported_version_rejected(self, rng):
        from moe_forge.errors import PipelineError

        doc = model_to_doc(random_model(rng))
        doc["format_version"] = 2
        with pytest.raises(PipelineError):
            model_from_doc(doc)
