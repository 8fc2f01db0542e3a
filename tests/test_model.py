"""Mixture assembly, ensembler arithmetic, and MAC accounting fixtures."""

import itertools

import numpy as np
import pytest

from moe_forge import model as model_mod
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
    slot_macs,
)
from moe_forge.nn import forward_batch, init_network, softmax

from conftest import mixed_model, random_model, random_network, tie_gate


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
        ev = evaluate_dataset(random_model(rng, ensembler="none"), rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(ev.combined, ev.expert_probs)

    def test_bagging_is_the_elementwise_mean(self, rng):
        ev = evaluate_dataset(random_model(rng, ensembler="bagging"), rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(ev.combined, 0.5 * (ev.base.probs + ev.expert_probs))

    def test_bagging_output_is_a_distribution(self, rng):
        ev = evaluate_dataset(random_model(rng, ensembler="bagging"), rng.normal(size=(6, 4)))
        np.testing.assert_allclose(ev.combined.sum(axis=2), np.ones((3, 6)), atol=1e-12)

    @pytest.mark.parametrize("kind", ["none", "bagging", "top2"])
    def test_apply_ensembler_refuses_the_kinds_evaluate_dataset_combines(self, kind):
        with pytest.raises(ShapeError, match="evaluate_dataset"):
            apply_ensembler(Ensembler(kind), np.full((1, 2), 0.5), np.full((1, 2), 0.5))

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

    @pytest.mark.parametrize(
        "kinds",
        [("none",) * 4, ("bagging",) * 4, ("stacking",) * 4, ("top2",) * 4,
         ("top2", "stacking", "none", "top2")],
        ids=["none", "bagging", "stacking", "top2", "mixed"],
    )
    def test_slot_macs_equal_the_scalar_count_of_each_row(self, rng, kinds):
        # Tails of different widths, so a wrong tail index changes the count.
        experts = [random_network(rng, [6, width, 3]) for width in (2, 5, 7, 9)]
        ensemblers = [
            Ensembler(kind, rng.normal(size=(3, 6)), rng.normal(size=3))
            if kind == "stacking"
            else Ensembler(kind)
            for kind in kinds
        ]
        scaffold = random_model(rng, num_experts=4)
        model = MoEModel(scaffold.base, scaffold.gate, experts, ensemblers, shared_prefix=1)
        x = rng.normal(size=(40, 4))
        ev = evaluate_dataset(model, x)
        slots = rng.random((40, 4)) < 0.35
        got = slot_macs(model, ev.gate_probs, slots)
        assert got.shape == (40,)
        for i in range(40):
            chosen = tuple(int(j) for j in np.flatnonzero(slots[i]))
            tails = {j for j in chosen if kinds[j] != "top2"}
            if any(kinds[j] == "top2" for j in chosen):
                tails |= set(np.argsort(-ev.gate_probs[i], kind="stable")[:2].tolist())
            trace = ExecutionTrace(base=False, gate=False, expert_tails=tuple(sorted(tails)), ensemblers=chosen)
            assert got[i] == mac_count(model, trace)


class TestModelOutputs:
    def test_soft_mixture_matches_brute_force_sum(self, rng):
        # The full gate-weighted mixture is what a sweep mixes at tau=0.
        model = random_model(rng, num_experts=3)
        x = rng.normal(size=(5, 4))
        ev = evaluate_dataset(model, x)
        mixture = np.einsum("nk,knc->nc", ev.gate_probs, ev.combined)
        for i in range(len(x)):
            expected = np.zeros(3)
            for k in range(3):
                expected += ev.gate_probs[i, k] * model.ensemble_output(k, x[i])
            np.testing.assert_allclose(mixture[i], expected, atol=1e-12)

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
        prelogits = forward_batch(model.base, rng.normal(size=(2, 4))).prelogits
        probs = model.gate.distribution_batch(prelogits)[0]
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def per_expert_reference(model: MoEModel, x: np.ndarray):
    """Every tail alone through forward_batch on all rows, then every slot combined alone."""
    fp = forward_batch(model.base, x)
    gate_probs = model.gate.distribution_batch(fp.prelogits)
    experts = np.stack([forward_batch(e, fp.tap).probs for e in model.experts])
    pair = np.argsort(-gate_probs, axis=1, kind="stable")[:, :2]
    rows = np.arange(len(x))
    combined = np.stack([
        0.5 * (experts[pair[:, 0], rows] + experts[pair[:, 1], rows]) if ens.kind == "top2"
        else experts[j] if ens.kind == "none"
        else 0.5 * (fp.probs + experts[j]) if ens.kind == "bagging"
        else apply_ensembler(ens, fp.probs, experts[j])
        for j, ens in enumerate(model.ensemblers)
    ])
    return fp, gate_probs, experts, combined


class TestStackedTails:
    """Tails of equal shapes run as one stack, bit for bit what each tail gives alone."""

    @pytest.mark.parametrize("widths", [(6, 6, 6, 6), (5, 2, 5, 9)], ids=["one_stack", "three_stacks"])
    @pytest.mark.parametrize(
        "kinds",
        [("none",) * 4, ("bagging",) * 4, ("stacking",) * 4, ("top2",) * 4, ("top2", "stacking", "none", "bagging")],
        ids=["none", "bagging", "stacking", "top2", "mixed"],
    )
    @pytest.mark.parametrize("tied", [False, True], ids=["random_gate", "tied_gate"])
    def test_dense_pass_equals_each_tail_alone(self, rng, kinds, widths, tied):
        model = mixed_model(rng, kinds, widths)
        if tied:  # every top2 row runs the pair (1, 3), the lower indices of the tied experts
            tie_gate(model)
        block = model_mod._BLOCK_ROWS
        x = rng.normal(size=(2 * block + 1, 4))
        for n in (0, 1, 2, block, block + 1, 2 * block + 1):
            ev = evaluate_dataset(model, x[:n])
            fp, gate_probs, experts, combined = per_expert_reference(model, x[:n])
            for got, want in ((ev.base.probs, fp.probs), (ev.gate_probs, gate_probs),
                              (ev.expert_probs, experts), (ev.combined, combined)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_expert_layers_are_views_into_their_stack(self, rng):
        model = mixed_model(rng, ("bagging",) * 4, (5, 2, 5, 9))
        assert [[j for j, _ in alone] for _, _, alone in model._stacks] == [[0, 2], [1], [3]]
        stacked_bytes = 0
        for cols, stack, alone in model._stacks:
            members = np.arange(4)[cols].tolist()
            assert [j for j, _ in alone] == members
            for i, (weight_t, bias, _) in enumerate(stack):
                stacked_bytes += weight_t.nbytes + bias.nbytes
                for g, j in enumerate(members):
                    layer = model.experts[j].layers[i]
                    assert np.shares_memory(layer.weight, weight_t) and np.shares_memory(layer.bias, bias)
                    np.testing.assert_array_equal(weight_t[g].T, layer.weight)
        layers = [l for e in model.experts for l in e.layers]
        assert stacked_bytes == sum(l.weight.nbytes + l.bias.nbytes for l in layers)
        for a, b in itertools.combinations(layers, 2):
            assert not np.shares_memory(a.weight, b.weight)

    def test_an_in_place_edit_of_an_expert_reaches_every_path(self, rng):
        model = random_model(rng, num_experts=4)
        shared = MoEModel(model.base, model.gate, model.experts, model.ensemblers, shared_prefix=1)
        assert np.shares_memory(shared._stacks[0][1][0][0], model._stacks[0][1][0][0])
        x = rng.normal(size=(6, 4))
        before = evaluate_dataset(model, x)
        model.experts[2].layers[0].weight[1, 3] += 0.5
        shared.experts[2].layers[1].bias[0] -= 0.5
        only_2 = lambda base_probs, gate_probs: np.tile(np.arange(4) == 2, (6, 1))
        for m in (model, shared):
            dense, alone = evaluate_dataset(m, x), evaluate_dataset(m, x, only_2)
            want = forward_batch(m.experts[2], dense.base.tap).probs
            assert not np.array_equal(want, before.expert_probs[2])
            np.testing.assert_array_equal(dense.expert_probs[2], want)
            np.testing.assert_array_equal(alone.expert_probs[2], want)
            np.testing.assert_array_equal(dense.expert_probs[[0, 1, 3]], before.expert_probs[[0, 1, 3]])

    def test_a_base_pass_over_other_rows_is_rejected(self, rng):
        model = random_model(rng)
        x = rng.normal(size=(5, 4))
        with pytest.raises(ShapeError, match=r"3 rows, got shape \(5, 4\)"):
            evaluate_dataset(model, x, base=forward_batch(model.base, x[:3]))
        given = evaluate_dataset(model, x, base=forward_batch(model.base, x))
        np.testing.assert_array_equal(given.combined, evaluate_dataset(model, x).combined)


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

    @pytest.mark.parametrize("rows", [2, 4, 5])
    def test_gate_needs_one_row_per_expert(self, rng, rows):
        model = random_model(rng)
        bad_gate = Gate(weight=np.zeros((rows, 6)), bias=np.zeros(rows))
        with pytest.raises(ShapeError, match=f"gate has {rows} rows, must have one per expert"):
            MoEModel(model.base, bad_gate, model.experts, model.ensemblers, shared_prefix=1)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 6), (4, 6)])
    def test_centroids_need_one_row_per_expert_of_the_prelogit_dim(self, rng, shape):
        model = random_model(rng)
        with pytest.raises(ShapeError, match=rf"centroids have shape \({shape[0]}, {shape[1]}\)"):
            MoEModel(
                model.base, model.gate, model.experts, model.ensemblers, shared_prefix=1,
                centroids=Centroids(means=rng.normal(size=shape)),
            )


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
