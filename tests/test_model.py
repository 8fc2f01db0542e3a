"""Mixture assembly, ensembler arithmetic, and MAC accounting fixtures."""

import itertools

import numpy as np
import pytest

from moe_forge import model as model_mod
from moe_forge.errors import ShapeError
from moe_forge.gate_init import Centroids
from moe_forge.model import (
    ENSEMBLER_KINDS,
    CostModel,
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
    top1_slots,
)
from moe_forge.nn import forward_batch, init_network, softmax

from conftest import random_model, random_network, tie_gate


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

    @pytest.mark.parametrize("kind", ["none", "bagging", "stacking"])
    def test_apply_ensembler_gives_each_kind_its_formula(self, rng, kind):
        base, expert = softmax(rng.normal(size=(5, 3))), softmax(rng.normal(size=(5, 3)))
        if kind == "stacking":
            ens = Ensembler(kind, rng.normal(size=(3, 6)), rng.normal(size=3))
            want = softmax(np.hstack([np.log(base), np.log(expert)]) @ ens.weight.T + ens.bias)
        else:
            ens = Ensembler(kind)
            want = expert if kind == "none" else (expert + base) * 0.5
        assert apply_ensembler(ens, base, expert).tobytes() == want.tobytes()

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
    return MoEModel(base=base, gate=gate, experts=experts, ensemblers=ens)


class TestMacAccounting:
    def test_dense_network_fixture(self):
        assert network_macs(init_network([4, 8, 3], tap_index=0, seed=0)) == 56

    def test_base_plus_expert_plus_gate_fixture(self):
        model = mac_fixture_model()
        trace = ExecutionTrace(expert_tails=(0,), ensemblers=(0,))
        # 56 (base) + 16 (gate 8x2) + 24 (tail 8x3) + 0 (bagging)
        assert model.cost.macs_expert_tail == 24
        assert mac_count(model, trace) == 96

    def test_empty_trace_charges_the_base_and_gate(self):
        model = mac_fixture_model()
        assert model.cost.macs_base == 56
        # 56 (base) + 16 (gate 8x2): an early exit
        assert mac_count(model, ExecutionTrace()) == 72

    @pytest.mark.parametrize(
        "tails, ensemblers, expected",
        [((), (), 72), ((1,), (1,), 114), ((0, 1), (0, 1), 156)],
        ids=["exit", "one_expert", "both_experts"],
    )
    def test_every_trace_charges_the_base_and_gate(self, tails, ensemblers, expected):
        model = mac_fixture_model("stacking")
        # 56 (base) + 16 (gate 8x2), then 24 (tail 8x3) + 18 (stacking) per expert
        assert mac_count(model, ExecutionTrace(tails, ensemblers)) == expected

    def test_bagging_and_none_cost_nothing(self):
        for kind in ("bagging", "none"):
            model = mac_fixture_model(kind)
            assert model.cost.macs_ensembler == 0

    def test_stacking_costs_two_c_squared(self):
        model = mac_fixture_model("stacking")
        assert model.cost.macs_ensembler == 18

    def test_trace_naming_absent_expert_rejected(self):
        model = mac_fixture_model()
        with pytest.raises(ShapeError):
            mac_count(model, ExecutionTrace(expert_tails=(5,)))

    def test_trace_naming_absent_ensembler_rejected(self):
        model = mac_fixture_model("stacking")
        with pytest.raises(ShapeError, match="trace references absent ensembler 2"):
            mac_count(model, ExecutionTrace(expert_tails=(0, 1), ensemblers=(0, 2)))

    @pytest.mark.parametrize("kind, ensembler", [("none", 0), ("bagging", 0), ("stacking", 18)])
    def test_cost_model_holds_one_int_per_component(self, kind, ensembler):
        cost = mac_fixture_model(kind).cost
        # 56 (base 4x8 + 8x3), 24 (tail 8x3), 16 (gate 8x2), 2*C^2 for stacking
        assert cost == CostModel(macs_base=56, macs_expert_tail=24, macs_gate=16, macs_ensembler=ensembler)
        assert all(type(v) is int for v in vars(cost).values())

    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    def test_slot_macs_equal_the_scalar_count_of_each_row(self, rng, kind):
        # Every slot costs one tail and one ensembler; stacking makes the ensembler's share non-zero.
        model = random_model(rng, num_experts=4, ensembler=kind)
        slots = rng.random((40, 4)) < 0.35
        got = slot_macs(model, slots)
        assert got.shape == (40,)
        for i in range(40):
            chosen = tuple(int(j) for j in np.flatnonzero(slots[i]))
            trace = ExecutionTrace(expert_tails=chosen, ensemblers=chosen)
            assert got[i] == mac_count(model, trace) - model.cost.macs_base - model.cost.macs_gate


class TestModelOutputs:
    def test_soft_mixture_matches_brute_force_sum(self, rng):
        # The full gate-weighted mixture is what a sweep mixes at tau=0.
        model = random_model(rng, num_experts=3)
        x = rng.normal(size=(5, 4))
        ev = evaluate_dataset(model, x)
        mixture = np.einsum("nk,knc->nc", ev.gate_probs, ev.combined)
        for i in range(len(x)):
            row = evaluate_dataset(model, x[i : i + 1])
            expected = np.zeros(3)
            for k in range(3):
                expected += ev.gate_probs[i, k] * row.combined[k, 0]
            np.testing.assert_allclose(mixture[i], expected, atol=1e-12)

    def test_each_ensembled_output_is_a_distribution(self, rng):
        for kind in ("none", "bagging", "stacking"):
            model = random_model(rng, ensembler=kind)
            probs = evaluate_dataset(model, rng.normal(size=(1, 4))).combined[1, 0]
            assert probs.shape == (3,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    def test_top1_tie_breaks_to_lower_index(self, rng):
        model = random_model(rng, num_experts=3)
        model.gate.weight[:] = 0.0
        model.gate.bias[:] = 0.0
        _, chosen = model.top1_predict(rng.normal(size=4))
        assert chosen == 0

    @pytest.mark.parametrize("kind", ("bagging", "stacking", "none"))
    def test_selected_slots_match_the_dense_pass_and_the_rest_stay_zero(self, rng, kind):
        model = random_model(rng, num_experts=4, ensembler=kind)
        x = rng.normal(size=(12, 4))
        slots = rng.random((12, 4)) < 0.4
        dense = evaluate_dataset(model, x)
        ev = evaluate_dataset(model, x, lambda base_probs, gate_probs: slots)
        np.testing.assert_array_equal(ev.base.probs, dense.base.probs)
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
    combined = np.stack([
        experts[j] if ens.kind == "none"
        else 0.5 * (fp.probs + experts[j]) if ens.kind == "bagging"
        else apply_ensembler(ens, fp.probs, experts[j])
        for j, ens in enumerate(model.ensemblers)
    ])
    return fp, gate_probs, experts, combined


def tail_model(rng, kind, tail) -> MoEModel:
    """A four-expert random_model of one ensembler kind whose base tail, and so every expert, has
    layer widths `tail`."""
    scaffold = random_model(rng, num_experts=4, ensembler=kind)
    base = random_network(rng, [4, *tail])
    experts = [random_network(rng, list(tail)) for _ in range(4)]
    gate = Gate(rng.normal(size=(4, tail[-2])), rng.normal(size=4))
    return MoEModel(base, gate, experts, scaffold.ensemblers)


class TestStackedTails:
    """The K tails run as one stack, bit for bit what each tail gives alone."""

    @pytest.mark.parametrize(
        "tail", [(6, 3), (6, 6, 3), (6, 9, 2, 3)], ids=["one_layer", "two_layers", "three_layers"]
    )
    @pytest.mark.parametrize("kind", ENSEMBLER_KINDS)
    @pytest.mark.parametrize("tied", [False, True], ids=["random_gate", "tied_gate"])
    def test_dense_pass_equals_each_tail_alone(self, rng, kind, tied, tail):
        model = tail_model(rng, kind, tail)
        if tied:  # top1_slots routes every row to expert 1, the lower index of the tied top experts
            tie_gate(model)
        block = model_mod._BLOCK_ROWS
        x = rng.normal(size=(2 * block + 1, 4))
        for n in (0, 1, 2, block, block + 1, 2 * block + 1):
            ev = evaluate_dataset(model, x[:n])
            fp, gate_probs, experts, combined = per_expert_reference(model, x[:n])
            for got, want in ((ev.base.probs, fp.probs), (ev.gate_probs, gate_probs),
                              (ev.expert_probs, experts), (ev.combined, combined)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # The routed pass runs each row's top slot alone, on its rows only.
            slots = top1_slots(model, gate_probs)
            assert not tied or slots[:, 1].all()
            routed = evaluate_dataset(model, x[:n], lambda base_probs, gate_probs: top1_slots(model, gate_probs))
            # A tail run on a subset of rows may round differently from the stacked dense pass.
            np.testing.assert_allclose(routed.combined[slots.T], combined[slots.T], rtol=0, atol=1e-12)
            assert not routed.combined[~slots.T].any()

    def test_expert_layers_are_views_into_their_stack(self, rng):
        model = random_model(rng, num_experts=4)
        stacked_bytes = 0
        for i, (weight_t, bias, activation) in enumerate(model._tails):
            stacked_bytes += weight_t.nbytes + bias.nbytes
            for j, expert in enumerate(model.experts):
                layer = expert.layers[i]
                assert np.shares_memory(layer.weight, weight_t) and np.shares_memory(layer.bias, bias)
                np.testing.assert_array_equal(weight_t[j].T, layer.weight)
                alone = model._alone[j][i]
                assert alone[0].base is weight_t.base and alone[2] == activation == layer.activation
                np.testing.assert_array_equal(alone[0], weight_t[j])
                np.testing.assert_array_equal(alone[1], bias[j])
        layers = [l for e in model.experts for l in e.layers]
        assert stacked_bytes == sum(l.weight.nbytes + l.bias.nbytes for l in layers)
        for a, b in itertools.combinations(layers, 2):
            assert not np.shares_memory(a.weight, b.weight)

    def test_an_in_place_edit_of_an_expert_reaches_every_path(self, rng):
        model = random_model(rng, num_experts=4)
        shared = MoEModel(model.base, model.gate, model.experts, model.ensemblers)
        assert np.shares_memory(shared._tails[0][0], model._tails[0][0])
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
    @pytest.mark.parametrize(
        "dims, activation, layers",
        [
            ([6, 7, 3], "relu", "6->7 relu, 7->3 identity"),
            ([6, 6, 6, 3], "relu", "6->6 relu, 6->6 relu, 6->3 identity"),
            ([6, 6, 3], "identity", "6->6 identity, 6->3 identity"),
            ([5, 3], "identity", "5->3 identity"),
        ],
        ids=["hidden_width", "extra_hidden", "hidden_activation", "input_dim"],
    )
    def test_every_expert_needs_the_base_tail_layout(self, rng, dims, activation, layers):
        model = random_model(rng)
        experts = list(model.experts)
        experts[2] = random_network(rng, dims)
        experts[2].layers[0].activation = activation
        with pytest.raises(ShapeError) as exc:
            MoEModel(model.base, model.gate, experts, model.ensemblers)
        assert str(exc.value) == f"experts[2] has layers [{layers}], not the base tail's [6->6 relu, 6->3 identity]"

    @pytest.mark.parametrize(
        "kinds, named",
        [
            (("bagging", "none", "bagging"), "bagging, none"),
            (("stacking", "bagging", "stacking"), "bagging, stacking"),
            (("none", "stacking", "bagging"), "bagging, none, stacking"),
        ],
        ids=["bagging_none", "stacking_bagging", "all_three"],
    )
    def test_ensemblers_of_mixed_kinds_are_rejected(self, rng, kinds, named):
        model = random_model(rng, ensembler="stacking")
        ensemblers = [model.ensemblers[k] if kind == "stacking" else Ensembler(kind) for k, kind in enumerate(kinds)]
        with pytest.raises(ShapeError) as exc:
            MoEModel(model.base, model.gate, model.experts, ensemblers)
        assert str(exc.value) == f"ensemblers mix kinds {named}; a model has one kind"

    @pytest.mark.parametrize(
        "dims, tap_index", [([4, 6, 3], 0), ([4, 6, 6, 3], 0), ([4, 6, 6, 3], 1)], ids=["two_layers", "tap_0", "tap_1"]
    )
    def test_shared_prefix_is_the_base_tap_plus_one(self, rng, dims, tap_index):
        base = random_network(rng, dims, tap_index=tap_index)
        experts = [random_network(rng, [6, *dims[tap_index + 2 :]]) for _ in range(2)]
        gate = Gate(np.zeros((2, 6)), np.zeros(2))
        model = MoEModel(base, gate, experts, [Ensembler("bagging")] * 2)
        assert model.shared_prefix == tap_index + 1 == model_to_doc(model)["shared_prefix"]

    @pytest.mark.parametrize("rows", [2, 4, 5])
    def test_gate_needs_one_row_per_expert(self, rng, rows):
        model = random_model(rng)
        bad_gate = Gate(weight=np.zeros((rows, 6)), bias=np.zeros(rows))
        with pytest.raises(ShapeError, match=f"gate has {rows} rows, must have one per expert"):
            MoEModel(model.base, bad_gate, model.experts, model.ensemblers)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 6), (4, 6)])
    def test_centroids_need_one_row_per_expert_of_the_prelogit_dim(self, rng, shape):
        model = random_model(rng)
        with pytest.raises(ShapeError, match=rf"centroids have shape \({shape[0]}, {shape[1]}\)"):
            MoEModel(
                model.base, model.gate, model.experts, model.ensemblers,
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
