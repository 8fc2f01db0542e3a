"""The benchmark's reference agrees with moe_forge, and its check catches one perturbed weight."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from moe_forge import AnytimeConfig, SgdConfig, SyntheticSpec, TrainPlan, anytime_predict, generate_synthetic, run_pipeline
from moe_forge.jsonio import dumps
from moe_forge.model import model_to_doc

import reference


def _trained(ensembler: str):
    ds = generate_synthetic(SyntheticSpec(num_classes=3, modes_per_class=2, dim=4, mode_stddev=0.8,
                                          samples_per_mode=40, seed=5)).dataset
    plan = TrainPlan(layer_dims=(4, 8, 6, 3), num_experts=3, ensembler=ensembler, seed=3,
                     expert_epochs=4, sgd_base=SgdConfig(epochs=8))
    return run_pipeline(ds, plan).model, ds


def _reference(model) -> reference.Reference:
    return reference.Reference(json.loads(dumps(model_to_doc(model))))


def _decisions(model, x: np.ndarray, tau: float) -> reference.Decision:
    outs = [anytime_predict(model, row, AnytimeConfig(tau=tau)) for row in x]
    return reference.Decision.of(outs, model.num_experts)


@pytest.mark.parametrize("ensembler", ["none", "bagging", "stacking"])
def test_reference_matches_the_package(ensembler):
    model, ds = _trained(ensembler)
    ref = _reference(model)
    b = ref.batch(ds.features)
    for tau in (0.0, 0.02, 0.1, 1.0):
        assert reference.compare(f"tau={tau}", _decisions(model, ds.features, tau), ref.anytime(b, tau)) == []
    want, chosen = ref.top1(b)
    for x, probs, k in zip(ds.features, want.probs, chosen):
        got_probs, got_k = model.top1_predict(x)
        assert got_k == k
        assert np.abs(got_probs - probs).max() <= reference.TOLERANCE


def test_one_perturbed_expert_weight_fails_the_check():
    model, ds = _trained("stacking")
    ref = _reference(model)
    b = ref.batch(ds.features)
    assert reference.compare("tau=0", _decisions(model, ds.features, 0.0), ref.anytime(b, 0.0)) == []

    # Nudge the output weight of expert 1's most active hidden unit; at tau=0
    # every row runs expert 1, so every output moves.
    tap = reference._run(ref.base[: ref.tap + 1], ds.features)
    hidden = reference._run(ref.experts[1][:-1], tap)
    model.experts[1].layers[-1].weight[0, int(hidden.mean(axis=0).argmax())] += 1e-6
    problems = reference.compare("tau=0", _decisions(model, ds.features, 0.0), ref.anytime(b, 0.0))
    assert problems and "differ from the reference" in problems[0]
