"""End-to-end command-line workflows driven through main()."""

import json
from pathlib import Path

import pytest

import moe_forge.anytime as anytime_mod
import moe_forge.cli as cli
import moe_forge.model as model_mod
from moe_forge.analysis import gate_disagreement, model_reliability, oracle_per_class_eval, specialization_table
from moe_forge.anytime import CURVE_HEADER
from moe_forge.cli import _plan_from_config, main
from moe_forge.data import LabeledDataset, generate_synthetic, save_csv
from moe_forge.gate_init import initial_gate, per_class_assignment
from moe_forge.jsonio import dumps, load_json
from moe_forge.model import ExecutionTrace, evaluate_dataset, load_model, mac_count, save_model
from moe_forge.nn import SgdConfig, forward_batch, network_to_doc
from moe_forge.training import TrainPlan, run_pipeline

from conftest import blob_dataset, random_model, random_network, tie_gate


def make_config(tmp_path: Path, **overrides) -> Path:
    config = {
        "seed": 3,
        "output_dir": str(tmp_path / "run"),
        "data": {
            "synthetic": {
                "num_classes": 3,
                "modes_per_class": 1,
                "dim": 4,
                "mode_stddev": 0.5,
                "samples_per_mode": 30,
                "seed": 5,
            }
        },
        "model": {"layer_dims": [4, 6, 3], "num_experts": 2},
        "train": {
            "expert_epochs": 4,
            "sgd_base": {"epochs": 4},
            "sgd_gate": {"learning_rate": 0.5, "epochs": 8},
            "sgd_expert": {"epochs": 2},
            "sgd_ensembler": {"epochs": 2},
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def config_with(tmp_path: Path, block: str, key: str, value) -> Path:
    """make_config's config with ``key`` of the dotted ``block`` set to ``value``."""
    path = make_config(tmp_path)
    doc = json.loads(path.read_text())
    target = doc
    for part in filter(None, block.split(".")):
        target = target[part]
    target[key] = value
    path.write_text(json.dumps(doc))
    return path


# The two commands that train from a config: a command's first word, then its arguments after the config.
TRAIN_OR_ABLATE = pytest.mark.parametrize(
    "command", [["train"], ["ablate", "--axis", "gamma", "--values", "0.1"]], ids=["train", "ablate"]
)

# Each non-finite float and the token JSON spells it with.
NON_FINITE = pytest.mark.parametrize(
    "value, token", [(float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")]
)


def eval_data_file(tmp_path: Path) -> Path:
    path = tmp_path / "eval_data.json"
    path.write_text(
        json.dumps(
            {
                "synthetic": {
                    "num_classes": 3,
                    "modes_per_class": 1,
                    "dim": 4,
                    "mode_stddev": 0.5,
                    "samples_per_mode": 10,
                    "seed": 99,
                }
            }
        )
    )
    return path


def top1_oracle(model, ds: LabeledDataset) -> tuple[float, float]:
    """Top-1 accuracy and mean MACs over ds, row by row: ``top1_predict``, and ``mac_count`` of the
    base, the gate and the routed slot with its own tail."""
    correct = macs = 0
    for row, label in zip(ds.features, ds.labels):
        probs, chosen = model.top1_predict(row)
        correct += int(probs.argmax() == label)
        macs += mac_count(model, ExecutionTrace(expert_tails=(chosen,), ensemblers=(chosen,)))
    return correct / len(ds), macs / len(ds)


class TestTrain:
    def test_writes_model_and_manifest(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert main(["train", str(config)]) == 0
        out = tmp_path / "run"
        assert (out / "model.json").exists()
        manifest = load_json(out / "manifest.json")
        assert manifest["tag"] == "mixture"
        assert manifest["train_samples"] == 90
        assert [s["stage"] for s in manifest["stages"]] == [
            "base", "gate_init", "gate", "experts", "ensemblers",
        ]
        assert not any(s["loaded"] for s in manifest["stages"])
        assert "model.json" in manifest["artifacts"]
        assert "stages/base.json" in manifest["artifacts"]
        assert "manifest.json" not in manifest["artifacts"]
        stdout = capsys.readouterr().out
        assert "top-1 routed accuracy:" in stdout

    def test_manifest_artifact_hashes_are_real(self, tmp_path):
        import hashlib

        config = make_config(tmp_path)
        main(["train", str(config)])
        out = tmp_path / "run"
        manifest = load_json(out / "manifest.json")
        for rel, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_second_run_resumes_and_reproduces_the_model(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["train", str(config)])
        first = (tmp_path / "run" / "model.json").read_bytes()
        capsys.readouterr()
        assert main(["train", str(config)]) == 0
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert all(s["loaded"] for s in manifest["stages"])
        assert (tmp_path / "run" / "model.json").read_bytes() == first
        assert "loaded" in capsys.readouterr().out

    def test_malformed_stage_file_is_a_usage_error(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["train", str(config)])
        stage = tmp_path / "run" / "stages" / "gate.json"
        doc = json.loads(stage.read_text())
        del doc["payload"]["gate"]["weight"]
        stage.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", str(config)]) == 2
        assert capsys.readouterr().err == f"error: stage checkpoint {stage}: missing key 'gate.weight'\n"

    def test_a_version_1_stage_file_is_a_usage_error(self, tmp_path, capsys):
        config = make_config(tmp_path)
        main(["train", str(config)])
        stage = tmp_path / "run" / "stages" / "ensemblers.json"
        doc = json.loads(stage.read_text())
        doc["format_version"] = 1
        stage.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage checkpoint {stage}: unsupported format_version 1 (expected 2)\n"
        )

    def test_single_expert_run_is_tagged_as_the_ensembling_baseline(self, tmp_path):
        config = make_config(
            tmp_path, model={"layer_dims": [4, 6, 3], "num_experts": 1}
        )
        main(["train", str(config)])
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert manifest["tag"] == "ensembling-baseline"

    def test_csv_data_paths_resolve_relative_to_the_config(self, tmp_path):
        ds = generate_synthetic_dataset()
        save_csv(tmp_path / "train.csv", ds)
        config = make_config(tmp_path, data={"csv": "train.csv"})
        assert main(["train", str(config)]) == 0

    def test_the_readme_config_trains(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        config["output_dir"] = str(tmp_path / "run")
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["train", str(tmp_path / "config.json")]) == 0
        assert (tmp_path / "run" / "model.json").exists()

    def test_split_block_trains_on_the_first_part(self, tmp_path):
        config = make_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["data"]["split"] = {"fractions": [0.8, 0.2], "seed": 1}
        config.write_text(json.dumps(doc))
        main(["train", str(config)])
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert manifest["train_samples"] == 72


def generate_synthetic_dataset():
    from moe_forge.data import SyntheticSpec

    spec = SyntheticSpec(
        num_classes=3, modes_per_class=1, dim=4, mode_stddev=0.5,
        samples_per_mode=30, seed=5,
    )
    return generate_synthetic(spec).dataset


class TestEval:
    @pytest.fixture
    def trained(self, tmp_path):
        config = make_config(tmp_path)
        main(["train", str(config)])
        return tmp_path / "run" / "model.json"

    def test_prints_base_and_routed_accuracy(self, trained, tmp_path, capsys):
        data = eval_data_file(tmp_path)
        assert main(["eval", str(trained), str(data)]) == 0
        out = capsys.readouterr().out
        assert "base accuracy:" in out
        assert "top-1 routed accuracy:" in out
        assert "mean MACs (top-1 routing):" in out

    def test_eval_accepts_csv_data(self, trained, tmp_path):
        ds = generate_synthetic_dataset()
        save_csv(tmp_path / "eval.csv", ds)
        assert main(["eval", str(trained), str(tmp_path / "eval.csv")]) == 0

    def test_csv_without_the_top_class_takes_the_model_class_count(self, trained, tmp_path, capsys):
        ds = generate_synthetic_dataset()
        keep = ds.labels < 2
        save_csv(tmp_path / "eval.csv", LabeledDataset(ds.features[keep], ds.labels[keep], 2))
        assert main(["eval", str(trained), str(tmp_path / "eval.csv")]) == 0
        assert "samples: 60" in capsys.readouterr().out

    def test_csv_label_at_the_class_count_is_a_usage_error_naming_the_line(self, trained, tmp_path, capsys):
        ds = generate_synthetic_dataset()
        save_csv(tmp_path / "eval.csv", LabeledDataset(ds.features[:5], [0, 1, 2, 3, 0], 4))
        assert main(["eval", str(trained), str(tmp_path / "eval.csv")]) == 2
        assert "line 4: label 3 >= declared class count 3" in capsys.readouterr().err

    def test_take_selects_a_split_part(self, trained, tmp_path, capsys):
        data = tmp_path / "eval_data.json"
        doc = json.loads(eval_data_file(tmp_path).read_text())
        data.write_text(json.dumps({**doc, "split": {"fractions": [0.8, 0.2], "seed": 1}, "take": 1}))
        assert main(["eval", str(trained), str(data)]) == 0
        assert "samples: 6" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"split": {"seed": 1}}, "missing key 'split.fractions'"),
            ({"split": {"fractions": [0.5, 0.5]}, "take": 2}, "key 'take': no part 2 among parts 0..1"),
            ({"split": {"fractions": [0.5, 0.4]}}, "split: fractions must sum to 1"),
            ({"split": 0.5}, "key 'split': expected an object, got a number"),
            ({"take": "0"}, "key 'take': expected an integer, got a string"),
            ({"epochs": 3}, "unknown key epochs"),
            ({"take": float("nan")}, "non-finite number NaN"),
            ({"take": float("inf")}, "non-finite number Infinity"),
            ({"take": float("-inf")}, "non-finite number -Infinity"),
        ],
    )
    def test_data_file_errors_exit_2_naming_the_key(self, trained, tmp_path, capsys, extra, key):
        data = tmp_path / "eval_data.json"
        data.write_text(json.dumps({**json.loads(eval_data_file(tmp_path).read_text()), **extra}))
        assert main(["eval", str(trained), str(data)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: {key}")

    def test_threshold_sweep_prints_and_writes_curves(self, trained, tmp_path, capsys):
        data = eval_data_file(tmp_path)
        out_dir = tmp_path / "evalout"
        code = main(
            ["eval", str(trained), str(data), "--taus", "0,0.01,0.1,1", "--out", str(out_dir)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert CURVE_HEADER in stdout
        curve_lines = (out_dir / "tradeoff.csv").read_text().splitlines()
        assert curve_lines[0] == CURVE_HEADER
        assert len(curve_lines) == 5
        assert curve_lines[1].startswith("0.0,")
        assert curve_lines[4].startswith("1.0,")
        envelope_lines = (out_dir / "envelope.csv").read_text().splitlines()
        assert envelope_lines[0] == CURVE_HEADER
        assert 2 <= len(envelope_lines) <= len(curve_lines)

    def test_analyze_writes_every_table(self, trained, tmp_path, capsys):
        data = eval_data_file(tmp_path)
        out_dir = tmp_path / "analysis"
        code = main(["eval", str(trained), str(data), "--analyze", "--out", str(out_dir)])
        assert code == 0
        for name in (
            "specialization.csv",
            "specialization_per_class.csv",
            "reliability.csv",
            "disagreement.csv",
            "disagreement_transitions.csv",
        ):
            assert (out_dir / name).exists(), name
        stdout = capsys.readouterr().out
        assert "oracle per-class accuracy:" in stdout
        spec_lines = (out_dir / "specialization.csv").read_text().splitlines()
        assert spec_lines[0] == "expert,class_0,class_1,class_2"
        rel_lines = (out_dir / "reliability.csv").read_text().splitlines()
        assert rel_lines[0] == "bin_low,bin_high,count,accuracy"
        assert len(rel_lines) == 11

    def test_analyze_on_data_missing_a_class_exits_2_before_any_output(self, trained, tmp_path, capsys):
        ds = generate_synthetic_dataset()
        keep = ds.labels != 1
        save_csv(tmp_path / "eval.csv", LabeledDataset(ds.features[keep], ds.labels[keep], 3))
        out_dir = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["eval", str(trained), str(tmp_path / "eval.csv"), "--analyze", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "has none of class [1]" in captured.err
        assert not out_dir.exists()

    def test_analyze_without_out_dir_is_a_usage_error(self, trained, tmp_path, capsys):
        data = eval_data_file(tmp_path)
        capsys.readouterr()
        assert main(["eval", str(trained), str(data), "--taus", "0,1", "--analyze"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--analyze needs --out" in captured.err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--taus", "2", "expected comma-separated thresholds in [0, 1], got '2'"),
            ("--taus", "0,1.5", "expected comma-separated thresholds in [0, 1], got '0,1.5'"),
            ("--taus", "0,abc", "expected comma-separated thresholds in [0, 1], got '0,abc'"),
            ("--taus", ",", "expected comma-separated thresholds in [0, 1], got ','"),
            ("--taus", "nan", "expected comma-separated thresholds in [0, 1], got 'nan'"),
            ("--num-bins", "0", "expected an integer of at least 1, got '0'"),
        ],
        ids=["tau_2", "tau_1.5", "tau_abc", "tau_comma", "tau_nan", "num_bins_0"],
    )
    def test_bad_flag_exits_2_before_any_output(self, trained, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "evalout"
        args = ["eval", str(trained), str(eval_data_file(tmp_path)), "--taus", "0,1", "--analyze", "--out", str(out_dir)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*args, flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and f"argument {flag}: {message}" in captured.err
        assert not out_dir.exists()

    def test_dimension_mismatch_is_a_usage_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "synthetic": {
                        "num_classes": 3, "modes_per_class": 1, "dim": 5,
                        "mode_stddev": 0.5, "samples_per_mode": 5, "seed": 1,
                    }
                }
            )
        )
        assert main(["eval", str(trained), str(bad)]) == 2

    def test_one_base_pass_gives_the_figures_of_separate_passes(self, trained, tmp_path, capsys, monkeypatch):
        data = eval_data_file(tmp_path)
        out_dir = tmp_path / "analysis"
        base_passes, given = [], []
        real_forward, real_evaluate, real_points = cli.forward_batch, cli.evaluate_dataset, cli._curve_points

        def counting_forward(net, x):
            base_passes.append(len(x))
            return real_forward(net, x)

        def checking_evaluate(model, x, select=None, base=None):
            given.append(base is not None)
            return real_evaluate(model, x, select, base)

        def checking_points(model, ds, configs, base=None):
            given.append(base is not None)
            return real_points(model, ds, configs, base)

        monkeypatch.setattr(cli, "forward_batch", counting_forward)
        monkeypatch.setattr(model_mod, "forward_batch", counting_forward)
        monkeypatch.setattr(cli, "evaluate_dataset", checking_evaluate)
        monkeypatch.setattr(cli, "_curve_points", checking_points)
        args = ["eval", str(trained), str(data), "--taus", "0,0.1,1", "--analyze", "--out", str(out_dir)]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        # One base pass: the pass of top-1 routing and the sweep, and the analysis tables' dense pass, reuse it.
        assert base_passes == [30] and given == [True, True]

        # The same figures, each from its own base pass as separate commands would compute them.
        monkeypatch.undo()
        model = load_model(trained)
        ds = cli._load_eval_data(data, model.num_classes)
        base_acc = float((forward_batch(model.base, ds.features).probs.argmax(axis=1) == ds.labels).mean())
        accuracy, macs = top1_oracle(model, ds)
        lines = stdout.splitlines()
        assert lines[:4] == [
            "samples: 30",
            f"base accuracy: {base_acc:.4f}",
            f"top-1 routed accuracy: {accuracy:.4f}",
            f"mean MACs (top-1 routing): {macs:.1f}",
        ]
        prelogits = forward_batch(model.base, ds.features).prelogits
        init = initial_gate(prelogits, model.centroids, model.temperature)
        report = gate_disagreement(
            init.weights.argmax(axis=1),
            model.gate.distribution_batch(prelogits).argmax(axis=1),
            ds.labels,
            num_experts=model.num_experts,
        )
        assert (out_dir / "disagreement_transitions.csv").read_text() == report.transitions_csv()
        assert (out_dir / "disagreement.csv").read_text() == f"fraction\n{report.fraction!r}\n"
        assert f"gate disagreement vs clustering: {report.fraction:.4f}" in lines
        table = specialization_table(evaluate_dataset(model, ds.features), ds)
        assert (out_dir / "specialization.csv").read_text() == table.to_csv()
        reliability = model_reliability(evaluate_dataset(model, ds.features), ds)
        assert (out_dir / "reliability.csv").read_text() == reliability.to_csv()
        oracle = oracle_per_class_eval(evaluate_dataset(model, ds.features), per_class_assignment(init, ds), ds)
        assert f"oracle per-class accuracy: {oracle:.4f}" in lines

    def test_taus_run_top1_routing_and_the_sweep_in_one_pass(self, trained, tmp_path, capsys, monkeypatch):
        data = eval_data_file(tmp_path)
        passes = []
        real_evaluate = anytime_mod.evaluate_dataset

        def counting_evaluate(*args, **kwargs):
            passes.append(len(args[1]))
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(anytime_mod, "evaluate_dataset", counting_evaluate)
        assert main(["eval", str(trained), str(data), "--taus", "0,0.1,1", "--out", str(tmp_path / "sweep")]) == 0
        assert passes == [30]

        # The figures of a top-1 pass and a sweep run apart.
        monkeypatch.undo()
        model = load_model(trained)
        ds = cli._load_eval_data(data, model.num_classes)
        top1, curve = cli._top1(model, ds), anytime_mod.sweep_thresholds(model, ds, [0.0, 0.1, 1.0])
        assert capsys.readouterr().out.splitlines()[2:4] == [
            f"top-1 routed accuracy: {top1.accuracy:.4f}",
            f"mean MACs (top-1 routing): {top1.mean_macs:.1f}",
        ]
        assert (tmp_path / "sweep" / "tradeoff.csv").read_text() == curve.to_csv()

    def test_learned_gate_policy_is_not_offered(self, trained, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(trained), str(eval_data_file(tmp_path)), "--taus", "0.5", "--policy", "learned_gate"])
        assert exc.value.code == 2
        assert "invalid choice: 'learned_gate'" in capsys.readouterr().err


class TestTop1Routing:
    """The CLI's top-1 figures are the gate_confidence policy at tau 0, which never exits."""

    @pytest.mark.parametrize("kind", ["none", "bagging", "stacking"])
    @pytest.mark.parametrize("gate", ["random_gate", "tied_gate", "uniform_gate"])
    def test_gate_confidence_at_tau_zero_equals_per_row_top1_predict(self, rng, kind, gate):
        x = rng.normal(size=(60, 4))
        model = random_model(rng, num_experts=4, ensembler=kind)
        if gate == "tied_gate":  # every row routes to expert 1, the lower index of the tied top experts
            tie_gate(model)
        elif gate == "uniform_gate":  # every gate probability is 1/K, so every row routes to expert 0
            model.gate.weight[:] = 0.0
            model.gate.bias[:] = 0.0
        ds = LabeledDataset(x, rng.integers(3, size=60), 3)
        if gate != "random_gate":
            assert {model.top1_predict(row)[1] for row in x} == {1 if gate == "tied_gate" else 0}
        top1 = cli._top1(model, ds)
        assert (top1.accuracy, top1.mean_macs, top1.exit_ratio) == (*top1_oracle(model, ds), 0.0)

    @pytest.mark.parametrize(
        "split, scored",
        [(None, "part 0 of 1 (the training data)"), ([0.8, 0.2], "part 1 of 2 (held out)")],
        ids=["no_split", "split"],
    )
    def test_train_reports_the_figures_of_the_part_ablate_scores(self, tmp_path, capsys, split, scored):
        config = make_config(tmp_path)
        if split is not None:
            config = config_with(tmp_path, "data", "split", {"fractions": split, "seed": 1})
        assert main(["train", str(config)]) == 0
        # The figures of the part it names: the last part of the config's data.
        part = cli._load_data_block(json.loads(config.read_text())["data"], "data", tmp_path)[-1]
        accuracy, macs = top1_oracle(load_model(tmp_path / "run" / "model.json"), part)
        assert capsys.readouterr().out.splitlines()[5:8] == [
            f"scored on {scored}",
            f"top-1 routed accuracy: {accuracy:.4f}",
            f"mean MACs (top-1 routing): {macs:.1f}",
        ]
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert (manifest["scored_part"], manifest["accuracy_top1"], manifest["mean_macs_top1"]) == (
            scored, accuracy, macs,
        )
        assert manifest["train_samples"] == (72 if split else 90)

    def test_eval_prints_the_figures(self, tmp_path, capsys):
        assert main(["train", str(make_config(tmp_path))]) == 0
        data = eval_data_file(tmp_path)
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "model.json"), str(data)]) == 0
        model = load_model(tmp_path / "run" / "model.json")
        accuracy, macs = top1_oracle(model, cli._load_eval_data(data, model.num_classes))
        assert capsys.readouterr().out.splitlines()[2:4] == [
            f"top-1 routed accuracy: {accuracy:.4f}",
            f"mean MACs (top-1 routing): {macs:.1f}",
        ]

    @pytest.mark.parametrize(
        "split, scored",
        [(None, "scored on part 0 of 1 (the training data)"), ([0.8, 0.2], "scored on part 1 of 2 (held out)")],
        ids=["no_split", "split"],
    )
    def test_ablate_summary_holds_the_figures(self, tmp_path, capsys, split, scored):
        config = make_config(tmp_path)
        if split is not None:
            config = config_with(tmp_path, "data", "split", {"fractions": split, "seed": 1})
        assert main(["ablate", str(config), "--axis", "gamma", "--values", "0.05"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == scored
        # The figures of the part it names: the last part of the config's data.
        part = cli._load_data_block(json.loads(config.read_text())["data"], "data", tmp_path)[-1]
        root = tmp_path / "run" / "ablate" / "gamma"
        row = (root / "summary.csv").read_text().splitlines()[1].split(",")
        assert (float(row[2]), float(row[3])) == top1_oracle(load_model(root / "0.05" / "model.json"), part)


class TestModelJson:
    def plan(self, **overrides) -> TrainPlan:
        return TrainPlan(
            layer_dims=(4, 6, 5, 3), num_experts=3, seed=4, expert_epochs=2, em_steps=1,
            **overrides,
        )

    @pytest.mark.parametrize("ensembler", ["bagging", "stacking"])
    def test_fresh_resumed_and_plain_saves_write_the_same_bytes(self, tmp_path, ensembler):
        ds = blob_dataset(seed=61, samples_per_mode=20)
        plan = self.plan(ensembler=ensembler)
        fresh = run_pipeline(ds, plan, tmp_path / "run")
        fresh_bytes = (tmp_path / "run" / "model.json").read_bytes()
        (tmp_path / "run" / "model.json").unlink()  # the resumed run writes it again
        resumed = run_pipeline(ds, plan, tmp_path / "run")
        assert all(s.loaded for s in resumed.stages)
        save_model(tmp_path / "plain.json", fresh.model)
        text = (tmp_path / "plain.json").read_bytes()
        assert fresh_bytes == text
        assert (tmp_path / "run" / "model.json").read_bytes() == text
        save_model(tmp_path / "resumed.json", resumed.model)
        assert (tmp_path / "resumed.json").read_bytes() == text
        stage = load_json(tmp_path / "run" / "stages" / "experts.json")
        assert stage["payload"]["experts"] == json.loads(text)["experts"]

    def test_save_model_writes_an_expert_changed_after_training(self, tmp_path):
        result = run_pipeline(blob_dataset(seed=62, samples_per_mode=20), self.plan(), tmp_path / "run")
        result.model.experts[1].layers[0].weight[2, 3] = 0.375
        save_model(tmp_path / "model.json", result.model)
        doc = load_json(tmp_path / "model.json")
        assert doc["experts"][1]["weights"][0][2 * 6 + 3] == 0.375
        assert load_model(tmp_path / "model.json").experts[1].layers[0].weight[2, 3] == 0.375


class TestAblate:
    def test_gamma_axis_labels_the_default(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code = main(["ablate", str(config), "--axis", "gamma", "--values", "0.05,0.2"])
        assert code == 0
        summary = (tmp_path / "run" / "ablate" / "gamma" / "summary.csv").read_text().splitlines()
        assert summary[0] == "axis_value,seed,accuracy,mean_macs,label"
        assert summary[1].startswith("0.05,3,") and summary[1].endswith(",default")
        assert summary[2].startswith("0.2,3,") and summary[2].endswith(",")
        assert (tmp_path / "run" / "ablate" / "gamma" / "0.05" / "model.json").exists()

    def test_single_expert_value_gets_the_baseline_label(self, tmp_path):
        config = make_config(tmp_path)
        main(["ablate", str(config), "--axis", "num_experts", "--values", "1,2"])
        summary = (
            tmp_path / "run" / "ablate" / "num_experts" / "summary.csv"
        ).read_text().splitlines()
        assert summary[1].endswith(",ensembling-baseline")
        assert summary[2].endswith(",")

    def test_refinement_schedule_axis_runs(self, tmp_path):
        config = make_config(tmp_path)
        code = main(["ablate", str(config), "--axis", "n_e_schedule", "--values", "0,2"])
        assert code == 0
        summary = (
            tmp_path / "run" / "ablate" / "n_e_schedule" / "summary.csv"
        ).read_text().splitlines()
        assert len(summary) == 3

    def test_shared_prefix_values_count_the_shared_layers(self, tmp_path, capsys):
        config = config_with(tmp_path, "model", "layer_dims", [4, 6, 6, 3])
        assert main(["ablate", str(config), "--axis", "shared_prefix", "--values", "1,2"]) == 0
        root = tmp_path / "run" / "ablate" / "shared_prefix"
        for value in (1, 2):
            assert load_json(root / str(value) / "model.json")["shared_prefix"] == value
            base = load_json(root / str(value) / "stages" / "base.json")["payload"]["network"]
            assert base["tap_index"] == value - 1
        assert capsys.readouterr().out.splitlines()[1].startswith("shared_prefix=1: accuracy=")

    @pytest.mark.parametrize("value", ["0", "3"])
    def test_out_of_range_shared_prefix_is_a_usage_error(self, tmp_path, capsys, value):
        # Three layers: the experts share one or two of them and keep the rest.
        config = config_with(tmp_path, "model", "layer_dims", [4, 6, 6, 3])
        assert main(["ablate", str(config), "--axis", "shared_prefix", "--values", f"1,{value}"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: shared_prefix={value}: tap_index must be 0..1: the experts share 1..2 of the base's 3 layers"
        )
        assert not (tmp_path / "run" / "ablate").exists()

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("gamma", "1.5", "gamma=1.5: gamma must lie in [0, 1]"),
            ("gamma", "high", "gamma value 'high'"),
            ("num_experts", "0", "num_experts=0: num_experts must be positive"),
            ("n_e_schedule", "-1", "n_e_schedule=-1: em_steps and expert_epochs must be non-negative"),
        ],
    )
    def test_invalid_axis_value_is_a_usage_error(self, tmp_path, capsys, axis, value, message):
        config = make_config(tmp_path)
        assert main(["ablate", str(config), "--axis", axis, "--values", f"0,{value}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run" / "ablate").exists()

    def test_unknown_axis_is_a_usage_error(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert main(["ablate", str(config), "--axis", "dropout", "--values", "1"]) == 2


class TestConfigErrors:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        config = make_config(tmp_path, optimizer="adam")
        assert main(["train", str(config)]) == 2
        assert "unknown key optimizer" in capsys.readouterr().err

    def test_unknown_nested_key_names_the_dotted_path(self, tmp_path, capsys):
        config = make_config(
            tmp_path,
            train={"sgd_base": {"epochs": 2, "weight_decay": 0.1}},
        )
        assert main(["train", str(config)]) == 2
        assert "train.sgd_base.weight_decay" in capsys.readouterr().err

    def test_invalid_json_reports_the_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 3,\n}\n')
        assert main(["train", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_required_block(self, tmp_path, capsys):
        config = make_config(tmp_path)
        doc = json.loads(config.read_text())
        del doc["model"]
        config.write_text(json.dumps(doc))
        assert main(["train", str(config)]) == 2
        assert "model" in capsys.readouterr().err

    def test_top_level_anytime_block_is_rejected(self, tmp_path, capsys):
        config = make_config(tmp_path, anytime={"tau": 0.1, "policy": "alpha_threshold"})
        assert main(["train", str(config)]) == 2
        assert "unknown key anytime" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_ensembler_kind(self, tmp_path, capsys):
        config = make_config(
            tmp_path, model={"layer_dims": [4, 6, 3], "num_experts": 2, "ensembler": "boosting"}
        )
        assert main(["train", str(config)]) == 2
        assert "ensembler" in capsys.readouterr().err

    def test_the_top2_kind_exits_2_in_a_config_and_in_a_model_json(self, rng, tmp_path, capsys):
        assert main(["train", str(config_with(tmp_path, "model", "ensembler", "top2"))]) == 2
        assert "unknown ensembler 'top2'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        save_model(tmp_path / "model.json", random_model(rng, ensembler="none"))
        doc = load_json(tmp_path / "model.json")
        doc["ensemblers"][1]["kind"] = "top2"
        (tmp_path / "model.json").write_text(json.dumps(doc))
        assert main(["eval", str(tmp_path / "model.json"), str(eval_data_file(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'model.json'}: ") and "unknown ensembler kind 'top2'" in err

    def test_both_data_sources_rejected(self, tmp_path, capsys):
        config = make_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["data"]["csv"] = "also.csv"
        config.write_text(json.dumps(doc))
        assert main(["train", str(config)]) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [0, 2, 4, "1", 1.0, True])
    def test_workers_other_than_one_exits_2_naming_the_key(self, tmp_path, capsys, workers):
        config = make_config(tmp_path, workers=workers)
        assert main(["train", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workers: ") and repr(workers) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("train.sgd_base", "learning_rate", "0.1", "expected a number, got a string"),
            ("train", "gamma", True, "expected a number, got a boolean"),
            ("model", "num_experts", 2.7, "expected an integer, got a number"),
            ("model", "layer_dims", [4, 6.5, 3], "expected a list of integers"),
            ("model", "layer_dims", [[4, 6, 3]], "expected a list nested 1 deep"),
            ("model", "temperature", "8", "expected a number or null, got a string"),
            ("data.synthetic", "samples_per_mode", 30.0, "expected an integer, got a number"),
            ("", "seed", "3", "expected an integer, got a string"),
            ("", "output_dir", 7, "expected a string, got an integer"),
        ],
    )
    def test_value_of_the_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, block, key, value, message):
        assert main(["train", str(config_with(tmp_path, block, key, value))]) == 2
        path = f"{block}.{key}" if block else key
        assert capsys.readouterr().err == f"error: key {path!r}: {message}\n"
        assert not (tmp_path / "run").exists()

    @TRAIN_OR_ABLATE
    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("train.sgd_base", "batch_size", 0, "sgd_base.batch_size must be at least 1, got 0"),
            ("train.sgd_gate", "batch_size", -1, "sgd_gate.batch_size must be at least 1, got -1"),
            ("train.sgd_expert", "epochs", -1, "sgd_expert.epochs must be non-negative, got -1"),
            ("train.sgd_ensembler", "learning_rate", -1, "sgd_ensembler.learning_rate must be positive, got -1.0"),
            ("train.sgd_base", "learning_rate", 0, "sgd_base.learning_rate must be positive, got 0.0"),
            ("train.sgd_base", "momentum", 2.5, "sgd_base.momentum must lie in [0, 1), got 2.5"),
            ("train.sgd_gate", "momentum", 1, "sgd_gate.momentum must lie in [0, 1), got 1.0"),
            ("train.sgd_expert", "momentum", -0.1, "sgd_expert.momentum must lie in [0, 1), got -0.1"),
            ("train.sgd_ensembler", "lr_decay_factor", 0, "sgd_ensembler.lr_decay_factor must be positive, got 0.0"),
            ("model", "temperature", 0, "temperature must be positive, got 0.0"),
            ("model", "temperature", -0.5, "temperature must be positive, got -0.5"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_the_key(self, tmp_path, capsys, command, block, key, value, message):
        assert main([command[0], str(config_with(tmp_path, block, key, value)), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_zero_epochs_and_zero_momentum_stay_legal(self, tmp_path):
        doc = json.loads(make_config(tmp_path).read_text())
        doc["train"]["sgd_base"] = {"epochs": 0, "momentum": 0}
        assert _plan_from_config(doc).sgd_base == SgdConfig(momentum=0.0, epochs=0)

    @NON_FINITE
    @TRAIN_OR_ABLATE
    def test_non_finite_number_exits_2_before_any_output(self, tmp_path, capsys, command, value, token):
        config = config_with(tmp_path, "train.sgd_base", "lr_decay_factor", value)
        assert main([command[0], str(config), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: non-finite number {token}")
        assert not (tmp_path / "run").exists()

    @TRAIN_OR_ABLATE
    def test_data_that_does_not_fit_layer_dims_exits_2(self, tmp_path, capsys, command):
        assert main([command[0], str(config_with(tmp_path, "data.synthetic", "dim", 5)), *command[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: layer_dims (4, 6, 3) do not match dataset (dim 5, 3 classes)\n"
        )
        assert not (tmp_path / "run").exists()  # so no stage file either

    def test_sgd_blocks_start_from_sgd_config_and_absent_ones_from_the_plan(self, tmp_path):
        doc = json.loads(make_config(tmp_path).read_text())
        doc["train"] = {"sgd_gate": {"epochs": 8, "lr_decay_epochs": []}, "sgd_base": {"learning_rate": 1}}
        plan = _plan_from_config(doc)
        assert plan.sgd_gate == SgdConfig(epochs=8)
        assert plan.sgd_base == SgdConfig(learning_rate=1.0) and type(plan.sgd_base.learning_rate) is float
        assert plan.sgd_ensembler == TrainPlan((4, 6, 3)).sgd_ensembler != SgdConfig()
        assert plan.num_experts == 2 and plan.gamma == TrainPlan.gamma

    def test_workers_one_trains_as_without_the_key(self, tmp_path):
        plain = _plan_from_config(json.loads(make_config(tmp_path).read_text()))
        assert _plan_from_config(json.loads(make_config(tmp_path, workers=1).read_text())) == plain


class TestMalformedCheckpoints:
    """eval on a broken model.json exits 2 with an error naming the file and the key."""

    def eval_doc(self, tmp_path, capsys, doc) -> str:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(eval_data_file(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err
        return err

    @pytest.fixture
    def doc(self, rng, tmp_path) -> dict:
        save_model(tmp_path / "model.json", random_model(rng, ensembler="stacking"))
        return load_json(tmp_path / "model.json")

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "kind": "moe_model", "base": {')
        assert main(["eval", str(path), str(eval_data_file(tmp_path))]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON at line 1")

    def test_missing_key(self, tmp_path, capsys):
        err = self.eval_doc(tmp_path, capsys, {"format_version": 1, "kind": "moe_model"})
        assert "missing key 'base'" in err

    def test_missing_nested_key(self, doc, tmp_path, capsys):
        del doc["experts"][1]["biases"]
        assert "missing key 'experts[1].biases'" in self.eval_doc(tmp_path, capsys, doc)

    def test_wrong_type(self, doc, tmp_path, capsys):
        doc["gate"]["rows"] = "3"
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "key 'gate.rows': expected an integer, got a string" in err

    def test_wrong_type_inside_a_weight_list(self, doc, tmp_path, capsys):
        doc["ensemblers"][0]["bias"][2] = None
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "key 'ensemblers[0].bias': expected a list of numbers" in err

    def test_weight_list_of_the_wrong_length(self, doc, tmp_path, capsys):
        doc["base"]["weights"][1] = doc["base"]["weights"][1][:-1]
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "key 'base.weights[1]': expected 36 values for shape [6, 6], got 35" in err

    def test_gate_weight_that_does_not_match_rows_times_cols(self, doc, tmp_path, capsys):
        doc["gate"]["cols"] = 5
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "key 'gate.weight': expected 15 values for shape [3, 5], got 18" in err

    def test_parts_that_do_not_fit_together(self, doc, tmp_path, capsys):
        doc["experts"] = doc["experts"][:2]
        assert "one ensembler per expert" in self.eval_doc(tmp_path, capsys, doc)

    def test_a_gate_with_an_exit_row(self, doc, tmp_path, capsys):
        doc["gate"].update(rows=4, weight=doc["gate"]["weight"] + [0.0] * 6, bias=doc["gate"]["bias"] + [0.0])
        assert "gate has 4 rows, must have one per expert (K=3)" in self.eval_doc(tmp_path, capsys, doc)

    @pytest.mark.parametrize("dims", [[6, 9, 3], [6, 6, 6, 3]], ids=["wider_hidden", "extra_hidden"])
    def test_an_expert_off_the_base_tail_layout(self, doc, rng, tmp_path, capsys, dims):
        doc["experts"][1] = json.loads(dumps(network_to_doc(random_network(rng, dims))))
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "experts[1] has layers [6->" in err and "not the base tail's [6->6 relu, 6->3 identity]" in err

    def test_an_expert_with_another_hidden_activation(self, doc, tmp_path, capsys):
        doc["experts"][2]["activations"][0] = "identity"
        err = self.eval_doc(tmp_path, capsys, doc)
        assert "experts[2] has layers [6->6 identity, 6->3 identity], not the base tail's" in err

    @pytest.mark.parametrize(
        "slot, kind, named", [(1, "none", "none, stacking"), (0, "bagging", "bagging, stacking")], ids=["none", "bagging"]
    )
    def test_ensemblers_of_mixed_kinds(self, doc, tmp_path, capsys, slot, kind, named):
        doc["ensemblers"][slot] = {"kind": kind}
        assert f"ensemblers mix kinds {named}; a model has one kind" in self.eval_doc(tmp_path, capsys, doc)

    @pytest.mark.parametrize("value", [0, 2])
    def test_a_shared_prefix_off_the_base_tap(self, doc, tmp_path, capsys, value):
        doc["shared_prefix"] = value
        err = self.eval_doc(tmp_path, capsys, doc)
        assert f"key 'shared_prefix': {value}, not base tap_index + 1 = 1" in err

    @pytest.mark.parametrize("value", [0, -1])
    def test_a_temperature_that_is_not_positive(self, doc, tmp_path, capsys, value):
        doc["temperature"] = value
        path, out = tmp_path / "bad.json", tmp_path / "analysis"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(eval_data_file(tmp_path)), "--analyze", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {path}: key 'temperature': must be positive, got {value}\n"

    def test_centroids_of_the_wrong_dim(self, doc, tmp_path, capsys):
        doc["centroids"] = {"k": 3, "dim": 5, "means": [0.0] * 15}
        assert "centroids have shape (3, 5)" in self.eval_doc(tmp_path, capsys, doc)

    @NON_FINITE
    def test_non_finite_weight(self, doc, tmp_path, capsys, value, token):
        doc["base"]["weights"][0][3] = value
        assert f"non-finite number {token}" in self.eval_doc(tmp_path, capsys, doc)
