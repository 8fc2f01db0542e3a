"""Command-line entry points: train, eval, ablate.

Configs are JSON; unknown keys are rejected so typos fail loudly.  Exit
codes: 0 success, 1 runtime failure, 2 invalid configuration or inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import jsonio
from .analysis import (
    gate_disagreement,
    model_reliability,
    oracle_per_class_eval,
    specialization_table,
)
from .anytime import convex_envelope, sweep_thresholds
from .data import LabeledDataset, SyntheticSpec, generate_synthetic, load_csv, split
from .errors import ConfigError, DataError, MoeForgeError, PipelineError
from .gate_init import initial_gate, per_class_assignment
from .model import MoEModel, evaluate_dataset, load_model, save_model, slot_macs, top1_slots
from .nn import ForwardPass, SgdConfig, forward_batch
from .training import PipelineResult, TrainPlan, plan_to_doc, run_pipeline

_SGD_KEYS = {
    "learning_rate",
    "momentum",
    "batch_size",
    "epochs",
    "lr_decay_epochs",
    "lr_decay_factor",
}
_SYNTH_KEYS = {
    "num_classes",
    "modes_per_class",
    "dim",
    "mode_stddev",
    "samples_per_mode",
    "seed",
    "mode_means",
}


def _reject_unknown(block: dict, allowed: set[str], path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")


def _sgd_from_doc(doc: dict, path: str) -> SgdConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(doc, _SGD_KEYS, path)
    cfg = SgdConfig()
    try:
        return replace(
            cfg,
            learning_rate=float(doc.get("learning_rate", cfg.learning_rate)),
            momentum=float(doc.get("momentum", cfg.momentum)),
            batch_size=int(doc.get("batch_size", cfg.batch_size)),
            epochs=int(doc.get("epochs", cfg.epochs)),
            lr_decay_epochs=tuple(int(e) for e in doc.get("lr_decay_epochs", ())),
            lr_decay_factor=float(doc.get("lr_decay_factor", cfg.lr_decay_factor)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _synthetic_from_doc(doc: dict, path: str) -> SyntheticSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(doc, _SYNTH_KEYS, path)
    missing = {"num_classes", "modes_per_class", "dim", "mode_stddev", "samples_per_mode", "seed"} - set(doc)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    means = doc.get("mode_means")
    return SyntheticSpec(
        num_classes=int(doc["num_classes"]),
        modes_per_class=int(doc["modes_per_class"]),
        dim=int(doc["dim"]),
        mode_stddev=float(doc["mode_stddev"]),
        samples_per_mode=int(doc["samples_per_mode"]),
        seed=int(doc["seed"]),
        mode_means=np.asarray(means, dtype=np.float64) if means is not None else None,
    )


def _load_data_block(doc: dict, path: str, base_dir: Path) -> list[LabeledDataset]:
    """Build the dataset (and optional split parts) from a config data block."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(doc, {"synthetic", "csv", "num_classes", "split"}, path)
    has_synth = "synthetic" in doc
    has_csv = "csv" in doc
    if has_synth == has_csv:
        raise ConfigError(f"{path}: provide exactly one of 'synthetic' or 'csv'")
    if has_synth:
        spec = _synthetic_from_doc(doc["synthetic"], f"{path}.synthetic")
        try:
            dataset = generate_synthetic(spec).dataset
        except (DataError, MoeForgeError) as exc:
            raise ConfigError(f"{path}.synthetic: {exc}") from exc
    else:
        csv_path = Path(doc["csv"])
        if not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        if not csv_path.exists():
            raise ConfigError(f"{path}.csv: file not found: {csv_path}")
        try:
            dataset = load_csv(csv_path, num_classes=doc.get("num_classes"))
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
    split_doc = doc.get("split")
    if split_doc is None:
        return [dataset]
    _reject_unknown(split_doc, {"fractions", "seed"}, f"{path}.split")
    if "fractions" not in split_doc:
        raise ConfigError(f"{path}.split: missing 'fractions'")
    try:
        return split(
            dataset,
            [float(f) for f in split_doc["fractions"]],
            seed=int(split_doc.get("seed", 0)),
        )
    except DataError as exc:
        raise ConfigError(f"{path}.split: {exc}") from exc


def _plan_from_config(config: dict) -> TrainPlan:
    _reject_unknown(config, {"seed", "output_dir", "workers", "data", "model", "train"}, "")
    for required in ("data", "model", "output_dir"):
        if required not in config:
            raise ConfigError(f"missing required key {required!r}")
    model_doc = config["model"]
    if not isinstance(model_doc, dict):
        raise ConfigError("model must be an object")
    _reject_unknown(
        model_doc, {"layer_dims", "tap_index", "num_experts", "ensembler", "temperature"}, "model"
    )
    if "layer_dims" not in model_doc:
        raise ConfigError("model.layer_dims is required")
    train_doc = config.get("train", {})
    if not isinstance(train_doc, dict):
        raise ConfigError("train must be an object")
    _reject_unknown(
        train_doc,
        {
            "gamma",
            "negative_handling",
            "routing",
            "em_steps",
            "expert_epochs",
            "sgd_base",
            "sgd_gate",
            "sgd_expert",
            "sgd_ensembler",
        },
        "train",
    )

    workers = config.get("workers", 1)
    if type(workers) is not int or workers != 1:  # training is serial; configs may still say 1
        raise ConfigError(f"workers: training runs serially, so only 1 is accepted (got {workers!r})")
    defaults = TrainPlan(layer_dims=(1, 1, 1), num_experts=1)
    temperature = model_doc.get("temperature")
    try:
        plan = TrainPlan(
            layer_dims=tuple(int(d) for d in model_doc["layer_dims"]),
            num_experts=int(model_doc.get("num_experts", 4)),
            tap_index=int(model_doc.get("tap_index", 0)),
            ensembler=str(model_doc.get("ensembler", "bagging")),
            temperature=float(temperature) if temperature is not None else None,
            gamma=float(train_doc.get("gamma", 0.05)),
            negative_handling=str(train_doc.get("negative_handling", "reweight")),
            routing=str(train_doc.get("routing", "per_sample")),
            em_steps=int(train_doc.get("em_steps", 0)),
            expert_epochs=int(train_doc.get("expert_epochs", defaults.expert_epochs)),
            seed=int(config.get("seed", 0)),
            sgd_base=_sgd_from_doc(train_doc.get("sgd_base", {}), "train.sgd_base"),
            sgd_gate=(
                _sgd_from_doc(train_doc["sgd_gate"], "train.sgd_gate")
                if "sgd_gate" in train_doc
                else defaults.sgd_gate
            ),
            sgd_expert=_sgd_from_doc(train_doc.get("sgd_expert", {}), "train.sgd_expert"),
            sgd_ensembler=(
                _sgd_from_doc(train_doc["sgd_ensembler"], "train.sgd_ensembler")
                if "sgd_ensembler" in train_doc
                else defaults.sgd_ensembler
            ),
        )
        plan.validate()
    except ConfigError:
        raise
    except MoeForgeError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if plan.ensembler not in ("none", "bagging", "stacking", "top2"):
        raise ConfigError(f"model.ensembler: unknown kind {plan.ensembler!r}")
    return plan


def _load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _top1_metrics(
    model: MoEModel, ds: LabeledDataset, base: ForwardPass | None = None
) -> tuple[float, float]:
    """Top-1 routed accuracy and the mean per-sample MAC count.

    Each expert runs only on the rows routed to it.  ``base`` is the base's
    forward pass over ``ds`` when the caller already holds it.
    """
    select = lambda base_probs, gate_probs: top1_slots(model, gate_probs)
    ev = evaluate_dataset(model, ds.features, select, base)
    slots = top1_slots(model, ev.gate_probs)
    probs = ev.combined[slots.argmax(axis=1), np.arange(len(ds))]
    accuracy = float((probs.argmax(axis=1) == ds.labels).mean())
    per_row = model.cost.macs_base + model.cost.macs_gate + slot_macs(model, ev.gate_probs, slots)
    return accuracy, float(per_row.sum()) / len(ds)


def _save_trained_model(path: Path, result: PipelineResult) -> None:
    """model.json of a training, reusing the expert text its experts stage encoded."""
    save_model(path, result.model, result.expert_text)


def cmd_train(config_path: str) -> int:
    config = _load_config(config_path)
    plan = _plan_from_config(config)
    parts = _load_data_block(config["data"], "data", Path(config_path).resolve().parent)
    train_ds = parts[0]
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_pipeline(train_ds, plan, out_dir)
    _save_trained_model(out_dir / "model.json", result)

    accuracy, mean_macs = _top1_metrics(result.model, train_ds, result.base_pass)
    artifacts = {}
    for file in sorted(out_dir.rglob("*")):
        if file.is_file() and file.name != "manifest.json":
            artifacts[str(file.relative_to(out_dir))] = _hash_file(file)
    manifest = {
        "config_hash": _config_hash(config),
        "plan": plan_to_doc(plan),
        "seed": plan.seed,
        "tag": "ensembling-baseline" if plan.num_experts == 1 else "mixture",
        "train_samples": len(train_ds),
        "train_accuracy_top1": accuracy,
        "mean_macs_top1": mean_macs,
        "zero_mass_rows": result.zero_mass_rows,
        "stages": [
            {"stage": s.name, "seconds": s.seconds, "loaded": s.loaded} for s in result.stages
        ],
        "artifacts": artifacts,
    }
    jsonio.save_json(out_dir / "manifest.json", manifest, indent=2)
    for record in result.stages:
        status = "loaded" if record.loaded else "trained"
        print(f"stage {record.name}: {status} ({record.seconds:.2f}s)")
    print(f"train accuracy (top-1 routing): {accuracy:.4f}")
    print(f"mean MACs (top-1 routing): {mean_macs:.1f}")
    print(f"model written to {out_dir / 'model.json'}")
    return 0


def _load_eval_data(data_path: str) -> LabeledDataset:
    path = Path(data_path)
    if not path.exists():
        raise ConfigError(f"data file not found: {path}")
    if path.suffix == ".json":
        doc = jsonio.load_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        _reject_unknown(doc, {"synthetic", "split", "take"}, "data")
        if "synthetic" not in doc:
            raise ConfigError(f"{path}: JSON data files need a 'synthetic' block")
        spec = _synthetic_from_doc(doc["synthetic"], "synthetic")
        dataset = generate_synthetic(spec).dataset
        if "split" in doc:
            split_doc = doc["split"]
            _reject_unknown(split_doc, {"fractions", "seed"}, "split")
            parts = split(
                dataset,
                [float(f) for f in split_doc["fractions"]],
                seed=int(split_doc.get("seed", 0)),
            )
            dataset = parts[int(doc.get("take", 0))]
        return dataset
    try:
        return load_csv(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = _load_eval_data(args.data)
    if ds.dim != model.base.input_dim or ds.num_classes != model.num_classes:
        raise ConfigError(
            f"data has dim {ds.dim} / {ds.num_classes} classes, model expects "
            f"{model.base.input_dim} / {model.num_classes}"
        )
    fp = forward_batch(model.base, ds.features)  # shared by every figure below that needs it
    base_acc = float((fp.probs.argmax(axis=1) == ds.labels).mean())
    accuracy, mean_macs = _top1_metrics(model, ds, fp)
    print(f"samples: {len(ds)}")
    print(f"base accuracy: {base_acc:.4f}")
    print(f"top-1 routed accuracy: {accuracy:.4f}")
    print(f"mean MACs (top-1 routing): {mean_macs:.1f}")

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.taus:
        taus = [float(t) for t in args.taus.split(",")]
        curve = sweep_thresholds(model, ds, taus, policy=args.policy)
        envelope = convex_envelope(curve.points)
        print(curve.to_csv(), end="")
        if out_dir is not None:
            curve.save(out_dir / "tradeoff.csv")
            envelope.save(out_dir / "envelope.csv")
            print(f"wrote {out_dir / 'tradeoff.csv'} and {out_dir / 'envelope.csv'}")

    if args.analyze:
        if out_dir is None:
            raise ConfigError("--analyze needs --out DIR")
        spec_table = specialization_table(model, ds)
        (out_dir / "specialization.csv").write_text(spec_table.to_csv())
        (out_dir / "specialization_per_class.csv").write_text(spec_table.per_class().to_csv())
        reliability = model_reliability(model, ds, num_bins=args.num_bins)
        (out_dir / "reliability.csv").write_text(reliability.to_csv())
        wrote = ["specialization.csv", "specialization_per_class.csv", "reliability.csv"]
        if model.centroids is not None:
            init = initial_gate(fp.prelogits, model.centroids, model.temperature)
            trained = model.gate.distribution_batch(fp.prelogits)[:, : model.num_experts]
            report = gate_disagreement(
                init.weights.argmax(axis=1),
                trained.argmax(axis=1),
                ds.labels,
                num_experts=model.num_experts,
            )
            (out_dir / "disagreement_transitions.csv").write_text(report.transitions_csv())
            (out_dir / "disagreement.csv").write_text(
                "fraction\n" + repr(report.fraction) + "\n"
            )
            class_map, _ = per_class_assignment(init, ds.labels)
            oracle_acc = oracle_per_class_eval(model, class_map, ds)
            print(f"gate disagreement vs clustering: {report.fraction:.4f}")
            print(f"oracle per-class accuracy: {oracle_acc:.4f}")
            wrote += ["disagreement.csv", "disagreement_transitions.csv"]
        print(f"wrote analysis files to {out_dir}: {', '.join(wrote)}")
    return 0


_ABLATE_AXES = ("shared_prefix", "gamma", "num_experts", "n_e_schedule")


def _ablate_plan(plan: TrainPlan, axis: str, raw: str) -> tuple[TrainPlan, str]:
    """One modified plan per ablation value, plus its summary label."""
    if axis == "gamma":
        value = float(raw)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"gamma value {raw} outside [0, 1]")
        label = "default" if value == 0.05 else ""
        return replace(plan, gamma=value), label
    if axis == "num_experts":
        value = int(raw)
        if value < 1:
            raise ConfigError(f"num_experts value {raw} must be >= 1")
        label = "ensembling-baseline" if value == 1 else ""
        return replace(plan, num_experts=value), label
    if axis == "shared_prefix":
        value = int(raw)
        last_valid = len(plan.layer_dims) - 3
        if not 0 <= value <= last_valid:
            raise ConfigError(
                f"shared_prefix {raw} out of range: tap must leave an expert tail "
                f"(valid: 0..{last_valid})"
            )
        return replace(plan, tap_index=value), ""
    if axis == "n_e_schedule":
        value = int(raw)
        if value < 0:
            raise ConfigError(f"n_e_schedule value {raw} must be >= 0")
        return replace(plan, em_steps=value), ""
    raise ConfigError(f"unknown ablation axis {axis!r} (choose from {_ABLATE_AXES})")


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    base_plan = _plan_from_config(config)
    parts = _load_data_block(config["data"], "data", Path(args.config).resolve().parent)
    train_ds = parts[0]
    eval_ds = parts[1] if len(parts) > 1 else parts[0]
    if args.axis not in _ABLATE_AXES:
        raise ConfigError(f"unknown ablation axis {args.axis!r} (choose from {_ABLATE_AXES})")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must name at least one value")

    runs = []
    for raw in values:
        plan, label = _ablate_plan(base_plan, args.axis, raw)
        runs.append((raw, plan, label))

    out_root = Path(config["output_dir"]) / "ablate" / args.axis
    lines = ["axis_value,seed,accuracy,mean_macs,label"]
    for raw, plan, label in runs:
        run_dir = out_root / raw.replace("/", "_")
        run_dir.mkdir(parents=True, exist_ok=True)
        result = run_pipeline(train_ds, plan, run_dir)
        _save_trained_model(run_dir / "model.json", result)
        accuracy, mean_macs = _top1_metrics(result.model, eval_ds)
        lines.append(f"{raw},{plan.seed},{accuracy!r},{mean_macs!r},{label}")
        print(f"{args.axis}={raw}: accuracy={accuracy:.4f} mean_macs={mean_macs:.1f}")
    summary = out_root / "summary.csv"
    summary.write_text("\n".join(lines) + "\n")
    print(f"wrote {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moe-forge",
        description="Train and evaluate a single-gate mixture of experts with early exit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the full training pipeline from a JSON config")
    p_train.add_argument("config", help="path to the run configuration JSON")

    p_eval = sub.add_parser("eval", help="evaluate a trained model checkpoint")
    p_eval.add_argument("model", help="path to model.json")
    p_eval.add_argument("data", help="CSV data file or JSON synthetic data spec")
    p_eval.add_argument("--taus", help="comma-separated thresholds for a trade-off sweep")
    p_eval.add_argument(
        "--policy",
        default="alpha_threshold",
        choices=("alpha_threshold", "base_confidence", "gate_confidence", "learned_gate"),
    )
    p_eval.add_argument("--out", help="directory for CSV outputs")
    p_eval.add_argument("--analyze", action="store_true", help="write analysis tables")
    p_eval.add_argument("--num-bins", type=int, default=10, help="reliability bins")

    p_ablate = sub.add_parser("ablate", help="sweep one training axis, one run per value")
    p_ablate.add_argument("config", help="path to the run configuration JSON")
    p_ablate.add_argument("--axis", required=True, help=f"one of {', '.join(_ABLATE_AXES)}")
    p_ablate.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_ablate(args)
    except (ConfigError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MoeForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
