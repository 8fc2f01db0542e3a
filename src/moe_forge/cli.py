"""Command-line entry points: train, eval, ablate.

Configs are JSON; unknown keys and values of the wrong JSON type are rejected
so typos fail loudly.  Exit codes: 0 success, 1 runtime failure, 2 invalid
configuration or inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import jsonio
from .analysis import (
    gate_disagreement,
    model_reliability,
    oracle_per_class_eval,
    specialization_table,
)
from .anytime import POLICIES, AnytimeConfig, convex_envelope, sweep_thresholds
from .data import LabeledDataset, SyntheticSpec, generate_synthetic, load_csv, split
from .errors import ConfigError, DataError, MoeForgeError, PipelineError, ShapeError
from .gate_init import initial_gate, per_class_assignment
from .model import MoEModel, evaluate_dataset, load_model, save_model, slot_macs, top1_slots
from .nn import ForwardPass, SgdConfig, forward_batch
from .training import TrainPlan, run_pipeline


class _List(NamedTuple):
    """The JSON kind of a list of numbers nested ``ndim`` deep, read as an array of ``dtype``."""

    dtype: type
    ndim: int


# The keys of each config block and their JSON kinds.  A key a config leaves out takes the
# default of the dataclass field it sets; the ranges of the values are checked there too.
_CONFIG = {"seed": int, "output_dir": str, "workers": int, "data": dict, "model": dict, "train": dict}
_MODEL = {
    "layer_dims": _List(np.int64, 1),
    "tap_index": int,
    "num_experts": int,
    "ensembler": str,
    "temperature": (float, type(None)),
}
_TRAIN = {
    "gamma": float,
    "negative_handling": str,
    "routing": str,
    "em_steps": int,
    "expert_epochs": int,
    "sgd_base": dict,
    "sgd_gate": dict,
    "sgd_expert": dict,
    "sgd_ensembler": dict,
}
_SGD = {
    "learning_rate": float,
    "momentum": float,
    "batch_size": int,
    "epochs": int,
    "lr_decay_epochs": _List(np.int64, 1),
    "lr_decay_factor": float,
}
_DATA = {"synthetic": dict, "csv": str, "num_classes": int, "split": dict}
_EVAL_DATA = {**_DATA, "take": int}  # an eval data file may also name the split part to evaluate
_SYNTHETIC = {
    "num_classes": int,
    "modes_per_class": int,
    "dim": int,
    "mode_stddev": float,
    "samples_per_mode": int,
    "seed": int,
    "mode_means": _List(np.float64, 2),
}
_SPLIT = {"fractions": _List(np.float64, 1), "seed": int}


def _required(cls: type) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` that have no default."""
    return tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)


def _read(doc: dict, table: dict, where: str, required: tuple[str, ...] = ()) -> dict:
    """The keys of the block ``doc`` at key path ``where``, each read as its kind in ``table``.

    An unknown key, a missing ``required`` key or a value of another JSON kind is a
    ConfigError naming the key.  A number key given an integer reads as that float; a
    list key reads as a tuple when flat and as an array when nested.
    """
    for key in doc:
        if key not in table:
            raise ConfigError(f"unknown key {jsonio.key_path(where, key)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing key {jsonio.key_path(where, key)!r}")
    values = {}
    try:
        for key in doc:
            kind = table[key]
            if isinstance(kind, _List):
                array = jsonio.get_array(doc, key, None, where, kind.dtype)
                if array.ndim != kind.ndim:
                    raise ConfigError(
                        f"key {jsonio.key_path(where, key)!r}: expected a list nested {kind.ndim} deep"
                    )
                values[key] = tuple(array.tolist()) if kind.ndim == 1 else array
            else:
                value = jsonio.get_value(doc, key, kind, where)
                values[key] = float(value) if type(value) is int and kind is not int else value
    except PipelineError as exc:
        raise ConfigError(str(exc)) from exc
    return values


def _checked(plan: TrainPlan, prefix: str = "") -> TrainPlan:
    """``plan``, once ``TrainPlan.validate`` passes it; its error becomes a ConfigError."""
    try:
        plan.validate()
    except (MoeForgeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc
    return plan


def _plan_from_config(config: dict) -> TrainPlan:
    workers = config.get("workers", 1)
    if type(workers) is not int or workers != 1:  # training is serial; configs may still say 1
        raise ConfigError(f"workers: training runs serially, so only 1 is accepted (got {workers!r})")
    top = _read(config, _CONFIG, "", required=("data", "model", "output_dir"))
    values = _read(top["model"], _MODEL, "model", required=_required(TrainPlan))
    for key, value in _read(top.get("train", {}), _TRAIN, "train").items():
        # A given sgd_* block starts from SgdConfig(); an absent one keeps the plan's stage default.
        values[key] = SgdConfig(**_read(value, _SGD, f"train.{key}")) if _TRAIN[key] is dict else value
    if "seed" in top:
        values["seed"] = top["seed"]
    return _checked(TrainPlan(**values))


def _load_csv(path: Path, num_classes: int | None) -> LabeledDataset:
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        return load_csv(path, num_classes)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


def _load_data_block(
    doc: dict, where: str, base_dir: Path, table: dict = _DATA, num_classes: int | None = None
) -> list[LabeledDataset]:
    """The dataset of the data block ``doc`` at key path ``where``, or its split parts.

    A CSV path is relative to ``base_dir``; ``num_classes`` is the class count of a CSV
    whose block sets none (None: its largest label + 1).  A ``take`` key, which
    ``_EVAL_DATA`` admits, keeps only the part it indexes.
    """
    values = _read(doc, table, where)
    if ("synthetic" in values) == ("csv" in values):
        raise ConfigError(f"{where or 'data'}: provide exactly one of 'synthetic' or 'csv'")
    if "csv" in values:
        parts = [_load_csv(base_dir / values["csv"], values.get("num_classes", num_classes))]
    else:
        synth_where = jsonio.key_path(where, "synthetic")
        spec = SyntheticSpec(**_read(values["synthetic"], _SYNTHETIC, synth_where, _required(SyntheticSpec)))
        try:
            parts = [generate_synthetic(spec).dataset]
        except MoeForgeError as exc:
            raise ConfigError(f"{synth_where}: {exc}") from exc
    if "split" in values:
        split_where = jsonio.key_path(where, "split")
        how = _read(values["split"], _SPLIT, split_where, required=("fractions",))
        try:
            parts = split(parts[0], how["fractions"], seed=how.get("seed", 0))
        except DataError as exc:
            raise ConfigError(f"{split_where}: {exc}") from exc
    if "take" in values:
        take, take_where = values["take"], jsonio.key_path(where, "take")
        if not 0 <= take < len(parts):
            raise ConfigError(f"key {take_where!r}: no part {take} among parts 0..{len(parts) - 1}")
        parts = [parts[take]]
    return parts


def _load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        config = jsonio.load_json(path)
    except PipelineError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


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


def _training_data(config: dict, config_path: str, plan: TrainPlan) -> list[LabeledDataset]:
    """The parts of the config's data block; the first, the training set, must fit the plan."""
    parts = _load_data_block(config["data"], "data", Path(config_path).resolve().parent)
    try:
        plan.check_data(parts[0])
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc
    return parts


def cmd_train(config_path: str) -> int:
    config = _load_config(config_path)
    plan = _plan_from_config(config)
    train_ds = _training_data(config, config_path, plan)[0]
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_pipeline(train_ds, plan, out_dir)
    save_model(out_dir / "model.json", result.model, result.expert_text)

    accuracy, mean_macs = _top1_metrics(result.model, train_ds, result.base_pass)
    artifacts = {}
    for file in sorted(out_dir.rglob("*")):
        if file.is_file() and file.name != "manifest.json":
            artifacts[str(file.relative_to(out_dir))] = hashlib.sha256(file.read_bytes()).hexdigest()
    manifest = {
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "plan": asdict(plan),
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


def _load_eval_data(path: Path, num_classes: int) -> LabeledDataset:
    """An eval data file: a CSV of ``num_classes`` classes, or a JSON object of a config's data
    keys plus ``take``, the index of the split part to evaluate (the first when absent)."""
    if path.suffix != ".json":
        return _load_csv(path, num_classes)
    doc = _load_config(path)
    try:
        return _load_data_block(doc, "", path.parent, _EVAL_DATA, num_classes)[0]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = _load_eval_data(Path(args.data), model.num_classes)
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
        curve = sweep_thresholds(model, ds, taus, policy=args.policy, base=fp)
        envelope = convex_envelope(curve.points)
        print(curve.to_csv(), end="")
        if out_dir is not None:
            curve.save(out_dir / "tradeoff.csv")
            envelope.save(out_dir / "envelope.csv")
            print(f"wrote {out_dir / 'tradeoff.csv'} and {out_dir / 'envelope.csv'}")

    if args.analyze:
        if out_dir is None:
            raise ConfigError("--analyze needs --out DIR")
        ev = evaluate_dataset(model, ds.features, base=fp)
        spec_table = specialization_table(ev, ds)
        (out_dir / "specialization.csv").write_text(spec_table.to_csv())
        (out_dir / "specialization_per_class.csv").write_text(spec_table.per_class().to_csv())
        reliability = model_reliability(ev, ds, num_bins=args.num_bins)
        (out_dir / "reliability.csv").write_text(reliability.to_csv())
        wrote = ["specialization.csv", "specialization_per_class.csv", "reliability.csv"]
        if model.centroids is not None:
            init = initial_gate(fp.prelogits, model.centroids, model.temperature)
            report = gate_disagreement(
                init.weights.argmax(axis=1),
                ev.gate_probs.argmax(axis=1),
                ds.labels,
                num_experts=model.num_experts,
            )
            (out_dir / "disagreement_transitions.csv").write_text(report.transitions_csv())
            (out_dir / "disagreement.csv").write_text(
                "fraction\n" + repr(report.fraction) + "\n"
            )
            class_map, _ = per_class_assignment(init, ds.labels)
            oracle_acc = oracle_per_class_eval(ev, class_map, ds)
            print(f"gate disagreement vs clustering: {report.fraction:.4f}")
            print(f"oracle per-class accuracy: {oracle_acc:.4f}")
            wrote += ["disagreement.csv", "disagreement_transitions.csv"]
        print(f"wrote analysis files to {out_dir}: {', '.join(wrote)}")
    return 0


# Each ablation axis: the TrainPlan field its values set and how they parse.
_ABLATE_AXES = {
    "shared_prefix": ("tap_index", int),
    "gamma": ("gamma", float),
    "num_experts": ("num_experts", int),
    "n_e_schedule": ("em_steps", int),
}


def _ablate_plan(plan: TrainPlan, axis: str, raw: str) -> tuple[TrainPlan, str]:
    """The plan with the field of ``axis`` set to the value ``raw``, plus its summary label."""
    field, parse = _ABLATE_AXES[axis]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{axis} value {raw!r}: {exc}") from exc
    plan = _checked(replace(plan, **{field: value}), f"{axis}={raw}: ")
    if axis == "gamma" and value == TrainPlan.gamma:
        return plan, "default"
    return plan, "ensembling-baseline" if axis == "num_experts" and value == 1 else ""


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    base_plan = _plan_from_config(config)
    parts = _training_data(config, args.config, base_plan)
    train_ds = parts[0]
    eval_ds = parts[1] if len(parts) > 1 else parts[0]
    if args.axis not in _ABLATE_AXES:
        raise ConfigError(f"unknown ablation axis {args.axis!r} (choose from {tuple(_ABLATE_AXES)})")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must name at least one value")
    runs = [(raw, *_ablate_plan(base_plan, args.axis, raw)) for raw in values]

    out_root = Path(config["output_dir"]) / "ablate" / args.axis
    lines = ["axis_value,seed,accuracy,mean_macs,label"]
    for raw, plan, label in runs:
        run_dir = out_root / raw.replace("/", "_")
        run_dir.mkdir(parents=True, exist_ok=True)
        result = run_pipeline(train_ds, plan, run_dir)
        save_model(run_dir / "model.json", result.model, result.expert_text)
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
    p_eval.add_argument("data", help="CSV data file, or JSON of a config's data keys plus take")
    p_eval.add_argument("--taus", help="comma-separated thresholds for a trade-off sweep")
    p_eval.add_argument("--policy", default=AnytimeConfig.policy, choices=POLICIES)
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
    except (ConfigError, PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MoeForgeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
