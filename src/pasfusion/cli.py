"""Command-line interface: one executable, JSON configs, dotted-key overrides.

Heavy modules are imported inside ``main`` so ``--deterministic`` can pin the
BLAS/OMP thread environment before numpy loads; that makes repeated runs
bitwise identical regardless of threaded GEMM scheduling.

Exit codes: 0 success, 1 a worker process died, 2 configuration/usage,
3 data (also an input of a shape the model rejects), 4 numeric failure.
``--verbose`` sends the ``pasfusion`` logger's INFO lines to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import write_atomic
from .config import NUMBER, ConfigError, check

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass
class CliConfig:
    command: str
    out_dir: str
    overrides: list[str] = field(default_factory=list)
    seed: int | None = None
    profile: str | None = None
    deterministic: bool = False
    verbose: bool = False
    config: dict = field(default_factory=dict)


class _Once(argparse.Action):
    """Reject conflicting duplicate occurrences of a scalar flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = getattr(namespace, f"_seen_{self.dest}", False)
        if seen:
            parser.error(f"duplicate flag {option_string}")
        setattr(namespace, f"_seen_{self.dest}", True)
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasfusion",
        description="Multimodal MRI+US classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", action=_Once, help="JSON config file")
        p.add_argument("--out", action=_Once, required=True, help="output directory")
        p.add_argument("--seed", action=_Once, type=int, help="override the config seed")
        p.add_argument("--profile", action=_Once, choices=("paper", "micro"),
                       help="override the scale profile")
        p.add_argument("--deterministic", action="store_true",
                       help="pin threading for bitwise-reproducible runs")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="dotted-key config override (repeatable)")
        p.add_argument("--verbose", action="store_true",
                       help="log progress to stderr")
    return parser


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not KEY=VALUE")
    key, raw = item.split("=", 1)
    if not key:
        raise ConfigError(f"override {item!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_override(config: dict, path: list[str], value) -> None:
    node = config
    for part in path[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"override path {'.'.join(path)!r} not in config")
        node = node[part]
    if not isinstance(node, dict) or path[-1] not in node:
        raise ConfigError(f"override path {'.'.join(path)!r} not in config")
    node[path[-1]] = value


def parse_args(argv=None) -> CliConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    config: dict = {}
    if ns.config is not None:
        try:
            config = json.loads(Path(ns.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {ns.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
    for item in ns.overrides:
        path, value = _parse_override(item)
        _apply_override(config, path, value)
    return CliConfig(command=ns.command, out_dir=ns.out,
                     overrides=list(ns.overrides), seed=ns.seed,
                     profile=ns.profile, deterministic=ns.deterministic,
                     verbose=ns.verbose, config=config)


def _write_run_record(cli: CliConfig, extra: dict | None = None) -> None:
    from . import __version__

    canonical = json.dumps(cli.config, sort_keys=True).encode()
    payload = {
        "command": cli.command,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "config": cli.config,
        "overrides": cli.overrides,
        "seed": cli.seed,
        "profile": cli.profile,
        "deterministic": cli.deterministic,
        "version": __version__,
    }
    if not cli.deterministic:
        import time
        payload["wallclock"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if extra:
        payload.update(extra)
    out = Path(cli.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "run.json", json.dumps(payload, indent=1, sort_keys=True))


def _require(config: dict, key: str, kinds: tuple = (str,)):
    """``config[key]``, which must be present and of one of ``kinds``."""
    if key not in config:
        raise ConfigError(f"config key {key!r} is required for this command")
    return check(config[key], key, kinds)


def _with_flags(fields: dict, **flags) -> dict:
    """``fields`` with each command-line flag that was given in place."""
    return {**fields, **{k: v for k, v in flags.items() if v is not None}}


def _build(cls, fields: dict, name: str, **flags):
    """``cls`` built from the JSON object ``fields`` and the given ``flags``.
    The dataclass checks each value; an unknown key is a ConfigError too."""
    try:
        return cls(**_with_flags(fields, **flags))
    except TypeError as exc:
        raise ConfigError(f"bad {name} config: {exc}") from None


# -- command implementations ---------------------------------------------------

def _cmd_synth(cli: CliConfig) -> int:
    """generate a synthetic paired dataset and manifest"""
    from .datapipe import stratified_split
    from .synthgen import SynthSpec, generate_dataset

    cfg = dict(cli.config)
    split_ratios = check(cfg.pop("split_ratios", None), "split_ratios", (list, None))
    split_seed = check(cfg.pop("split_seed", 0), "split_seed", (int,), lambda v: v >= 0, ">= 0")
    for r in split_ratios or ():
        check(r, "split_ratios", NUMBER, lambda v: v >= 0, ">= 0")
    spec = _build(SynthSpec, cfg, "synth", seed=cli.seed, profile=cli.profile)
    manifest = generate_dataset(spec, cli.out_dir)
    if split_ratios is not None:
        stratified_split(manifest, tuple(split_ratios), split_seed)
        manifest.save(Path(cli.out_dir) / "manifest.json")
    _write_run_record(cli, {"n_pairs": spec.n_pairs})
    print(f"wrote {spec.n_pairs} pairs to {cli.out_dir}")
    return EXIT_OK


def _cmd_preprocess(cli: CliConfig) -> int:
    """preprocess every sample of a manifest to model grids"""
    import numpy as np

    from .datapipe import SampleManifest, write_rimg, write_rvol
    from .models.profiles import get_profile
    from .trainer import PreprocessCache

    profile = get_profile(cli.profile or cli.config.get("profile", "micro"))
    manifest = SampleManifest.load(_require(cli.config, "manifest"))
    cache = PreprocessCache(profile)
    out = Path(cli.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    renamed = {}
    for s in manifest.samples:
        stem = Path(s.uri).stem
        if s.modality == "mri":
            new_uri = str(out / f"{stem}_pp.rvol")
            write_rvol(new_uri, cache.volume(s.uri))
        else:
            new_uri = str(out / f"{stem}_pp.rimg")
            # store the mean channel; preprocessing re-expands to 3 channels
            write_rimg(new_uri, np.ascontiguousarray(cache.image(s.uri)[0]))
        renamed[s.uri] = new_uri
        s.uri = new_uri
    for p in manifest.pairing:
        p.mri = renamed.get(p.mri, p.mri)
        p.us = renamed.get(p.us, p.us)
    manifest.save(out / "manifest.json")
    _write_run_record(cli, {"n_samples": len(manifest.samples)})
    print(f"preprocessed {len(manifest.samples)} samples into {out}")
    return EXIT_OK


def _train_config_from(cli: CliConfig):
    from .trainer import TrainConfig

    return _build(TrainConfig, _require(cli.config, "trainer", (dict,)), "trainer",
                  seed=cli.seed, profile=cli.profile)


def _epoch_csv(path, record) -> None:
    from .evalstats import write_metrics_csv

    rows = [{"epoch": i, "train_loss": tl, "val_loss": vl, "val_accuracy": va,
             "lr": lr}
            for i, (tl, vl, va, lr) in enumerate(
                zip(record.train_loss, record.val_loss, record.val_accuracy,
                    record.lr_trace))]
    write_metrics_csv(path, rows, ["epoch", "train_loss", "val_loss",
                                   "val_accuracy", "lr"])


def _cmd_train(cli: CliConfig) -> int:
    """train one model per the training config"""
    from .datapipe import SampleManifest
    from .evalstats import write_json
    from .trainer import train

    config = _train_config_from(cli)
    manifest = SampleManifest.load(_require(cli.config, "manifest"))
    record, _ctx = train(config, manifest, out_dir=cli.out_dir)
    out = Path(cli.out_dir)
    write_json(out / "record.json", record.as_dict())
    _epoch_csv(out / "epochs.csv", record)
    _write_run_record(cli, {"best_epoch": record.best_epoch,
                            "best_val_accuracy": record.best_val_accuracy})
    print(f"best val accuracy {record.best_val_accuracy:.4f} "
          f"at epoch {record.best_epoch}")
    return EXIT_OK


def _cmd_multirun(cli: CliConfig) -> int:
    """repeat training over n seeds and aggregate"""
    from .datapipe import SampleManifest
    from .evalstats import METRIC_NAMES, write_json, write_metrics_csv
    from .trainer import multi_run

    config = _train_config_from(cli)
    manifest = SampleManifest.load(_require(cli.config, "manifest"))
    run_shape = {"n_runs": cli.config["n_runs"]} if "n_runs" in cli.config else {}
    result = multi_run(config, manifest, out_dir=cli.out_dir, **run_shape)
    n_runs = len(result["records"])
    out = Path(cli.out_dir)
    write_json(out / "summary.json", {
        "summary": result["summary"], "metrics": result["metrics"],
        "records": [r.as_dict() for r in result["records"]],
    })
    rows = [dict(run=i, **m) for i, m in enumerate(result["metrics"])]
    write_metrics_csv(out / "runs.csv", rows, ["run", *METRIC_NAMES])
    _write_run_record(cli, {"n_runs": n_runs})
    acc = result["summary"]["accuracy"]
    print(f"accuracy best {acc['best']:.4f} mean {acc['mean']:.4f} "
          f"± {acc['std']:.4f} over {n_runs} runs")
    return EXIT_OK


def _cmd_compare(cli: CliConfig) -> int:
    """three-model comparative protocol on a shared paired test set"""
    from .datapipe import SampleManifest
    from .evalstats import METRIC_NAMES, grouped_bar_svg, roc_svg, write_json, write_metrics_csv
    from .trainer import comparative_protocol

    keys = ("epochs", "base_seed", "n_runs", "batch_size", "profile")
    run_shape = _with_flags({k: cli.config[k] for k in keys if k in cli.config},
                            base_seed=cli.seed, profile=cli.profile)
    manifests = _require(cli.config, "manifests", (dict,))
    mri = SampleManifest.load(_require(manifests, "mri"))
    us = SampleManifest.load(_require(manifests, "us"))
    paired = SampleManifest.load(_require(manifests, "paired"))
    result = comparative_protocol(mri, us, paired, out_dir=cli.out_dir, **run_shape)

    out = Path(cli.out_dir)
    write_json(out / "metrics.json", result["metrics"])
    write_json(out / "summaries.json", result["summaries"])
    write_json(out / "comparison.json", result["comparison"])
    write_json(out / "records.json", {
        m: [r.as_dict() for r in rs] for m, rs in result["records"].items()})
    rows = [dict(model=m, run=i, **metrics)
            for m, per_run in result["metrics"].items()
            for i, metrics in enumerate(per_run)]
    write_metrics_csv(out / "runs.csv", rows, ["model", "run", *METRIC_NAMES])
    write_atomic(out / "roc.svg", roc_svg(result["roc"], title="shared test set ROC"))
    series = {m: [result["summaries"][m][k]["mean"] for k in METRIC_NAMES]
              for m in result["metrics"]}
    write_atomic(out / "metrics.svg",
                 grouped_bar_svg(METRIC_NAMES, series, title="mean test metrics"))
    _write_run_record(cli, {"test_size": result["test_size"]})
    for model, summary in result["summaries"].items():
        acc = summary["accuracy"]
        print(f"{model}: accuracy best {acc['best']:.4f} "
              f"mean {acc['mean']:.4f} ± {acc['std']:.4f}")
    return EXIT_OK


def _checkpoint_split(cli: CliConfig):
    """The config's checkpoint as an eval-mode model, with its kind, the
    manifest split, that split's items for the kind and a ``PreprocessCache``
    at the resolved profile."""
    from .datapipe import SampleManifest
    from .models import build_model, get_profile
    from .ndcore import ContainerError
    from .trainer import MODEL_KINDS, PreprocessCache, items_for, load_checkpoint

    path = _require(cli.config, "checkpoint")
    state, sidecar = load_checkpoint(path)
    kind = sidecar.get("model")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"checkpoint sidecar lacks a valid model kind: {kind!r}")
    try:
        profile = get_profile(cli.profile or sidecar.get("profile", "micro"))
        seed = int(sidecar.get("seed", 0))
    except (TypeError, ValueError) as exc:     # a ConfigError too
        raise ContainerError(f"{path}: bad checkpoint sidecar: {exc}") from None
    model = build_model(kind, profile, seed=seed)
    model.load_state_arrays(state)
    model.eval()
    manifest = SampleManifest.load(_require(cli.config, "manifest"))
    split = check(cli.config.get("split", "test"), "split", (str,))
    return model, kind, split, items_for(manifest, kind, split), PreprocessCache(profile)


def _cmd_eval(cli: CliConfig) -> int:
    """evaluate a checkpoint on a manifest split"""
    from .evalstats import report_from_scores, roc_svg, write_json
    from .trainer import DataError, TrainConfig, evaluate

    model, kind, split, items, cache = _checkpoint_split(cli)
    if not items:
        raise DataError(f"no {kind} samples in split {split!r}")
    cfg = TrainConfig(model=kind, profile=cache.profile.name).resolved()
    result = evaluate(model, items, cache, cfg)
    report = report_from_scores(result["labels"], result["scores"])
    out = Path(cli.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "metrics.json", report.as_dict())
    write_atomic(out / "roc.svg", roc_svg({kind: report.roc_points}))
    _write_run_record(cli, {"split": split, "n": len(items)})
    print(f"{kind} on {split}: accuracy {report.accuracy:.4f} auc {report.auc:.4f}")
    return EXIT_OK


def _cmd_explain(cli: CliConfig) -> int:
    """emit Grad-CAM overlays for chosen samples"""
    from .evalstats import write_json
    from .gradcam import gradcam, render_overlay

    model, kind, split, items, cache = _checkpoint_split(cli)
    class_index = check(cli.config.get("class_index", 1), "class_index", (int,))
    limit = check(cli.config.get("max_samples", 4), "max_samples", (int,), lambda v: v >= 0,
                  ">= 0")
    wanted = check(cli.config.get("patients"), "patients", (list, None),
                   lambda v: all(type(p) is str for p in v), "of patient ids")
    if wanted:
        items = [it for it in items if it.patient_id in set(wanted)]
    items = items[:limit]

    targets = model.cam_targets() if kind == "fusion" else {kind: model.cam_target()}
    index = []
    out = Path(cli.out_dir)
    for it in items:
        source = {b: cache.volume(it.mri_uri) if b == "mri" else cache.image(it.us_uri)
                  for b in targets}
        inputs = tuple(a[None] if b == "mri" else a for b, a in source.items())
        for branch, conv in targets.items():
            heat = gradcam(model, inputs, class_index, target=conv,
                           sample_id=it.patient_id)
            index.append(render_overlay(heat, source[branch], out,
                                        stem=f"{it.patient_id}_{branch}"))
    write_json(out / "explain_index.json", index)
    _write_run_record(cli, {"n_explained": len(items), "class_index": class_index})
    print(f"wrote Grad-CAM overlays for {len(items)} samples to {out}")
    return EXIT_OK


def _cmd_stats(cli: CliConfig) -> int:
    """statistical comparison report from per-run metrics"""
    from .evalstats import METRIC_NAMES, compare_models, write_json
    from .trainer import DataError

    metrics, error = cli.config.get("metrics"), ConfigError
    if metrics is None:
        path, error = _require(cli.config, "metrics_file"), DataError
        try:
            metrics = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise DataError(f"{path} is not JSON: {exc}") from None
    if not (isinstance(metrics, dict) and all(
            isinstance(runs, list) and all(isinstance(run, dict) and all(
                type(run.get(k)) in (int, float) for k in METRIC_NAMES) for run in runs)
            for runs in metrics.values())):
        raise error("metrics must map each model to a list of runs, each an object "
                    f"of numbers for {', '.join(METRIC_NAMES)}")
    alpha = float(check(cli.config.get("alpha", 0.05), "alpha", NUMBER, lambda v: 0 < v < 1,
                        "in (0, 1)"))
    result = compare_models(metrics, alpha=alpha)
    out = Path(cli.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "comparison.json", result)
    _write_run_record(cli, {"models": result["models"]})
    n_sig = sum(1 for m in result["metrics"].values()
                for p in m["pairwise"].values() if p["significant"])
    print(f"{n_sig} significant pairwise differences at alpha {result['alpha']}")
    return EXIT_OK


# the one list of subcommands; each implementation's docstring is its help line
_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "multirun": _cmd_multirun,
    "compare": _cmd_compare,
    "eval": _cmd_eval,
    "explain": _cmd_explain,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--deterministic" in argv:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = "1"
    try:
        cli = parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from .datapipe import ManifestError, NiftiError, PreprocessError, RawFormatError
    from .evalstats import MetricsError, StatsError
    from .ndcore import ContainerError, ShapeError
    from .trainer import DataError, NumericError, WorkerError

    log = logging.getLogger("pasfusion")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    if cli.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return _COMMANDS[cli.command](cli)
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ManifestError, NiftiError, RawFormatError, PreprocessError,
            ContainerError, DataError, ShapeError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, MetricsError, StatsError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
