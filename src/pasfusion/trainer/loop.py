"""Training protocol: per-model loss configuration, epoch loop with
best-validation-accuracy checkpointing, multi-run repetition and the
three-model comparative protocol on a shared paired test set."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .. import ndcore as ndc
from ..datapipe import SampleManifest, class_weights
from ..evalstats import report_from_scores
from ..models import build_model
from ..models.profiles import get_profile
from .checkpoint import load_checkpoint, save_checkpoint, snapshot_state
from .data import (
    DataError,
    Item,
    PreprocessCache,
    assemble_batch,
    build_training_items,
    epoch_batches,
    items_for,
    items_from_pairs,
)
from .optim import Adam, PlateauScheduler, SchedulerConfig

MODEL_KINDS = ("mri", "us", "fusion")


class NumericError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    model: str
    profile: str = "micro"
    lr: float = 1e-4
    batch_size: int = 8
    epochs: int = 10
    label_smoothing: Optional[float] = None
    dropout: Optional[float] = None
    scheduler: Optional[SchedulerConfig] = None
    use_scheduler: Optional[bool] = None     # None -> on for unimodal, off for fusion
    augment: Optional[bool] = None           # None -> on for unimodal, off for fusion
    oversample: Optional[bool] = None        # None -> on for mri only
    weighted_loss: Optional[bool] = None     # None -> on for us only
    seed: int = 0
    warm_start: Optional[tuple] = None       # (mri checkpoint, us checkpoint) paths

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.batch_size < 1 or self.lr <= 0:
            raise ValueError("batch_size must be >= 1 and lr > 0")

    def resolved(self) -> "TrainConfig":
        """Fill model-specific defaults: CE for unimodal (smoothing 0.1 and
        class weights for US, oversampling for MRI), BCE + no scheduler for
        fusion, dropout 0.5 MRI / 0.3 fusion."""
        cfg = replace(self)
        if cfg.label_smoothing is None:
            cfg.label_smoothing = 0.1 if cfg.model == "us" else 0.0
        if cfg.dropout is None:
            cfg.dropout = {"mri": 0.5, "us": 0.0, "fusion": 0.3}[cfg.model]
        if cfg.use_scheduler is None:
            cfg.use_scheduler = cfg.model != "fusion"
        if cfg.scheduler is None:
            cfg.scheduler = SchedulerConfig()
        if cfg.augment is None:
            cfg.augment = cfg.model != "fusion"
        if cfg.oversample is None:
            cfg.oversample = cfg.model == "mri"
        if cfg.weighted_loss is None:
            cfg.weighted_loss = cfg.model == "us"
        return cfg


@dataclass
class RunRecord:
    model: str
    seed: int
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    lr_trace: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = -1.0
    test_metrics: Optional[dict] = None
    checkpoint_path: Optional[str] = None
    # (fpr, tpr, threshold) of the test score; kept out of the reports
    roc_points: Optional[list] = None

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["roc_points"]
        return out


def best_epoch_index(val_accuracy: list[float]) -> int:
    """Argmax with ties resolved to the earliest epoch."""
    best, idx = -math.inf, -1
    for i, acc in enumerate(val_accuracy):
        if acc > best:
            best, idx = acc, i
    return idx


def _model_inputs(batch, model_kind: str):
    if model_kind == "mri":
        return (ndc.Tensor(batch["volumes"]),)
    if model_kind == "us":
        return (ndc.Tensor(batch["images"]),)
    return (ndc.Tensor(batch["volumes"]), ndc.Tensor(batch["images"]))


def _loss(output, labels, cfg: TrainConfig, weights):
    if cfg.model == "fusion":
        return ndc.bce_loss(output.probability, labels.astype(np.float32))
    return ndc.cross_entropy(output.logits, labels, class_weights=weights,
                             label_smoothing=cfg.label_smoothing)


def _scores(output) -> np.ndarray:
    """Positive-class probability: the last column of (B, 1) or (B, 2)."""
    return output.probability.data[:, -1].astype(np.float64)


def evaluate(model, items: list[Item], cache: PreprocessCache,
             cfg: TrainConfig, weights=None):
    """Eval-mode pass over ``items``: labels, scores, mean loss."""
    model.eval()
    bs = cfg.batch_size
    labels_all, scores_all = [], []
    loss_total, n_total = 0.0, 0
    with ndc.no_grad():
        for start in range(0, len(items), bs):
            chunk = items[start:start + bs]
            batch = assemble_batch(chunk, cache, cfg.model, augment=False,
                                   seed=cfg.seed, epoch=0)
            out = model(*_model_inputs(batch, cfg.model))
            loss = _loss(out, batch["labels"], cfg, weights)
            loss_total += loss.data.item() * len(chunk)
            n_total += len(chunk)
            labels_all.append(batch["labels"])
            scores_all.append(_scores(out))
    labels = np.concatenate(labels_all)
    scores = np.concatenate(scores_all)
    accuracy = float(np.mean((scores >= 0.5).astype(int) == labels))
    return {"labels": labels, "scores": scores,
            "loss": loss_total / n_total, "accuracy": accuracy}


def _class_weight_vector(items: list[Item]) -> np.ndarray:
    counts = np.bincount([it.label for it in items], minlength=2)
    return class_weights(counts).astype(np.float32)


def train(config: TrainConfig, manifest: SampleManifest,
          out_dir: Optional[str] = None,
          cache: Optional[PreprocessCache] = None,
          warm_states: Optional[tuple] = None,
          test_items: Optional[list[Item]] = None) -> tuple[RunRecord, object]:
    """Run the full protocol for one seed; returns (record, best-state model).

    ``warm_states`` short-circuits ``config.warm_start`` with in-memory state
    dicts (used by the comparative protocol to avoid re-reading files).
    ``test_items`` are scored with the best weights into ``test_metrics`` and
    ``roc_points``; by default the manifest's own test split.
    """
    cfg = config.resolved()
    if test_items is None:
        test_items = items_for(manifest, cfg.model, "test")
    if test_items and len({it.label for it in test_items}) < 2:
        # its AUC is undefined; fail before training, not after
        raise DataError(f"{cfg.model} test split holds a single class")
    profile = get_profile(cfg.profile)
    cache = cache or PreprocessCache(profile)
    train_items, val_items = build_training_items(
        manifest, cfg.model, oversample=cfg.oversample, seed=cfg.seed)

    model = build_model(cfg.model, profile, seed=cfg.seed, dropout=cfg.dropout)
    if cfg.model == "fusion":
        states = warm_states
        if states is None and cfg.warm_start is not None:
            states = (load_checkpoint(cfg.warm_start[0])[0],
                      load_checkpoint(cfg.warm_start[1])[0])
        if states is not None:
            model.warm_start(*states)
    model.rng_holder.reseed(cfg.seed + 0x5EED)

    weights = _class_weight_vector(train_items) if cfg.weighted_loss else None
    opt = Adam(model.parameters(), lr=cfg.lr)
    sched = PlateauScheduler(opt, cfg.scheduler) if cfg.use_scheduler else None

    record = RunRecord(model=cfg.model, seed=cfg.seed)
    best_state = None
    best_adam_t = 0

    for epoch in range(cfg.epochs):
        model.train()
        epoch_loss, n_seen = 0.0, 0
        for batch_idx, chunk in enumerate(
                epoch_batches(train_items, cfg.batch_size, cfg.seed, epoch)):
            batch = assemble_batch(chunk, cache, cfg.model, augment=cfg.augment,
                                   seed=cfg.seed, epoch=epoch)
            with ndc.Tape():
                out = model(*_model_inputs(batch, cfg.model))
                loss = _loss(out, batch["labels"], cfg, weights)
                loss_val = loss.data.item()
                if not math.isfinite(loss_val):
                    raise NumericError(
                        f"non-finite loss {loss_val} (model={cfg.model}, "
                        f"epoch={epoch}, batch={batch_idx}, lr={opt.lr:g})")
                ndc.backward(loss)
            opt.step()
            opt.zero_grad()
            epoch_loss += loss_val * len(chunk)
            n_seen += len(chunk)

        val = evaluate(model, val_items, cache, cfg, weights)
        record.train_loss.append(epoch_loss / n_seen)
        record.val_loss.append(val["loss"])
        record.val_accuracy.append(val["accuracy"])
        record.lr_trace.append(opt.lr)
        if sched is not None:
            sched.step(val["loss"])

        if val["accuracy"] > record.best_val_accuracy:
            record.best_val_accuracy = val["accuracy"]
            record.best_epoch = epoch
            best_state = snapshot_state(model, opt)
            best_adam_t = opt.t

    assert best_state is not None
    model.load_state_arrays(best_state)
    model.eval()

    if test_items:
        test = evaluate(model, test_items, cache, cfg, weights)
        report = report_from_scores(test["labels"], test["scores"])
        record.test_metrics = report.as_dict()
        record.roc_points = report.roc_points

    if out_dir is not None:
        path = Path(out_dir) / f"{cfg.model}_seed{cfg.seed}.ckpt"
        save_checkpoint(path, best_state, sidecar={
            "model": cfg.model, "profile": cfg.profile, "seed": cfg.seed,
            "epoch": record.best_epoch, "adam_t": best_adam_t,
            "val_accuracy": record.val_accuracy, "val_loss": record.val_loss,
        })
        # stored relative to the run directory so reports stay path-free
        record.checkpoint_path = path.name
    return record, model


def summarize_runs(metric_dicts: list[dict]) -> dict:
    """Per-metric mean/std plus the full row of the best-accuracy run."""
    best_idx = best_epoch_index([m["accuracy"] for m in metric_dicts])
    keys = [k for k in metric_dicts[0] if isinstance(metric_dicts[0][k], (int, float))]
    summary = {}
    for k in keys:
        vals = np.array([m[k] for m in metric_dicts], dtype=np.float64)
        summary[k] = {"best": float(metric_dicts[best_idx][k]),
                      "mean": float(vals.mean()),
                      "std": float(vals.std(ddof=0))}
    summary["best_run"] = best_idx
    return summary


def multi_run(config: TrainConfig, manifest: SampleManifest, n_runs: int = 5,
              out_dir: Optional[str] = None,
              cache: Optional[PreprocessCache] = None) -> dict:
    """Repeat training with seeds base+i; aggregate per-metric mean and std."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    cache = cache or PreprocessCache(get_profile(config.profile))
    records, metrics = [], []
    for i in range(n_runs):
        cfg = replace(config, seed=config.seed + i)
        record, _model = train(cfg, manifest, out_dir=out_dir, cache=cache)
        if record.test_metrics is None:
            raise DataError("multi_run needs a manifest with a test split")
        records.append(record)
        metrics.append(record.test_metrics)
    return {"records": records, "metrics": metrics,
            "summary": summarize_runs(metrics)}


def comparative_protocol(mri_manifest: SampleManifest, us_manifest: SampleManifest,
                         paired_manifest: SampleManifest, profile: str = "micro",
                         epochs: dict | None = None, base_seed: int = 0,
                         n_runs: int = 5, batch_size: int = 8,
                         out_dir: Optional[str] = None) -> dict:
    """Train MRI and US on their large manifests and the warm-started fusion
    model on the paired manifest; ``train`` scores each of the three on the
    identical paired test split.  Repeated ``n_runs`` times with shifted seeds."""
    from ..evalstats import compare_models

    epochs = epochs or {}
    cache = PreprocessCache(get_profile(profile))
    test_pairs = items_from_pairs(paired_manifest, "test")
    if not test_pairs:
        raise DataError("paired manifest has no test pairs")
    manifests = {"mri": mri_manifest, "us": us_manifest, "fusion": paired_manifest}
    test_items = {"mri": [replace(it, us_uri=None) for it in test_pairs],
                  "us": [replace(it, mri_uri=None) for it in test_pairs],
                  "fusion": test_pairs}

    records_by_model: dict[str, list[RunRecord]] = {"fusion": [], "mri": [], "us": []}
    for i in range(n_runs):
        seed = base_seed + i
        states = {}
        for kind in MODEL_KINDS:
            cfg = TrainConfig(model=kind, profile=profile, seed=seed,
                              batch_size=batch_size, epochs=epochs.get(kind, 10))
            warm = (states["mri"], states["us"]) if kind == "fusion" else None
            record, model = train(cfg, manifests[kind], out_dir=out_dir,
                                  cache=cache, warm_states=warm,
                                  test_items=test_items[kind])
            if kind != "fusion":
                states[kind] = snapshot_state(model)
            records_by_model[kind].append(record)

    metrics_by_model = {m: [r.test_metrics for r in rs]
                        for m, rs in records_by_model.items()}
    return {
        "metrics": metrics_by_model,
        "records": records_by_model,
        "summaries": {m: summarize_runs(v) for m, v in metrics_by_model.items()},
        "comparison": (compare_models(metrics_by_model) if n_runs >= 2
                       else {"note": "comparison needs >= 2 runs"}),
        "roc": {kind: records_by_model[kind][-1].roc_points for kind in MODEL_KINDS},
        "test_size": len(test_pairs),
    }
