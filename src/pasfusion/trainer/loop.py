"""Training protocol: per-model loss configuration, epoch loop with
best-validation-accuracy checkpointing, multi-run repetition and the
three-model comparative protocol on a shared paired test set."""
from __future__ import annotations

import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .. import ndcore as ndc
from ..config import NUMBER, check
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

log = logging.getLogger("pasfusion")


class NumericError(RuntimeError):
    """Training produced a non-finite loss."""


class WorkerError(RuntimeError):
    """A worker process died (e.g. killed for memory) before its runs ended."""


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
        """Check every field; ``None`` leaves a value to ``resolved``. A JSON
        ``scheduler`` object becomes a ``SchedulerConfig``, a ``warm_start``
        list a tuple."""
        check(self.model, "model", (str,), MODEL_KINDS.__contains__, f"in {MODEL_KINDS}")
        get_profile(self.profile)
        check(self.lr, "lr", NUMBER, lambda v: v > 0, "> 0")
        for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            check(getattr(self, name), name, (int,), lambda v: v >= least, f">= {least}")
        for name in ("label_smoothing", "dropout"):
            check(getattr(self, name), name, NUMBER + (None,), lambda v: 0 <= v < 1, "in [0, 1)")
        if type(self.scheduler) is dict:
            self.scheduler = SchedulerConfig(**self.scheduler)
        check(self.scheduler, "scheduler", (SchedulerConfig, None))
        for name in ("use_scheduler", "augment", "oversample", "weighted_loss"):
            check(getattr(self, name), name, (bool, None))
        paths = (list, tuple, None)
        if check(self.warm_start, "warm_start", paths, lambda w: len(w) == 2 and all(
                isinstance(p, (str, Path)) for p in w), "of 2 checkpoint paths") is not None:
            self.warm_start = tuple(self.warm_start)

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


def _workers(n_runs: int, profile: str) -> int:
    """Worker processes for ``n_runs`` independent runs; 1 means in-process.

    Runs fork only while this process has a single thread, CPython's own
    fork-safety test: OpenBLAS starts its pool when numpy is imported, so
    this holds when BLAS was pinned to one thread before that (as under
    ``--deterministic``), and a fork then copies no thread pool. One paper
    run alone peaks at ~4 GB, so paper runs stay in-process.
    """
    task_dir = "/proc/self/task"
    if (n_runs < 2 or profile == "paper" or not os.path.isdir(task_dir)
            or len(os.listdir(task_dir)) != 1):
        return 1
    return min(n_runs, len(os.sched_getaffinity(0)))


def _logged(records: list[RunRecord]) -> list[RunRecord]:
    for r in records:
        log.info("%s seed %d: best epoch %d, best val accuracy %.4f",
                 r.model, r.seed, r.best_epoch, r.best_val_accuracy)
    return records


def _gather(run_seed, seeds: list[int], profile: str) -> list[list[RunRecord]]:
    """``[run_seed(s) for s in seeds]``, in seed order, where ``run_seed``
    returns one seed's records. Seeds fan out over forked worker processes
    when ``_workers`` allows. The first failure is re-raised here, and the
    seeds not yet started never start."""
    workers = _workers(len(seeds), profile)
    log.info("dispatch: %d runs, %d workers, nproc %d", len(seeds), workers,
             len(os.sched_getaffinity(0)))
    if workers == 1:
        return [_logged(run_seed(s)) for s in seeds]
    # imported here, so a process that never fans out loads no multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    results: list = [None] * len(seeds)
    todo, running = list(enumerate(seeds)), {}
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        try:
            # one run in flight per worker: the executor itself would queue
            # more, and a queued run cannot be cancelled after a failure
            while todo or running:
                while todo and len(running) < workers:
                    i, seed = todo.pop(0)
                    running[pool.submit(run_seed, seed)] = i
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    results[running.pop(fut)] = _logged(fut.result())
        except BrokenProcessPool:
            lost = [s for s, r in zip(seeds, results) if r is None]
            raise WorkerError(f"a worker process died; seeds {lost} did not "
                              "finish") from None
    return results


def _multi_run_seed(seed: int, config: TrainConfig, manifest: SampleManifest,
                    out_dir: Optional[str],
                    cache: PreprocessCache) -> list[RunRecord]:
    record, _model = train(replace(config, seed=seed), manifest,
                           out_dir=out_dir, cache=cache)
    if record.test_metrics is None:
        raise DataError("multi_run needs a manifest with a test split")
    return [record]


def multi_run(config: TrainConfig, manifest: SampleManifest, n_runs: int = 5,
              out_dir: Optional[str] = None,
              cache: Optional[PreprocessCache] = None) -> dict:
    """Repeat training with seeds base+i; aggregate per-metric mean and std."""
    check(n_runs, "n_runs", (int,), lambda v: v >= 1, ">= 1")
    cache = cache or PreprocessCache(get_profile(config.profile))
    run_seed = partial(_multi_run_seed, config=config, manifest=manifest,
                       out_dir=out_dir, cache=cache)
    seeds = [config.seed + i for i in range(n_runs)]
    records = [rs[0] for rs in _gather(run_seed, seeds, config.profile)]
    metrics = [r.test_metrics for r in records]
    return {"records": records, "metrics": metrics,
            "summary": summarize_runs(metrics)}


def _compare_seed(seed: int, configs: dict, manifests: dict, test_items: dict,
                  out_dir: Optional[str], cache: PreprocessCache) -> list[RunRecord]:
    """One comparative run at ``seed``: MRI, US, then fusion warm-started from
    this run's MRI and US weights. -> their records, in ``MODEL_KINDS`` order."""
    states, records = {}, []
    for kind in MODEL_KINDS:
        warm = (states["mri"], states["us"]) if kind == "fusion" else None
        record, model = train(replace(configs[kind], seed=seed), manifests[kind],
                              out_dir=out_dir, cache=cache, warm_states=warm,
                              test_items=test_items[kind])
        if kind != "fusion":
            states[kind] = snapshot_state(model)
        records.append(record)
    return records


def comparative_protocol(mri_manifest: SampleManifest, us_manifest: SampleManifest,
                         paired_manifest: SampleManifest, profile: str = "micro",
                         epochs: dict | None = None, base_seed: int = 0,
                         n_runs: int = 5, batch_size: int = 8,
                         out_dir: Optional[str] = None) -> dict:
    """Train MRI and US on their large manifests and the warm-started fusion
    model on the paired manifest; ``train`` scores each of the three on the
    identical paired test split.  Repeated ``n_runs`` times with shifted seeds."""
    from ..evalstats import compare_models

    # every value is checked here, before a worker forks
    check(n_runs, "n_runs", (int,), lambda v: v >= 1, ">= 1")
    epochs = check(epochs, "epochs", (dict, None), lambda e: set(e) <= set(MODEL_KINDS),
                   f"keyed by {MODEL_KINDS}") or {}
    configs = {kind: TrainConfig(model=kind, profile=profile, seed=base_seed,
                                 batch_size=batch_size, epochs=epochs.get(kind, 10))
               for kind in MODEL_KINDS}
    test_pairs = items_from_pairs(paired_manifest, "test")
    if not test_pairs:
        raise DataError("paired manifest has no test pairs")
    run_seed = partial(
        _compare_seed, configs=configs,
        manifests={"mri": mri_manifest, "us": us_manifest,
                   "fusion": paired_manifest},
        test_items={"mri": [replace(it, us_uri=None) for it in test_pairs],
                    "us": [replace(it, mri_uri=None) for it in test_pairs],
                    "fusion": test_pairs},
        out_dir=out_dir, cache=PreprocessCache(get_profile(profile)))
    runs = _gather(run_seed, [base_seed + i for i in range(n_runs)], profile)

    records_by_model = {kind: [r for run in runs for r in run if r.model == kind]
                        for kind in ("fusion", "mri", "us")}
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
