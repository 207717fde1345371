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
    items_from_samples,
    load_raw_image,
    load_raw_volume,
)
from .loop import (
    MODEL_KINDS,
    NumericError,
    RunRecord,
    TrainConfig,
    best_epoch_index,
    comparative_protocol,
    evaluate,
    multi_run,
    summarize_runs,
    train,
)
from .optim import Adam, PlateauScheduler, SchedulerConfig, adam_update

__all__ = [
    "Adam", "adam_update", "PlateauScheduler", "SchedulerConfig",
    "TrainConfig", "RunRecord", "train", "evaluate", "multi_run",
    "comparative_protocol", "summarize_runs", "best_epoch_index",
    "NumericError", "DataError", "MODEL_KINDS",
    "PreprocessCache", "Item", "assemble_batch", "build_training_items",
    "epoch_batches", "items_for", "items_from_pairs", "items_from_samples",
    "load_raw_volume", "load_raw_image",
    "save_checkpoint", "load_checkpoint", "snapshot_state",
]
