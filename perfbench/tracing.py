"""Span tracing of ``pasfusion`` from outside the package.

``Tracer.install`` replaces the package's public functions with timing
wrappers at every place their callers look them up (a module that imports a
function by name holds its own reference, so that module is patched too).
Every call records a span ``[parent, name, start, end, count, tag]`` in
memory; ``uninstall`` puts the originals back. Backward time per op comes
from the closures handed to ``ndcore``'s ``record``: each one is wrapped and
charged to the innermost traced op that recorded it.

``layer_metrics`` turns the spans of the traced rounds into the per-layer
metrics. A span's self time is its duration minus that of its child spans.
"""
from __future__ import annotations

import importlib
import json
import weakref
from collections import Counter
from time import perf_counter

# ndcore ops by the per-layer group their time is charged to
OP_GROUPS = {
    "conv": "conv",
    "batchnorm": "norm", "layernorm": "norm",
    "maxpool": "pool", "avgpool": "pool", "global_avgpool": "pool",
    "mhsa": "attn", "linear": "attn", "matmul": "attn", "gelu": "attn",
    "softmax": "attn",
}

# (module, attribute, span name): every place a caller looks a function up
_FUNCTIONS = [
    ("pasfusion.ndcore", "backward", "ndcore.backward"),
    ("pasfusion.models", "build_model", "models.build_model"),
    ("pasfusion.trainer.loop", "build_model", "models.build_model"),
    ("pasfusion.cli", "main", "cli.main"),
    ("pasfusion.trainer.loop", "train", "trainer.train"),
    ("pasfusion.trainer.loop", "evaluate", "trainer.evaluate"),
    ("pasfusion.trainer.loop", "assemble_batch", "trainer.assemble_batch"),
    ("pasfusion.trainer.loop", "snapshot_state", "trainer.checkpoint"),
    ("pasfusion.trainer.loop", "save_checkpoint", "trainer.checkpoint"),
    ("pasfusion.trainer.data", "read_nifti", "datapipe.read"),
    ("pasfusion.trainer.data", "read_rvol", "datapipe.read"),
    ("pasfusion.trainer.data", "read_rimg", "datapipe.read"),
    ("pasfusion.trainer.data", "preprocess_mri", "datapipe.preprocess_mri"),
    ("pasfusion.trainer.data", "preprocess_us", "datapipe.preprocess_us"),
    ("pasfusion.trainer.data", "augment_mri", "datapipe.augment_mri"),
    ("pasfusion.trainer.data", "augment_us", "datapipe.augment_us"),
    ("pasfusion.datapipe", "augment_mri", "datapipe.augment_mri"),
    ("pasfusion.datapipe", "augment_us", "datapipe.augment_us"),
    ("pasfusion.synthgen.generator", "generate_pair", "synthgen.generate_pair"),
    ("pasfusion.synthgen", "generate_pair", "synthgen.generate_pair"),
    ("pasfusion.trainer.loop", "report_from_scores", "evalstats.call"),
    ("pasfusion.evalstats", "compare_models", "evalstats.call"),
    ("pasfusion.evalstats", "write_json", "evalstats.call"),
    ("pasfusion.evalstats", "write_metrics_csv", "evalstats.call"),
    ("pasfusion.evalstats", "roc_svg", "evalstats.call"),
    ("pasfusion.evalstats", "grouped_bar_svg", "evalstats.call"),
    ("pasfusion.gradcam", "gradcam", "gradcam.gradcam"),
    ("pasfusion.gradcam.cam", "cam_from_capture", "gradcam.cam"),
]

# (module, class, method, span name)
_METHODS = [
    ("pasfusion.trainer.optim", "Adam", "step", "trainer.optimizer"),
    ("pasfusion.trainer.optim", "Adam", "zero_grad", "trainer.optimizer"),
    ("pasfusion.models.networks", "MriHybridNet", "forward", "models.forward"),
    ("pasfusion.models.networks", "UsResNet50Net", "forward", "models.forward"),
    ("pasfusion.models.networks", "FusionNet", "forward", "models.forward"),
]

# span counts and tags, from the positional arguments the trainer passes
_COUNTS = {"evaluate": lambda args, kwargs: len(args[1]),          # (model, items, ...)
           "assemble_batch": lambda args, kwargs: len(args[0])}    # (items, cache, ...)


def _train_tag(args, kwargs):
    return f"{args[0].model}:{args[0].epochs}"                     # (config, manifest, ...)


class Tracer:
    """In-memory span recorder over monkey-patched ``pasfusion`` entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ops: list[str] = []
        self._patches: list[tuple] = []
        self._seen = weakref.WeakKeyDictionary()     # cache -> uris already filled

    # -- recording ---------------------------------------------------------------
    def _wrap(self, fn, name, count=None, tag=None, op=False):
        spans, stack, ops = self.spans, self._stack, self._ops

        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, 0.0, 0.0,
                   count(args, kwargs) if count else 0,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            if op:
                ops.append(name)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if op:
                    ops.pop()

        return traced

    def _traced_record(self, record):
        ops, counts = self._ops, self.counts

        def traced_record(out, inputs, backward_fn):
            owner = ops[-1] if ops else "ndcore.other"
            result = record(out, inputs,
                            self._wrap(backward_fn, f"bwd:{owner}"))
            if out.requires_grad:
                counts["tape_nodes"] += 1
            return result

        return traced_record

    def _traced_lookup(self, lookup):
        seen, counts = self._seen, self.counts
        hit_fn = self._wrap(lookup, "datapipe.cache_hit")
        miss_fn = self._wrap(lookup, "datapipe.cache_miss")

        def traced_lookup(cache, uri):
            filled = seen.setdefault(cache, set())
            if uri in filled:
                return hit_fn(cache, uri)
            arr = miss_fn(cache, uri)
            filled.add(uri)
            counts["cache_bytes"] += arr.nbytes
            return arr

        return traced_lookup

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            return self
        ndcore = importlib.import_module("pasfusion.ndcore")
        ops = importlib.import_module("pasfusion.ndcore.ops")
        for op in OP_GROUPS:
            for owner in (ndcore, ops):
                self._patch(owner, op, self._wrap(getattr(ops, op), f"ndcore.{op}", op=True))
        self._patch(ops, "record", self._traced_record(ops.record))
        for module, attr, name in _FUNCTIONS:
            owner = importlib.import_module(module)
            tag = _train_tag if attr == "train" else None
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name,
                                                _COUNTS.get(attr), tag))
        for module, cls_name, method, name in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._wrap(cls.__dict__[method], name))
        cache_cls = importlib.import_module("pasfusion.trainer.data").PreprocessCache
        for method in ("volume", "image"):
            self._patch(cache_cls, method, self._traced_lookup(cache_cls.__dict__[method]))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded so far; the recorder starts empty again."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


# -- derived metrics -------------------------------------------------------------

class SpanTable:
    """Inclusive and self time of recorded spans, with parent lookups."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = [0.0] * len(spans)
        for parent, _name, t0, t1, _n, _tag in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_time = [s[3] - s[2] - c for s, c in zip(spans, child)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[1], []).append(i)

    def select(self, name, parent=None):
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if parent is None or (s[0] >= 0 and self.spans[s[0]][1] == parent):
                yield i, s

    def total(self, name, parent=None, own=False) -> float:
        if own:
            return sum(self.self_time[i] for i, _ in self.select(name, parent))
        return sum(s[3] - s[2] for _, s in self.select(name, parent))

    def calls(self, name, parent=None) -> int:
        return sum(1 for _ in self.select(name, parent))

    def items(self, name, parent=None) -> int:
        return sum(s[4] for _, s in self.select(name, parent))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _trainer_metrics(table: SpanTable, rounds: int) -> dict:
    """Train-step throughput per model kind, the training phase split and eval volume."""
    out = {}
    children: dict[int, list] = {}
    for i, s in enumerate(table.spans):
        if s[0] >= 0 and table.spans[s[0]][1] == "trainer.train":
            children.setdefault(s[0], []).append(s)
    samples, seconds, unused = Counter(), Counter(), 0
    for i, s in table.select("trainer.train"):
        kind, epochs = s[5].split(":")
        step = s[3] - s[2]
        evals = 0
        for c in children.get(i, []):
            if c[1] in ("trainer.evaluate", "trainer.checkpoint", "models.build_model"):
                step -= c[3] - c[2]
            if c[1] == "trainer.assemble_batch":
                samples[kind] += c[4]
            if c[1] == "trainer.evaluate":
                evals += 1
                if evals > int(epochs):         # the test-split score after the epochs
                    unused += c[4]
        seconds[kind] += step
    for kind in ("mri", "us", "fusion"):
        out[f"trainer.{kind}.samples_per_s"] = _ratio(samples[kind], seconds[kind])
    out["trainer.data_s"] = table.total("trainer.assemble_batch", "trainer.train") / rounds
    out["trainer.forward_s"] = table.total("models.forward", "trainer.train") / rounds
    out["trainer.optimizer_s"] = table.total("trainer.optimizer") / rounds
    out["trainer.checkpoint_s"] = table.total("trainer.checkpoint") / rounds
    out["trainer.eval_s"] = table.total("trainer.evaluate") / rounds
    out["trainer.eval_samples"] = table.items("trainer.evaluate") / rounds
    out["trainer.eval_samples_unused"] = unused / rounds
    return out


def layer_metrics(setup_spans: list[list], round_spans: list[list],
                  counts: Counter, rounds: int) -> dict:
    """Per-layer metrics: per-round totals, per-call means and rates."""
    table = SpanTable(round_spans)
    both = SpanTable(setup_spans + [[-1] + s[1:] for s in round_spans])
    out = {}
    for group in ("conv", "norm", "pool", "attn"):
        names = [f"ndcore.{op}" for op, g in OP_GROUPS.items() if g == group]
        out[f"ndcore.{group}.fwd_s"] = sum(table.total(n, own=True) for n in names) / rounds
        out[f"ndcore.{group}.bwd_s"] = sum(table.total(f"bwd:{n}") for n in names) / rounds
    out["ndcore.conv.calls"] = table.calls("ndcore.conv") / rounds
    out["ndcore.backward_s"] = table.total("ndcore.backward") / rounds
    out["ndcore.tape_nodes"] = counts["tape_nodes"] / rounds

    out["models.build_s"] = _ratio(both.total("models.build_model"),
                                   both.calls("models.build_model"))
    out["models.forward_s"] = table.total("models.forward") / rounds
    out.update(_trainer_metrics(table, rounds))

    out["datapipe.read_s"] = table.total("datapipe.read") / rounds
    for step in ("preprocess_mri", "preprocess_us", "augment_mri", "augment_us"):
        out[f"datapipe.{step}_s"] = table.total(f"datapipe.{step}") / rounds
    out["datapipe.ingest_scans_per_s"] = _ratio(table.calls("datapipe.cache_miss"),
                                                table.total("datapipe.cache_miss"))
    augments = ("datapipe.augment_mri", "datapipe.augment_us")
    out["datapipe.augment_scans_per_s"] = _ratio(sum(table.calls(a) for a in augments),
                                                 sum(table.total(a) for a in augments))
    out["datapipe.cache_mb"] = counts["cache_bytes"] / rounds / 2 ** 20
    hits, misses = table.calls("datapipe.cache_hit"), table.calls("datapipe.cache_miss")
    out["datapipe.cache_hit_ratio"] = _ratio(hits, hits + misses)

    out["synthgen.pairs_per_s"] = _ratio(both.calls("synthgen.generate_pair"),
                                         both.total("synthgen.generate_pair"))
    out["evalstats.s"] = table.total("evalstats.call") / rounds

    maps = table.calls("gradcam.gradcam")
    out["gradcam.map_s"] = _ratio(table.total("gradcam.gradcam"), maps)
    out["gradcam.forward_s"] = _ratio(table.total("models.forward", "gradcam.gradcam"), maps)
    out["gradcam.backward_s"] = _ratio(table.total("ndcore.backward", "gradcam.gradcam"), maps)
    out["gradcam.cam_s"] = _ratio(table.total("gradcam.cam"), maps)

    out["cli.compare_s"] = table.total("cli.main") / rounds
    return out


def write_spans(path, phases: dict[str, list[list]]) -> None:
    """One JSON line per span: phase, index, parent, name, start, end, count, tag."""
    with open(path, "w") as fh:
        for phase, spans in phases.items():
            for i, s in enumerate(spans):
                fh.write(json.dumps([phase, i] + s) + "\n")
