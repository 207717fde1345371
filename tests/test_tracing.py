"""The benchmark's span tracer (``perfbench/tracing.py``) patches package
functions by module and attribute name; a rename in ``src/`` that breaks the
trace fails here."""
import importlib
from pathlib import Path

import pytest

from pasfusion.datapipe import stratified_split
from pasfusion.synthgen import SynthSpec, generate_dataset
from pasfusion.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _patched_originals(tracing):
    """(owner, attribute) -> the object the tracer replaces there."""
    out = {}
    for module, attr, _name in tracing._FUNCTIONS:
        owner = importlib.import_module(module)
        out[owner, attr] = owner.__dict__[attr]
    for module, cls_name, method, _name in tracing._METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        out[cls, method] = cls.__dict__[method]
    ndcore = importlib.import_module("pasfusion.ndcore")
    ops = importlib.import_module("pasfusion.ndcore.ops")
    for op in tracing.OP_GROUPS:
        out[ndcore, op] = ndcore.__dict__[op]
        out[ops, op] = ops.__dict__[op]
    out[ops, "record"] = ops.__dict__["record"]
    cache_cls = importlib.import_module("pasfusion.trainer.data").PreprocessCache
    for method in ("volume", "image"):
        out[cache_cls, method] = cache_cls.__dict__[method]
    return out


def test_tracer_spans_a_micro_train(tracing, tmp_path):
    spec = SynthSpec(n_pairs=12, positive_fraction=0.5, profile="micro",
                     mode="redundant", signal_strength=0.6, noise_sigma=0.08,
                     seed=5)
    manifest = generate_dataset(spec, tmp_path)
    stratified_split(manifest, (0.5, 0.25, 0.25), seed=5)
    loop = importlib.import_module("pasfusion.trainer.loop")
    originals = _patched_originals(tracing)

    tracer = tracing.Tracer().install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
        loop.train(TrainConfig(model="us", profile="micro", epochs=1, seed=0),
                   manifest)
    finally:
        tracer.uninstall()
    spans, _counts = tracer.take()

    trains = [i for i, s in enumerate(spans)
              if s[1] == "trainer.train" and s[5] == "us:1"]
    assert len(trains) == 1
    evals = [s for s in spans if s[1] == "trainer.evaluate" and s[0] == trains[0]]
    assert len(evals) == 2                  # validation, then test
    assert all(s[4] > 0 for s in evals)     # counted samples
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
