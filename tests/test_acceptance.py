"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured evidence.  Tolerances and runtime budgets are pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the slow synthetic-fusion experiment (criterion 5) can be deselected
with ``-m "not slow"`` during development.
"""
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pasfusion
from pasfusion import ndcore as ndc
from pasfusion.datapipe import (
    Sample,
    SampleManifest,
    Volume,
    oversample_minority,
    read_nifti,
    read_rvol,
    stratified_split,
    write_nifti,
    write_rvol,
)
from pasfusion.evalstats import (
    ConfusionMatrix,
    bh_fdr,
    macro_metrics,
    paired_ttest,
    roc_auc,
)
from pasfusion.gradcam import gradcam, normalize_unit
from pasfusion.models import PAPER, build_model
from pasfusion.models.profiles import get_profile
from pasfusion.synthgen import SynthSpec, generate_dataset
from pasfusion.trainer import (
    PreprocessCache,
    TrainConfig,
    adam_update,
    comparative_protocol,
    evaluate,
    items_from_samples,
    load_checkpoint,
    train,
)

from gradcheck import GRAD_CASES, assert_grads_match
from oracles import (
    adam_single_step,
    auc_pairwise,
    avgpool_nd_loops,
    bh_stepup,
    conv_nd_loops,
    conv_nd_vjp_loops,
    maxpool_nd_loops,
)


def _report(num: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")
    assert passed, f"criterion {num}: {detail}"


# -------------------------------------------------------------------------
# 1. metric reproduction from the published confusion matrices
# -------------------------------------------------------------------------

def test_criterion_1_metric_reproduction():
    start = time.time()
    rows = {
        "MRI Table-3": (ConfusionMatrix(tp=49, tn=144, fp=27, fn=7),
                        dict(accuracy=0.850, precision=0.799, recall=0.859,
                             f1=0.818)),
        "US Table-4": (ConfusionMatrix(tp=53, tn=123, fp=12, fn=9),
                       dict(accuracy=0.893, precision=0.874, recall=0.883)),
        "fusion Table-5": (ConfusionMatrix(tp=14, tn=23, fp=2, fn=1),
                           dict(accuracy=0.925, precision=0.917, recall=0.927)),
    }
    worst = 0.0
    for name, (cm, expected) in rows.items():
        rep = macro_metrics(cm)
        for metric, want in expected.items():
            err = abs(getattr(rep, metric) - want)
            worst = max(worst, err)
            assert err <= 1e-3, (name, metric, err)
    elapsed = time.time() - start
    _report(1, elapsed < 1.0,
            f"published best-run metrics reproduced, max |err| = {worst:.2e}, "
            f"{elapsed:.3f}s")


# -------------------------------------------------------------------------
# 2. shape ledger at paper profile
# -------------------------------------------------------------------------

PAPER_FUSION_PARAMS = 123_657_985


def test_criterion_2_paper_shape_ledger():
    start = time.time()
    model = build_model("fusion", PAPER, seed=0)
    vol = ndc.Tensor(np.random.default_rng(0).random(
        (1, 1) + PAPER.mri_input, dtype=np.float32))
    img = ndc.Tensor(np.random.default_rng(1).random(
        (1, 3) + PAPER.us_input, dtype=np.float32))
    with ndc.no_grad():
        out = model.eval()(vol, img)
    shapes = out.shapes
    assert shapes["tokens"] == 256
    assert shapes["f_dense"] == 128
    assert shapes["f_vit"] == 768
    assert shapes["f_combined"] == 896
    assert shapes["f_us"] == 2048
    assert shapes["fused"] == 2944
    assert shapes["output"] == 1
    assert model.us.last_map_shape == (1, 2048, 7, 7)
    assert out.probability.shape == (1, 1)
    assert model.parameter_count() == PAPER_FUSION_PARAMS
    elapsed = time.time() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 ** 2
    assert elapsed < 300.0
    assert peak_gb < 4.0
    _report(2, True,
            f"paper-profile ledger {shapes}, {elapsed:.1f}s, peak {peak_gb:.2f} GB")


# -------------------------------------------------------------------------
# 3. gradient suite: every differentiable primitive vs finite differences
# -------------------------------------------------------------------------

def test_criterion_3_gradient_suite():
    start = time.time()
    n_checks = 0
    for name, (make_arrays, forward, nudge) in sorted(GRAD_CASES.items()):
        for seed in range(20):
            assert_grads_match(make_arrays, forward, seed, nudge=nudge,
                               rtol=1e-4, atol=1e-6)
            n_checks += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, True,
            f"{n_checks} finite-difference checks over {len(GRAD_CASES)} ops, "
            f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 4. oracle equivalence: kernels vs independent reference implementations
# -------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(404)

    # conv / maxpool / avgpool vs nested loops, inputs up to 2x2x8x8x8
    for dims in (2, 3):
        for _ in range(3):
            sp = tuple(int(rng.integers(4, 9)) for _ in range(dims))
            x = rng.normal(size=(2, 2) + sp)
            w = rng.normal(size=(3, 2) + (3,) * dims)
            b = rng.normal(size=3)
            got = ndc.conv(ndc.Tensor(x.astype(np.float32)),
                           ndc.Parameter(w.astype(np.float32)),
                           ndc.Parameter(b.astype(np.float32)),
                           stride=2, padding=1)
            np.testing.assert_allclose(got.data, conv_nd_loops(x, w, b, 2, 1),
                                       atol=1e-5, rtol=1e-5)
            got64 = ndc.conv(ndc.Tensor(x), ndc.Parameter(w), ndc.Parameter(b),
                             stride=2, padding=1)
            np.testing.assert_allclose(got64.data, conv_nd_loops(x, w, b, 2, 1),
                                       atol=1e-6)
            mp = ndc.maxpool(ndc.Tensor(x), 3, 2, padding=1)
            assert mp.data.tobytes() == np.ascontiguousarray(
                maxpool_nd_loops(x, 3, 2, 1)).tobytes()
            ap = ndc.avgpool(ndc.Tensor(x), 2, 2)
            np.testing.assert_allclose(ap.data, avgpool_nd_loops(x, 2, 2),
                                       atol=1e-6)

    # conv backward (gx, gw, gb) vs routing each output gradient back through
    # its window; extents k+1 and k+2 put n + 2p - k both on and off the
    # stride grid; two samples and 2 -> 3 channels, so a weight gradient that
    # mixes the batch with positions or swaps in with out fails
    for dims in (2, 3):
        for k in (1, 3, 7):
            sp = (k + 1, k + 2, k)[:dims]
            for stride in (1, 2):
                for padding in range(k // 2 + 1):
                    x = rng.normal(size=(2, 2) + sp)
                    w = rng.normal(size=(3, 2) + (k,) * dims)
                    b = rng.normal(size=3)
                    with ndc.Tape():
                        xt = ndc.Tensor(x, requires_grad=True)
                        wt, bt = ndc.Parameter(w), ndc.Parameter(b)
                        y = ndc.conv(xt, wt, bt, stride=stride, padding=padding)
                        g = rng.normal(size=y.shape)
                        ndc.backward(ndc.sum_(y * ndc.Tensor(g)))
                    want = conv_nd_vjp_loops(x, w, g, stride, padding)
                    for got, ref in zip((xt.grad, wt.grad, bt.grad), want):
                        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)

    # trapezoid AUC vs pairwise counting, 100 random vectors with ties
    for _ in range(100):
        n = int(rng.integers(6, 40))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = np.round(rng.random(n), 1)
        auc, _ = roc_auc(labels, scores)
        assert abs(auc - auc_pairwise(labels, scores)) <= 1e-9

    # Adam vs the closed-form single-parameter oracle, 100 draws
    w = m = v = np.float64(0.0)
    ow, om, ov = w, m, v
    for t in range(1, 101):
        g = np.float64(rng.normal())
        w, m, v = adam_update(w, g, m, v, t, lr=1e-4)
        ow, om, ov = adam_single_step(ow, g, om, ov, t, lr=1e-4)
        assert abs(w - ow) <= 1e-9

    # BH-FDR formula oracle + the worked spec examples
    np.testing.assert_allclose(bh_fdr([0.01, 0.02, 0.04]), [0.03, 0.03, 0.04],
                               atol=1e-12)
    np.testing.assert_allclose(bh_fdr([0.01, 0.04, 0.03]), [0.03, 0.04, 0.04],
                               atol=1e-12)
    for _ in range(50):
        p = rng.random(int(rng.integers(1, 12)))
        np.testing.assert_allclose(bh_fdr(p), bh_stepup(p), atol=1e-12)

    # paired t vs the continued-fraction CDF series value
    res = paired_ttest([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert abs(res.statistic - math.sqrt(18)) < 1e-9
    assert res.dof == (4,)
    assert abs(res.p_value - 0.013239) < 5e-4

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(4, True, f"kernel/metric/optimizer oracles agree, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. synthetic fusion experiment (the central claim at desk scale)
# -------------------------------------------------------------------------

PAIRED_SEED = 101
UNIMODAL_SEED = 202
EPOCHS = {"mri": 8, "us": 8, "fusion": 30}


def _build_fusion_datasets(root: Path):
    paired_spec = SynthSpec(n_pairs=160, positive_fraction=0.375,
                            profile="micro", mode="complementary",
                            signal_strength=0.5, noise_sigma=0.1,
                            seed=PAIRED_SEED)
    paired = generate_dataset(paired_spec, root / "paired")
    stratified_split(paired, (0.6, 0.15, 0.25), seed=PAIRED_SEED)

    uni_spec = SynthSpec(n_pairs=600, positive_fraction=0.375, profile="micro",
                         mode="redundant", signal_strength=0.5,
                         noise_sigma=0.1, seed=UNIMODAL_SEED)
    uni = generate_dataset(uni_spec, root / "unimodal")
    stratified_split(uni, (0.7, 0.1, 0.2), seed=UNIMODAL_SEED)
    return paired, uni.unimodal("mri"), uni.unimodal("us")


@pytest.mark.slow
def test_criterion_5_synthetic_fusion_experiment(tmp_path):
    start = time.time()
    paired, mri_man, us_man = _build_fusion_datasets(tmp_path)
    assert sum(p.label for p in paired.pairing) == 60
    assert len(paired.pairs("test")) == 40

    result = comparative_protocol(mri_man, us_man, paired, profile="micro",
                                  epochs=EPOCHS, base_seed=0, n_runs=5)
    elapsed = time.time() - start
    means = {m: result["summaries"][m]["accuracy"]["mean"]
             for m in ("fusion", "mri", "us")}
    acc_cmp = result["comparison"]["metrics"]["accuracy"]
    sig_mri = acc_cmp["pairwise"].get("fusion_vs_mri", {}).get("significant")
    sig_us = acc_cmp["pairwise"].get("fusion_vs_us", {}).get("significant")

    ok = (means["fusion"] >= 0.90
          and means["fusion"] - means["mri"] >= 0.05
          and means["fusion"] - means["us"] >= 0.05
          and bool(sig_mri) and bool(sig_us)
          and elapsed <= 45 * 60)
    _report(5, ok,
            f"fusion {means['fusion']:.3f} vs mri {means['mri']:.3f} / "
            f"us {means['us']:.3f}; fusion-vs-mri significant={sig_mri}, "
            f"fusion-vs-us significant={sig_us}; {elapsed / 60:.1f} min")


# -------------------------------------------------------------------------
# 6. protocol invariants: table counts, oversampling, patient disjointness
# -------------------------------------------------------------------------

def _labelled_manifest(n0: int, n1: int) -> SampleManifest:
    samples = [Sample(f"n{i:04d}", "mri", 0, f"n{i}") for i in range(n0)]
    samples += [Sample(f"p{i:04d}", "mri", 1, f"p{i}") for i in range(n1)]
    return SampleManifest(samples=samples)


def test_criterion_6_protocol_invariants():
    start = time.time()
    mri = stratified_split(_labelled_manifest(853, 280), (0.7, 0.1, 0.2), seed=0)
    counts = {s: sum(1 for x in mri.samples if x.split == s)
              for s in ("train", "val", "test")}
    assert counts == {"train": 793, "val": 113, "test": 227}

    multi = stratified_split(_labelled_manifest(100, 60), (0.6, 0.15, 0.25),
                             seed=0)
    counts = {s: sum(1 for x in multi.samples if x.split == s)
              for s in ("train", "val", "test")}
    assert counts == {"train": 96, "val": 24, "test": 40}

    train_samples = [s for s in mri.samples if s.split == "train"]
    balanced = oversample_minority(train_samples, seed=0)
    hist = np.bincount([s.label for s in balanced])
    assert hist.tolist() == [597, 597] and len(balanced) == 1194

    rng = np.random.default_rng(66)
    for trial in range(1000):
        n0 = int(rng.integers(4, 40))
        n1 = int(rng.integers(4, 40))
        man = _labelled_manifest(n0, n1)
        # give some patients a second modality to stress group integrity
        man.samples += [Sample(s.patient_id, "us", s.label, s.uri + "u")
                        for s in man.samples[::3]]
        stratified_split(man, (0.6, 0.15, 0.25), seed=int(rng.integers(1 << 30)))
        seen = {}
        for s in man.samples:
            assert seen.setdefault(s.patient_id, s.split) == s.split
    elapsed = time.time() - start
    _report(6, True,
            f"Table-1 counts, 196->597 oversample (1194 total), disjointness "
            f"on 1000 manifests, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 7. determinism of the compare pipeline, end to end through the CLI
# -------------------------------------------------------------------------

def _run_cli(args, cwd, entry=("-m", "pasfusion.cli")):
    # Put the directory holding the imported package first on PYTHONPATH:
    # a relative entry (e.g. PYTHONPATH=src) resolves to nothing from `cwd`,
    # so the CLI subprocess would not find the tree under test.
    src_root = str(Path(pasfusion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry] + args,
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=600)


def _compare_config(tmp_path, n_runs: int) -> Path:
    """Synthesize the paired and unimodal sets; -> a compare config path."""
    paired_cfg = tmp_path / "paired.json"
    paired_cfg.write_text(json.dumps({
        "n_pairs": 48, "positive_fraction": 0.375, "profile": "micro",
        "mode": "complementary", "signal_strength": 0.5, "noise_sigma": 0.1,
        "seed": 11, "split_ratios": [0.6, 0.15, 0.25], "split_seed": 11}))
    uni_cfg = tmp_path / "uni.json"
    uni_cfg.write_text(json.dumps({
        "n_pairs": 80, "positive_fraction": 0.375, "profile": "micro",
        "mode": "redundant", "signal_strength": 0.5, "noise_sigma": 0.1,
        "seed": 12, "split_ratios": [0.7, 0.1, 0.2], "split_seed": 12}))
    for cfg, name in ((paired_cfg, "paired"), (uni_cfg, "uni")):
        proc = _run_cli(["synth", "--config", str(cfg),
                         "--out", str(tmp_path / name)], tmp_path)
        assert proc.returncode == 0, proc.stderr

    # unimodal manifests derived from the redundant paired set
    uni_man = SampleManifest.load(tmp_path / "uni" / "manifest.json")
    uni_man.unimodal("mri").save(tmp_path / "uni" / "mri.json")
    uni_man.unimodal("us").save(tmp_path / "uni" / "us.json")

    compare_cfg = tmp_path / "compare.json"
    compare_cfg.write_text(json.dumps({
        "manifests": {"mri": str(tmp_path / "uni" / "mri.json"),
                      "us": str(tmp_path / "uni" / "us.json"),
                      "paired": str(tmp_path / "paired" / "manifest.json")},
        "profile": "micro", "n_runs": n_runs, "base_seed": 3, "batch_size": 8,
        "epochs": {"mri": 2, "us": 2, "fusion": 2}}))
    return compare_cfg


def _artifact_diff(outs: list[Path]) -> tuple[list[Path], list[str]]:
    """-> (the files of the first run, those whose bytes differ)."""
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                     if p.is_file())
    assert files_a == files_b and files_a
    return files_a, [str(rel) for rel in files_a
                     if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]


@pytest.mark.slow
def test_criterion_7_compare_determinism(tmp_path):
    start = time.time()
    compare_cfg = _compare_config(tmp_path, n_runs=1)

    outs = []
    for label in ("a", "b"):
        out = tmp_path / f"cmp_{label}"
        proc = _run_cli(["compare", "--config", str(compare_cfg),
                         "--out", str(out), "--deterministic"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)

    files_a, mismatched = _artifact_diff(outs)
    elapsed = time.time() - start
    _report(7, not mismatched,
            f"{len(files_a)} artifacts bitwise identical across two "
            f"--deterministic compare runs, {elapsed:.1f}s"
            + (f"; mismatched: {mismatched}" if mismatched else ""))


@pytest.mark.slow
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_compare_determinism_across_worker_counts(tmp_path):
    """Two runs forked into two workers write the same bytes as one worker."""
    compare_cfg = _compare_config(tmp_path, n_runs=2)
    cpus = sorted(os.sched_getaffinity(0))[:2]
    outs = []
    for n in (1, 2):
        out = tmp_path / f"cpus{n}"
        # restrict the child's own affinity before it starts the compare
        child = ("import os, sys; os.sched_setaffinity(0, {cpus}); "
                 "from pasfusion.cli import main; sys.exit(main({argv}))").format(
            cpus=set(cpus[:n]), argv=["compare", "--config", str(compare_cfg),
                                      "--out", str(out), "--deterministic",
                                      "--verbose"])
        proc = _run_cli([], tmp_path, entry=("-c", child))
        assert proc.returncode == 0, proc.stderr
        assert f"dispatch: 2 runs, {n} workers, nproc {n}" in proc.stderr
        outs.append(out)
    assert _artifact_diff(outs)[1] == []


# -------------------------------------------------------------------------
# 8. Grad-CAM analytic case and heatmap invariants
# -------------------------------------------------------------------------

def test_criterion_8_gradcam_analytic():
    from test_gradcam import ToyLinearModel

    rng = np.random.default_rng(88)
    # power-of-two weight and element count keep every arithmetic step exact
    x = rng.normal(size=(8, 4)).astype(np.float32)
    model = ToyLinearModel(w=2.0).finalize_names()
    heat = gradcam(model, (x[None],), class_index=1)
    want = normalize_unit(np.maximum(2.0 * x.astype(np.float64) / x.size, 0.0))
    np.testing.assert_array_equal(heat.values, want)

    emitted = [heat.values]
    for kind, inputs in (("mri", (rng.random((1, 32, 32, 16),
                                             dtype=np.float32),)),
                         ("us", (rng.random((3, 56, 56), dtype=np.float32),))):
        net = build_model(kind, "micro", seed=1)
        for class_index in (0, 1):
            h = gradcam(net, inputs, class_index)
            emitted.append(h.values)
    for values in emitted:
        assert np.all(np.isfinite(values))
        assert values.min() >= 0.0 and values.max() <= 1.0
    _report(8, True,
            f"toy heatmap equals ReLU(w*A) exactly; {len(emitted)} emitted "
            f"maps all within [0,1], NaN-free")


# -------------------------------------------------------------------------
# 9. format round trips
# -------------------------------------------------------------------------

def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    vox = rng.random((19, 17, 13)).astype(np.float32)
    write_nifti(tmp_path / "v.nii", Volume(voxels=vox))
    assert read_nifti(tmp_path / "v.nii").voxels.tobytes() == vox.tobytes()
    write_rvol(tmp_path / "v.rvol", vox)
    assert read_rvol(tmp_path / "v.rvol").voxels.tobytes() == vox.tobytes()

    # checkpoint round trip reproduces evaluation bitwise
    data_dir = tmp_path / "data"
    spec = SynthSpec(n_pairs=24, positive_fraction=0.5, profile="micro",
                     mode="redundant", signal_strength=0.6, noise_sigma=0.05,
                     seed=33)
    manifest = generate_dataset(spec, data_dir)
    stratified_split(manifest, (0.6, 0.15, 0.25), seed=33)
    cfg = TrainConfig(model="us", profile="micro", epochs=2, seed=7)
    record, model = train(cfg, manifest, out_dir=tmp_path / "run")

    cache = PreprocessCache(get_profile("micro"))
    items = items_from_samples(manifest.modality_samples("us", "val"), "us")
    before = evaluate(model, items, cache, cfg.resolved())

    state, _ = load_checkpoint(tmp_path / "run" / record.checkpoint_path)
    rebuilt = build_model("us", "micro", seed=123)   # different init seed
    rebuilt.load_state_arrays({k: v for k, v in state.items()
                               if not k.startswith("adam.")})
    after = evaluate(rebuilt.eval(), items, cache, cfg.resolved())
    assert before["scores"].tobytes() == after["scores"].tobytes()
    assert before["accuracy"] == after["accuracy"]
    _report(9, True,
            "NIfTI and .rvol round trips bitwise; restored checkpoint "
            "reproduces evaluation bitwise")
