"""The benchmark's workloads: inputs, rounds of operations and output checks.

A workload makes its inputs from the benchmark seed in ``setup``, then runs
whole rounds of the same operations; ``run_round`` times the operations of
one round and checks their outputs after the clock stops. ``finish`` makes
the checks that need all rounds, and ``probe`` measures the per-layer
quantities that need a dedicated call (traced runs only).

Checks compare with ``reference`` (written apart from the program) or with
properties the method must have; none compares with stored output.
"""
from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
import time
import tracemalloc
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import pasfusion.cli
import pasfusion.datapipe as dp
import pasfusion.gradcam
import pasfusion.models
import pasfusion.ndcore as ndc
import pasfusion.synthgen
import pasfusion.trainer as tr
from pasfusion.models.profiles import MICRO, PAPER

import reference as ref

MODEL_KINDS = ("mri", "us", "fusion")
METRIC_NAMES = ("accuracy", "auc", "precision", "recall", "f1")


class Workload:
    name = ""
    setup_reps = 3
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> tuple[float, int, int]:
        """-> (seconds the operations took, attempted, failed)."""
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def probe(self) -> dict:
        return {"ndcore.grad_dtype_mismatches": 0.0, "ndcore.alloc_peak_mb": 0.0}


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _grad_dtype_mismatches(model) -> int:
    return sum(1 for p in model.parameters()
               if p.grad is not None and p.grad.dtype != p.dtype)


def _alloc_peak_mb(fn) -> float:
    """Peak bytes traced by ``tracemalloc`` while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# -- compare-micro ------------------------------------------------------------------

class CompareMicro(Workload):
    """``pasfusion compare --deterministic`` at the micro profile, two runs."""

    name = "compare-micro"
    setup_reps = 9          # each set-up takes ~0.15 s, so take more of them
    N_PAIRED, N_UNIMODAL, N_RUNS = 32, 40, 2
    EPOCHS = {"mri": 1, "us": 1, "fusion": 2}

    def setup(self, work: Path) -> None:
        seed = self.seed
        paired = pasfusion.synthgen.generate_dataset(pasfusion.synthgen.SynthSpec(
            n_pairs=self.N_PAIRED, positive_fraction=0.375, profile="micro",
            mode="complementary", seed=seed), work / "paired")
        dp.stratified_split(paired, (0.5, 0.25, 0.25), seed)
        paired.save(work / "paired" / "manifest.json")
        uni = pasfusion.synthgen.generate_dataset(pasfusion.synthgen.SynthSpec(
            n_pairs=self.N_UNIMODAL, positive_fraction=0.375, profile="micro",
            mode="redundant", seed=seed + 1), work / "uni")
        dp.stratified_split(uni, (0.6, 0.2, 0.2), seed + 1)
        uni.unimodal("mri").save(work / "uni" / "mri.json")
        uni.unimodal("us").save(work / "uni" / "us.json")
        self.config = {
            "manifests": {"mri": str(work / "uni" / "mri.json"),
                          "us": str(work / "uni" / "us.json"),
                          "paired": str(work / "paired" / "manifest.json")},
            "profile": "micro", "n_runs": self.N_RUNS, "base_seed": seed,
            "batch_size": 8, "epochs": dict(self.EPOCHS)}
        (work / "compare.json").write_text(json.dumps(self.config))
        self.work = work
        self.first: dict[str, bytes] | None = None

    def run_round(self, r: int):
        out = self.work / f"round{r}"
        argv = ["compare", "--config", str(self.work / "compare.json"),
                "--out", str(out), "--deterministic"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = pasfusion.cli.main(argv)
        except Exception:
            rc = None
            _report_failure(f"compare round {r}")
        seconds = time.perf_counter() - t0
        if rc != 0:
            print(f"compare round {r} exited with {rc}", file=sys.stderr)
            return seconds, self.N_RUNS, self.N_RUNS
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.first is None:
            self.first = files
            self.first_dir = out
        else:
            # --deterministic promises bitwise-identical artifacts
            self.check(files == self.first,
                       f"round {r} artifacts differ from round 0: "
                       f"{sorted(k for k in files if files[k] != self.first.get(k))}")
            shutil.rmtree(out)
        return seconds, self.N_RUNS, 0

    def _test_pairs(self):
        manifest = json.loads(Path(self.config["manifests"]["paired"]).read_text())
        test_ids = {s["patient_id"] for s in manifest["samples"] if s["split"] == "test"}
        return [p for p in manifest["pairing"] if p["patient_id"] in test_ids]

    def finish(self) -> None:
        if self.first is None:
            self.check(False, "no compare round succeeded")
            return
        out = self.first_dir
        pairs = self._test_pairs()
        run_record = json.loads((out / "run.json").read_text())
        self.check(run_record["test_size"] == len(pairs),
                   f"test_size {run_record['test_size']} != {len(pairs)} test pairs")
        metrics = json.loads((out / "metrics.json").read_text())
        self._check_metrics(out, metrics, pairs)
        self._check_comparison(json.loads((out / "comparison.json").read_text()), metrics)

    def _check_metrics(self, out: Path, metrics: dict, pairs: list[dict]) -> None:
        """Each reported metric equals the one recomputed from the checkpoint's scores."""
        cache = tr.PreprocessCache(MICRO)
        fused = tr.items_from_pairs(dp.SampleManifest.load(
            self.config["manifests"]["paired"]), "test")
        labels = np.array([p["label"] for p in pairs])
        items = {"fusion": fused,
                 "mri": [replace(it, us_uri=None) for it in fused],
                 "us": [replace(it, mri_uri=None) for it in fused]}
        for kind in MODEL_KINDS:
            self.check(len(metrics[kind]) == self.N_RUNS,
                       f"{kind}: {len(metrics[kind])} runs reported")
            for run, reported in enumerate(metrics[kind]):
                state, sidecar = tr.load_checkpoint(out / f"{kind}_seed{self.seed + run}.ckpt")
                model = pasfusion.models.build_model(kind, "micro", seed=sidecar["seed"])
                model.load_state_arrays({k: v for k, v in state.items()
                                         if not k.startswith("adam.")})
                cfg = tr.TrainConfig(model=kind, profile="micro", seed=sidecar["seed"],
                                     batch_size=self.config["batch_size"]).resolved()
                scored = tr.evaluate(model, items[kind], cache, cfg)
                self.check(np.array_equal(scored["labels"], labels),
                           f"{kind} run {run}: labels differ from the manifest's test pairs")
                expected = ref.confusion_metrics(labels, scored["scores"])
                expected["auc"] = ref.mann_whitney_auc(labels, scored["scores"])
                for name in METRIC_NAMES:
                    self.check(math.isclose(reported[name], expected[name],
                                            rel_tol=1e-12, abs_tol=1e-12),
                               f"{kind} run {run} {name}: reported {reported[name]}, "
                               f"recomputed {expected[name]}")

    def _check_comparison(self, comparison: dict, metrics: dict) -> None:
        """ANOVA, paired-t and BH values against scipy.stats and the BH formula.

        Degenerate structures follow ``compare_models``' documented scoring:
        SS_error zero with no condition effect gives F = 0, p = 1; with an
        effect it gives p = 0; constant paired differences give p = 1 when
        they are zero and p = 0 otherwise.
        """
        models = comparison["models"]
        alpha = comparison["alpha"]
        close = dict(rel_tol=1e-8, abs_tol=1e-12)
        for metric in METRIC_NAMES:
            entry = comparison["metrics"][metric]
            matrix = [[metrics[m][run][metric] for m in models] for run in range(self.N_RUNS)]
            anova = ref.rm_anova(matrix)
            tol = 1e-12 * max(anova["ss_total"], 1e-30)
            if anova["ss_err"] > tol:
                expected_p = anova["p"]
                self.check(math.isclose(entry["anova"]["statistic"], anova["f"], **close),
                           f"{metric}: ANOVA F {entry['anova']['statistic']} != {anova['f']}")
            else:
                expected_p = 1.0 if anova["ss_cond"] <= tol else 0.0
            self.check(math.isclose(entry["anova"]["p"], expected_p, **close),
                       f"{metric}: ANOVA p {entry['anova']['p']} != {expected_p}")
            self.check(list(entry["anova"]["dof"]) == list(anova["dof"]),
                       f"{metric}: ANOVA dof {entry['anova']['dof']} != {anova['dof']}")
            pairwise = entry["pairwise"]
            if not expected_p < alpha:
                self.check(not pairwise, f"{metric}: pairwise tests ran with ANOVA p >= alpha")
                continue
            names, raw = [], []
            for left, right in (("fusion", "mri"), ("fusion", "us"), ("mri", "us")):
                a = [r[metric] for r in metrics[left]]
                b = [r[metric] for r in metrics[right]]
                p = ref.paired_t_p(a, b)
                if p is None:
                    p = 1.0 if np.mean(np.subtract(a, b)) == 0.0 else 0.0
                names.append(f"{left}_vs_{right}")
                raw.append(p)
            for name, p, adj in zip(names, raw, ref.bh_adjust(raw)):
                got = pairwise.get(name)
                if not self.check(got is not None, f"{metric}: pairwise {name} missing"):
                    continue
                self.check(math.isclose(got["p"], p, **close),
                           f"{metric} {name}: p {got['p']} != {p}")
                self.check(math.isclose(got["p_adjusted"], adj, **close),
                           f"{metric} {name}: BH p {got['p_adjusted']} != {adj}")
                self.check(got["significant"] == bool(adj < alpha),
                           f"{metric} {name}: significance flag")

    def probe(self) -> dict:
        """Allocation peak and gradient dtypes over one train step per model kind."""
        cache = tr.PreprocessCache(MICRO)
        paired = dp.SampleManifest.load(self.config["manifests"]["paired"])
        peak, mismatches = 0.0, 0
        for kind in MODEL_KINDS:
            if kind == "fusion":
                items = tr.items_from_pairs(paired, "train")[:8]
            else:
                manifest = dp.SampleManifest.load(self.config["manifests"][kind])
                items = tr.items_from_samples(manifest.modality_samples(kind, "train"), kind)[:8]
            batch = tr.assemble_batch(items, cache, kind, augment=False, seed=self.seed, epoch=0)
            model = pasfusion.models.build_model(kind, "micro", seed=self.seed)
            inputs = {"mri": ("volumes",), "us": ("images",),
                      "fusion": ("volumes", "images")}[kind]

            def step():
                with ndc.Tape():
                    out = model(*[ndc.Tensor(batch[k]) for k in inputs])
                    if kind == "fusion":
                        loss = ndc.bce_loss(out.probability, batch["labels"].astype(np.float32))
                    else:
                        loss = ndc.cross_entropy(out.logits, batch["labels"])
                    ndc.backward(loss)

            peak = max(peak, _alloc_peak_mb(step))
            mismatches += _grad_dtype_mismatches(model)
        return {"ndcore.grad_dtype_mismatches": float(mismatches),
                "ndcore.alloc_peak_mb": peak}


# -- paper-infer ----------------------------------------------------------------------

class PaperInfer(Workload):
    """Paper-profile scoring, one case at a time: a fusion prediction and a
    US Grad-CAM map per case."""

    name = "paper-infer"
    setup_reps = 3
    min_rounds = 2          # the batch-of-two check needs cases 0 and 1
    N_CASES = 4
    CLASS_INDEX = 1

    def setup(self, work: Path) -> None:
        self.fusion = self.us = None        # free the previous set-up's models first
        spec = pasfusion.synthgen.SynthSpec(n_pairs=self.N_CASES, positive_fraction=0.5,
                                            profile="paper", mode="complementary",
                                            seed=self.seed)
        self.cases = []
        for i in range(self.N_CASES):
            vox, pixels, _label, _flags = pasfusion.synthgen.generate_pair(spec, i)
            volume = dp.preprocess_mri(dp.Volume(voxels=vox), target=PAPER.mri_input).voxels
            image = dp.preprocess_us(pixels, target=PAPER.us_input)
            self.cases.append((volume, image))
        self.fusion = pasfusion.models.build_model("fusion", "paper", seed=self.seed).eval()
        self.us = pasfusion.models.build_model("us", "paper", seed=self.seed + 1).eval()
        self.predictions: dict[int, list[float]] = {}
        self.maps: dict[int, list[np.ndarray]] = {}

    def _predict(self, volumes: np.ndarray, images: np.ndarray):
        with ndc.no_grad():
            return self.fusion(ndc.Tensor(volumes[:, None]), ndc.Tensor(images))

    def run_round(self, r: int):
        case = r % self.N_CASES
        volume, image = self.cases[case]
        failed = 0
        t0 = time.perf_counter()
        try:
            out = self._predict(volume[None], image[None])
        except Exception:
            out = None
            failed += 1
            _report_failure(f"fusion prediction, case {case}")
        t1 = time.perf_counter()
        try:
            heat = pasfusion.gradcam.gradcam(self.us, (image,), self.CLASS_INDEX,
                                             sample_id=f"case{case}")
        except Exception:
            heat = None
            failed += 1
            _report_failure(f"US Grad-CAM, case {case}")
        seconds = time.perf_counter() - t0
        if out is not None:
            self._check_prediction(case, out)
        if heat is not None:
            self._check_map(case, heat.values)
        print(f"round {r}: prediction {t1 - t0:.3f} s, map {seconds - (t1 - t0):.3f} s",
              file=sys.stderr)
        return seconds, 2, failed

    def _check_prediction(self, case: int, out) -> None:
        shapes = {k: out.shapes[k] for k in ("f_combined", "f_us", "fused")}
        self.check(shapes == {"f_combined": 896, "f_us": 2048, "fused": 2944},
                   f"case {case}: feature ledger {shapes}")
        logit = float(out.logits.data.reshape(-1)[0])
        prob = out.probability.data.reshape(-1)[0]
        expected = np.float32(ref.sigmoid(logit))
        # float32 sigmoid: within two units in the last place of the float64 value
        self.check(np.isfinite(logit) and abs(float(prob) - float(expected)) <= 2.4e-7,
                   f"case {case}: probability {prob} != sigmoid({logit}) = {expected}")
        self.check(0.0 <= prob <= 1.0, f"case {case}: probability {prob} outside [0, 1]")
        self.predictions.setdefault(case, []).append(logit)

    def _check_map(self, case: int, values: np.ndarray) -> None:
        self.check(values.shape == PAPER.us_input, f"case {case}: map shape {values.shape}")
        self.check(bool(np.all(np.isfinite(values))) and values.min() >= 0.0
                   and values.max() <= 1.0, f"case {case}: map outside [0, 1]")
        self.maps.setdefault(case, []).append(values)

    def finish(self) -> None:
        # every map equals the CAM of the GAP-linear head at the final feature map
        tap = self.us.cam_target()
        weights = self.us.fc.weight.data
        for case, maps in self.maps.items():
            tap.capture = True
            try:
                with ndc.no_grad():
                    self.us(ndc.Tensor(self.cases[case][1][None]))
                feature_map = tap.captured.data[0]
            finally:
                tap.capture = False
                tap.captured = None
            cam = ref.class_activation_map(feature_map, weights, self.CLASS_INDEX,
                                           PAPER.us_input)
            for values in maps:
                err = float(np.max(np.abs(values - cam)))
                self.check(err <= 1e-4, f"case {case}: Grad-CAM differs from CAM by {err}")
        # scoring two cases as one batch gives the single-case results
        if 0 in self.predictions and 1 in self.predictions:
            volumes = np.stack([self.cases[0][0], self.cases[1][0]])
            images = np.stack([self.cases[0][1], self.cases[1][1]])
            batch = self._predict(volumes, images).logits.data.reshape(-1)
            single = np.array([self.predictions[0][0], self.predictions[1][0]])
            err = float(np.max(np.abs(batch - single) / np.maximum(np.abs(single), 1.0)))
            self.check(err <= 1e-4, f"batch-of-two logits differ from single-case ones by {err}")
        else:
            self.check(False, "fewer than two cases scored; batch check not made")

    def probe(self) -> dict:
        """Allocation peak over one prediction and one map; gradient dtypes after the map."""
        volume, image = self.cases[0]
        for p in self.us.parameters():
            p.zero_grad()
        peak = max(_alloc_peak_mb(lambda: self._predict(volume[None], image[None])),
                   _alloc_peak_mb(lambda: pasfusion.gradcam.gradcam(
                       self.us, (image,), self.CLASS_INDEX)))
        return {"ndcore.grad_dtype_mismatches": float(_grad_dtype_mismatches(self.us)),
                "ndcore.alloc_peak_mb": peak}


# -- ingest-paper -----------------------------------------------------------------------

# native (H, W, D) extents and on-disk format of the MRI scans; the last one
# is stored depth-major, so its long axes sit last
MRI_SCANS = [((160, 160, 80), "nii"), ((192, 192, 96), "rvol"), ((128, 128, 64), "nii"),
             ((96, 96, 48), "rvol"), ((144, 176, 72), "nii"), ((200, 160, 90), "rvol"),
             ((112, 128, 40), "nii"), ((176, 176, 64), "rvol"), ((64, 128, 128), "nii")]
US_SCANS = [(300, 400), (480, 640), (224, 224), (256, 320), (600, 800), (180, 240),
            (400, 400), (360, 480)]
RAMP_EXTENTS = (100, 100, 50)


def _synthetic_volume(rng: np.random.Generator, extents) -> np.ndarray:
    """Body ellipsoid of smooth tissue plus noise, in air with a noise floor."""
    axes = np.ogrid[tuple(slice(0, e) for e in extents)]
    centre = [e * rng.uniform(0.45, 0.55) for e in extents]
    radii = [e * rng.uniform(0.30, 0.42) for e in extents]
    r2 = sum(((a - c) / r) ** 2 for a, c, r in zip(axes, centre, radii))
    waves = sum(np.sin(a * rng.uniform(0.05, 0.2) + rng.uniform(0, 6.3)) for a in axes)
    tissue = 0.5 + 0.1 * waves + 0.05 * rng.standard_normal(extents)
    air = np.abs(0.03 * rng.standard_normal(extents))
    return np.where(r2 <= 1.0, np.maximum(tissue, 0.05), air).astype(np.float32)


def _synthetic_image(rng: np.random.Generator, extents) -> np.ndarray:
    """Ultrasound-like frame: zero outside the scan sector, speckle inside and
    saturated echoes (clipped plateaus) a few dozen pixels across."""
    h, w = extents
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    angle = np.arctan2(xx - w / 2, yy + 0.05 * h)
    sector = (np.abs(angle) < 0.6) & (yy > 0.05 * h) & (np.hypot(xx - w / 2, yy) < 0.95 * h)
    speckle = rng.rayleigh(0.25, size=extents)
    for _ in range(2):
        cy, cx = rng.uniform(0.4, 0.7) * h, w / 2 + rng.uniform(-0.1, 0.1) * w
        radius = rng.uniform(0.06, 0.09) * min(h, w)
        speckle[np.hypot(yy - cy, xx - cx) < radius] = 2.0
    return np.where(sector, np.minimum(speckle, 1.0), 0.0).astype(np.float32)


def _padding_region(extents, target):
    """Where the uniform-scale geometry puts a volume on the grid."""
    scale = min(t / e for t, e in zip(target, extents))
    scaled = [max(1, int(round(e * scale))) for e in extents]
    return tuple(slice((t - s) // 2, (t - s) // 2 + s) for t, s in zip(target, scaled))


class IngestPaper(Workload):
    """Raw scans at mixed native sizes onto the paper grid through
    ``PreprocessCache``, then one training augmentation pass."""

    name = "ingest-paper"
    setup_reps = 3

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        work.mkdir(parents=True, exist_ok=True)
        self.mri = []
        for i, (extents, fmt) in enumerate(MRI_SCANS):
            path = work / f"mri{i}.{fmt}"
            voxels = _synthetic_volume(rng, extents)
            if fmt == "nii":
                dp.write_nifti(path, dp.Volume(voxels=voxels))
            else:
                dp.write_rvol(path, voxels)
            self.mri.append((str(path), extents))
        self.us = []
        for i, extents in enumerate(US_SCANS):
            path = work / f"us{i}.rimg"
            dp.write_rimg(path, _synthetic_image(rng, extents))
            self.us.append(str(path))
        ramp = np.broadcast_to(np.arange(RAMP_EXTENTS[0], dtype=np.float32)[:, None, None],
                               RAMP_EXTENTS)
        self.ramp = str(work / "ramp.nii")
        dp.write_nifti(self.ramp, dp.Volume(voxels=np.ascontiguousarray(ramp)))
        self.first: list[np.ndarray] | None = None

    def run_round(self, r: int):
        cache = tr.PreprocessCache(PAPER)
        failed = 0
        cached, augmented = [], []
        t0 = time.perf_counter()
        for uri, lookup in [(u, cache.volume) for u, _ in self.mri] + \
                           [(u, cache.image) for u in self.us]:
            try:
                cached.append(lookup(uri))
            except Exception:
                cached.append(None)
                failed += 1
                _report_failure(f"ingest {uri}")
        for i, arr in enumerate(cached):
            if arr is None:
                continue
            rng = dp.sample_rng(self.seed, f"scan{i}", r)
            try:
                if i < len(self.mri):
                    augmented.append(dp.augment_mri(dp.Volume(voxels=arr), rng).voxels)
                else:
                    augmented.append(dp.augment_us(arr, rng))
            except Exception:
                failed += 1
                _report_failure(f"augment scan {i}")
        seconds = time.perf_counter() - t0
        attempted = 2 * len(cached)
        self._check_round(r, cached, augmented)
        return seconds, attempted, failed

    def _check_round(self, r: int, cached, augmented) -> None:
        grid = [PAPER.mri_input] * len(self.mri) + [(3,) + PAPER.us_input] * len(self.us)
        for i, (arr, shape) in enumerate(zip(cached, grid)):
            if arr is None:
                continue
            self.check(arr.shape == shape, f"scan {i}: cached shape {arr.shape} != {shape}")
            self.check(arr.min() == 0.0 and arr.max() == 1.0,
                       f"scan {i}: cached span [{arr.min()}, {arr.max()}] is not [0, 1]")
        for i, arr in enumerate(augmented):
            self.check(arr.dtype == np.float32 and bool(np.all(np.isfinite(arr))),
                       f"scan {i}: augmented output not finite float32")
        if self.first is None:
            self.first = cached
            for (_, extents), arr in zip(self.mri, cached):
                if arr is not None:
                    self._check_padding(extents, arr)
        else:
            same = all(a is None or b is None or np.array_equal(a, b)
                       for a, b in zip(cached, self.first))
            self.check(same, f"round {r}: cached arrays differ from round 0")

    def _check_padding(self, extents, vol: np.ndarray) -> None:
        region = _padding_region(extents, PAPER.mri_input)
        mask = np.ones(vol.shape, dtype=bool)
        mask[region] = False
        if mask.any():
            pad = vol[mask]
            self.check(bool(np.all(pad == pad[0])), f"{extents}: padding is not constant")
            inside = vol[region]
            for axis in range(3):
                for end in (0, -1):
                    face = np.take(inside, end, axis=axis)
                    self.check(bool(np.any(face != pad[0])),
                               f"{extents}: padding reaches into the scaled region")
        else:
            self.check(vol.shape == PAPER.mri_input, f"{extents}: no padding expected")

    def finish(self) -> None:
        cache = tr.PreprocessCache(PAPER)
        # a linear ramp along H stays a linear ramp away from the clamped border
        ramp = cache.volume(self.ramp).astype(np.float64)
        self.check(ramp.shape == PAPER.mri_input, f"ramp shape {ramp.shape}")
        line = ramp[:, 0, 0]
        self.check(np.max(np.abs(ramp - line[:, None, None])) <= 1e-6,
                   "ramp volume varies across W or D")
        interior = line[2:-2]
        self.check(np.max(np.abs(np.diff(interior, 2))) <= 1e-5 and
                   bool(np.all(np.diff(interior) > 0)),
                   "resampled ramp is not linear away from the border")
        # augmenting a constant scan leaves it constant inside its support
        level = 0.6
        for k in range(3):
            rng = dp.sample_rng(self.seed, "constant", k)
            vol = dp.augment_mri(dp.Volume(voxels=np.full(PAPER.mri_input, level,
                                                          np.float32)), rng).voxels
            self.check(np.max(np.abs(vol - level)) <= 1e-6, "augmented constant volume varies")
            img = dp.augment_us(np.full((3,) + PAPER.us_input, level, np.float32), rng)
            h, w = PAPER.us_input
            yy, xx = np.mgrid[0:h, 0:w]
            disc = np.hypot(yy - (h - 1) / 2, xx - (w - 1) / 2) <= (min(h, w) - 1) / 2 - 1.5
            self.check(np.max(np.abs(img[:, disc] - level)) <= 1e-6,
                       "augmented constant image varies inside its support")
            self.check(img.min() >= 0.0 and img.max() <= level + 1e-6,
                       "augmented constant image leaves [0, level]")


WORKLOADS = {w.name: w for w in (CompareMicro, PaperInfer, IngestPaper)}
