"""CLI parsing, override semantics, exit codes and artifact emission."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pasfusion
from pasfusion.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_WORKER,
    ConfigError,
    main,
    parse_args,
)
from pasfusion.trainer import loop


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    cfg = out / "synth.json"
    cfg.write_text(json.dumps({
        "n_pairs": 36, "positive_fraction": 0.375, "profile": "micro",
        "mode": "redundant", "signal_strength": 0.6, "noise_sigma": 0.08,
        "seed": 9, "split_ratios": [0.6, 0.15, 0.25], "split_seed": 1,
    }))
    data = out / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    return out


class TestParsing:
    def test_basic_synth_parse(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_pairs": 4, "positive_fraction": 0.5}))
        cli = parse_args(["synth", "--config", str(cfg), "--out",
                          str(tmp_path / "d")])
        assert cli.command == "synth"
        assert cli.config["n_pairs"] == 4

    def test_override_replaces_value(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trainer": {"lr": 0.0001}}))
        cli = parse_args(["train", "--config", str(cfg), "--out", "o",
                          "--set", "trainer.lr=0.001"])
        assert cli.config["trainer"]["lr"] == 0.001

    def test_override_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trainer": {"lr": 0.0001}}))
        with pytest.raises(ConfigError, match="trainer.nope"):
            parse_args(["train", "--config", str(cfg), "--out", "o",
                        "--set", "trainer.nope=3"])

    def test_malformed_override_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            parse_args(["train", "--config", str(cfg), "--out", "o",
                        "--set", "novalue"])

    def test_duplicate_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["synth", "--out", "a", "--out", "b"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["synth", "--out", "a", "--frobnicate"])
        assert exc.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0
        assert "synth" in capsys.readouterr().out


def _malformed_cases(manifest, checkpoint, metrics_file) -> dict:
    """case -> (command, config holding one malformed value, exit code, text
    of ``metrics_file`` or None)."""
    protocol = {"manifests": {"mri": manifest, "us": manifest, "paired": manifest},
                "n_runs": 1, "epochs": {"mri": 1, "us": 1, "fusion": 1}}
    explain = {"checkpoint": checkpoint, "manifest": manifest, "max_samples": 1}
    runs = [dict(accuracy=a, auc=a, precision=a, recall=a, f1=a) for a in (0.5, 0.6)]
    bad_shape = {"a": [{"accuracy": 1}], "b": 3}
    synth = {"n_pairs": 4, "positive_fraction": 0.5}

    def trainer(**fields):
        return ("train", {"trainer": {"model": "us", "epochs": 1, **fields},
                          "manifest": manifest}, EXIT_CONFIG, None)

    return {
        "synth-positive_fraction": ("synth", {**synth, "positive_fraction": 2}, EXIT_CONFIG, None),
        "synth-n_pairs": ("synth", {**synth, "n_pairs": "x"}, EXIT_CONFIG, None),
        "synth-seed": ("synth", {**synth, "seed": -1}, EXIT_CONFIG, None),
        "synth-profile": ("synth", {**synth, "profile": "nope"}, EXIT_CONFIG, None),
        "synth-noise_sigma": ("synth", {**synth, "noise_sigma": "x"}, EXIT_CONFIG, None),
        "synth-noise_sigma-negative": ("synth", {**synth, "noise_sigma": -1}, EXIT_CONFIG, None),
        "synth-noise_sigma-infinite": ("synth", {**synth, "noise_sigma": float("inf")},
                                       EXIT_CONFIG, None),
        "synth-signal_strength": ("synth", {**synth, "signal_strength": True}, EXIT_CONFIG,
                                  None),
        "synth-split_ratios": ("synth", {**synth, "split_ratios": 5}, EXIT_CONFIG, None),
        "synth-split_seed": ("synth", {**synth, "split_ratios": [0.5, 0.25, 0.25],
                                       "split_seed": "x"}, EXIT_CONFIG, None),
        "preprocess-profile": ("preprocess", {"manifest": manifest, "profile": "nope"},
                               EXIT_CONFIG, None),
        "trainer-epochs": ("train", {"trainer": {"model": "us", "epochs": "x"},
                                     "manifest": manifest}, EXIT_CONFIG, None),
        "trainer-seed": ("train", {"trainer": {"model": "us", "seed": -1},
                                   "manifest": manifest}, EXIT_CONFIG, None),
        "trainer-profile": ("train", {"trainer": {"model": "us", "profile": "nope"},
                                      "manifest": manifest}, EXIT_CONFIG, None),
        "trainer-label_smoothing": trainer(label_smoothing="x"),
        "trainer-dropout": trainer(dropout=1.5),
        "trainer-augment": trainer(augment="no"),
        "trainer-scheduler-factor": trainer(scheduler={"factor": "x"}),
        "trainer-scheduler-patience": trainer(scheduler={"patience": "x"}),
        "trainer-warm_start-one": trainer(model="fusion", warm_start=["a.ckpt"]),
        "compare-profile": ("compare", {**protocol, "profile": "nope"}, EXIT_CONFIG, None),
        "trainer-scheduler": ("train", {"trainer": {"model": "us", "scheduler": {"bogus": 1}},
                                        "manifest": manifest}, EXIT_CONFIG, None),
        "trainer-list": ("train", {"trainer": [1, 2], "manifest": manifest}, EXIT_CONFIG, None),
        "trainer-warm_start": ("train", {"trainer": {"model": "fusion", "warm_start": 5},
                                         "manifest": manifest}, EXIT_CONFIG, None),
        "compare-manifests": ("compare", {**protocol, "manifests": 5}, EXIT_CONFIG, None),
        "train-manifest": ("train", {"trainer": {"model": "us"}, "manifest": 5}, EXIT_CONFIG,
                           None),
        "compare-n_runs": ("compare", {**protocol, "n_runs": "two"}, EXIT_CONFIG, None),
        "compare-batch_size": ("compare", {**protocol, "batch_size": "eight"}, EXIT_CONFIG, None),
        "compare-base_seed": ("compare", {**protocol, "base_seed": None}, EXIT_CONFIG, None),
        "compare-epochs": ("compare", {**protocol, "epochs": 3}, EXIT_CONFIG, None),
        "compare-epochs-kind": ("compare", {**protocol, "epochs": {"mri": "x"}},
                                EXIT_CONFIG, None),
        "multirun-n_runs": ("multirun", {"trainer": {"model": "us"}, "manifest": manifest,
                                         "n_runs": "x"}, EXIT_CONFIG, None),
        "explain-class_index": ("explain", {**explain, "class_index": "one"}, EXIT_CONFIG, None),
        "explain-patients": ("explain", {**explain, "patients": 5}, EXIT_CONFIG, None),
        "explain-max_samples": ("explain", {**explain, "max_samples": [1]}, EXIT_CONFIG, None),
        "stats-alpha": ("stats", {"metrics": {"a": runs, "b": runs}, "alpha": "x"},
                        EXIT_CONFIG, None),
        "stats-alpha-range": ("stats", {"metrics": {"a": runs, "b": runs}, "alpha": 5},
                              EXIT_CONFIG, None),
        "stats-metrics": ("stats", {"metrics": bad_shape}, EXIT_CONFIG, None),
        "stats-metrics_file": ("stats", {"metrics_file": metrics_file}, EXIT_DATA,
                               json.dumps(bad_shape)),
        "stats-metrics_file-json": ("stats", {"metrics_file": metrics_file}, EXIT_DATA,
                                    "{not json"),
    }


class TestExitCodes:
    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_missing_manifest_is_data_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 1},
            "manifest": str(tmp_path / "missing.json")}))
        code = main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_numeric_failure_code(self, dataset_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 1,
                        "seed": 0, "lr": 1e30},
            "manifest": str(dataset_dir / "data" / "manifest.json")}))
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == EXIT_NUMERIC

    def test_compare_config_error_precedes_training(self, dataset_dir, tmp_path, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(loop, "train", no_train)
        manifest = str(dataset_dir / "data" / "manifest.json")
        command, config, code, _ = _malformed_cases(manifest, "c", "f")["compare-epochs-kind"]
        assert config["epochs"] == {"mri": "x"}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code

    def test_explain_bad_class_index_is_config_error(self, dataset_dir, tmp_path):
        from pasfusion.models import build_model
        from pasfusion.trainer import save_checkpoint, snapshot_state

        ckpt = tmp_path / "us.ckpt"
        save_checkpoint(ckpt, snapshot_state(build_model("us", "micro", seed=0)),
                        {"model": "us", "profile": "micro", "seed": 0})
        cfg = tmp_path / "x.json"
        cfg.write_text(json.dumps({
            "checkpoint": str(ckpt),
            "manifest": str(dataset_dir / "data" / "manifest.json"),
            "split": "test", "max_samples": 1, "class_index": 5}))
        code = main(["explain", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("fault", ["image_header", "label"])
    def test_malformed_input_is_data_error(self, dataset_dir, tmp_path, fault):
        manifest = json.loads((dataset_dir / "data" / "manifest.json").read_text())
        sample = next(s for s in manifest["samples"] if s["modality"] == "us")
        if fault == "label":
            sample["label"] = "x"
        else:
            bad, uri = tmp_path / "bad.rimg", sample["uri"]
            bad.write_bytes(b"[1, 2]\n" + bytes(64))
            for entry in manifest["samples"] + manifest["pairing"]:
                for key in ("uri", "us"):
                    if entry.get(key) == uri:
                        entry[key] = str(bad)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 1, "seed": 0},
            "manifest": str(tmp_path / "m.json")}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_single_class_test_split_fails_before_training(self, dataset_dir, tmp_path,
                                                           monkeypatch):
        import pasfusion.trainer.loop as loop

        manifest = json.loads((dataset_dir / "data" / "manifest.json").read_text())
        for sample in manifest["samples"]:
            if sample["split"] == "test" and sample["label"] == 1:
                sample["split"] = "val"
        (tmp_path / "m.json").write_text(json.dumps(manifest))

        def no_batch(*args, **kwargs):
            raise AssertionError("a training batch was assembled")

        monkeypatch.setattr(loop, "assemble_batch", no_batch)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 1, "seed": 0},
            "manifest": str(tmp_path / "m.json")}))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert not list(out.glob("*.ckpt"))

    def test_bad_raw_extent_is_data_error(self, tmp_path):
        from pasfusion.datapipe import Sample, SampleManifest

        scan = tmp_path / "scan.rvol"
        header = json.dumps({"extents": [2.0, 4, 4], "dtype": "f32le"})
        scan.write_bytes(header.encode() + b"\n" + bytes(4 * 32))
        SampleManifest(samples=[Sample("p1", "mri", 0, str(scan), "train")]).save(
            tmp_path / "manifest.json")
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"manifest": str(tmp_path / "manifest.json"),
                                   "profile": "micro"}))
        code = main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "pp")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("offset, fmt, values", [
        (108, "<f", (float("nan"),)), (108, "<f", (float("inf"),)),
        (40, "<6h", (5,) + (32767,) * 5)])
    def test_bad_nifti_header_is_data_error(self, tmp_path, offset, fmt, values):
        import struct

        from pasfusion.datapipe import Sample, SampleManifest, Volume, write_nifti

        scan = tmp_path / "scan.nii"
        write_nifti(scan, Volume(voxels=np.zeros((4, 4, 4), np.float32)))
        blob = bytearray(scan.read_bytes())
        struct.pack_into(fmt, blob, offset, *values)
        scan.write_bytes(bytes(blob))
        SampleManifest(samples=[Sample("p1", "mri", 0, str(scan), "train")]).save(
            tmp_path / "manifest.json")
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"manifest": str(tmp_path / "manifest.json"),
                                   "profile": "micro"}))
        code = main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "pp")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("fault", ["magic", "sidecar", "seed", "profile"])
    def test_bad_checkpoint_is_data_error(self, dataset_dir, tmp_path, fault):
        from pasfusion.models import build_model
        from pasfusion.trainer import save_checkpoint, snapshot_state

        ckpt = tmp_path / "us.ckpt"
        sidecar = {"model": "us", "profile": "micro", "seed": 0}
        if fault in ("seed", "profile"):
            sidecar[fault] = {"seed": "x", "profile": "nope"}[fault]
        save_checkpoint(ckpt, snapshot_state(build_model("us", "micro", seed=0)),
                        sidecar)
        if fault == "magic":
            ckpt.write_bytes(b"NDC0" + ckpt.read_bytes()[4:])
        elif fault == "sidecar":
            (tmp_path / "us.ckpt.json").write_text("{not json")
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps({
            "checkpoint": str(ckpt),
            "manifest": str(dataset_dir / "data" / "manifest.json"), "split": "test"}))
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case", list(_malformed_cases("m", "c", "f")))
    def test_malformed_config_value_exits_cleanly(self, dataset_dir, tmp_path, capsys, case):
        manifest = str(dataset_dir / "data" / "manifest.json")
        ckpt, metrics_file = tmp_path / "us.ckpt", tmp_path / "metrics.json"
        command, config, code, file_text = _malformed_cases(
            manifest, str(ckpt), str(metrics_file))[case]
        if command == "explain":
            from pasfusion.models import build_model
            from pasfusion.trainer import save_checkpoint, snapshot_state

            save_checkpoint(ckpt, snapshot_state(build_model("us", "micro", seed=0)),
                            {"model": "us", "profile": "micro", "seed": 0})
        if file_text is not None:
            metrics_file.write_text(file_text)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        lines = capsys.readouterr().err.splitlines()
        prefix = "config error: " if code == EXIT_CONFIG else "data error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


class TestArtifacts:
    def test_synth_writes_manifest_and_run_record(self, dataset_dir):
        data = dataset_dir / "data"
        manifest = json.loads((data / "manifest.json").read_text())
        assert len(manifest["pairing"]) == 36
        run = json.loads((data / "run.json").read_text())
        assert run["command"] == "synth"
        assert "config_hash" in run and len(run["config_hash"]) == 64

    def test_train_emits_record_csv_checkpoint(self, dataset_dir, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 2,
                        "seed": 0, "batch_size": 8},
            "manifest": str(dataset_dir / "data" / "manifest.json")}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        record = json.loads((out / "record.json").read_text())
        assert len(record["val_accuracy"]) == 2
        lines = (out / "epochs.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy,lr"
        assert len(lines) == 3
        assert (out / "us_seed0.ckpt").exists()

    def test_eval_and_explain_from_checkpoint(self, dataset_dir, tmp_path):
        tcfg = tmp_path / "t.json"
        tcfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 2,
                        "seed": 0},
            "manifest": str(dataset_dir / "data" / "manifest.json")}))
        run = tmp_path / "run"
        assert main(["train", "--config", str(tcfg), "--out", str(run)]) == EXIT_OK

        ecfg = tmp_path / "e.json"
        ecfg.write_text(json.dumps({
            "checkpoint": str(run / "us_seed0.ckpt"),
            "manifest": str(dataset_dir / "data" / "manifest.json"),
            "split": "test"}))
        eout = tmp_path / "eval"
        assert main(["eval", "--config", str(ecfg), "--out", str(eout)]) == EXIT_OK
        metrics = json.loads((eout / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy", "auc", "precision", "recall", "f1"}
        assert (eout / "roc.svg").exists()

        xcfg = tmp_path / "x.json"
        xcfg.write_text(json.dumps({
            "checkpoint": str(run / "us_seed0.ckpt"),
            "manifest": str(dataset_dir / "data" / "manifest.json"),
            "split": "test", "max_samples": 2, "class_index": 1}))
        xout = tmp_path / "explain"
        assert main(["explain", "--config", str(xcfg), "--out", str(xout)]) == EXIT_OK
        index = json.loads((xout / "explain_index.json").read_text())
        assert len(index) == 2
        assert any(Path(e["overlay"]).exists() for e in index)

    def test_preprocess_command(self, dataset_dir, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({
            "manifest": str(dataset_dir / "data" / "manifest.json"),
            "profile": "micro"}))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        man = json.loads((out / "manifest.json").read_text())
        assert len(man["samples"]) == 72
        assert all(Path(s["uri"]).exists() for s in man["samples"])

    def test_multirun_command(self, dataset_dir, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "trainer": {"model": "us", "profile": "micro", "epochs": 1,
                        "seed": 0},
            "manifest": str(dataset_dir / "data" / "manifest.json"),
            "n_runs": 2}))
        out = tmp_path / "multi"
        assert main(["multirun", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["metrics"]) == 2
        assert "mean" in summary["summary"]["accuracy"]
        lines = (out / "runs.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_stats_command(self, tmp_path):
        rows = lambda base, n: [dict(accuracy=base, auc=base, precision=base,
                                     recall=base, f1=base) for _ in range(n)]
        rng = np.random.default_rng(0)
        jitter = lambda rs: [{k: v + rng.normal(0, 0.01) for k, v in r.items()}
                             for r in rs]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"metrics": {
            "fusion": jitter(rows(0.92, 5)),
            "mri": jitter(rows(0.80, 5)),
            "us": jitter(rows(0.86, 5))}}))
        out = tmp_path / "stats"
        assert main(["stats", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "comparison.json").read_text())
        assert report["correction"].startswith("benjamini")
        assert set(report["metrics"]) == {"accuracy", "auc", "precision",
                                          "recall", "f1"}


def _fake_train(cfg, manifest, **kwargs):
    record = loop.RunRecord(cfg.model, cfg.seed, best_epoch=0,
                            best_val_accuracy=1.0)
    record.test_metrics = {"accuracy": 1.0}
    return record, None


def _multirun_config(dataset_dir, tmp_path, n_runs):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({
        "trainer": {"model": "us", "profile": "micro", "epochs": 1, "seed": 0},
        "manifest": str(dataset_dir / "data" / "manifest.json"),
        "n_runs": n_runs}))
    return cfg


class TestVerbose:
    def test_verbose_logs_dispatch_and_each_seed(self, dataset_dir, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.setattr(loop, "train", _fake_train)
        cfg = _multirun_config(dataset_dir, tmp_path, 2)
        assert main(["multirun", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["multirun", "--config", str(cfg), "--out",
                     str(tmp_path), "--verbose"]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("dispatch: 2 runs, ")
        assert lines[1:] == [f"us seed {s}: best epoch 0, best val accuracy 1.0000"
                             for s in (0, 1)]


# Run in a child on two CPUs whose BLAS is pinned to one thread before numpy
# loads, so the seeds fork into two workers; fork carries the patched
# ``loop.train`` along. Seed 1 fails at once; the other seeds take a second.
_FAULTY_MULTIRUN = """
import os, sys, time
from pathlib import Path
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from pasfusion.cli import main
from pasfusion.trainer import loop
from test_cli import _fake_train

fault, started = sys.argv[1], Path(sys.argv[2])

def train(cfg, manifest, **kwargs):
    (started / str(cfg.seed)).touch()
    if cfg.seed == 1:
        if fault == "exit":
            os._exit(9)
        raise {"data": loop.DataError, "numeric": loop.NumericError}[fault]("planted")
    time.sleep(1)
    return _fake_train(cfg, manifest)

loop.train = train
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to fork two workers")
class TestWorkerFailures:
    @pytest.mark.parametrize("fault, code, message", [
        ("data", EXIT_DATA, "data error: planted"),
        ("numeric", EXIT_NUMERIC, "numeric error: planted"),
        ("exit", EXIT_WORKER, "worker error: a worker process died; "
                              "seeds [0, 1, 2, 3, 4, 5] did not finish"),
    ])
    def test_worker_failure_keeps_exit_code(self, dataset_dir, tmp_path,
                                            fault, code, message):
        cfg = _multirun_config(dataset_dir, tmp_path, 6)
        started = tmp_path / "started"
        started.mkdir()
        path = [str(Path(pasfusion.__file__).resolve().parents[1]),
                str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTY_MULTIRUN, fault, str(started),
             "multirun", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--verbose"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        # the dispatch log line, then the failure as one line, no traceback
        assert proc.stderr.splitlines() == ["dispatch: 6 runs, 2 workers, nproc 2",
                                            message]
        # seeds after the failure never started
        assert sorted(p.name for p in started.iterdir()) == ["0", "1"]
