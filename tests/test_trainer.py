"""Optimizer/scheduler oracles, best-epoch selection, checkpoint fidelity,
and training-loop behavior on tiny synthetic datasets."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasfusion import ndcore as ndc
from pasfusion.datapipe import stratified_split
from pasfusion.models import build_model
from pasfusion.synthgen import SynthSpec, generate_dataset
from pasfusion.trainer import (
    Adam,
    NumericError,
    PlateauScheduler,
    PreprocessCache,
    SchedulerConfig,
    TrainConfig,
    adam_update,
    best_epoch_index,
    comparative_protocol,
    evaluate,
    load_checkpoint,
    multi_run,
    save_checkpoint,
    snapshot_state,
    train,
)
from pasfusion.models.profiles import get_profile

from oracles import adam_single_step


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinydata")
    spec = SynthSpec(n_pairs=48, positive_fraction=0.375, profile="micro",
                     mode="redundant", signal_strength=0.6, noise_sigma=0.08,
                     seed=21)
    manifest = generate_dataset(spec, out)
    stratified_split(manifest, (0.6, 0.15, 0.25), seed=2)
    manifest.save(out / "manifest.json")
    return manifest


class TestAdam:
    def test_zero_gradient_keeps_parameter(self):
        p = ndc.Parameter(np.array([1.5, -0.5], np.float32), name="w")
        opt = Adam([p], lr=1e-2)
        p.grad = np.zeros(2, np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -0.5])
        assert opt.t == 1

    def test_first_step_closed_form(self):
        # w=0, g=1, t=1: update ~ -lr within eps adjustment
        w, m, v = adam_update(np.float64(0.0), np.float64(1.0),
                              np.float64(0.0), np.float64(0.0), 1, lr=1e-4)
        assert abs(w - (-1e-4)) < 1e-9

    def test_matches_closed_form_oracle_100_draws(self):
        rng = np.random.default_rng(5)
        w = np.float64(rng.normal())
        m = v = np.float64(0.0)
        ow, om, ov = w, m, v
        for t in range(1, 101):
            g = np.float64(rng.normal())
            w, m, v = adam_update(w, g, m, v, t, lr=3e-3)
            ow, om, ov = adam_single_step(ow, g, om, ov, t, lr=3e-3)
            assert abs(w - ow) < 1e-9
            assert abs(m - om) < 1e-12 and abs(v - ov) < 1e-12

    def test_gradient_shape_mismatch(self):
        p = ndc.Parameter(np.zeros(3, np.float32), name="w")
        opt = Adam([p])
        p.grad = np.zeros(4, np.float32)
        with pytest.raises(ValueError):
            opt.step()

    def test_moments_decay_without_gradient(self):
        p = ndc.Parameter(np.zeros(1, np.float32), name="w")
        opt = Adam([p], lr=1e-3)
        p.grad = np.ones(1, np.float32)
        opt.step()
        m1 = opt.m["w"].copy()
        p.grad = np.zeros(1, np.float32)
        opt.step()
        assert abs(opt.m["w"][0]) < abs(m1[0])


class TestScheduler:
    def _opt(self, lr=1e-4):
        p = ndc.Parameter(np.zeros(1, np.float32), name="w")
        return Adam([p], lr=lr)

    def test_improving_loss_keeps_lr(self):
        opt = self._opt()
        sched = PlateauScheduler(opt, SchedulerConfig(patience=3))
        for loss in [1.0, 0.9, 0.8, 0.7, 0.6]:
            sched.step(loss)
        assert opt.lr == 1e-4

    def test_flat_loss_reduces_after_patience(self):
        opt = self._opt()
        sched = PlateauScheduler(opt, SchedulerConfig(factor=0.1, patience=10))
        lrs = [sched.step(1.0) for _ in range(11)]
        assert lrs[9] == pytest.approx(1e-4)
        assert lrs[10] == pytest.approx(1e-5)

    def test_min_lr_clamp(self):
        opt = self._opt()
        sched = PlateauScheduler(opt, SchedulerConfig(factor=0.1, patience=1,
                                                      min_lr=1e-7))
        for _ in range(30):
            sched.step(1.0)
        assert opt.lr == pytest.approx(1e-7)

    def test_improvement_must_beat_threshold(self):
        opt = self._opt()
        sched = PlateauScheduler(opt, SchedulerConfig(factor=0.5, patience=2,
                                                      threshold=1e-4))
        sched.step(1.0)
        sched.step(1.0 - 5e-5)   # below threshold: still a bad epoch
        sched.step(1.0 - 6e-5)
        assert opt.lr == pytest.approx(5e-5)


class TestBestEpoch:
    def test_earliest_tie(self):
        assert best_epoch_index([0.5, 0.9, 0.9, 0.7]) == 1

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_argmax_with_tie_rule(self, curve):
        idx = best_epoch_index(curve)
        best = max(curve)
        assert curve[idx] == best
        assert all(c < best for c in curve[:idx])


class TestConfigDefaults:
    def test_table_defaults(self):
        mri = TrainConfig(model="mri").resolved()
        assert mri.dropout == 0.5 and mri.use_scheduler and mri.oversample
        assert mri.label_smoothing == 0.0 and not mri.weighted_loss
        us = TrainConfig(model="us").resolved()
        assert us.label_smoothing == 0.1 and us.weighted_loss
        assert not us.oversample
        fusion = TrainConfig(model="fusion").resolved()
        assert fusion.dropout == 0.3 and not fusion.use_scheduler
        assert fusion.lr == 1e-4 and fusion.batch_size == 8

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(model="tabular")


class TestFloat32Gradients:
    @pytest.mark.parametrize("kind", ["mri", "us", "fusion"])
    def test_train_step_gradients_are_float32(self, kind):
        from pasfusion.trainer.loop import _loss, _model_inputs

        profile = get_profile("micro")
        rng = np.random.default_rng(0)
        batch = {"volumes": rng.random((2, 1) + profile.mri_input, dtype=np.float32),
                 "images": rng.random((2, 3) + profile.us_input, dtype=np.float32),
                 "labels": np.array([0, 1])}
        cfg = TrainConfig(model=kind, profile="micro").resolved()
        weights = np.array([0.75, 1.5], dtype=np.float32)
        model = build_model(kind, profile, seed=0)
        model.train()
        with ndc.Tape():
            out = model(*_model_inputs(batch, kind))
            ndc.backward(_loss(out, batch["labels"], cfg, weights))
        wrong = [(p.name, p.grad.dtype) for p in model.parameters()
                 if p.grad.dtype != np.float32]
        assert not wrong, f"{len(wrong)} float64 gradients, e.g. {wrong[:3]}"


class TestTrainLoop:
    def test_curves_have_epoch_length_and_loss_drops(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=5, seed=1,
                          batch_size=8)
        record, model = train(cfg, tiny_dataset)
        assert len(record.val_accuracy) == 5
        assert len(record.train_loss) == 5
        assert record.train_loss[-1] < record.train_loss[0]
        assert record.best_epoch == best_epoch_index(record.val_accuracy)

    def test_seed_determinism_identical_records(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=2, seed=3)
        rec1, _ = train(cfg, tiny_dataset)
        rec2, _ = train(cfg, tiny_dataset)
        assert rec1.as_dict() == rec2.as_dict()

    def test_checkpoint_restore_reproduces_val_accuracy(self, tiny_dataset,
                                                        tmp_path):
        cfg = TrainConfig(model="us", profile="micro", epochs=3, seed=5)
        record, model = train(cfg, tiny_dataset, out_dir=tmp_path)
        state, sidecar = load_checkpoint(tmp_path / record.checkpoint_path)
        rebuilt = build_model("us", "micro", seed=cfg.seed)
        rebuilt.load_state_arrays({k: v for k, v in state.items()
                                   if not k.startswith("adam.")})
        cache = PreprocessCache(get_profile("micro"))
        from pasfusion.trainer import items_from_samples
        val_items = items_from_samples(
            tiny_dataset.modality_samples("us", "val"), "us")
        result = evaluate(rebuilt, val_items, cache, cfg.resolved())
        assert result["accuracy"] == record.best_val_accuracy

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=1, seed=1,
                          lr=1e30)   # blow the weights up
        with pytest.raises(NumericError, match="epoch"):
            train(cfg, tiny_dataset)

    def test_fusion_without_warm_start_runs(self, tiny_dataset):
        cfg = TrainConfig(model="fusion", profile="micro", epochs=2, seed=2)
        record, model = train(cfg, tiny_dataset)
        assert len(record.val_accuracy) == 2
        assert record.test_metrics is not None


class TestMultiRun:
    def test_single_run_std_zero(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=2, seed=4)
        result = multi_run(cfg, tiny_dataset, n_runs=1)
        for stats in result["summary"].values():
            if isinstance(stats, dict):
                assert stats["std"] == 0.0

    def test_summary_mean_is_arithmetic_mean(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=2, seed=4)
        result = multi_run(cfg, tiny_dataset, n_runs=3)
        accs = [m["accuracy"] for m in result["metrics"]]
        assert abs(result["summary"]["accuracy"]["mean"] - np.mean(accs)) < 1e-9
        assert set(result["summary"]) >= {"accuracy", "auc", "precision",
                                          "recall", "f1"}

    def test_distinct_seeds_per_run(self, tiny_dataset):
        cfg = TrainConfig(model="us", profile="micro", epochs=1, seed=10)
        result = multi_run(cfg, tiny_dataset, n_runs=3)
        assert [r.seed for r in result["records"]] == [10, 11, 12]


class TestComparativeProtocol:
    def test_each_trained_model_scored_once(self, tiny_dataset, monkeypatch):
        from pasfusion.trainer import loop

        calls = []
        original = loop.evaluate

        def counting(model, items, cache, cfg, *args, **kwargs):
            calls.append(cfg.model)
            return original(model, items, cache, cfg, *args, **kwargs)

        monkeypatch.setattr(loop, "evaluate", counting)
        result = comparative_protocol(
            tiny_dataset.unimodal("mri"), tiny_dataset.unimodal("us"),
            tiny_dataset, profile="micro", n_runs=1,
            epochs={"mri": 1, "us": 1, "fusion": 1})
        # one validation score per epoch plus one test score per trained model
        assert {kind: calls.count(kind) for kind in ("mri", "us", "fusion")} \
            == {"mri": 2, "us": 2, "fusion": 2}
        n_test = len(tiny_dataset.pairs("test"))
        assert result["test_size"] == n_test
        for kind in ("mri", "us", "fusion"):
            [record] = result["records"][kind]
            assert record.test_metrics == result["metrics"][kind][0]
            assert result["roc"][kind] is record.roc_points
            assert "roc_points" not in record.as_dict()


class TestCheckpointFiles:
    def test_save_load_round_trip(self, tmp_path, rng):
        model = build_model("us", "micro", seed=6)
        opt = Adam(model.parameters(), lr=1e-4)
        state = snapshot_state(model, opt)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state, sidecar={"model": "us", "profile": "micro",
                                              "seed": 6, "epoch": 0,
                                              "adam_t": 0})
        back, sidecar = load_checkpoint(path)
        assert sidecar["model"] == "us"
        assert set(back) == set(state)
        for k in state:
            assert back[k].tobytes() == state[k].astype(np.float32).tobytes()

    @pytest.mark.parametrize("sidecar", [b"{not json", b"\xff\xfe", b"[1, 2]"])
    def test_bad_sidecar_is_container_error(self, tmp_path, sidecar):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(2, np.float32)}, sidecar={"model": "us"})
        (tmp_path / "m.ckpt.json").write_bytes(sidecar)
        with pytest.raises(ndc.ContainerError):
            load_checkpoint(path)

    def test_warm_start_changes_after_training(self, tiny_dataset, tmp_path):
        # fusion branches must drift from the warm-start values (unfrozen)
        mri_cfg = TrainConfig(model="mri", profile="micro", epochs=1, seed=1)
        _, mri_model = train(mri_cfg, tiny_dataset)
        us_cfg = TrainConfig(model="us", profile="micro", epochs=1, seed=1)
        _, us_model = train(us_cfg, tiny_dataset)
        mri_state = snapshot_state(mri_model)
        us_state = snapshot_state(us_model)

        fusion_cfg = TrainConfig(model="fusion", profile="micro", epochs=2,
                                 seed=1)
        _, fusion = train(fusion_cfg, tiny_dataset,
                          warm_states=(mri_state, us_state))
        drifted = 0
        for name, p in fusion.mri.named_parameters():
            ref = mri_state["extractor." + name]
            if p.data.tobytes() != ref.astype(np.float32).tobytes():
                drifted += 1
        assert drifted > 0
