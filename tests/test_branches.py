"""Independent model branches on two threads: when a forward fans out, that
its outputs are the same bytes as in order, and how errors and the BLAS pool
come back to the caller."""
import sys
import threading

import numpy as np
import pytest

from pasfusion import ndcore as ndc
from pasfusion.models import MICRO, PAPER, build_model
from pasfusion.ndcore import ShapeError, threads


def _counts(libraries):
    return [get() for get, _ in libraries]


@pytest.fixture
def thread_starts(monkeypatch):
    """The name of every thread started from here on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _inputs(profile, batch, seed=0):
    rng = np.random.default_rng(seed)
    volume = rng.random((batch, 1) + profile.mri_input, dtype=np.float32)
    image = rng.random((batch, 3) + profile.us_input, dtype=np.float32)
    return ndc.Tensor(volume), ndc.Tensor(image)


def _forward(model, kind, volume, image):
    with ndc.no_grad():
        out = model(volume) if kind == "mri" else model(volume, image)
    return {name: getattr(out, name).data.tobytes()
            for name in ("features", "logits", "probability")}


class TestBranches:
    def test_first_call_on_a_thread_rest_here_in_order(self, two_blas_threads):
        here = threading.get_ident()
        before, alive = _counts(two_blas_threads), threading.active_count()
        seen = []

        def call(i):
            seen.append((i, threading.get_ident() == here, _counts(two_blas_threads)))
            return i

        assert ndc.branches(*(lambda i=i: call(i) for i in range(3))) == [0, 1, 2]
        assert sorted(seen) == [(0, False, [1] * len(before)), (1, True, [1] * len(before)),
                                (2, True, [1] * len(before))]
        assert [i for i, *_ in seen if i] == [1, 2]
        assert _counts(two_blas_threads) == before and threading.active_count() == alive

    def test_a_call_nested_in_a_branch_stays_serial(self, two_blas_threads, thread_starts):
        inner = ndc.branches(lambda: ndc.branches(lambda: 1, lambda: 2), lambda: 3)
        assert inner == [[1, 2], 3] and thread_starts == ["ndcore-branch"]

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)])
    def test_error_raised_after_the_join(self, two_blas_threads, failing):
        before, alive = _counts(two_blas_threads), threading.active_count()
        finished = []

        def call(i):
            if i in failing:
                raise KeyError(i)
            finished.append(i)

        with pytest.raises(KeyError) as exc:
            ndc.branches(lambda: call(0), lambda: call(1), lambda: call(2))
        # the first failing call's error, as when the calls run in order
        assert exc.value.args == (failing[0],)
        # the thread's call always runs; this thread's stop at the first error
        assert sorted(finished) == [i for i in range(3) if i not in failing
                                    and not (i == 2 and 1 in failing)]
        assert _counts(two_blas_threads) == before and threading.active_count() == alive

    def test_a_tape_a_one_thread_pool_or_another_fan_out_stays_serial(self, two_blas_threads,
                                                                       thread_starts):
        with ndc.Tape():
            assert ndc.branches(lambda: 1, lambda: 2) == [1, 2]
        with threads.blas_threads(two_blas_threads, 1):
            assert ndc.branches(lambda: 1, lambda: 2) == [1, 2]
        # another thread's blas_threads block, as while its branches run
        held, release = threading.Event(), threading.Event()

        def hold():
            with threads.blas_threads(two_blas_threads, 2):
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=60)
            assert ndc.branches(lambda: 1, lambda: 2) == [1, 2]
        finally:
            release.set()
            holder.join(timeout=60)
        assert thread_starts == [holder.name]


    def test_concurrent_callers_leave_the_pool_as_found(self, two_blas_threads):
        before = _counts(two_blas_threads)
        model = build_model("mri", MICRO, seed=6).eval()
        volume, _ = _inputs(MICRO, 2)
        want = _forward(model, "mri", volume, None)
        same = []

        def caller():
            for _ in range(5):
                same.append(_forward(model, "mri", volume, None) == want)

        callers = [threading.Thread(target=caller) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert same == [True] * 15 and _counts(two_blas_threads) == before


class TestModelForward:
    @pytest.mark.parametrize("kind, profile, batch", [
        ("mri", MICRO, 8), ("fusion", MICRO, 8), ("fusion", PAPER, 1)])
    def test_fanned_out_and_serial_are_bitwise(self, two_blas_threads, thread_starts,
                                               monkeypatch, kind, profile, batch):
        model = build_model(kind, profile, seed=5).eval()
        volume, image = _inputs(profile, batch)
        fanned = _forward(model, kind, volume, image)
        assert thread_starts == ["ndcore-branch"]
        monkeypatch.setattr(threads, "openblas_libraries", lambda: [])
        serial = _forward(model, kind, volume, image)
        assert thread_starts == ["ndcore-branch"]
        assert fanned == serial

    def test_taped_forward_starts_no_thread_and_records_in_order(self, two_blas_threads,
                                                                 thread_starts):
        def nodes():
            model = build_model("fusion", MICRO, seed=2)
            with ndc.Tape() as tape:
                model(*_inputs(MICRO, 2))
                return [(n.backward_fn.__qualname__, n.out.shape, n.out.data.tobytes(),
                         tuple(t.shape for t in n.inputs)) for n in tape.nodes]

        first = nodes()
        assert first and nodes() == first
        assert thread_starts == []

    def test_no_openblas_found_stays_serial(self, two_blas_threads, thread_starts,
                                            monkeypatch):
        model = build_model("fusion", MICRO, seed=3).eval()
        volume, image = _inputs(MICRO, 4)
        fanned = _forward(model, "fusion", volume, image)
        monkeypatch.setattr(threads, "openblas_libraries", lambda: [])
        assert _forward(model, "fusion", volume, image) == fanned
        assert thread_starts == ["ndcore-branch"]

    def test_wrong_volume_raises_in_the_caller_after_the_other_branches(
            self, two_blas_threads, monkeypatch):
        model = build_model("fusion", MICRO, seed=1).eval()
        _, image = _inputs(MICRO, 2)
        # the ViT takes (32, 16, 32) (as many patches as (32, 32, 16)); the DenseNet does not
        volume = ndc.Tensor(np.zeros((2, 1, 32, 16, 32), np.float32))
        done, us_forward = [], model.us.forward

        def finished_us_forward(x):
            out = us_forward(x)
            done.append(threading.get_ident())
            return out

        monkeypatch.setattr(model.us, "forward", finished_us_forward)
        before, alive = _counts(two_blas_threads), threading.active_count()
        with ndc.no_grad(), pytest.raises(ShapeError, match="volume shape"):
            model(volume, image)
        assert done == [threading.get_ident()]
        assert _counts(two_blas_threads) == before and threading.active_count() == alive
