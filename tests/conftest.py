import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def each_conv_path(monkeypatch):
    """``paths(k, stride)`` yields "columns", then "taps", with
    ``ops._TAP_MIN_WORK`` set so that every ``conv`` call takes that algorithm
    until the next step.  A larger kernel at stride > 1, which ``conv`` runs on
    the columns at every size, yields "columns" alone: one algorithm, checked once."""
    from pasfusion.ndcore import ops

    def paths(k, stride):
        steps = (("columns", (math.inf, math.inf)), ("taps", (0, 0)))
        for name, work in steps[:1] if k > 1 and stride > 1 else steps:
            monkeypatch.setattr(ops, "_TAP_MIN_WORK", work)
            yield name

    return paths


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads for the test, then back to its
    own count: the pool size at which model forwards fan out. Skipped
    where no OpenBLAS is found."""
    from pasfusion.ndcore import threads

    libraries = threads.openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    # set here, not in a ``blas_threads`` block, whose lock would keep the
    # test's other threads from fanning out
    before = [get() for get, _ in libraries]
    for _, set_threads in libraries:
        set_threads(2)
    yield libraries
    for (_, set_threads), count in zip(libraries, before):
        set_threads(count)
