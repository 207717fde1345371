"""How the tape holds and releases what the recorded ops saved."""
import weakref

import numpy as np

from pasfusion import ndcore as ndc
from pasfusion.ndcore.tensor import record


def _scale(a, factor):
    """``a * factor`` whose backward closure saves ``factor``."""
    return record(ndc.Tensor(a.data * factor), (a,), lambda g: (g * factor,))


def test_backward_frees_each_node_as_it_runs():
    saved = np.arange(4.0)
    ref = weakref.ref(saved)
    seen = []
    with ndc.Tape():
        x = ndc.Tensor(np.ones(4), requires_grad=True)
        # recorded first, so its backward runs after the node that saved the array
        a = record(ndc.Tensor(x.data.copy()), (x,),
                   lambda g: (seen.append(ref() is None) or g,))
        b = _scale(a, saved)
        del saved
        assert ref() is not None
        ndc.backward(ndc.sum_(b))
    assert seen == [True]
    np.testing.assert_array_equal(x.grad, np.arange(4.0))
