"""The benchmark's traced run wraps names in icubench; those names must keep existing and being used.

perfbench/ traces a run by replacing module attributes (see
perfbench/layers.py).  A rename in icubench, or a caller that binds a
function at import instead of looking it up on its module, makes the
traced numbers silently read zero; these tests catch that.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from icubench.neural import build_model  # noqa: E402
from icubench.schema import N_NUMERIC, Task  # noqa: E402


@pytest.mark.parametrize("target", layers.targets(), ids=lambda t: f"{t.span}:{t.attr}")
def test_target_exists_on_its_owner(target):
    assert callable(vars(target.owner).get(target.attr))


def test_bilstm_step_is_traced():
    B, T, H = 3, 4, 5
    rng = np.random.default_rng(0)
    model = build_model("bilstm", Task.MORTALITY, rng, hidden=H)
    num = rng.normal(size=(B, T, N_NUMERIC))
    labels = np.array([0.0, 1.0, 1.0])
    tracer = Tracer(layers.targets())
    with tracer:
        model.loss_and_grads(num, None, labels)
    spans, counts = tracer.summary()["spans"], tracer.summary()["counts"]
    assert spans["lstm.forward"]["calls"] == 2    # one per direction
    assert spans["lstm.backward"]["calls"] == 2
    assert spans["functional.sigmoid"]["calls"] > 0
    assert counts["lstm.flops"] == 2 * 8 * B * T * (N_NUMERIC + H) * H
    assert tracer.restored()


def test_ragged_bilstm_pass_is_traced():
    # the kernels take the active-row count as a keyword, so the flop count
    # still unpacks four positional arguments and the batch count reads labels at args[3]
    B, T, H = 3, 4, 5
    rng = np.random.default_rng(0)
    model = build_model("bilstm", Task.MORTALITY, rng, hidden=H)
    num = rng.normal(size=(B, T, N_NUMERIC))
    labels = np.array([0.0, 1.0, 1.0])
    tracer = Tracer(layers.targets())
    with tracer:
        model.loss_and_grads(num, None, labels, lengths=np.array([4, 4, 2]))
    spans, counts = tracer.summary()["spans"], tracer.summary()["counts"]
    assert spans["lstm.forward"]["calls"] == 2
    assert spans["lstm.backward"]["calls"] == 2
    assert counts["lstm.flops"] == 2 * 8 * B * T * (N_NUMERIC + H) * H
    assert counts["training.instances"] == B
    assert tracer.restored()
