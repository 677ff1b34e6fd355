"""The learning stack runs at one precision, float32, and nothing upcasts.

One small X-RLflow train + optimise runs with the engine instrumented: the
dtype of every ``Tensor`` constructed, every op result, every gradient
reaching a parameter (before ``_accumulate`` rounds it to the parameter's
dtype) and Adam's moments after every step is recorded, and all of them
must be float32.  An op that silently promotes (a ``np.float64`` scalar or
constant array in a forward, a reduction that forgets to round back) fails
here by kind, instead of doubling the memory traffic unnoticed.  The one
float64 array of a run is the sampling distribution, normalised in double
precision on purpose.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.core import XRLflow, XRLflowConfig
from repro.experiments import build_small_model
from repro.nn import Adam, Parameter, Tensor
from repro.rl import XRLflowAgent


@pytest.fixture(scope="module")
def recorded():
    """``(kind -> dtypes seen, every ActionDecision)`` of one run."""
    seen = defaultdict(set)
    decisions = []
    init, make, accumulate = Tensor.__init__, Tensor._make, Tensor._accumulate
    step, act = Adam.step, XRLflowAgent.act

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["Tensor()"].add(self.data.dtype)

    def recording_make(data, parents, backward):
        out = make(data, parents, backward)
        seen["op result"].add(out.data.dtype)
        return out

    def recording_accumulate(self, grad):
        if isinstance(self, Parameter):
            seen["parameter gradient"].add(np.asarray(grad).dtype)
        accumulate(self, grad)

    def recording_step(self):
        step(self)
        seen["parameter"].update(p.data.dtype for p in self.parameters)
        seen["adam m"].update(m.dtype for m in self._m)
        seen["adam v"].update(v.dtype for v in self._v)

    def recording_act(self, observation, deterministic=False):
        decision = act(self, observation, deterministic)
        decisions.append(decision)
        return decision

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "__init__", recording_init)
        patch.setattr(Tensor, "_make", staticmethod(recording_make))
        patch.setattr(Tensor, "_accumulate", recording_accumulate)
        patch.setattr(Adam, "step", recording_step)
        patch.setattr(XRLflowAgent, "act", recording_act)
        XRLflow(XRLflowConfig.fast(num_episodes=3, max_steps=6,
                                   update_frequency=2)).optimise(
            build_small_model("squeezenet"))
    return dict(seen), decisions


def test_every_tensor_gradient_and_moment_of_a_run_is_float32(recorded):
    seen, _ = recorded
    assert set(seen) == {"Tensor()", "op result", "parameter gradient",
                         "parameter", "adam m", "adam v"}
    upcast = {kind: sorted(map(str, dtypes)) for kind, dtypes in seen.items()
              if dtypes != {np.dtype(np.float32)}}
    assert not upcast, f"values that are not float32: {upcast}"


def test_the_sampling_distribution_is_float64_and_sums_to_one(recorded):
    _, decisions = recorded
    assert decisions
    for decision in decisions:
        assert decision.probabilities.dtype == np.float64
        assert decision.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
