"""``XRLflowConfig`` refuses what it cannot honour: unknown fields at
construction, and values that would only crash mid-training at ``validate``."""

import pytest

from repro.core import XRLflowConfig


@pytest.mark.parametrize("key", ["num_episode", "incremental"])
def test_fast_refuses_an_unknown_field_by_name(key):
    with pytest.raises(TypeError, match=repr(key)):
        XRLflowConfig.fast(**{key: 3})


@pytest.mark.parametrize("field", ["update_frequency", "batch_size",
                                   "edge_attr_norm"])
def test_validate_names_the_field_it_refuses(field):
    with pytest.raises(ValueError, match=field):
        XRLflowConfig.fast(**{field: 0}).validate()
