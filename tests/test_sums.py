"""The deterministic pairwise reduction: accuracy against math.fsum, bit stability."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from innervar.sums import pairwise_sum

_VALUES = st.lists(st.floats(min_value=-1e100, max_value=1e100, allow_nan=False,
                             allow_infinity=False), max_size=300)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_pairwise_sum_property(values):
    a = np.array(values, dtype=float)
    before = a.copy()
    total = pairwise_sum(a)
    assert np.array_equal(a, before)  # the input is not mutated

    bound = len(values) * np.finfo(float).eps * math.fsum(abs(v) for v in values)
    assert abs(total - math.fsum(values)) <= bound

    strided = np.zeros(2 * len(values))
    strided[::2] = a
    for same in (values, a.copy(), strided[::2]):
        assert pairwise_sum(same).hex() == total.hex()
