"""Property test of the numeric Wigner route over random class states.

Every label with k <= 8, any class j < k and |z| in [0.2, 3] gets a finite
numeric field of unit total on 65^2 and 129^2 copies of the default +-8 grid,
and that field matches the closed one wherever the closed route serves the
label. Each fixed example below is a label a search once failed on.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcskit import (
    DegenerateNorm,
    MCSLabel,
    PhaseGrid,
    build_mcs,
    wigner_closed,
    wigner_numeric,
)
from mcskit.decomposition import _RING_ACCURACY, _ring_norm

EPS = np.finfo(np.float64).eps
EDGE = 8.0

labels = st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1)))


@settings(max_examples=300, deadline=None)
@given(
    label=labels,
    r=st.floats(0.2, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    n=st.sampled_from([65, 129]),
)
# served by the closed route, whose ring pairs then cancelled to 1.1e-7
# while its guard counted one pair's rounding instead of all k^2
@example(label=(7, 6), r=0.26512, theta=0.07297, n=129)
# refused by the fixed y window of 10 the numeric route once had; a branch
# 3.76 from the grid edge leaves 6.4e-8 of the mass outside
@example(label=(4, 3), r=2.99610, theta=1.61878, n=65)
def test_numeric_field_of_any_class_state(label, r, theta, n):
    k, j = label
    z = r * complex(math.cos(theta), math.sin(theta))
    grid = PhaseGrid(-EDGE, EDGE, -EDGE, EDGE, n, n)
    field = wigner_numeric(build_mcs(MCSLabel(k, j, z**k)), grid)
    assert np.all(np.isfinite(field.values))
    # a unit-width Gaussian on the ring, sqrt(2) r from the origin, leaves
    # at most erfc(8 - sqrt(2) r) of its mass outside the box
    outside = math.erfc(EDGE - math.sqrt(2.0) * r)
    assert abs(field.total() - 1.0) <= 1e-8 + outside
    try:
        closed = wigner_closed(k, j, z, grid)
    except DegenerateNorm:
        return
    # the accuracy the closed route promises wherever it serves, and the
    # tighter rounding bound of its ring pairs for this label
    num, den = _ring_norm(k, j, z, "wigner_numeric", pairs=True)
    gap = float(np.max(np.abs(field.values - closed.values)))
    assert gap <= _RING_ACCURACY
    assert gap <= 1e-9 + 2.0 * EPS * num / den**2
