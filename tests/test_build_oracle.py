"""build_mcs against exact arithmetic.

The oracle steps the class state's coefficients c_{n+k} = c_n alpha /
sqrt((n+1)...(n+k)) from c_j = 1 / sqrt(j!) with mpmath at 40 digits, which
shares no code with mcskit and has no exponent range to leave. It keeps the
levels below n_max, normalized over themselves as `build_mcs` normalizes
what it keeps, and sums the weight past n_max until the terms fall below
1e-50 of the total. So it says for any label whether n_max holds the state,
and what the state is, wherever a double route could lose it: a norm past
double range, a level product past double range, or a long sum.

`build_mcs` must return a state within 1e-13 of the oracle's wherever the
weight past n_max is at most 1e-13 of the total, and a McskitError wherever
it is at least 1e-11: TailTooHeavy, or Overflow where a single step's weight
leaves double range. No other exception is allowed anywhere.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from mcskit import MCSLabel, McskitError, TailTooHeavy, build_mcs

DIGITS = 40
STATE_TOL = 1e-13
# the oracle stops summing the weight past n_max once it passes this share
HEAVY = 1e-10


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(DIGITS):
        yield


def exact_build(k, j, alpha, n_max):
    """The coefficients below n_max, normalized over themselves, and the share
    of the weight past n_max; None for the coefficients once that share is
    past HEAVY, where the sum stops."""
    a = mp.mpc(alpha.real, alpha.imag)
    x = abs(a) ** 2
    kept, included, tail = {}, mp.mpf(0), mp.mpf(0)
    n, term = j, 1 / mp.sqrt(mp.factorial(j))
    while True:
        weight = abs(term) ** 2
        if n < n_max:
            kept[n] = term
            included += weight
        else:
            tail += weight
            if tail > HEAVY * (included + tail):
                return None, tail / (included + tail)
        den = mp.rf(n + 1, k)
        if x < den / 2 and weight < mp.mpf(10) ** -50 * (included + tail):
            break
        term *= a / mp.sqrt(den)
        n += k
    coeffs = np.zeros(n_max, dtype=np.complex128)
    for n, c in kept.items():
        coeffs[n] = complex(c / mp.sqrt(included))
    return coeffs, tail / (included + tail)


labels = st.integers(1, 400).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1)))


@settings(max_examples=60, deadline=None)
@given(label=labels, log_r=st.floats(-300.0, 154.0), theta=st.floats(0.0, 2.0 * math.pi),
       n_max=st.integers(1, 4096))
@example(label=(100, 0), log_r=152.0, theta=0.0, n_max=4096)
@example(label=(131, 42), log_r=math.log10(3.5e150), theta=0.0, n_max=3958)
@example(label=(3, 2), log_r=math.log10(2.37e44), theta=0.0, n_max=2980)
@example(label=(1, 0), log_r=math.log10(30.0), theta=0.0, n_max=2048)
def test_build_matches_the_exact_state_or_refuses(label, log_r, theta, n_max):
    k, j = label
    alpha = complex(10.0**log_r * np.exp(1j * theta))
    want, past = exact_build(k, j, alpha, n_max)
    try:
        got = build_mcs(MCSLabel(k, j, alpha), n_max).coeffs
    except McskitError as exc:
        assert past >= 1e-13, (label, alpha, n_max, exc)
        assert isinstance(exc, TailTooHeavy) or "level weights overflow" in str(exc)
        return
    assert past < 1e-11, (label, alpha, n_max, float(past))
    if past <= 1e-13:
        assert np.linalg.norm(got - want) <= STATE_TOL, (label, alpha, n_max)


def test_level_product_past_double_range_is_served():
    # 1201...1300 at k = 100 and 1...171 leave double range; each such step
    # is formed from the product's leading bits and binary exponent, so the
    # levels past it keep their weight at any n_max, held here at 50 digits
    for label, n_max in ((MCSLabel(100, 0, 1e152), 4096), (MCSLabel(171, 0, 1e154), 512),
                         (MCSLabel(171, 0, 1e154), 4096)):
        with mp.workdps(50):
            want, past = exact_build(label.k, label.j, label.alpha, n_max)
        assert past < 1e-40
        gap = np.linalg.norm(build_mcs(label, n_max).coeffs - want)
        assert gap <= STATE_TOL, (label, n_max, gap)


@pytest.mark.parametrize("label, n_max", [
    (MCSLabel(3, 2, 2.37e44), 2980),
    (MCSLabel(15, 8, 5.35e75), 226),
])
def test_heavy_tail_is_refused_as_such(label, n_max):
    # plainly heavy labels whose norm series needs more than 1e5 terms: the
    # tail past n_max refuses them, not a budget of terms
    assert exact_build(label.k, label.j, label.alpha, n_max)[0] is None
    with pytest.raises(TailTooHeavy, match=f"n_max={n_max}"):
        build_mcs(label, n_max)


def test_the_build_never_sums_the_norm_series(monkeypatch):
    def unreachable(*args):
        raise AssertionError("build_mcs summed the norm series")

    monkeypatch.setattr("mcskit.states._series", unreachable)
    build_mcs(MCSLabel(1, 0, 30.0), 2048)
    build_mcs(MCSLabel(100, 0, 1e152), 4096)
    with pytest.raises(TailTooHeavy):
        build_mcs(MCSLabel(1, 0, 4.0), 8)
