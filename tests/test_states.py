import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcskit import states
from mcskit import (
    FockVector,
    MCSLabel,
    McskitError,
    MomentSet,
    Overflow,
    PhaseGrid,
    RouteMismatch,
    TailTooHeavy,
    a_norm_closed,
    basis_state,
    build_mcs,
    coherent_from_classes,
    eigenvalue_residual,
    geometric_phase,
    inner,
    ladder_spectrum,
    mcs_as_scs,
    moments,
    numeric_moments,
    revival_phase,
    time_evolve,
    wigner_closed,
)
from mcskit.states import _a_norm_series, _check_series, _series, _turns

# frozen reference values, computed once from the defining series by hand
COSH_1 = 1.5430806348152437  # S_{2,0}(1)
S31_AT_1 = 1.0418653550989099  # S_{3,1}(1)


def norm_sum(k, j, x):
    """S_{k,j}(x) from the norm series, whose total is s 2^e."""
    return math.ldexp(*_series(k, j, x))


def brute_norm_sum(k, j, x, terms=400):
    # log-space so x^m and (km+j)! never overflow individually
    if x == 0.0:
        return 1.0 / math.factorial(j)
    return sum(
        math.exp(m * math.log(x) - math.lgamma(k * m + j + 1)) for m in range(terms)
    )


def test_norm_sum_known_values():
    assert norm_sum(1, 0, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert norm_sum(2, 0, 1.0) == pytest.approx(COSH_1, rel=1e-15)
    assert norm_sum(3, 1, 1.0) == pytest.approx(S31_AT_1, rel=1e-15)
    # x = 0 keeps only the seed term
    assert norm_sum(4, 3, 0.0) == pytest.approx(1.0 / math.factorial(3))


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 4),
    j=st.integers(0, 3),
    x=st.floats(0.0, 30.0, allow_nan=False),
)
def test_norm_sum_matches_brute_force(k, j, x):
    j = j % k
    assert norm_sum(k, j, x) == pytest.approx(brute_norm_sum(k, j, x), rel=1e-11)


def test_norm_sum_overflow():
    with pytest.raises(Overflow):
        _series(1, 0, 1e308)


def test_norm_series_past_double_range():
    # the totals pass 2^512 and are carried as s 2^e; the ones that fit a
    # double come out as before, and the ratio A stays exact past overflow
    assert norm_sum(1, 0, 700.0) == pytest.approx(math.exp(700.0), rel=1e-13)
    s, e = _series(1, 0, 900.0)  # e^900 itself leaves double range
    with pytest.raises(OverflowError):
        math.ldexp(s, e)
    assert math.log(s) + e * math.log(2.0) == pytest.approx(900.0, rel=1e-14)
    assert _a_norm_series(1, 0, 900.0) == pytest.approx(900.0, rel=1e-14)
    assert _a_norm_series(2, 1, 9e6) == pytest.approx(
        a_norm_closed(MCSLabel(2, 1, 3e3)), rel=1e-14
    )


def test_nan_argument_raises_before_the_series(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the norm series ran on a NaN argument")

    monkeypatch.setattr(states, "_series", unreachable)
    with pytest.raises(ValueError):
        _check_series(1, 0, float("nan"))
    for j in (0, 1):  # the seeds of the numerator differ in class 0
        with pytest.raises(ValueError):
            _a_norm_series(2, j, float("nan"))


def test_squared_label_past_double_range_raises_overflow():
    # |alpha|^2 leaves double range past |alpha| = 1.34e154
    with pytest.raises(Overflow):
        build_mcs(MCSLabel(1, 0, 1e160))
    with pytest.raises(Overflow):
        moments(MCSLabel(2, 0, 1e200))
    with pytest.raises(Overflow):
        geometric_phase(MCSLabel(2, 0, 1e200))


@pytest.mark.parametrize(
    "call",
    [
        lambda: moments(MCSLabel(1, 0, 1e7)),
        lambda: moments(MCSLabel(1, 0, 1e8)),
        lambda: geometric_phase(MCSLabel(1, 0, 1e8)),
    ],
    ids=["moments-1e7", "moments-1e8", "geometric_phase-1e8"],
)
def test_label_past_the_series_budget_raises_typed_error(call):
    # |alpha|^2 = 1e14 and 1e16 need far more than the series' term budget;
    # at 1e16 the closed MomentSet would also round x + 1/2 to x
    with pytest.raises(McskitError):
        call()


def test_build_past_the_norm_overflow():
    # S_{1,0}(900) = e^900 overflows, yet the state fits 2048 levels
    state = build_mcs(MCSLabel(1, 0, 30.0), n_max=2048)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    assert state.top_occupied() < 2048
    assert moments(MCSLabel(1, 0, 30.0), n_max=2048).a_norm_sq == 900.0
    # |alpha| = 1e5 at order 3: x = 1e10, the terms peak near level 2154
    for j in range(3):
        label = MCSLabel(3, j, 1e5)
        closed = a_norm_closed(label)
        state = build_mcs(label, 4096)
        assert numeric_moments(state).a_norm_sq == pytest.approx(closed, rel=1e-8)
        assert moments(label, 4096).a_norm_sq == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("k", [124, 135, 171])
def test_orders_whose_products_leave_double_range(k):
    # the k-term products (n+1)...(n+k) of the series pass double range from
    # k = 135 at class 0 and from k = 124 at class k - 1; at |alpha| = 1
    # every class state is |j> to double precision
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 33, 33)
    vacuum = np.exp(-grid.q_axis[:, None] ** 2 - grid.p_axis**2) / math.pi
    for j in (0, k - 1):
        label = MCSLabel(k, j, 1.0)
        state = build_mcs(label)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)
        assert abs(inner(state, basis_state(j))) == pytest.approx(1.0, abs=1e-15)
        assert norm_sum(k, j, 1.0) == pytest.approx(1.0 / math.factorial(j), rel=1e-14)
        assert moments(label).a_norm_sq == pytest.approx(j, abs=1e-12)
        try:
            field = wigner_closed(k, j, 1.0, grid)
        except McskitError:  # the ring of class k - 1 cancels
            continue
        assert np.max(np.abs(field.values - vacuum)) < 1e-12
    assert ladder_spectrum(k, 2)[-1, -1] == 2 * k - 0.5


def test_order_past_float_range_returns_at_once():
    # the series stops forming a product once its ratio is sure to be 0;
    # before, the first k-term product never finished
    k = 10**330
    state = build_mcs(MCSLabel(k, 0, 1.0))
    assert np.array_equal(state.coeffs, basis_state(0).coeffs)
    assert _series(k, 0, 2.0) == (1.0, 0)
    with pytest.raises(Overflow):
        ladder_spectrum(k, 1)
    with pytest.raises(McskitError):
        moments(MCSLabel(k, 0, 1.0))


def test_effective_support():
    # only the levels that matter are filled; the defining residual rounds
    # in proportion to |alpha| (2e-13 at |alpha| = 570), so it is read per
    # unit of max(1, |alpha|)
    for k in range(1, 9):
        for j in range(k):
            for r in (0.5, 1.0, 1.5, 2.0):
                label = MCSLabel(k, j, (r * np.exp(0.3j * k + 0.1)) ** k)
                state = build_mcs(label, n_max=256)
                assert state.n_max == 256
                assert state.top_occupied() < 128
                residual = eigenvalue_residual(label, state)
                assert residual <= 1e-15 * max(1.0, abs(label.alpha))


def test_label_validation():
    with pytest.raises(ValueError):
        MCSLabel(0, 0, 1.0)
    with pytest.raises(ValueError):
        MCSLabel(2, 2, 1.0)
    with pytest.raises(ValueError):
        MCSLabel(2, 1, complex("inf"))
    with pytest.raises(ValueError):
        MCSLabel(1.5, 0, 1.0)
    with pytest.raises(ValueError):
        MCSLabel(2, 0.5, 1.0)
    assert MCSLabel(np.int64(2), np.int64(1), 1.0) == MCSLabel(2, 1, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 5),
    j=st.integers(0, 4),
    r=st.floats(0.0, 3.0, allow_nan=False),
    theta=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
def test_support_pattern(k, j, r, theta):
    j = j % k
    state = build_mcs(MCSLabel(k, j, r * np.exp(1j * theta)))
    occupied = np.nonzero(state.coeffs)[0]
    assert occupied.size > 0
    assert np.all(occupied % k == j)


def test_build_is_normalized_eigenvector():
    label = MCSLabel(3, 1, 2.0 + 1.0j)
    state = build_mcs(label)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    assert eigenvalue_residual(label, state) < 1e-12


def test_zero_alpha_is_basis_state():
    state = build_mcs(MCSLabel(4, 3, 0.0))
    assert abs(inner(state, basis_state(3))) == pytest.approx(1.0)


def test_tail_guard():
    with pytest.raises(TailTooHeavy):
        build_mcs(MCSLabel(1, 0, 4.0), n_max=8)


@pytest.mark.parametrize("n_max", [2**26 + 1, 10**11])
def test_truncation_past_the_array_cap_raises_overflow(n_max):
    # refused before any level is allocated: at 10^11 levels numpy would
    # be asked for 1.5 TiB
    for call in (lambda: build_mcs(MCSLabel(2, 1, 1.0), n_max),
                 lambda: basis_state(0, n_max),
                 lambda: coherent_from_classes(2, 1.0, n_max),
                 lambda: mcs_as_scs(2, 1, 1.0).fock_vector(n_max)):
        with pytest.raises(Overflow, match="levels"):
            call()


def test_momentset_rejects_bad_values():
    with pytest.raises(ValueError):
        MomentSet(0, 0, 0.5, 0.5, -1.0, 0.5, 0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        MomentSet(0, 0, 0.5, 0.5, 0.2, 0.2, 0.2, 0.0, 0.5)
    with pytest.raises(ValueError):
        MomentSet(0, 0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_momentset_rejects_non_finite_fields(bad):
    # every comparison with NaN is False, so a range check alone lets it in
    with pytest.raises(ValueError, match="finite"):
        MomentSet(*[bad] * 9)
    with pytest.raises(ValueError, match="finite"):
        MomentSet(bad, 0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5)


def test_coherent_moments_are_displaced_gaussian():
    alpha = 1.3 - 0.7j
    mom = moments(MCSLabel(1, 0, alpha))
    assert mom.mean_x == pytest.approx(math.sqrt(2.0) * alpha.real, abs=1e-12)
    assert mom.mean_p == pytest.approx(math.sqrt(2.0) * alpha.imag, abs=1e-12)
    assert mom.uncertainty_product == 0.5
    assert mom.a_norm_sq == pytest.approx(abs(alpha) ** 2, abs=1e-12)


def test_first_moments_vanish_for_higher_orders():
    for k, j in ((2, 0), (2, 1), (3, 2)):
        mom = moments(MCSLabel(k, j, 1.5 + 0.5j))
        assert mom.mean_x == 0.0
        assert mom.mean_p == 0.0


def test_order_two_cross_term():
    # only k=2 feels the direction of alpha: <x^2> - <p^2> = 2 Re alpha
    mom = moments(MCSLabel(2, 0, 1.2))
    assert mom.mean_x2 - mom.mean_p2 == pytest.approx(2.4, abs=1e-12)
    mom = moments(MCSLabel(3, 0, 1.2))
    assert mom.mean_x2 - mom.mean_p2 == pytest.approx(0.0, abs=1e-12)


def test_closed_moments_keep_the_keyword_build_bit_for_bit():
    # the closed k >= 2 moments as they were built field by field: zero
    # first moments, a + 1/2 +- cross, and math.sqrt of their product
    for k, j in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        for alpha in (0.3, 1.2, -0.7 + 0.4j, 2.5j, 3.0 - 1.0j):
            a = _a_norm_series(k, j, abs(alpha) ** 2)
            cross = alpha.real if k == 2 else 0.0
            mean_x2, mean_p2 = a + 0.5 + cross, a + 0.5 - cross
            expected = MomentSet(
                mean_x=0.0,
                mean_p=0.0,
                mean_x2=mean_x2,
                mean_p2=mean_p2,
                var_x=mean_x2,
                var_p=mean_p2,
                uncertainty_product=math.sqrt(mean_x2 * mean_p2),
                a_norm_sq=a,
                mean_H=a + 0.5,
            )
            got = moments(MCSLabel(k, j, alpha))
            assert repr(got) == repr(expected), (k, j, alpha)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_moment_phase_covariance_order_three(theta):
    ref = moments(MCSLabel(3, 1, 2.0))
    rot = moments(MCSLabel(3, 1, 2.0 * np.exp(1j * theta)))
    for name in MomentSet.__dataclass_fields__:
        assert getattr(rot, name) == pytest.approx(getattr(ref, name), abs=1e-12)


def test_closed_vs_series_number_expectation():
    for k in (2, 3):
        for j in range(k):
            for r in np.linspace(1e-3, 4.0, 25):
                series = _a_norm_series(k, j, r * r)
                closed = a_norm_closed(MCSLabel(k, j, r))
                assert closed == pytest.approx(series, rel=1e-10)


def test_a_norm_closed_order_three_large_radius():
    # e^{1.5y} overflows here (y = r^(2/3) = 2154.43...); the rescaled
    # brackets tend to 1, so A -> y = 10^(10/3)
    for j in range(3):
        a = a_norm_closed(MCSLabel(3, j, 1e5))
        assert a == pytest.approx(2154.434690031887, rel=1e-14)
    # the rescaling leaves small and moderate radii on the series route
    for j in range(3):
        for r in (1e-3, 0.5, 5.0, 20.0, 50.0):
            series = _a_norm_series(3, j, r * r)
            assert a_norm_closed(MCSLabel(3, j, r)) == pytest.approx(series, rel=1e-10)


def test_a_norm_closed_limits_and_orders():
    # r = 0 leaves the lowest level of the class, exactly
    for k in range(1, 9):
        for j in range(k):
            assert a_norm_closed(MCSLabel(k, j, 0.0)) == j
    # every order is served, order 4 too
    assert a_norm_closed(MCSLabel(4, 0, 1.0)) == pytest.approx(
        _a_norm_series(4, 0, 1.0), rel=1e-12
    )


def paper_a_norm(k, j, r):
    """The paper's closed number expectations: r tanh r and r coth r at order
    2, ratios of exponential-trig brackets in y = r^(2/3) at order 3, each
    bracket divided by e^{1.5 y}."""
    if k == 2:
        return r * math.tanh(r) if j == 0 else r / math.tanh(r)
    y = r ** (2.0 / 3.0)
    damp = math.exp(-1.5 * y)
    c = 2.0 * damp * math.cos(math.sqrt(3.0) * y / 2.0)
    s_minus = 2.0 * damp * math.sin(math.pi / 6.0 - math.sqrt(3.0) * y / 2.0)
    s_plus = 2.0 * damp * math.sin(math.pi / 6.0 + math.sqrt(3.0) * y / 2.0)
    brackets = ((1.0 - s_plus, 1.0 + c), (1.0 + c, 1.0 - s_minus), (1.0 - s_minus, 1.0 - s_plus))
    num, den = brackets[j]
    return y * num / den


@pytest.mark.parametrize("k, j", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_ring_filter_matches_the_paper_forms(k, j):
    for r in np.geomspace(0.5, 1e4, 300):
        closed = a_norm_closed(MCSLabel(k, j, r))
        assert closed == pytest.approx(paper_a_norm(k, j, r), rel=1e-13)


def test_number_expectation_is_exactly_j_at_zero():
    # at alpha = 0 the state is |j>; the series ratio (1/(j-1)!) / (1/j!)
    # would round, from (11, 10) on
    for k in range(1, 400):
        for j in range(k):
            assert _a_norm_series(k, j, 0.0) == j, (k, j)
    label = MCSLabel(11, 10, 0.0)
    assert a_norm_closed(label) == 10.0
    assert moments(label).a_norm_sq == 10.0
    assert geometric_phase(label) == 0.0


def test_turn_table_is_exact_at_quarter_turns():
    assert _turns(4) == (1.0, 1j, -1.0, -1j)
    for k in (8, 12, 16):
        assert _turns(k)[:: k // 4] == (1.0, 1j, -1.0, -1j)
    assert _turns(3)[1] == pytest.approx(complex(-0.5, math.sqrt(3.0) / 2.0), abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 16),
    j=st.integers(0, 15),
    r=st.one_of(st.just(0.0), st.floats(1e-9, 1e4)),
)
# the dropped order-3 branch was 9.6e-9 and 1.6e-5 off at these radii
@example(k=3, j=1, r=1e-6)
@example(k=3, j=0, r=1e-9)
def test_ring_filter_meets_the_series(k, j, r):
    j %= k
    closed = a_norm_closed(MCSLabel(k, j, r))
    assert math.isfinite(closed)
    try:
        series = _a_norm_series(k, j, r * r)
    except Overflow:  # past the series' term budget only the filter serves
        return
    assert closed == pytest.approx(series, rel=1e-12)


def test_ring_filter_serves_away_from_zero(monkeypatch):
    # a switch that always took the series would fail here
    def reference(k, j, r):
        try:
            return _a_norm_series(k, j, r * r)
        except Overflow:  # order 1 past the series' term budget: A = r^2
            return r * r

    labels = [MCSLabel(k, j, r) for k in range(1, 9) for j in range(k) for r in (10.0, 1e4)]
    expected = [reference(lab.k, lab.j, lab.alpha.real) for lab in labels]

    def unreachable(*args):
        raise AssertionError("the ring filter handed a label to the series")

    monkeypatch.setattr(states, "_a_norm_series", unreachable)
    for label, a in zip(labels, expected):
        assert a_norm_closed(label) == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("coeffs", [np.zeros(4), np.full(4, 1e200), np.full(4, 1e-200)],
                         ids=["zero", "norm-overflows", "norm-underflows"])
def test_numeric_moments_of_a_vector_without_a_usable_norm_raise(coeffs):
    # dividing by a norm of 0 or inf would give NaN or all-zero moments; the
    # squares of 1e200 overflow, which numpy warns of unless told not to
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="positive, finite norm"):
        numeric_moments(FockVector(coeffs))


def test_numeric_moments_match_route():
    # numeric_moments on the built vector is exactly what moments() checks
    label = MCSLabel(2, 1, 2.0 + 2.0j)
    closed = moments(label)
    numeric = numeric_moments(build_mcs(label))
    assert closed.mean_H == pytest.approx(numeric.mean_H, abs=1e-12)


@pytest.mark.parametrize("k, j, x, parent_s", [
    (1, 0, 1e6, 0.062),
    (20, 3, 1e150, 0.29),
])
def test_series_that_cannot_finish_refuses_at_once(k, j, x, parent_s):
    # the terms still grow at the 1e5th one; summing them all before the
    # refusal took parent_s seconds
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(Overflow, match="needs more than 100000 terms"):
            _series(k, j, x)
        elapsed = time.perf_counter() - start
        if elapsed < parent_s / 10:
            break
    assert elapsed < parent_s / 10


def test_build_rescales_each_level_once():
    # the weight passes 2^512 about 1400 times on the way to the peak; each
    # pass rescaled every level stored so far, which took 11.9 s on 2 vCPUs
    parent_s = 11.9
    for _ in range(3):
        start = time.perf_counter()
        state = build_mcs(MCSLabel(1, 0, 707.1), 10**6)
        elapsed = time.perf_counter() - start
        if elapsed < parent_s / 4:
            break
    assert elapsed < parent_s / 4
    assert 500_000 < state.top_occupied() < 10**6


def test_undersized_truncation_refuses():
    # alpha=3 cannot live in 12 levels; the tail guard fires before any
    # moment is reported
    with pytest.raises(TailTooHeavy):
        moments(MCSLabel(1, 0, 3.0), n_max=12)


@pytest.mark.parametrize("label, n_max", [
    (MCSLabel(1, 0, 24.0), 1024),  # gap 8.2e-12, <N> = 576
    (MCSLabel(1, 0, 23.57 + 7.79j), 1024),  # gap 5.0e-12
])
def test_phase_routes_agree_relative_to_mean_number(label, n_max, monkeypatch):
    # beta ~ 2 pi <N> rounds like <N>; an absolute 1e-12 refused these
    a = abs(label.alpha) ** 2
    assert geometric_phase(label, n_max=n_max) == pytest.approx(2 * math.pi * a, rel=1e-14)
    monkeypatch.setattr(states, "_PHASE_TOL", 1e-16)
    with pytest.raises(RouteMismatch):
        geometric_phase(label, n_max=n_max)


def test_moment_routes_agree_relative_to_mean_number(monkeypatch):
    # var_p = A + 1/2 - alpha cancels at real alpha for k = 2, leaving the
    # <N> eps rounding of both routes (gap 2.5e-10 at <N> = 3025); an
    # absolute 1e-10 refused this label
    label = MCSLabel(2, 0, 3025.0)
    mom = moments(label, n_max=4096)
    assert mom.a_norm_sq == pytest.approx(a_norm_closed(label), rel=1e-14)
    monkeypatch.setattr(states, "_ROUTE_TOL", 1e-14)
    with pytest.raises(RouteMismatch):
        moments(label, n_max=4096)


def test_revival_phase_matches_evolution():
    label = MCSLabel(3, 2, 1.0 + 2.0j)
    state = build_mcs(label)
    cycled = time_evolve(state, 2.0 * math.pi / 3.0)
    expect = revival_phase(3, 2) * state.coeffs
    assert np.allclose(cycled.coeffs, expect, atol=1e-13)


@pytest.mark.parametrize("k, j", [(0, 0), (2, 5), (2.5, 0)])
def test_revival_phase_refuses_a_class_that_does_not_exist(k, j):
    with pytest.raises(ValueError):
        revival_phase(k, j)


def test_geometric_phase_closed_forms():
    for r in (0.5, 1.0, 2.0):
        beta0 = geometric_phase(MCSLabel(2, 0, r))
        beta1 = geometric_phase(MCSLabel(2, 1, r))
        assert beta0 == pytest.approx(math.pi * r * math.tanh(r), abs=1e-10)
        assert beta1 == pytest.approx(math.pi * (r / math.tanh(r) - 1.0), abs=1e-10)
    assert geometric_phase(MCSLabel(2, 0, 0.0)) == 0.0


def test_geometric_phase_grows_with_energy():
    small = geometric_phase(MCSLabel(3, 0, 0.5))
    large = geometric_phase(MCSLabel(3, 0, 2.5))
    assert 0.0 <= small < large
