import math

import numpy as np
import pytest

from mcskit import (
    MCSLabel,
    MeasureCandidate,
    Overflow,
    PhaseGrid,
    QuadratureFailure,
    apply_k_ladder,
    basis_state,
    build_mcs,
    coherent_from_classes,
    identity_block,
    identity_resolution_numeric,
    mcs_as_scs,
    moment_check,
    root_exponential_density,
)
from mcskit.completeness import _MOMENT_TOL


def _moment_gap(k, j, n_top):
    """Worst moment error of the family on class (k, j); inf unless it passes."""
    report = moment_check(root_exponential_density(k, j), n_top)
    return report.worst_error() if report.passed else math.inf


def _block_gap(k, j, dim_check):
    """Distance of the class's identity block to the identity."""
    return float(np.max(np.abs(identity_block(k, j, dim_check) - np.eye(dim_check))))


def test_family_moments_across_orders():
    # x^{(j+1)/k} e^{-x^{1/k}} / k reproduces Gamma(kn+j+1) for every class
    for k, j in ((1, 0), (2, 1), (3, 0), (3, 2)):
        report = moment_check(root_exponential_density(k, j), n_top=12)
        assert report.passed, report
        assert report.worst_error() < 1e-8
        assert np.all(report.rel_errors <= _MOMENT_TOL)


def test_order_one_density_value():
    # k=1 reduces to the classic x e^{-x} weight, and v = x
    log_f, sign = root_exponential_density(1, 0).log_density(np.array([2.0]))
    assert sign[0] * math.exp(log_f[0]) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


def test_plain_exponential_fails_at_second_moment():
    bad = MeasureCandidate(k=1, j=0, log_density=lambda v: (-v, np.ones_like(v)),
                           support_hint=60.0, name="exp(-x)")
    report = moment_check(bad, n_top=4)
    assert not report.passed
    # the first moment passes and the second is the first to fail
    assert report.rel_errors[0] <= _MOMENT_TOL < report.rel_errors[1]
    # moments of e^{-x} are (n-1)! against a target of n!, so the relative
    # error at order n is exactly 1 - 1/n
    assert report.rel_errors[1] == pytest.approx(0.5, abs=1e-9)
    assert report.rel_errors[2] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_negative_density_is_flagged_not_fatal():
    wobble = MeasureCandidate(
        k=1, j=0,
        log_density=lambda v: (np.log(v) - v + np.log(np.abs(np.cos(3.0 * v))),
                               np.sign(np.cos(3.0 * v))),
        support_hint=60.0, name="wobble",
    )
    report = moment_check(wobble, n_top=3)
    assert not report.nonnegative
    assert not report.passed


def test_identity_resolution_order_one():
    dev = identity_resolution_numeric(1, 0)
    assert dev < 1e-6


def test_identity_blocks_tile_order_two():
    dim = 12
    total = np.zeros((dim, dim))
    for j in (0, 1):
        block = identity_block(2, j, dim_check=6)
        rows = np.arange(j, dim, 2)
        total[np.ix_(rows, rows)] += block.real
    assert np.max(np.abs(total - np.eye(dim))) < 1e-8


def test_identity_resolution_every_class_to_order_five():
    gaps = {(k, j): identity_resolution_numeric(k, j) for k in range(1, 6) for j in range(k)}
    assert max(gaps.values()) <= 1e-8, gaps


@pytest.mark.parametrize("k", [10**3, 10**4, 10**5, 4 * 10**5, 10**6, 10**9, 10**11, 10**12])
def test_high_orders_are_right_or_refused(k):
    # rounding in the log integrand, about eps (kn+j) ln v, grows with k, and
    # from some order 4096 panels cannot resolve the narrowest weight; either
    # must raise, never return moments or a block off their targets. Nothing
    # here nears the array cap, so the refusal is QuadratureFailure, not
    # Overflow. The block's range must end at its highest order, dim_check - 1:
    # one period further, from k = 4e5 a one-state block's nodes miss its
    # weight and settle 1.0 off. From k = 1e11 coarse panel counts miss a
    # narrow weight alike and settle on 0 unless refused up front
    for j in (0, 3, k - 1):
        for gap, count in ((_block_gap, 1), (_block_gap, 2), (_block_gap, 3), (_block_gap, 12),
                           (_moment_gap, 1), (_moment_gap, 2)):
            try:
                assert gap(k, j, count) <= 1e-8, (gap.__name__, j, count)
            except QuadratureFailure:
                assert k > 10**4, (gap.__name__, j, count)


@pytest.mark.parametrize("call", [
    lambda: _moment_gap(74, 0, 8),
    lambda: _moment_gap(400, 0, 8),
    lambda: _block_gap(88, 0, 12),
    lambda: _block_gap(200, 7, 12),
    lambda: _block_gap(400, 0, 12),
    lambda: _block_gap(2, 1, 300),
    lambda: _block_gap(5, 4, 200),
    lambda: _moment_gap(90, 0, 20),
    lambda: _moment_gap(400, 399, 20),
    lambda: _block_gap(100, 0, 2),
    lambda: _block_gap(400, 7, 1),
    lambda: identity_resolution_numeric(100, 0),
    lambda: identity_resolution_numeric(90, 89),
    lambda: _block_gap(89, 0, 30),
    lambda: max(_moment_gap(89, 88, 2), _block_gap(89, 0, 2)),
], ids=["moments-74-0", "moments-400-0", "block-88-0", "block-200-7", "block-400-0",
        "block-2-1-300", "block-5-4-200", "density-k90", "density-k400", "block-k100",
        "block-k400", "gap-k100", "gap-k90", "block-range-k89", "order-k89"])
def test_high_orders_resolve_the_identity(call):
    # orders whose weight lies past v = 708, where f(v^k) underflows unless
    # it is formed in logs, and classes from k = 90, where x = v^k of the
    # support hint leaves double range; nothing forms either
    assert call() <= 1e-11


def test_one_state_blocks_keep_their_tail():
    # order 0 at j = 0 is e^-v: the range ends 40 past its peak, so the
    # tail it leaves out, e^-40, is below rounding (e^-30 would read 9.4e-14)
    assert max(_block_gap(k, j, 1) for k in range(1, 9) for j in range(k)) <= 4e-15


def test_identity_resolution_reaches_past_the_support_hint():
    # the range follows dim_check: orders up to 39 lie past the n <= 24
    # that the candidate's support_hint covers
    block = identity_block(5, 4, 40)
    assert np.max(np.abs(block - np.eye(40))) <= 1e-8


def test_truncated_moment_raises_instead_of_scoring():
    # the family is exact, but support_hint covers only n <= 24, so the
    # integrand still carries weight at the upper limit for high orders
    with pytest.raises(QuadratureFailure, match="support_hint"):
        moment_check(root_exponential_density(5, 4), n_top=40)
    assert moment_check(root_exponential_density(5, 4), n_top=24).passed


def test_a_density_that_never_settles_names_its_order():
    # NaN compares false, so no panel count settles and the doubling runs out
    nowhere = MeasureCandidate(k=2, j=1,
                               log_density=lambda v: (np.full_like(v, np.nan), np.ones_like(v)),
                               support_hint=50.0, name="nan")
    with pytest.raises(QuadratureFailure, match=r"moment 1 of 'nan' did not converge"):
        moment_check(nowhere, n_top=3)


@pytest.mark.parametrize("call", [
    # past the array cap, refused before anything is allocated; no range
    # short of it leaves double range
    lambda: moment_check(root_exponential_density(1, 0), n_top=10**11),
    lambda: moment_check(root_exponential_density(1, 0), n_top=2**18 + 1),
    lambda: identity_block(1, 0, dim_check=10**6),
], ids=["n_top-1e11", "n_top-2^18+1", "dim-1e6"])
def test_ranges_past_double_range_or_the_array_cap_raise_overflow(call):
    with pytest.raises(Overflow):
        call()


@pytest.mark.parametrize("call", [
    lambda: identity_block(1, 0, dim_check=0),
    lambda: identity_block(2, 1, dim_check=2.5),
    # gap-dim: the count verify's tiling gap passes on; the gap of
    # identity_resolution_numeric takes none
    lambda: identity_block(3, 1, dim_check=0),
    lambda: identity_block(5, 4, dim_check=2.5),
    lambda: moment_check(root_exponential_density(1, 0), n_top=0),
    lambda: moment_check(root_exponential_density(2, 0), n_top=3.0),
    lambda: build_mcs(MCSLabel(2, 0, 1.0), n_max=2.5),
    lambda: coherent_from_classes(2, 1.0, n_max=0),
    lambda: mcs_as_scs(2, 0, 1.0).fock_vector(n_max=2.5),
    lambda: PhaseGrid(n_q=2.5),
], ids=["block-dim-0", "block-dim-2.5", "gap-dim-0", "gap-dim-2.5", "n_top-0",
        "n_top-3.0", "build-n_max-2.5", "classes-n_max-0", "scs-n_max-2.5",
        "grid-n_q-2.5"])
def test_counts_must_be_positive_integers(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: apply_k_ladder(basis_state(7, 8), 1, +1, leak_tol=math.nan), "leak_tol"),
    (lambda: MeasureCandidate(1, 0, np.exp, support_hint=math.nan, name="nan"), "support_hint"),
    (lambda: MeasureCandidate(1, 0, np.exp, support_hint=math.inf, name="inf"), "support_hint"),
], ids=["leak_tol-nan", "support_hint-nan", "support_hint-inf"])
def test_arguments_that_would_switch_a_check_off_raise(call, name):
    # NaN compares false, so each of these returned with its check disabled
    # or failed later inside numpy
    with pytest.raises(ValueError, match=name):
        call()
