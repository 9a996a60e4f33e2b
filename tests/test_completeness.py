import math

import numpy as np
import pytest

from mcskit import (
    MCSLabel,
    MeasureCandidate,
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
    moments,
    root_exponential_density,
)


def test_family_moments_across_orders():
    # x^{(j+1)/k} e^{-x^{1/k}} / k reproduces Gamma(kn+j+1) for every class
    for k, j in ((1, 0), (2, 1), (3, 0), (3, 2)):
        report = moment_check(root_exponential_density(k, j), n_top=12)
        assert report.passed, report
        assert report.worst_error() < 1e-8
        assert np.all(report.rel_errors <= report.tol)


def test_order_one_density_value():
    # k=1 reduces to the classic x e^{-x} weight
    f = root_exponential_density(1, 0)
    assert f.density(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


def test_plain_exponential_fails_at_second_moment():
    bad = MeasureCandidate(k=1, j=0, density=lambda x: np.exp(-x), support_hint=60.0)
    report = moment_check(bad, n_top=4)
    assert not report.passed
    # the first moment passes and the second is the first to fail
    assert report.rel_errors[0] <= report.tol < report.rel_errors[1]
    # moments of e^{-x} are (n-1)! against a target of n!, so the relative
    # error at order n is exactly 1 - 1/n
    assert report.rel_errors[1] == pytest.approx(0.5, abs=1e-9)
    assert report.rel_errors[2] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_negative_density_is_flagged_not_fatal():
    wobble = MeasureCandidate(
        k=1, j=0,
        density=lambda x: x * np.exp(-x) * np.cos(3.0 * x),
        support_hint=60.0,
    )
    report = moment_check(wobble, n_top=3)
    assert not report.nonnegative
    assert not report.passed


def test_identity_resolution_order_one():
    dev = identity_resolution_numeric(1, 0, dim_check=12)
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


def test_identity_resolution_reaches_past_the_support_hint():
    # the range follows dim_check: orders up to 39 lie past the n <= 24
    # that the candidate's support_hint covers
    assert identity_resolution_numeric(5, 4, dim_check=40) <= 1e-8


def test_truncated_moment_raises_instead_of_scoring():
    # the family is exact, but support_hint covers only n <= 24, so the
    # integrand still carries weight at the upper limit for high orders
    with pytest.raises(QuadratureFailure, match="support_hint"):
        moment_check(root_exponential_density(5, 4), n_top=40)
    assert moment_check(root_exponential_density(5, 4), n_top=24).passed


@pytest.mark.parametrize("call", [
    lambda: identity_block(1, 0, dim_check=0),
    lambda: identity_block(2, 1, dim_check=2.5),
    lambda: identity_resolution_numeric(1, 0, dim_check=0),
    lambda: identity_resolution_numeric(3, 1, dim_check=2.5),
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
    (lambda: moments(MCSLabel(2, 0, 1.0), route_tol=math.nan), "route_tol"),
    (lambda: apply_k_ladder(basis_state(7, 8), 1, +1, leak_tol=math.nan), "leak_tol"),
], ids=["route_tol-nan", "leak_tol-nan"])
def test_arguments_that_would_switch_a_check_off_raise(call, name):
    # NaN compares false, so each of these returned with its check disabled
    # or failed later inside numpy
    with pytest.raises(ValueError, match=name):
        call()
