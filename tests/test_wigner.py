import math
import re

import numpy as np
import pytest

from mcskit import (
    BoundaryMass,
    DegenerateNorm,
    MCSLabel,
    PhaseGrid,
    WindowTooNarrow,
    basis_state,
    build_mcs,
    marginals,
    negativity_volume,
    purity,
    wigner_closed,
    wigner_numeric,
)


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(q_min=2.0, q_max=-2.0)
    with pytest.raises(ValueError):
        PhaseGrid(n_q=1)
    g = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 3)
    assert g.q_axis.size == 5 and g.p_axis.size == 3


def test_scs_field_is_shifted_gaussian_peak():
    z = 1.0 + 0.5j
    field = wigner_closed(1, 0, z, PhaseGrid())
    iq, ip = np.unravel_index(np.argmax(field.values), field.values.shape)
    grid = field.grid
    assert grid.q_axis[iq] == pytest.approx(math.sqrt(2.0) * z.real, abs=0.07)
    assert grid.p_axis[ip] == pytest.approx(math.sqrt(2.0) * z.imag, abs=0.07)
    assert field.values.max() == pytest.approx(1.0 / math.pi, rel=1e-3)
    assert field.values.min() > -1e-12


def test_field_invariants():
    for k, j, z in ((1, 0, 1.5), (2, 0, 2.0), (3, 1, 1.0 + 1.0j)):
        field = wigner_closed(k, j, z)
        assert field.total() == pytest.approx(1.0, abs=1e-4)
        assert np.max(np.abs(field.values)) <= 1.0 / math.pi + 1e-6
        assert field.purity() == pytest.approx(1.0, abs=1e-3)


def test_closed_matches_numeric():
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 129, 129)
    for k, j, z in ((2, 1, 1.0 + 1.0j), (3, 0, 1.5)):
        closed = wigner_closed(k, j, z, grid)
        state = build_mcs(MCSLabel(k, j, complex(z) ** k))
        numeric = wigner_numeric(state, grid)
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-6
        assert numeric.imag_residue < 1e-10


def test_odd_cat_limit_is_first_fock_state():
    # as z -> 0 the odd cat collapses onto |1>, whose field bottoms at -1/pi
    field = wigner_closed(2, 1, 1e-4)
    mid_q = field.grid.n_q // 2
    mid_p = field.grid.n_p // 2
    assert field.grid.q_axis[mid_q] == 0.0
    assert field.values[mid_q, mid_p] == pytest.approx(-1.0 / math.pi, abs=1e-6)


def test_negativity_dichotomy():
    assert negativity_volume(wigner_closed(1, 0, 2.0)) < 1e-10
    assert negativity_volume(wigner_closed(2, 0, 2.0)) > 1e-3
    # interference dies with the separation, so negativity fades toward 0
    small = negativity_volume(wigner_closed(2, 0, 0.10))
    assert small < 1e-3


def test_numeric_field_of_fock_state():
    # |1> has the exact field (2(q^2+p^2) - 1) e^{-(q^2+p^2)} / pi
    grid = PhaseGrid(-5.0, 5.0, -5.0, 5.0, 101, 101)
    field = wigner_numeric(basis_state(1, n_max=32), grid)
    qq = grid.q_axis[:, None]
    pp = grid.p_axis[None, :]
    s = qq * qq + pp * pp
    exact = (2.0 * s - 1.0) * np.exp(-s) / math.pi
    assert np.max(np.abs(field.values - exact)) < 1e-10


def laguerre_field(n, grid):
    """W_n = (-1)^n e^{-s/2} L_n(s) / pi with s = 2(q^2 + p^2), L_n by the
    three-term recurrence (m+1) L_{m+1} = (2m+1-s) L_m - m L_{m-1}."""
    s = 2.0 * (grid.q_axis[:, None] ** 2 + grid.p_axis[None, :] ** 2)
    prev, cur = np.zeros_like(s), np.ones_like(s)
    for m in range(n):
        prev, cur = cur, ((2 * m + 1 - s) * cur - m * prev) / (m + 1)
    return (-1) ** n * np.exp(-0.5 * s) * cur / math.pi


@pytest.mark.parametrize(
    "grid",
    [PhaseGrid(-5.0, 5.0, -5.0, 5.0, 33, 33), PhaseGrid(-16.0, 16.0, -16.0, 16.0, 257, 257)],
    ids=["coarse", "fine"],
)
def test_numeric_fock_fields_match_laguerre_series(grid):
    # |200> reaches sqrt(401) + 9 = 29.0, inside a window of 30; the coarse
    # grid has a q step of 0.31, so the y step must come from the state
    for n in (0, 1, 7, 40, 100, 200):
        field = wigner_numeric(basis_state(n, n_max=256), grid, window_half=30.0)
        assert np.max(np.abs(field.values - laguerre_field(n, grid))) < 1e-12


def test_marginals_match_reference_densities():
    state = build_mcs(MCSLabel(2, 0, 4.0))  # z = 2
    field = wigner_numeric(state)
    m = marginals(field, state)
    assert np.max(np.abs(m.q_marginal - m.q_density)) < 1e-6
    assert np.max(np.abs(m.p_marginal - m.p_density)) < 1e-6


def test_marginals_boundary_guard():
    state = build_mcs(MCSLabel(1, 0, 3.0))
    tight = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 65, 65)
    with pytest.raises(BoundaryMass):
        marginals(wigner_numeric(state, tight), state)


def test_window_guard():
    with pytest.raises(WindowTooNarrow):
        wigner_numeric(basis_state(200, n_max=256))


def test_window_guard_names_a_sufficient_half_width():
    state = build_mcs(MCSLabel(2, 0, 4.5**2))
    with pytest.raises(WindowTooNarrow, match=r"window_half=\d+") as info:
        wigner_numeric(state)
    half = float(re.search(r"window_half=(\d+)", str(info.value)).group(1))
    field = wigner_numeric(state, window_half=half)
    assert np.max(np.abs(field.values - wigner_closed(2, 0, 4.5).values)) < 1e-12


def test_degenerate_guard():
    with pytest.raises(DegenerateNorm):
        wigner_closed(2, 1, 0.0)


def test_degenerate_guard_covers_squared_norm():
    # the class norm ~ |z|^2 / sqrt2 = 7e-201 is finite, but its square in
    # the scale factor underflows to 0
    with pytest.raises(DegenerateNorm):
        wigner_closed(3, 2, 1e-100, PhaseGrid(-5.0, 5.0, -5.0, 5.0, 33, 33))


@pytest.mark.parametrize(
    "k, j, z", [(2, 1, 1e-5), (2, 1, 1e-200), (5, 4, 1e-3), (3, 2, 1e-5)]
)
def test_closed_field_refuses_cancelled_pairs(k, j, z):
    # the k^2 ring pairs cancel down to the class field, which keeps about
    # eps e^{|z|^2} / (k component_norm)^2 / pi of absolute accuracy: at
    # (2, 1, 1e-5) that bound is 1.8e-7, and the field was 3.7e-7 off the
    # numeric one before the guard
    with pytest.raises(DegenerateNorm, match="wigner_numeric"):
        wigner_closed(k, j, z)
    # the Fock route serves the label
    field = wigner_numeric(build_mcs(MCSLabel(k, j, complex(z) ** k)))
    assert field.total() == pytest.approx(1.0, abs=1e-6)


def test_purity_helper_matches_method():
    field = wigner_closed(2, 0, 1.0)
    assert purity(field) == field.purity()
