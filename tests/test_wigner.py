import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcskit
from mcskit import (
    BoundaryMass,
    DegenerateNorm,
    FockVector,
    MCSLabel,
    Overflow,
    PhaseGrid,
    WignerField,
    WindowTooNarrow,
    basis_state,
    build_mcs,
    fock_wavefunction,
    marginals,
    negativity_volume,
    purity,
    wigner_closed,
    wigner_numeric,
)
from mcskit.decomposition import _synthesize
from mcskit.wigner import _axis, _sup_gap


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(q_min=2.0, q_max=-2.0)
    with pytest.raises(ValueError):
        PhaseGrid(n_q=1)
    for bounds in ((-1.0, 1.0, -1.0, math.inf), (math.nan, 1.0, -1.0, 1.0),
                   (-1e308, 1e308, -1.0, 1.0)):  # the last span overflows
        with pytest.raises(ValueError, match="finite"):
            PhaseGrid(*bounds, 3, 3)
    g = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 3)
    assert g.q_axis.size == 5 and g.p_axis.size == 3
    # an axis past 2^26 points is refused before it is built
    for sizes in ((2**40, 2), (2, 2**26 + 1)):
        with pytest.raises(Overflow, match="axis points"):
            PhaseGrid(n_q=sizes[0], n_p=sizes[1])


def test_grid_axes_are_built_once_and_read_only():
    g = PhaseGrid(-6.0, 5.0, -5.5, 6.5, 97, 89)
    assert np.array_equal(g.q_axis, np.linspace(-6.0, 5.0, 97))
    assert np.array_equal(g.p_axis, np.linspace(-5.5, 6.5, 89))
    assert g.q_axis is g.q_axis and g.p_axis is g.p_axis
    for axis in (g.q_axis, g.p_axis):
        assert not axis.flags.writeable
        with pytest.raises(ValueError):
            axis[0] = 0.0


def test_field_keeps_its_invariants():
    # finite float64 values of the grid's shape, else ValueError: a NaN field
    # gave NaN marginals, totals and purity, a nested list a bare
    # AttributeError, and a (3, 3) array numpy's matmul message
    grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 3)
    for values in (np.full((5, 3), np.nan), np.full((5, 3), np.inf), np.zeros((3, 3)),
                   np.zeros((3, 5)), np.zeros((5, 3), dtype=complex), [[0.0] * 3] * 4):
        with pytest.raises(ValueError, match="finite real array of shape"):
            WignerField(grid, values)
    with pytest.raises(ValueError):
        marginals(WignerField(PhaseGrid(), np.full((257, 257), np.nan)))
    rows = [[-1.0, 0.0, 2.0]] * 5
    field = WignerField(grid, rows)
    assert field.values.dtype == np.float64 and field.values.shape == (5, 3)
    assert negativity_volume(field) == negativity_volume(WignerField(grid, np.array(rows)))
    assert WignerField(grid, np.ones((5, 3), dtype=int)).total() == pytest.approx(4.0)


def test_kernels_hand_over_their_fields_unchecked(monkeypatch):
    # the kernels' own arrays are finite by construction, so neither pays the check
    def refuse(self):
        raise AssertionError("a kernel field was validated")

    monkeypatch.setattr(WignerField, "__post_init__", refuse)
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 17, 17)
    closed = wigner_closed(2, 0, 1.0, grid)
    numeric = wigner_numeric(build_mcs(MCSLabel(2, 0, 1.0), 64), grid)
    assert np.max(np.abs(closed.values - numeric.values)) < 1e-10


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
        # both routes are real by construction
        assert closed.values.dtype == numeric.values.dtype == np.float64


def test_odd_cat_limit_is_first_fock_state():
    # as z -> 0 the odd cat collapses onto |1>, whose field bottoms at -1/pi;
    # the closed route serves (2, 1) down to |z| = 2.1e-4
    field = wigner_closed(2, 1, 3e-4)
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
    # |200> reaches sqrt(401) + 9 = 29.0; the coarse grid has a q step of
    # 0.31, so the y step and window must come from the state
    for n in (0, 1, 7, 40, 100, 200):
        field = wigner_numeric(basis_state(n, n_max=256), grid)
        assert np.max(np.abs(field.values - laguerre_field(n, grid))) < 1e-12


def test_marginals_match_reference_densities():
    state = build_mcs(MCSLabel(2, 0, 4.0))  # z = 2
    twist = FockVector(state.coeffs * (-1j) ** np.arange(state.n_max))
    # PhaseGrid() shares one axis between the two density rows; the
    # off-centre grid runs them on q and p joined
    for grid in (PhaseGrid(), PhaseGrid(-8.5, 8.0, -6.0, 6.5, 97, 89)):
        field = wigner_numeric(state, grid)
        m = marginals(field, state)
        assert np.max(np.abs(m.q_marginal - m.q_density)) < 1e-6
        assert np.max(np.abs(m.p_marginal - m.p_density)) < 1e-6
        # the one two-row recurrence against one synthesis per axis
        for dens, ref in ((m.q_density, np.abs(fock_wavefunction(state, grid.q_axis)) ** 2),
                          (m.p_density, np.abs(fock_wavefunction(twist, grid.p_axis)) ** 2)):
            assert np.max(np.abs(dens - ref)) <= 1e-14 * np.max(ref)


def test_momentum_twist_is_exact_at_4096_levels():
    # p_density synthesizes the coefficients c_n (-i)^n; a complex power
    # drifts from the exact quarter turn by about n eps, 6.9e-13 at n = 4095
    rng = np.random.default_rng(11)
    c = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    state = FockVector(c / np.linalg.norm(c))
    want = np.empty_like(state.coeffs)
    turned = state.coeffs
    for r in range(4):
        want[r::4] = turned[r::4]
        turned = turned.imag - 1j * turned.real  # times -i, exactly
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 5, 41)
    m = marginals(WignerField(grid, np.zeros((5, 41))), state)
    # the reference runs the same two-row synthesis on the joined axes, so
    # only the twist itself can differ
    rows = np.stack([state.coeffs, want])
    ref = _synthesize(rows, np.concatenate([grid.q_axis, grid.p_axis]))[1, 5:]
    assert np.array_equal(m.p_density, np.abs(ref) ** 2)


def test_marginals_boundary_guard():
    state = build_mcs(MCSLabel(1, 0, 3.0))
    tight = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 65, 65)
    with pytest.raises(BoundaryMass):
        marginals(wigner_numeric(state, tight), state)


def test_window_guard():
    # the guard stays quiet on |200>, whose correlator needs a y window of
    # 22, past the fixed window of 10 that used to refuse it
    field = wigner_numeric(basis_state(200, n_max=256))
    assert np.max(np.abs(field.values - laguerre_field(200, PhaseGrid()))) < 1e-12


def test_window_from_the_state_serves_a_wide_cat():
    # the branches of (2, 0, 4.5) sit 12.7 apart, so the correlator has
    # weight out to |y| = 6.4 + its width and the window must pass 10
    field = wigner_numeric(build_mcs(MCSLabel(2, 0, 4.5**2)))
    assert np.max(np.abs(field.values - wigner_closed(2, 0, 4.5).values)) < 1e-12


def test_window_guard_fires_at_the_reach():
    # levels 1..399 hold 0.99e-32 of the unit norm, so the reach counts only
    # |0>, y = +-9.85; as sum_n psi_n(19.75) |n> they make a packet narrow
    # enough at x = 19.75 that psi(q + y) psi(q - y) passes 1e-16 there
    c = _synthesize(np.eye(400), np.array([19.75]))[:, 0]
    c *= math.sqrt(0.99e-32 / np.sum(np.abs(c[1:]) ** 2))
    c[0] = 1.0
    with pytest.raises(WindowTooNarrow, match="reach"):
        wigner_numeric(FockVector(c), PhaseGrid(-12.0, 12.0, -8.0, 8.0, 385, 257))


def test_numeric_field_scales_with_the_vector():
    # the y window ends relative to the squared norm, so W(c psi) / c^2 is
    # W(psi); at an absolute edge it was 1.27e-5 off at c = 1e-6, and
    # c = 1e150 was refused
    state = build_mcs(MCSLabel(2, 0, 4.0))
    field = wigner_numeric(state).values
    for c in 10.0 ** np.arange(-150, 151, 30):
        scaled = wigner_numeric(FockVector(c * state.coeffs)).values / c**2
        assert np.max(np.abs(scaled - field)) <= 1e-14, c


def test_window_keeps_one_y_step_far_from_the_state():
    # psi stays below 1e-80 on the whole lattice, so no y column has an
    # envelope above the edge tolerance; one step is still transformed
    field = wigner_numeric(basis_state(0, 8), PhaseGrid(30.0, 40.0, -5.0, 5.0, 33, 33))
    assert np.all(np.isfinite(field.values))
    assert np.max(np.abs(field.values)) < 1e-100


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
    # 2 eps e^{|z|^2} / component_norm^2 of absolute accuracy: at
    # (2, 1, 1e-5) that bound is 4.4e-6, and the field was 3.7e-7 off the
    # numeric one before the guard
    with pytest.raises(DegenerateNorm, match="wigner_numeric"):
        wigner_closed(k, j, z)
    # the Fock route serves the label
    field = wigner_numeric(build_mcs(MCSLabel(k, j, complex(z) ** k)))
    assert field.total() == pytest.approx(1.0, abs=1e-6)


def test_closed_field_past_the_norm_overflow():
    # component_norm(1, 0, 30) squared is e^900; the scale is a scaled ratio
    field = wigner_closed(1, 0, 30.0, PhaseGrid(36.0, 49.0, -6.0, 6.0, 65, 65))
    assert field.total() == pytest.approx(1.0, abs=1e-10)
    assert field.purity() == pytest.approx(1.0, abs=1e-10)
    # p offsets near 1e308: the squares and phases would overflow to NaN
    # unclamped (a RuntimeWarning fails tier-1)
    far = wigner_closed(3, 1, 1.5, PhaseGrid(-1.0, 1.0, -1.0, 1e308, 3, 3))
    near = wigner_closed(3, 1, 1.5, PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3))
    assert np.all(far.values[:, 1:] == 0.0)
    assert far.values[:, 0] == pytest.approx(near.values[:, 0], rel=1e-14)


def test_closed_field_rejects_bad_labels():
    with pytest.raises(ValueError, match="must be integers"):
        wigner_closed(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        wigner_closed(2, 0, complex(float("nan"), 0.0))
    with pytest.raises(Overflow):
        wigner_closed(8, 3, 1e20)  # |z|^16


def test_numeric_field_of_a_far_state_matches_the_closed_field():
    # the lattice spans q = 36 -+ 69, the state's reach, and past 37.6 the
    # synthesis seed is carried with a power of two
    state = build_mcs(MCSLabel(1, 0, 30.0), n_max=2048)
    grid = PhaseGrid(36.0, 49.0, -6.0, 6.0, 33, 33)
    field = wigner_numeric(state, grid)
    closed = wigner_closed(1, 0, 30.0, grid)
    assert np.max(np.abs(field.values - closed.values)) < 1e-12
    m = marginals(field, state)
    assert np.max(np.abs(m.q_marginal - m.q_density)) < 1e-12
    assert np.max(np.abs(m.p_marginal - m.p_density)) < 1e-12
    # a p axis out to 1e308 would need a y step below any array's reach
    with pytest.raises(Overflow, match="y lattice"):
        wigner_numeric(state, PhaseGrid(-1.0, 1.0, -1.0, 1e308, 3, 3))


def test_numeric_field_of_a_parity_state_is_point_symmetric():
    # a state on levels of one parity has W(-q, -p) = W(q, p); on mirrored
    # axes and lattice the rows q < 0 are the rows q > 0 turned over in p,
    # bit for bit, and the q = 0 row, computed directly, is left out
    states = {(k, j, z): build_mcs(MCSLabel(k, j, z**k))
              for k, j, z in ((2, 0, 1.5 + 0.5j), (2, 1, 1.2 - 0.9j), (8, 3, 1.1 + 0.6j))}
    # y step = 2 q steps, q step / 2, q step / 3 (on a lattice of even
    # length and on one of odd length) and 1 or 2 q steps of 0.08
    mirrored = [PhaseGrid(), PhaseGrid(-8.0, 8.0, -60.0, 60.0, 257, 257),
                PhaseGrid(-1.3125, 1.3125, -5.0, 5.0, 8, 257),
                PhaseGrid(-8.0, 8.0, -100.0, 100.0, 257, 257), PhaseGrid(n_q=201, n_p=201)]
    # a q axis with asymmetric bounds, so not mirrored
    fallback = [PhaseGrid(-7.0, 9.0, -8.0, 8.0, 257, 257)]
    for grid in mirrored + fallback:
        fields = [(wigner_numeric(state, grid).values, wigner_closed(*label, grid).values)
                  for label, state in states.items()]
        fields.append((wigner_numeric(basis_state(3, 40), grid).values, laguerre_field(3, grid)))
        off_centre = np.arange(grid.n_q) != (grid.n_q - 1) / 2
        for numeric, exact in fields:
            assert np.max(np.abs(numeric - exact)) < 1e-6
            if grid in mirrored:
                assert np.array_equal(numeric[off_centre], numeric[::-1, ::-1][off_centre])


def test_symmetric_axes_are_mirrored_and_others_keep_linspace():
    # symmetric bounds give axes built about the midpoint, mirrored bit for
    # bit at any n; at a dyadic step those are linspace's bits, and
    # asymmetric bounds keep linspace
    for n in (101, 201, 1001):
        grid = PhaseGrid(n_q=n, n_p=n)
        for axis in (grid.q_axis, grid.p_axis):
            assert np.array_equal(axis[::-1], -axis)
    for n in (129, 257, 513):
        grid = PhaseGrid(n_q=n, n_p=n)
        for axis in (grid.q_axis, grid.p_axis):
            assert np.array_equal(axis, np.linspace(-8.0, 8.0, n))
    grid = PhaseGrid(-7.0, 9.0, -1.0, 3.0, 201, 101)
    assert np.array_equal(grid.q_axis, np.linspace(-7.0, 9.0, 201))
    assert np.array_equal(grid.p_axis, np.linspace(-1.0, 3.0, 101))
    # so the parity path serves 201^2 too: every row but q = 0 is its
    # partner turned over
    grid = PhaseGrid(n_q=201, n_p=201)
    field = wigner_numeric(build_mcs(MCSLabel(2, 0, 4.0)), grid).values
    off_centre = np.arange(201) != 100
    assert np.array_equal(field[off_centre], field[::-1, ::-1][off_centre])


def test_symmetric_axes_end_on_their_bounds_and_stay_mirrored():
    # h (i - (n - 1) / 2) alone can end an ulp past a bound (0.3 on 38
    # points gives 0.30000000000000004); the ends are pinned, which keeps
    # the exact mirror
    for bound in (0.3, 1.0, 2.5, 8.0, 10.0, 12.0, 0.1, 7.3, 1e-3, 123.456):
        for n in range(2, 600):
            axis = _axis(-bound, bound, n)
            assert axis[0] == -bound and axis[-1] == bound, (bound, n)
            assert np.array_equal(axis[::-1], -axis), (bound, n)
    grid = PhaseGrid(-0.3, 0.3, -0.3, 0.3, 38, 38)
    assert grid.q_axis[-1] == grid.p_axis[-1] == 0.3


def test_level_terms_decay_as_the_numeric_reach_assumes():
    # wigner_numeric's reach rests on |psi_n(x)| <= e^{-u^2/2} at
    # |x| = sqrt(2n + 1) + u
    u = np.linspace(0.0, 12.0, 241)
    bound = np.tile(np.exp(-0.5 * u**2), 2)
    for n in [*range(60), 100, 200, 400, 800, 1500, 2047]:
        x = math.sqrt(2.0 * n + 1.0) + u
        psi = fock_wavefunction(basis_state(n, 2048), np.concatenate([x, -x]))
        assert np.all(np.abs(psi) <= bound), n


def stdout_per_blas_thread_count(code):
    """The distinct stdouts of `code` run in a fresh process under one and
    under two OpenBLAS threads."""
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(mcskit.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    return digests


def test_wide_field_bytes_do_not_depend_on_the_blas_thread_count():
    # the y window of |200> is wide, so its transform blocks would be large
    # enough for OpenBLAS to split over threads if they were not sized
    # below the split
    code = ("import hashlib; from mcskit import PhaseGrid, basis_state, wigner_numeric; "
            "field = wigner_numeric(basis_state(200, 256), PhaseGrid()); "
            "print(hashlib.sha1(field.values.tobytes()).hexdigest())")
    assert len(stdout_per_blas_thread_count(code)) == 1


def test_completeness_bytes_do_not_depend_on_the_blas_thread_count():
    # at k = 10^4 the quadrature takes 2048 panels, whose node-by-order
    # products would be large enough for OpenBLAS to split over threads
    code = ("import hashlib; from mcskit import moment_check, root_exponential_density as f; "
            "from mcskit.completeness import _identity_diagonal; "
            "h = hashlib.sha1(_identity_diagonal(10**4, 0, 12).tobytes()); "
            "h.update(moment_check(f(10**4, 0), 12).rel_errors.tobytes()); "
            "print(h.hexdigest())")
    assert len(stdout_per_blas_thread_count(code)) == 1


def test_norm_and_inner_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product past 10^4 entries over threads; summed
    # over chunks of that size, 200000 levels keep their bits
    code = ("import numpy as np; from mcskit import FockVector, inner; "
            "rng = np.random.default_rng(7); "
            "a, b = (FockVector(rng.standard_normal(200000) + 1j * rng.standard_normal(200000))"
            " for _ in range(2)); "
            "dot = inner(a, b); print(a.norm().hex(), dot.real.hex(), dot.imag.hex())")
    assert len(stdout_per_blas_thread_count(code)) == 1


def test_purity_helper_matches_method():
    field = wigner_closed(2, 0, 1.0)
    assert purity(field) == field.purity()


@pytest.mark.parametrize("coeffs", [np.zeros(8), [1e200, 0.0, 0.0], [0.0, 1e-170j]],
                         ids=["zero", "norm-overflows", "norm-underflows"])
@pytest.mark.parametrize("call", [
    wigner_numeric,
    lambda state: marginals(wigner_closed(1, 0, 1.0), state),
], ids=["numeric", "marginals"])
def test_field_and_densities_of_a_vector_without_a_usable_norm_raise(coeffs, call):
    # a zero vector gave an all-zero field of total 0, and the squares of
    # 1e200 overflowed with a warning; the norm is checked before any square
    with pytest.raises(ValueError, match="positive, finite norm"):
        call(FockVector(coeffs))


def traced_peak(call):
    """Peak bytes traced during one call, after a first call outside the
    trace; what the call returns is still held at the peak."""
    call()
    tracemalloc.start()
    try:
        result = call()  # held while the peak is read
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BUDGET_Z = 1.5 * np.exp(0.7j)
BUDGET_STATE = build_mcs(MCSLabel(8, 4, BUDGET_Z**8))
BUDGET_FIELD = wigner_numeric(BUDGET_STATE)


@pytest.mark.parametrize(
    "call, limit",
    [
        (lambda: wigner_closed(8, 4, BUDGET_Z), 3.0),
        (lambda: wigner_numeric(BUDGET_STATE), 3.0),
        (lambda: purity(BUDGET_FIELD), 0.5),
        (lambda: negativity_volume(BUDGET_FIELD), 0.5),
    ],
    ids=["closed", "numeric", "purity", "negativity"],
)
def test_field_kernels_hold_no_second_field(call, limit):
    # on the default 257^2 grid the output field is the only full-grid
    # array a kernel may hold; a further copy of it would pass the limit
    assert BUDGET_FIELD.values.shape == (257, 257)
    assert traced_peak(call) <= limit * BUDGET_FIELD.values.nbytes


@pytest.mark.parametrize("field", [
    lambda grid: wigner_closed(1, 0, 1.0, grid),
    lambda grid: wigner_numeric(basis_state(0, 8), grid),
], ids=["closed", "numeric"])
def test_field_past_the_array_cap_raises_overflow(field):
    # 8192 x 8193 points pass 2^26 by one row; the grid is refused before
    # any axis or field is built
    with pytest.raises(Overflow, match="67117056 field entries"):
        field(PhaseGrid(n_q=8192, n_p=8193))


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 257])
def test_sup_gap_is_the_full_grid_max(rows):
    rng = np.random.default_rng(rows)
    a, b = rng.standard_normal((2, rows, 257))
    assert _sup_gap(a, b).hex() == float(np.max(np.abs(a - b))).hex()
    # a strided view, as the quarter-turn check passes
    flipped = np.asfortranarray(b)[::-1]
    assert _sup_gap(a, flipped).hex() == float(np.max(np.abs(a - flipped))).hex()


def test_sup_gap_keeps_nan_and_signed_zero_and_inf():
    a = np.zeros((97, 9))
    b = np.zeros((97, 9))
    b[40, 3] = math.nan  # a middle block; max(gap, nan) in Python would drop it
    assert math.isnan(_sup_gap(a, b))
    assert math.isnan(_sup_gap(b, a))
    b[40, 3] = -0.0
    assert _sup_gap(a, b).hex() == (0.0).hex() == float(np.max(np.abs(a - b))).hex()
    assert _sup_gap(-a, b).hex() == float(np.max(np.abs(-a - b))).hex()
    b[96, 8] = -math.inf
    assert _sup_gap(a, b) == math.inf
