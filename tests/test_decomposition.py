import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import decomposition
from mcskit import (
    DegenerateNorm,
    MCSLabel,
    McskitError,
    Overflow,
    PhaseGrid,
    ScsSuperposition,
    basis_state,
    build_mcs,
    coherent_from_classes,
    density_movie,
    fock_wavefunction,
    marginals,
    mcs_as_scs,
    mcs_wavefunction,
    moment_check,
    root_exponential_density,
    wigner_closed,
)

COSH_1 = 1.5430806348152437
X = np.linspace(-12.0, 12.0, 2048)


def component_norm(k, j, z):
    """The class norm N_j, whose value `_class_norm` returns as c 2^h."""
    return math.ldexp(*decomposition._class_norm(k, j, z))


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 6), r=st.floats(0.1, 2.5), theta=st.floats(0.0, 6.28))
def test_component_norms_partition_coherent_weight(k, r, theta):
    # the class projections of |z> split e^{|z|^2} exactly
    z = r * np.exp(1j * theta)
    total = sum(component_norm(k, j, z) ** 2 for j in range(k))
    assert total == pytest.approx(math.exp(r * r), rel=1e-12)


def test_component_norm_closed_value():
    assert component_norm(2, 0, 1.0) == pytest.approx(math.sqrt(COSH_1), rel=1e-14)


def test_decomposition_reproduces_class_state():
    for k, j, z in ((2, 0, 1.5), (2, 1, 1.0 + 1.0j), (3, 2, 0.9 - 0.4j)):
        sup = mcs_as_scs(k, j, z)
        direct = build_mcs(MCSLabel(k, j, complex(z) ** k))
        gap = np.linalg.norm(sup.fock_vector().coeffs - direct.coeffs)
        assert gap < 1e-12


def test_even_cat_weights_are_uniform():
    # k=2, j=0: both branches enter with the same weight 1/(2 sqrt(cosh|z|^2))
    # on unnormalized coherent vectors sum_n z^n/sqrt(n!) |n>
    sup = mcs_as_scs(2, 0, 1.0)
    raw = sup.weights * math.exp(-0.5 * abs(sup.z) ** 2)
    assert raw[0] == pytest.approx(raw[1], abs=1e-15)
    assert abs(raw[0]) == pytest.approx(0.5 / math.sqrt(COSH_1), rel=1e-13)


@pytest.mark.parametrize(
    "fields",
    [
        (0, 0, 1.0, np.ones(1)),
        (-1, 0, 1.0, np.ones(1)),
        (3, 3, 1.0, np.ones(3)),
        (3, -1, 1.0, np.ones(3)),
        (2.5, 0, 1.0, np.ones(2)),
        (3, 0, complex(math.nan, 0.0), np.ones(3)),
        (3, 0, complex(0.0, math.inf), np.ones(3)),
        (3, 0, 1.0, np.ones(2)),
        (3, 0, 1.0, np.ones(4)),
        (3, 0, 1.0, np.ones((3, 1))),
        (3, 0, 1.0, np.array([1.0, math.nan, 1.0])),
        (3, 0, 1.0, np.array([1.0, 1.0, complex(math.inf, 0.0)])),
    ],
    ids=["k0", "k-neg", "j-eq-k", "j-neg", "k-float", "z-nan", "z-inf",
         "two-weights", "four-weights", "2d-weights", "nan-weight", "inf-weight"],
)
def test_superposition_checks_its_fields(fields):
    with pytest.raises(ValueError):
        ScsSuperposition(*fields)


def test_superposition_takes_its_fields_as_typed_values():
    sup = ScsSuperposition(np.int64(2), 1, 1.5, [0.5, -0.5])
    assert (type(sup.k), type(sup.z)) == (int, complex)
    assert sup.weights.dtype == np.complex128
    assert np.allclose(sup.constituents(), [1.5, -1.5], rtol=0.0, atol=1e-15)


def test_degenerate_class_guard():
    with pytest.raises(DegenerateNorm):
        mcs_as_scs(3, 1, 0.0)
    with pytest.raises(DegenerateNorm):
        mcs_wavefunction(3, 1, 0.0, X)


def test_bad_label_raises_value_error():
    with pytest.raises(ValueError):
        mcs_wavefunction(0, 0, 1.0, X)
    with pytest.raises(ValueError):
        density_movie(0, 0, 1.0, X)  # before the default t_grid divides by k
    with pytest.raises(ValueError):
        density_movie(2, 2, 1.0, X)
    with pytest.raises(ValueError):
        density_movie(2, 0, 1.0, X, method="series")


@pytest.mark.parametrize("k, j, z", [(2, 1, 1e-200), (5, 4, 1e-3), (3, 2, 1e-5)])
def test_closed_route_refuses_cancelled_branches(k, j, z):
    # the branches cancel down to a class amplitude of size component_norm,
    # leaving about pi^{-1/4} 2 pi eps e^{|z|^2/2} / component_norm of
    # absolute accuracy (see _ring_norm): without the guard
    # the closed route is inf, 4e-4 and 2.9e-6 off the Fock route here, and a
    # ring vector of norm inf, 7.6e-4 and 3.8e-6 off build_mcs
    x = np.linspace(-6.0, 6.0, 121)
    with pytest.raises(DegenerateNorm, match="method='fock'"):
        mcs_wavefunction(k, j, z, x)
    with pytest.raises(DegenerateNorm, match="method='fock'"):
        density_movie(k, j, z, x)
    with pytest.raises(DegenerateNorm, match="build_mcs"):
        mcs_as_scs(k, j, z)


@pytest.mark.parametrize("method", ["closed", "fock"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_grid_raises_value_error(method, bad):
    # a RuntimeWarning fails tier-1, so these also show that none is emitted
    x = np.linspace(-6.0, 6.0, 61)
    x_bad = x.copy()
    x_bad[17] = bad
    t_bad = np.array([0.0, bad, 1.0])
    for call in (
        lambda: mcs_wavefunction(3, 1, 1.2, x_bad, method=method),
        lambda: mcs_wavefunction(3, 1, 1.2, x, t=bad, method=method),
        lambda: density_movie(3, 1, 1.2, x_bad, method=method),
        lambda: density_movie(3, 1, 1.2, x, t_bad, method=method),
        lambda: fock_wavefunction(build_mcs(MCSLabel(3, 1, 1.2)), x_bad),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("far", [1e200, -1e200, 1.7e308])
def test_closed_route_far_out_is_zero(far):
    # a RuntimeWarning fails tier-1, so this also shows no square overflows
    x = np.array([0.0, far])
    near = mcs_wavefunction(2, 0, 1.0, x[:1])
    psi = mcs_wavefunction(2, 0, 1.0, x)
    assert psi[1] == 0.0 and psi[0] == near[0]
    movie = density_movie(2, 0, 2.0 + 2.0j, x)
    assert np.all(movie[:, 1] == 0.0) and np.all(movie[:, 0] > 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mcs_as_scs(2.5, 0, 1.0),
        lambda: mcs_wavefunction(2, 1.0, 1.0, X),
        lambda: density_movie(2.0, 0, 1.0, X),
        lambda: coherent_from_classes(1.5, 1.0),
    ],
    ids=["mcs_as_scs", "mcs_wavefunction", "density_movie", "coherent_from_classes"],
)
def test_non_integer_order_or_class_raises_value_error(call):
    # the ring routes run the check MCSLabel runs
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_nan_ring_label_raises_before_the_series(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the norm series ran on a non-finite ring label")

    monkeypatch.setattr(decomposition, "_series", unreachable)
    for z in (complex(float("nan"), 0.0), complex(float("inf"), 1.0)):
        for call in (
            lambda: decomposition._class_norm(2, 0, z),
            lambda: mcs_as_scs(2, 0, z),
            lambda: mcs_wavefunction(3, 1, z, X),
            lambda: coherent_from_classes(2, z),
            lambda: wigner_closed(2, 1, z),
            lambda: density_movie(3, 2, z, X),
        ):
            with pytest.raises(ValueError, match="ring label z must be finite"):
                call()


@pytest.mark.parametrize("make", [
    lambda: wigner_closed(2, 0, 1.0, PhaseGrid(n_q=9, n_p=9)),
    lambda: marginals(wigner_closed(2, 0, 1.0, PhaseGrid(n_q=9, n_p=9))),
    lambda: mcs_as_scs(2, 0, 1.0),
    lambda: moment_check(root_exponential_density(2, 0), n_top=3),
], ids=["WignerField", "Marginals", "ScsSuperposition", "MomentReport"])
def test_result_types_compare_and_hash(make):
    # results that hold arrays compare and hash by identity, as FockVector does
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
    assert hash(a) != hash(b)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mcs_as_scs(8, 0, 1e20),  # |z|^16
        lambda: mcs_wavefunction(4, 1, 1e80, X),  # |z|^8
        lambda: coherent_from_classes(3, 1e120),  # |z|^6
        lambda: density_movie(2, 0, 1e200, X, method="fock"),  # z^2
        # (n_max - 1/2) t leaves double range; the closed route keeps t
        lambda: density_movie(2, 0, 1.0, X[:3], [0.0, 1e307], method="fock"),
    ],
    ids=["mcs_as_scs", "mcs_wavefunction", "coherent_from_classes", "fock_movie",
         "fock_movie_time"],
)
def test_label_past_double_range_raises_overflow(call):
    with pytest.raises(Overflow):
        call()


def test_ring_routes_past_the_norm_overflow():
    # S_{1,0}(900) = e^900 leaves double range, yet build_mcs serves the
    # label; the ring weight e^{|z|^2/2} / component_norm is one scaled ratio
    x = np.linspace(30.0, 55.0, 501)
    gauss = math.pi**-0.25 * np.exp(-0.5 * (x - 30.0 * math.sqrt(2.0)) ** 2)
    assert np.max(np.abs(mcs_wavefunction(1, 0, 30.0, x) - gauss)) < 1e-12
    ref = build_mcs(MCSLabel(1, 0, 30.0), n_max=2048)
    back = coherent_from_classes(2, 30.0, n_max=2048)
    assert np.linalg.norm(back.coeffs - ref.coeffs) < 1e-12
    ring = mcs_as_scs(2, 0, 25.0).fock_vector(2048)
    direct = build_mcs(MCSLabel(2, 0, 625.0), n_max=2048)
    assert np.linalg.norm(ring.coeffs - direct.coeffs) < 1e-12


@pytest.mark.parametrize(
    "call, route",
    [
        (lambda: wigner_closed(330, 329, 1.0, PhaseGrid(n_q=3, n_p=3)), "wigner_numeric"),
        (lambda: mcs_as_scs(330, 329, 1.0), "build_mcs"),
        (lambda: density_movie(330, 329, 1.0, np.linspace(-2.0, 2.0, 5)), "method='fock'"),
    ],
    ids=["field", "weights", "movie"],
)
def test_ring_routes_refuse_a_class_whose_ring_weight_leaves_double_range(call, route):
    # 329! is beyond double range, so the scaled weight e^{|z|^2/2} 2^-h
    # would be too; the class cancels far past the accuracy bound
    with pytest.raises(DegenerateNorm, match=re.escape(route)):
        call()


def ring_norm_in_range(k, j, z, fallback, pairs=False):
    """The cancellation check as it stood before num's log was checked
    against double range: num is formed first, so this is the reference
    wherever num fits a double."""
    den, h = decomposition._class_norm(k, j, z)
    eps = np.finfo(np.float64).eps
    if pairs:
        num = math.exp(abs(z) ** 2 - 2 * h * decomposition._LN2)
        cancelled = 2.0 * eps * num > decomposition._RING_ACCURACY * den**2
    else:
        num = math.exp(0.5 * abs(z) ** 2 - h * decomposition._LN2)
        # the branches' turns are exact, so only their phases' 2 pi eps is left
        branches = math.pi**-0.25 * 2.0 * math.pi
        cancelled = branches * eps * num > decomposition._RING_ACCURACY * den
    if cancelled:
        raise DegenerateNorm(fallback)
    return num, den


def test_ring_norm_keeps_its_outcome_where_the_weight_fits():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(1500):
        k = int(rng.choice([int(rng.integers(1, 9)), int(rng.integers(9, 400))]))
        j = int(rng.integers(k))
        z = 10.0 ** rng.uniform(-150.0, 1.6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        for pairs in (False, True):
            try:
                ref = ring_norm_in_range(k, j, z, "x", pairs)
            except OverflowError:
                continue  # the weight leaves double range: the case above
            except McskitError as exc:
                ref = type(exc)
            try:
                new = decomposition._ring_norm(k, j, z, "x", pairs)
            except McskitError as exc:
                new = type(exc)
            assert new == ref, (k, j, z, pairs)
            seen.add(ref if isinstance(ref, type) else "served")
    assert seen == {"served", DegenerateNorm}


def branch_threshold(k, j):
    """The smallest |z|, to 1e-6 relative, whose ring the closed route serves."""
    lo, hi = 1e-12, 5.0
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        try:
            decomposition._ring_norm(k, j, mid, "x")
            hi = mid
        except DegenerateNorm:
            lo = mid
    return hi


@pytest.mark.parametrize("k", range(2, 9))
def test_closed_wavefunction_keeps_its_accuracy_past_the_threshold(k):
    # j = k - 1 cancels worst; just past the threshold the closed route is
    # served and stays within the 1e-8 it promises of the Fock route
    j = k - 1
    r = 1.02 * branch_threshold(k, j)
    x = np.linspace(-8.0, 8.0, 401)
    rng = np.random.default_rng(k)
    for _ in range(4):
        z = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        t = rng.uniform(0.0, 2.0 * np.pi)
        closed = mcs_wavefunction(k, j, z, x, t=t)
        fock = mcs_wavefunction(k, j, z, x, t=t, method="fock")
        assert np.max(np.abs(closed - fock)) <= decomposition._RING_ACCURACY, (z, t)


@pytest.mark.parametrize("r", [0.19, 0.21, 0.23])
def test_closed_wavefunction_serves_the_top_class_of_order_8_from_0_19(r):
    # with exact turns the branch bound pi^{-1/4} 2 pi eps num / den holds
    # for every j, so (8, 7) is served from |z| = 0.186 and keeps its 1e-8
    x = np.linspace(-8.0, 8.0, 401)
    rng = np.random.default_rng(int(100 * r))
    for _ in range(3):
        z = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        t = rng.uniform(0.0, 2.0 * np.pi)
        closed = mcs_wavefunction(8, 7, z, x, t=t)
        fock = mcs_wavefunction(8, 7, z, x, t=t, method="fock")
        assert np.max(np.abs(closed - fock)) <= decomposition._RING_ACCURACY, (z, t)


def test_quarter_turn_ring_is_exact():
    # the turns of order 4 are 1, i, -1, -i exactly, not powers of a root
    # whose real part rounds to 6e-17
    for z in (1.3 - 0.4j, -2.0, 0.7j, 3.0 + 0.0j):
        for j in range(4):
            got = mcs_as_scs(4, j, z).constituents()
            assert np.array_equal(got, [z, 1j * z, -z, -1j * z]), (z, j)


def test_closed_wavefunction_refuses_a_label_it_served_off():
    # under the bound eps e^{|z|^2/2} / component_norm this label was served
    # 3.4e-8 off the Fock route, past the promised 1e-8
    x = np.linspace(-8.0, 8.0, 401)
    with pytest.raises(DegenerateNorm, match="method='fock'"):
        mcs_wavefunction(8, 7, 0.1508 * np.exp(-2.069j), x, t=0.695)


@pytest.mark.parametrize(
    "m, inner, n",
    [(257, 64, 257), (65, 64, 513), (10, 5, 7), (1, 64, 20000), (3, 600, 1000), (4, 3, 0)],
    ids=["field", "movie", "fits", "wide-row", "wide-rows", "no-columns"],
)
def test_matmul_tiles_cover_the_product_once(monkeypatch, m, inner, n):
    rng = np.random.default_rng(m * n)
    left = rng.standard_normal((m, inner))
    right = rng.standard_normal((n, inner)).T  # the closed field's layout
    out = np.empty((m, n))
    base = out.ctypes.data
    seen = np.zeros((m, n), dtype=int)
    matmul = np.matmul

    def tile(a, b, out):
        # each tile writes a view of the output: its offset locates the tile
        assert a.shape[0] * a.shape[1] * b.shape[1] < decomposition._SPLIT_SIZE
        row, col = divmod((out.ctypes.data - base) // out.itemsize, n)
        seen[row : row + a.shape[0], col : col + b.shape[1]] += 1
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", tile)
    decomposition._matmul_tiles(left, right, out)
    monkeypatch.undo()
    assert (seen == 1).all()
    product = left @ right
    if m * inner * n < decomposition._SPLIT_SIZE:  # one call, so the same bits
        assert np.array_equal(out, product)
    ulp = np.spacing(np.abs(left) @ np.abs(right))
    assert np.all(np.abs(out - product) <= 4.0 * ulp)


def test_synthesis_serves_a_state_past_the_unscaled_seed():
    # the recurrence seed pi^{-1/4} e^{-x^2/2} would be subnormal past
    # |x| = 37.6 and is carried with a power of two there; this state peaks
    # at x = 42.4 and reaches sqrt(2 * 1801 + 1) + 9 = 69
    state = build_mcs(MCSLabel(1, 0, 30.0), n_max=2048)
    x = np.linspace(20.0, 65.0, 2001)
    closed = mcs_wavefunction(1, 0, 30.0, x)
    assert np.max(np.abs(fock_wavefunction(state, x) - closed)) < 1e-12
    x = np.linspace(25.0, 37.5, 51)
    gauss = math.pi**-0.25 * np.exp(-0.5 * (x - 30.0 * math.sqrt(2.0)) ** 2)
    assert np.max(np.abs(fock_wavefunction(state, x) - gauss)) < 1e-12
    # past a state's reach the amplitudes are truly 0
    assert np.all(fock_wavefunction(state, np.array([-100.0, 70.0])) == 0.0)
    assert fock_wavefunction(basis_state(0, 8), np.array([50.0]))[0] == 0.0


def test_far_fock_movie_matches_the_closed_movie():
    x = np.linspace(20.0, 65.0, 801)
    fock = density_movie(1, 0, 30.0, x, method="fock", n_max=2048)
    closed = density_movie(1, 0, 30.0, x, method="closed", n_max=2048)
    assert np.max(np.abs(fock - closed)) < 1e-12


def hermite_reference(n, x):
    """psi_n(x) from the plain recurrence in long double, whose exponent
    range holds the seed e^{-x^2/2} at every x used here."""
    x = np.asarray(x, dtype=np.longdouble)
    prev = np.zeros_like(x)
    cur = np.longdouble(math.pi) ** np.longdouble(-0.25) * np.exp(-x * x / 2)
    for m in range(1, n + 1):
        a, b = np.sqrt(np.longdouble(2) / m), np.sqrt(np.longdouble(m - 1) / m)
        prev, cur = cur, a * x * cur - b * prev
    return cur.astype(np.float64)


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp < 16384,
                    reason="long double has no wider exponent range than double")
def test_synthesis_of_a_high_level_matches_an_extended_range_reference():
    # psi_2047 reaches sqrt(2 * 2048 + 1) + 9 = 73; clipping |x| at 64
    # there gave psi_2047(64) = 0.217 at x = 65, 66 and 68, where the values
    # are 5.6e-5, 4.3e-11 and 2.5e-28
    x = np.array([40.0, 63.0, 65.0, 66.0, 68.0, -70.0])
    psi = fock_wavefunction(basis_state(2047, 2048), x)
    assert np.max(np.abs(psi - hermite_reference(2047, x))) < 1e-12


def test_synthesis_past_the_seed_is_zero_at_any_double():
    # x^2 overflowed past |x| = 1.3e154 and the first recurrence product past
    # 1.27e308, which turned the level, and the density there, into NaN
    state = build_mcs(MCSLabel(2, 0, 4j), n_max=256)
    near = np.array([-1.0, 0.0, 2.5])
    far = np.array([-1.7e308, -1e200, -64.0, 100.0, 1e160, 1.7976931348623157e308])
    psi = fock_wavefunction(state, np.concatenate([far, near]))
    assert np.all(psi[:far.size] == 0.0)
    # the grid's size sets the product tiles, so near points agree to rounding
    assert np.max(np.abs(psi[far.size:] - fock_wavefunction(state, near))) < 1e-15
    movie = density_movie(2, 0, 1.0 + 1.0j, np.array([-1.7e308, 1.0]), np.array([0.0, 1.0]),
                          method="fock")
    assert np.all(np.isfinite(movie)) and np.all(movie[:, 0] == 0.0)


def test_coherent_reassembly():
    for k in (2, 3, 5):
        for z in (1.5, 0.8 - 1.1j):
            back = coherent_from_classes(k, z)
            ref = build_mcs(MCSLabel(1, 0, z))
            assert np.linalg.norm(back.coeffs - ref.coeffs) < 1e-12


def test_scs_wavefunction_is_moving_gaussian():
    z = 1.0 + 0.5j
    for t in (0.0, 0.9):
        density = np.abs(mcs_wavefunction(1, 0, z, X, t=t)) ** 2
        zt = z * np.exp(-1j * t)
        peak = X[np.argmax(density)]
        assert peak == pytest.approx(math.sqrt(2.0) * zt.real, abs=0.02)
        assert np.trapezoid(density, X) == pytest.approx(1.0, abs=1e-6)


def test_closed_wavefunction_matches_fock_synthesis():
    for k, j, z, t in ((2, 0, 1.0, 0.0), (2, 1, 2.0, 0.7), (3, 2, 1.0 + 1.0j, 0.3)):
        closed = mcs_wavefunction(k, j, z, X, t=t)
        synth = mcs_wavefunction(k, j, z, X, t=t, method="fock")
        assert np.max(np.abs(closed - synth)) < 1e-8


def test_wavefunction_parity():
    x = np.linspace(-12.0, 12.0, 2049)  # odd count puts x=0 on the grid
    even = mcs_wavefunction(2, 0, 1.3, x)
    odd = mcs_wavefunction(2, 1, 1.3, x)
    assert np.max(np.abs(even - even[::-1])) < 1e-12
    assert np.max(np.abs(odd + odd[::-1])) < 1e-12
    assert abs(odd[x.size // 2]) < 1e-12  # node at the origin


def test_wavefunction_mass_and_overlap():
    psi = mcs_wavefunction(3, 1, 1.5, X)
    assert np.trapezoid(np.abs(psi) ** 2, X) == pytest.approx(1.0, abs=1e-6)
    state = build_mcs(MCSLabel(3, 1, 1.5**3))
    synth = fock_wavefunction(state, X)
    overlap = np.trapezoid(np.conj(psi) * synth, X)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_density_period_order_three():
    x = np.linspace(-8.0, 8.0, 801)
    base = np.abs(mcs_wavefunction(3, 1, 1.2, x, t=0.4)) ** 2
    shifted = np.abs(mcs_wavefunction(3, 1, 1.2, x, t=0.4 + 2.0 * math.pi / 3.0)) ** 2
    assert np.max(np.abs(base - shifted)) < 1e-10


def test_density_movie_rows():
    x = np.linspace(-10.0, 10.0, 601)
    t_grid = np.linspace(0.0, math.pi, 9)  # one full period for k=2
    movie = density_movie(2, 1, 1.5, x, t_grid)
    assert movie.shape == (9, 601)
    assert np.max(np.abs(movie[0] - movie[-1])) < 1e-10
    norms = np.trapezoid(movie, x, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6
    # odd class keeps its node pinned at x=0 through the whole evolution
    assert np.max(movie[:, 300]) < 1e-12


def test_density_movie_default_grids():
    # one revival period pi at 65 frames; its last row returns to the first
    movie = density_movie(2, 0, 1.0, X)
    assert movie.shape == (65, X.size)
    assert np.max(np.abs(movie[-1] - movie[0])) < 1e-10


@pytest.mark.parametrize("method", ["closed", "fock"])
def test_empty_movie_grids_give_empty_movies(method):
    # no frames is a (0, x.size) movie and no points a (t.size, 0) one, on
    # either route
    x = np.linspace(-3.0, 3.0, 7)
    assert density_movie(2, 0, 1.0, x, [], method=method).shape == (0, x.size)
    assert density_movie(2, 0, 1.0, [], [0.0, 1.0], method=method).shape == (2, 0)


def test_movie_methods_agree():
    x = np.linspace(-8.0, 8.0, 301)
    t_grid = np.linspace(0.0, 1.0, 4)
    closed = density_movie(2, 0, 1.2, x, t_grid)
    fock = density_movie(2, 0, 1.2, x, t_grid, method="fock")
    assert np.max(np.abs(closed - fock)) < 1e-10
    for i, t in enumerate(t_grid):
        assert np.array_equal(closed[i], np.abs(mcs_wavefunction(2, 0, 1.2, x, t=t)) ** 2)
        # one row is a matrix-vector product, the movie a matrix-matrix one,
        # and BLAS rounds their sums differently
        row = np.abs(mcs_wavefunction(2, 0, 1.2, x, t=t, method="fock")) ** 2
        assert np.max(np.abs(fock[i] - row)) <= 1e-14 * np.max(row)


@pytest.mark.parametrize("method", ["closed", "fock"])
def test_movie_past_the_array_cap_raises_overflow(method):
    # 8192 frames of 8193 points pass 2^26 entries by one frame; refused
    # before any frame is built
    x = np.linspace(-8.0, 8.0, 8193)
    t = np.linspace(0.0, 1.0, 8192)
    with pytest.raises(Overflow, match="67117056 movie entries"):
        density_movie(1, 0, 1.0, x, t, method=method)
