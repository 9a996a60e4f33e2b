"""The matrix-product kernels against the loop forms they replaced.

Each reference below is the earlier implementation, kept verbatim in
arithmetic: the pairwise sum of complex Gaussians for `wigner_closed`, the
unfolded complex y transform for `wigner_numeric`, the per-frame
`time_evolve` plus sequential Hermite synthesis for the Fock-route
`density_movie`, and the per-frame sum of complex Gaussians for the
closed-route `density_movie`. The new kernels sum in a different order, so
agreement is asked to 1e-13 of the field or density scale, not bit for bit.
The two closed references take each turn e^{2 pi i m/k} at its reduced index
m mod k, as every ring route does: as powers of a rounded root their turns
drift by about jl eps, which left the k = 8 movie reference 1.8e-13 of the
movie's maximum off the exact value (`test_ring_oracle.py`) and the kernel
2.4e-14.

The full-length coefficient loop that `build_mcs` ran before it stopped at
the last level that matters is kept too; what the trimmed states feed is
asked to agree with it to 1e-15 of scale. So is the build that ran the norm
series before its loop: the one-pass build, which sums its own tail past
n_max, must give the same coefficient bits or the same exception type,
except where the series-first build zeroed a level past a product beyond
double range, ran out of series terms, or refused |alpha|^2 past double
range; there the build must match the 40-digit oracle of
`test_build_oracle.py` or refuse as that test allows.

The time phases of the Fock-route movie, now formed on occupied levels
only, are asked to match the all-levels form bit for bit, and the blocked
purity and negativity integrals the full-grid temporaries they replaced to
1e-15.

The small kernels that take their per-level factors from read-only tables
(`time_evolve`, `apply_k_ladder`, the norm series, `numeric_moments`, the
commutator check) keep their arithmetic, so each is asked to give the
bits, or the exception and its message, of the per-call expression it
replaced. So is `_check_class` with its fast path for plain ints, so are
the norm series and class norm of numpy scalars against those of Python
scalars, and so is `_synthesize`, against its recurrence and block
contraction written out on their own. The tables must stay read-only and
their caches bounded, and clearing the caches must move no bit.

`moment_check` refines every order in one panel doubling. The doubling of
each order on its own that it replaced is kept verbatim in arithmetic, and
each order's relative error must agree with it to the refinement step,
1e-11 of the moment (or of 1e-3 where the moment is smaller). The
diagonals of the root-exponential identity blocks and scaled moments of every class with
k <= 8 are also asked to match Gauss-Laguerre quadrature in v, an
independent rule exact for their integrands, to 1e-12.
"""

import math
import operator

import numpy as np
import pytest
from mpmath import mp
from test_build_oracle import exact_build

from mcskit import (
    FockVector,
    LeakageExceeded,
    MCSLabel,
    MeasureCandidate,
    MomentSet,
    Overflow,
    PhaseGrid,
    TailTooHeavy,
    apply_k_ladder,
    basis_state,
    build_mcs,
    density_movie,
    fock_wavefunction,
    mcs_wavefunction,
    moment_check,
    negativity_volume,
    numeric_moments,
    purity,
    root_exponential_density,
    time_evolve,
    wigner_closed,
    wigner_numeric,
)
from mcskit.completeness import (_BASE_PANELS, _MAX_PANELS, _MOMENT_STEP, _identity_diagonal,
                                 _panel_nodes)
from mcskit.decomposition import _blocks, _class_norm, _matmul_tiles, _synthesize
from mcskit.fock import (_TABLE_KEYS, _TABLE_LEVELS, _check_class, _check_count, _evolution,
                         _levels, _raising_weights, pha_commutator_check)
from mcskit.states import (
    _DOUBLE_MAX,
    _ROOT_SCALE,
    _SCALE,
    _SCALE_BITS,
    _SCALE_LIMIT,
    _SUPPORT_TOL,
    _TAIL_TOL,
    _a_norm_series,
    _level_products,
    _power,
    _seed,
    _series,
    _split,
)
from mcskit.wigner import _trapz2d

REL_TOL = 1e-13
SUPPORT_TOL = 1e-15


def closed_pairwise(k, j, z, grid):
    """k^2 full-grid exponentials, one per ring pair (a, b), summed as
    complex numbers; the field is the real part."""
    z = complex(z)
    nj = math.ldexp(*_class_norm(k, j, z))
    qq = grid.q_axis[:, None]
    pp = grid.p_axis[None, :]
    # every turn e^{2 pi i m / k} is taken at its reduced index m mod k,
    # not as a power of a rounded root
    ring = np.exp(2j * np.pi * np.arange(k) / k) * z
    acc = np.zeros((grid.n_q, grid.n_p), dtype=np.complex128)
    for a in range(k):
        za = np.conj(ring[a])
        for b in range(k):
            zb = ring[b]
            center_q = (za + zb) / math.sqrt(2.0)
            center_p = 1j * (za - zb) / math.sqrt(2.0)
            damp = za * zb - abs(z) ** 2
            acc += np.exp(2j * np.pi * (j * (a - b) % k) / k) * np.exp(
                -((qq - center_q) ** 2) - (pp - center_p) ** 2 + damp
            )
    return acc * (math.exp(abs(z) ** 2) / (k * nj) ** 2 / math.pi)


def numeric_unfolded(state, grid, half_width=10.0, window_points=4096):
    """Full-window complex correlator times exp(2iyp), y from -W to W."""
    h_q = (grid.q_max - grid.q_min) / (grid.n_q - 1)
    m = max(1, math.ceil(h_q * window_points / (2.0 * half_width)))
    h = h_q / m
    n_half = math.ceil(half_width / h)
    n_fine = (grid.n_q - 1) * m + 2 * n_half + 1
    lattice = grid.q_min - n_half * h + np.arange(n_fine) * h
    psi = sequential_synthesis(state.coeffs, lattice)
    idx = np.arange(grid.n_q)[:, None] * m + np.arange(2 * n_half + 1)[None, :]
    corr = np.conj(psi[idx]) * psi[idx[:, ::-1]]
    weights = np.full(2 * n_half + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    y = (np.arange(2 * n_half + 1) - n_half) * h
    field = (corr * weights) @ np.exp(2j * np.outer(y, grid.p_axis)) / math.pi
    return field.real


def sequential_synthesis(c, x):
    """sum_n c_n psi_n(x), accumulated one level at a time."""
    prev = np.zeros_like(x)
    cur = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    acc = c[0] * cur.astype(np.complex128)
    for n in range(1, c.size):
        prev, cur = cur, math.sqrt(2.0 / n) * x * cur - math.sqrt((n - 1) / n) * prev
        if c[n] != 0.0:
            acc += c[n] * cur
    return acc


def full_length_build(label, n_max=256):
    """Every level of the class up to n_max, down to coefficients of 1e-150
    and below, then normalized."""
    k, j, alpha = label.k, label.j, label.alpha
    coeffs = np.zeros(n_max, dtype=np.complex128)
    term = 1.0 / math.sqrt(math.factorial(j))
    m = j
    while m < n_max:
        coeffs[m] = term
        term *= alpha / math.sqrt(float(math.prod(range(m + 1, m + k + 1))))
        m += k
    return FockVector(coeffs / np.linalg.norm(coeffs))


def series_first_build(label, n_max=256, zeroed=None):
    """build_mcs as it ran the norm series before the coefficient loop; the
    levels it zeroes past a product beyond double range go to `zeroed`."""
    n_max = _check_count("n_max", n_max)
    k, j, alpha = label.k, label.j, label.alpha
    x = _power(abs(alpha), 2)
    total, e_total = _series(k, j, x)
    terms: list[complex] = []
    seed, e = _split(math.factorial(j))  # the weights carry 2^e, the terms 2^(e/2)
    term: complex = 1.0 / math.sqrt(seed)
    included = 0.0
    lift = max(1.0, x)  # the stop leaves a defining residual of |alpha c_n|
    for m in range(j, n_max, k):
        terms.append(term)
        weight = abs(term) ** 2
        included += weight
        if m + k >= n_max:  # the last level that fits; k may have any size
            break
        den = math.prod(range(m + 1, m + k + 1))
        den = float(den) if den <= _DOUBLE_MAX else math.inf
        if x < 0.5 * den and weight * lift <= _SUPPORT_TOL * included:
            break
        if den == math.inf and zeroed is not None:
            zeroed.append(m + k)
        if included > _SCALE_LIMIT:
            included *= _SCALE
            term *= _ROOT_SCALE
            terms = [t * _ROOT_SCALE for t in terms]
            e += _SCALE_BITS
        term *= alpha / math.sqrt(den)
    coeffs = np.zeros(n_max, dtype=np.complex128)
    coeffs[j : j + k * len(terms) : k] = terms
    tail = 1.0 - math.ldexp(included / total, e - e_total)
    if tail > _TAIL_TOL:
        raise TailTooHeavy(
            f"|alpha|={abs(alpha):.3g} needs more than n_max={n_max} levels "
            f"for order {k} class {j}: tail fraction {tail:.3e} > {_TAIL_TOL:.1e}"
        )
    return FockVector(coeffs / np.linalg.norm(coeffs))


def movie_per_frame(k, j, z, x, t_grid, n_max):
    base = build_mcs(MCSLabel(k, j, complex(z) ** k), n_max)
    return np.array(
        [np.abs(sequential_synthesis(time_evolve(base, t).coeffs, x)) ** 2 for t in t_grid]
    )


def closed_frame(k, j, z, x, t):
    """One instant of the closed wavefunction: k complex Gaussians."""
    nj = math.ldexp(*_class_norm(k, j, z))
    prefactor = math.pi ** (-0.25) * math.exp(0.5 * abs(z) ** 2) / (k * nj)
    overall = np.exp(-1j * j * np.angle(z)) * np.exp(-0.5j * t)
    acc = np.zeros_like(x, dtype=np.complex128)
    for l in range(k):
        # each turn at its reduced index, not as a power of a rounded root
        zl = np.exp(2j * np.pi * l / k) * z * np.exp(-1j * t)
        mean_x = math.sqrt(2.0) * zl.real
        mean_p = math.sqrt(2.0) * zl.imag
        branch = np.exp(-0.5j * mean_x * mean_p)
        acc += (
            np.exp(-2j * np.pi * (j * l % k) / k)
            * branch
            * np.exp(-0.5 * (x - mean_x) ** 2 + 1j * mean_p * x)
        )
    return overall * prefactor * acc


def closed_movie_per_frame(k, j, z, x, t_grid):
    return np.array([np.abs(closed_frame(k, j, complex(z), x, float(t))) ** 2 for t in t_grid])


def relative_gap(new, ref):
    return float(np.max(np.abs(new - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_gemm_matches_pairwise_sum(k):
    grid = PhaseGrid(-6.0, 5.0, -5.5, 6.5, 97, 89)  # n_q != n_p catches a transpose
    for z in (1.3 * np.exp(0.4j), 2.1 - 0.7j):
        for j in {0, k // 2, k - 1}:
            new = wigner_closed(k, j, z, grid)
            ref = closed_pairwise(k, j, z, grid)
            assert new.values.dtype == np.float64
            assert relative_gap(new.values, ref.real) <= REL_TOL
            # the imaginary part the Hermitian fold never forms is rounding
            # noise in the full complex sum
            assert np.max(np.abs(ref.imag)) <= REL_TOL * np.max(np.abs(ref.real))


@pytest.mark.parametrize("k", (2, 4))
def test_closed_gemm_past_the_naive_split_overflow(k):
    # at z = 20i the ring holds both +-20i, so the pair Q = 40i/sqrt2 has
    # (Im Q)^2 = 800 > log(DBL_MAX): a factor exp(-(q-Q)^2) that keeps the
    # (Im Q)^2 it carries overflows at q = 0; the peeled one stays <= 1
    z = 20.0j
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 33, 29)
    ring = np.exp(2j * np.pi * np.arange(k) / k) * z
    center_q = (np.conj(ring)[:, None] + ring[None, :]).ravel() / math.sqrt(2.0)
    with np.errstate(over="ignore"):
        naive = np.exp(-((grid.q_axis[:, None] - center_q) ** 2))
    assert not np.all(np.isfinite(naive))
    # the reference's single exponent adds terms of size 2|z|^2 = 800, so it
    # carries up to about 800 eps = 1.8e-13 of rounding itself (1.1e-13 seen
    # against 40-digit arithmetic, where the peeled product is off by 4e-14)
    tol = REL_TOL + 2.0 * abs(z) ** 2 * np.finfo(float).eps
    for j in range(k):
        new = wigner_closed(k, j, z, grid)
        ref = closed_pairwise(k, j, z, grid).real
        assert np.all(np.isfinite(new.values))
        assert relative_gap(new.values, ref) <= tol


def fold_states():
    states = [basis_state(3, n_max=16)]
    for k in range(1, 9):
        z = 1.5 * np.exp(0.7j * k)
        states.append(build_mcs(MCSLabel(k, k // 2, z**k)))
    return states


def test_numeric_fold_matches_unfolded_transform():
    # this p axis is not its own negative, so the tables span all of it
    grid = PhaseGrid(-6.0, 6.5, -5.0, 7.0, 73, 61)
    for state in fold_states():
        new = wigner_numeric(state, grid)
        ref = numeric_unfolded(state, grid)
        assert new.values.dtype == np.float64  # real by construction
        assert relative_gap(new.values, ref) <= REL_TOL


@pytest.mark.parametrize(
    "grid",
    [PhaseGrid(-6.0, 6.5, -6.0, 6.0, 73, 49), PhaseGrid(-6.0, 6.5, -7.75, 7.75, 73, 32)],
    ids=["odd-n_p", "even-n_p"],
)
def test_numeric_mirrored_p_axis_matches_unfolded_transform(grid):
    # a p axis that is its own negative, bit for bit, takes the path that
    # transforms p >= 0 only and mirrors the result
    p = grid.p_axis
    assert np.array_equal(p[::-1], -p)
    for state in fold_states():
        new = wigner_numeric(state, grid)
        ref = numeric_unfolded(state, grid)
        assert relative_gap(new.values, ref) <= REL_TOL


def test_numeric_wide_window_matches_unfolded_transform():
    # both cats need y windows past 10 (12.3 and 12.8), which on a +-9 p
    # axis give the phase table its largest arguments, about 2 * 13 * 9;
    # the reference integrates out to 14
    grid = PhaseGrid(-9.0, 9.0, -9.0, 9.0, 61, 65)
    assert np.array_equal(grid.p_axis[::-1], -grid.p_axis)
    for k, j, z in ((2, 0, 4.5), (4, 1, 5.0 * np.exp(0.2j))):
        state = build_mcs(MCSLabel(k, j, z**k))
        new = wigner_numeric(state, grid)
        ref = numeric_unfolded(state, grid, half_width=14.0)
        assert relative_gap(new.values, ref) <= REL_TOL


def test_blocked_synthesis_matches_sequential():
    x = np.linspace(-30.0, 30.0, 401)
    rng = np.random.default_rng(5)
    c = rng.normal(size=300) + 1j * rng.normal(size=300)
    c[::7] = 0.0
    state = FockVector(c / np.linalg.norm(c))
    ref = sequential_synthesis(state.coeffs, x)
    assert relative_gap(fock_wavefunction(state, x), ref) <= REL_TOL


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_movie_matches_per_frame_sum(k):
    x = np.linspace(-11.0, 10.0, 301)
    t_grid = np.array([-0.4, 0.0, 0.31, 1.7, 2.0 * math.pi / k, 5.2])
    for r in (1.0, 1.5, 2.5, 4.0):
        z = r * np.exp(0.45j * k)
        for j in range(k):
            new = density_movie(k, j, z, x, t_grid)
            ref = closed_movie_per_frame(k, j, z, x, t_grid)
            assert new.shape == ref.shape
            assert relative_gap(new, ref) <= REL_TOL


MOVIE_T = np.array([-0.4, 0.0, 0.31, 1.7, 2.2, 5.2])


def block_size(x, z):
    return _blocks(np.asarray(x, dtype=np.float64).ravel(), math.sqrt(2.0) * abs(z))[1].size


@pytest.mark.parametrize(
    "x",
    [
        10.0 * np.sin(np.linspace(-1.2, 1.2, 241)),
        np.linspace(-9.0, 9.0, 181) + 1e-7 * np.random.default_rng(1).normal(size=181),
    ],
    ids=["clustered", "jittered"],
)
def test_closed_movie_on_a_non_uniform_grid(x):
    # points off a uniform lattice by more than the first-order correction
    # covers are blocks of their own: the per-point sum of k Gaussians
    for k in (2, 5, 8):
        z = 1.7 * np.exp(0.45j * k)
        assert block_size(x, z) == 1
        for j in range(k):
            new = density_movie(k, j, z, x, MOVIE_T)
            assert relative_gap(new, closed_movie_per_frame(k, j, z, x, MOVIE_T)) <= REL_TOL


@pytest.mark.parametrize(
    "x",
    [np.array(0.4), np.array([0.4]), np.array([-0.3, 1.1]), np.linspace(10.0, -11.0, 301),
     np.linspace(12.0, -12.0, 513)],
    ids=["0-d", "1-point", "2-point", "descending", "descending-binary"],
)
def test_closed_kernel_on_small_and_descending_grids(x):
    flat = x.ravel()
    for k in (1, 3, 8):
        z = 1.4 * np.exp(0.45j * k)
        for j in range(k):
            ref = closed_movie_per_frame(k, j, z, flat, MOVIE_T)
            movie = density_movie(k, j, z, x, MOVIE_T)
            assert movie.shape == ref.shape
            assert relative_gap(movie, ref) <= REL_TOL
            wave = mcs_wavefunction(k, j, z, x, t=MOVIE_T[2])
            assert wave.shape == x.shape
            assert np.array_equal(np.abs(wave.ravel()) ** 2, movie[2])


@pytest.mark.parametrize("k", (2, 5, 8))
def test_closed_movie_on_a_wide_grid_at_large_radius(k):
    # a sqrt(n) = 63 point block would give tails e^{d u} and factors q up
    # to e^{+-50} here; the cap keeps them within e^{+-32}
    x = np.linspace(-40.0, 40.0, 4001)
    z = 12.0 * np.exp(0.3j)
    assert 1 < block_size(x, z) < math.isqrt(x.size)
    for j in {0, k // 2, k - 1}:
        new = density_movie(k, j, z, x, MOVIE_T)
        assert np.all(np.isfinite(new))
        assert relative_gap(new, closed_movie_per_frame(k, j, z, x, MOVIE_T)) <= REL_TOL


@pytest.mark.parametrize("k", (2, 5, 8))
def test_closed_movie_rows_are_single_instants(k):
    # the step 16/300 is not a binary fraction, so the blocks carry the
    # first-order correction; every operation acts on one frame, so a row
    # of the movie is the one-instant wavefunction bit for bit
    x = np.linspace(-8.0, 8.0, 301)
    assert block_size(x, 1.2) > 1
    for j in range(k):
        movie = density_movie(k, j, 1.2, x, MOVIE_T)
        for row, t in zip(movie, MOVIE_T):
            assert np.array_equal(row, np.abs(mcs_wavefunction(k, j, 1.2, x, t=t)) ** 2)


@pytest.mark.parametrize("k", range(1, 9))
def test_basis_movie_matches_per_frame_evolution(k):
    x = np.linspace(-30.0, 30.0, 241)
    t_grid = np.array([-0.4, 0.0, 0.31, 1.7, 2.0 * math.pi / k, 5.2])
    z = 15.0 * np.exp(0.3j)  # <N> = 225: the tail runs past 300 of the 1024 levels
    j = (3 * k) // 4
    new = density_movie(k, j, z, x, t_grid, method="fock", n_max=1024)
    ref = movie_per_frame(k, j, z, x, t_grid, n_max=1024)
    assert new.shape == ref.shape
    assert relative_gap(new, ref) <= REL_TOL


@pytest.mark.parametrize("k", range(1, 9))
def test_effective_support_matches_full_length_build(k):
    # the dropped levels hold under 1e-34 of the norm; what moves is the
    # summation order of the shorter synthesis
    grid = PhaseGrid(-7.0, 7.0, -6.5, 7.5, 61, 67)
    x = np.linspace(-12.0, 12.0, 401)
    for r in (0.5, 1.0, 2.0, 3.0):
        z = r * np.exp(0.37j * k + 0.2)
        for j in range(k):
            label = MCSLabel(k, j, z**k)
            new, ref = build_mcs(label), full_length_build(label)
            assert new.top_occupied() < ref.top_occupied()
            assert relative_gap(new.coeffs, ref.coeffs) <= SUPPORT_TOL
            gap = relative_gap(fock_wavefunction(new, x), fock_wavefunction(ref, x))
            assert gap <= SUPPORT_TOL
            field = wigner_numeric(new, grid).values
            ref_field = wigner_numeric(ref, grid).values
            assert relative_gap(field, ref_field) <= SUPPORT_TOL
            got, want = numeric_moments(new), numeric_moments(ref)
            for name in MomentSet.__dataclass_fields__:
                scale = max(1.0, abs(getattr(want, name)))
                assert abs(getattr(got, name) - getattr(want, name)) <= SUPPORT_TOL * scale


def build_outcome(build, label, n_max):
    try:
        return build(label, n_max).coeffs
    except Exception as exc:  # any exception: its type is the outcome compared
        return exc


def assert_exact_or_refused(label, n_max, new):
    """A state within 1e-13 of the 40-digit oracle's, TailTooHeavy, or the
    Overflow of a single step's weight."""
    if isinstance(new, np.ndarray):
        with mp.workdps(40):
            want, _ = exact_build(label.k, label.j, label.alpha, n_max)
        assert want is not None and np.linalg.norm(new - want) <= 1e-13, (label, n_max)
    else:
        assert isinstance(new, TailTooHeavy) or "level weights overflow" in str(new), new


def test_build_matches_the_series_first_build():
    rng = np.random.default_rng(16)
    seen = {}
    for _ in range(5000):
        k = int(rng.integers(1, 401))
        j = int(rng.integers(k))
        alpha = 10.0 ** rng.uniform(-150.0, 160.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        n_max = int(rng.integers(16, 2049))
        label = MCSLabel(k, j, alpha)
        zeroed = []
        ref = build_outcome(lambda *args: series_first_build(*args, zeroed=zeroed), label, n_max)
        new = build_outcome(build_mcs, label, n_max)
        ran_out = isinstance(ref, Overflow) and "needs more than 100000 terms" in str(ref)
        if zeroed or ran_out:
            key = "zeroed" if zeroed else "ran out"
            if isinstance(ref, np.ndarray):
                # the levels it zeroed now carry weight, on this sample too
                # little to move the norm: every level it kept keeps its bits
                kept = ref != 0
                assert np.array_equal(new[kept], ref[kept]), (label, n_max)
                assert np.linalg.norm(new[~kept]) ** 2 < _TAIL_TOL, (label, n_max)
            else:
                assert isinstance(new, (np.ndarray, TailTooHeavy, Overflow)), (label, n_max, new)
        elif isinstance(ref, Exception):
            key = type(ref).__name__
            if "** 2 overflows" in str(ref):  # the build no longer forms |alpha|^2
                assert_exact_or_refused(label, n_max, new)
            else:
                assert type(new) is type(ref), (label, n_max, new)
        else:
            key = "state"
            assert isinstance(new, np.ndarray) and np.array_equal(new, ref), (label, n_max)
        seen[key] = seen.get(key, 0) + 1
    # every outcome is well represented, and no build ends in a bare error
    assert set(seen) == {"state", "TailTooHeavy", "Overflow", "zeroed", "ran out"}
    assert min(seen.values()) > 100, seen


def test_no_level_that_cannot_count_is_stored_past_a_product_beyond_double_range():
    # the step 71...253 leaves double range and takes level 253 to |c| ~ 1e-212,
    # whose weight squares to 0: it is not stored, and level 70 keeps the bits
    # of the series-first build, which zeroed level 253
    label = MCSLabel(183, 70, 1.8e-12 + 4.3e-12j)
    state = build_mcs(label, 904)
    assert state.top_occupied() == 70
    assert np.array_equal(state.coeffs, series_first_build(label, 904).coeffs)


def test_weights_past_the_rescale_overflow_in_both_builds():
    # past |alpha| ~ 1e81 the weights outgrow the 2^512 rescale
    for alpha in (1e81, 3e90j, 1e120, 1e150):
        for build in (series_first_build, build_mcs):
            with pytest.raises(Overflow):
                build(MCSLabel(1, 0, alpha), 2048)


@pytest.mark.parametrize("k", (1, 3, 8))
def test_basis_movie_phases_only_occupied_levels(k):
    # the all-levels form gives 0 to every unoccupied level; its movie rows
    # are the occupied-levels ones bit for bit
    x = np.linspace(-9.0, 9.0, 257)
    t_grid = np.linspace(0.0, 2.0 * math.pi / k, 65)
    z = 1.7 * np.exp(0.3j)
    for j in range(k):
        c = build_mcs(MCSLabel(k, j, z**k)).coeffs
        assert np.count_nonzero(c) < c.size
        phases = np.exp(-1j * np.outer(t_grid, np.arange(c.size) + 0.5)) * c
        ref = np.abs(_synthesize(phases, x)) ** 2
        assert np.array_equal(density_movie(k, j, z, x, t_grid, method="fock"), ref)


def test_blocked_integrals_match_full_temporaries():
    for k, j, z, grid in (
        (1, 0, 1.2, PhaseGrid()),
        (2, 0, 2.0, PhaseGrid()),
        (5, 2, 1.6 * np.exp(0.3j), PhaseGrid(-7.0, 6.0, -6.5, 7.5, 101, 67)),
        (8, 7, 1.9, PhaseGrid(-8.0, 8.0, -8.0, 8.0, 31, 257)),
    ):
        field = wigner_closed(k, j, z, grid)
        full_purity = 2.0 * math.pi * _trapz2d(field.values**2, grid)
        full_negativity = _trapz2d(np.clip(-field.values, 0.0, None), grid)
        assert abs(purity(field) - full_purity) <= 1e-15 * full_purity
        assert abs(negativity_volume(field) - full_negativity) <= 1e-15 * full_negativity


# The per-call kernels below keep their arithmetic and take what does not
# depend on the call from read-only tables; each is asked to match the
# expression it replaced bit for bit, outcome for outcome.


def outcome(call):
    """The bytes of what a call returns, or its exception's type and text."""
    try:
        result = call()
    except Exception as exc:  # any exception: its type and message are the outcome
        return type(exc), str(exc)
    if isinstance(result, FockVector):
        return result.coeffs.tobytes(), float(result.leakage).hex()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return tuple(float(v).hex() for v in result)


def time_evolve_reference(state, t):
    top = float(np.max(np.abs(t), initial=0.0))
    if not math.isfinite(top):
        raise ValueError(f"time must be finite, got max|t| = {top!r}")
    if not math.isfinite((state.n_max - 0.5) * top):
        raise Overflow(f"phase (n_max - 1/2) t past double range at |t| = {top:.3g}")
    n = np.arange(state.n_max)
    return FockVector(np.exp(-1j * (n + 0.5) * t) * state.coeffs, state.leakage)


def random_state(rng, n_max, scale=1.0, leakage=0.0):
    c = rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)
    return FockVector(scale * c / np.linalg.norm(c), leakage)


def test_time_evolve_matches_the_all_levels_expression():
    rng = np.random.default_rng(21)
    times = [0.0, -0.0, 0.01, -2.7, 1e-300, 3e305, 1e307, math.nan, math.inf, -math.inf]
    for n_max in (1, 7, 128, _TABLE_LEVELS + 1):
        state = random_state(rng, n_max, leakage=2.5e-13)
        for t in times:
            for form in (t, np.float64(t), np.array(t)):
                got = outcome(lambda: time_evolve(state, form))
                assert got == outcome(lambda: time_evolve_reference(state, form)), (n_max, t)
            # one time only: a 1-element array is an array of times
            with pytest.raises(ValueError, match="density_movie"):
                time_evolve(state, np.array([t]))
        assert outcome(lambda: time_evolve(state, 3)) == outcome(
            lambda: time_evolve_reference(state, 3))


def falling_reference(n, k):
    top = int(n[-1])
    if math.perm(top, min(k, top)) > int(np.finfo(np.float64).max) // 2:
        raise Overflow(f"n!/(n-k)! leaves double range at k={k}, n <= {top}")
    out = n.copy()
    for i in range(1, k):
        out *= n - i
    return out


def ladder_reference(state, k, sign, leak_tol=1e-12):
    """apply_k_ladder with F(n + k) and its root formed on every call."""
    c = state.coeffs
    cut = max(c.size - k, 0)
    weight = falling_reference(np.arange(k, c.size + k, dtype=np.float64), k)
    out = np.zeros_like(c)
    with np.errstate(over="ignore"):
        if sign < 0:
            out[:cut] = np.sqrt(weight[:cut]) * c[k:]
            leaked = 0.0
        else:
            out[k:] = np.sqrt(weight[:cut]) * c[:cut]
            leaked = float(weight[cut:] @ np.abs(c[cut:]) ** 2)
    if not (np.isfinite(out).all() and math.isfinite(leaked)):
        raise Overflow(
            f"(a{'+' if sign > 0 else '-'})^{k} takes the state past double range; "
            f"scale its coefficients down"
        )
    if sign < 0:
        return FockVector(out, state.leakage)
    leakage = state.leakage + leaked
    if leakage > leak_tol:
        raise LeakageExceeded(
            f"accumulated raising leakage {leakage:.3e} exceeds {leak_tol:.1e} "
            f"at n_max={c.size}; raise n_max"
        )
    return FockVector(out, leakage)


def test_ladders_match_the_per_call_weights():
    rng = np.random.default_rng(22)
    seen = set()
    for n_max in (1, 5, 128, _TABLE_LEVELS + 3):
        for scale in (1.0, 1e-3, 1e150, 1e300):
            state = random_state(rng, n_max, scale)
            for k in (1, 2, 3, 6, n_max + 2):
                for sign in (-1, 1):
                    for tol in (1e-12, 1e300, np.inf):
                        got = outcome(lambda: apply_k_ladder(state, k, sign, tol))
                        ref = outcome(lambda: ladder_reference(state, k, sign, tol))
                        assert got == ref, (n_max, scale, k, sign, tol)
                        seen.add(ref[0].__name__ if isinstance(ref[0], type) else "state")
    # a raised level, leakage past the tolerance, and images past double range
    assert seen == {"state", "LeakageExceeded", "Overflow"}


def test_ladder_weights_past_double_range_raise_and_are_not_cached():
    state = basis_state(0, 200)
    _raising_weights.cache_clear()
    for _ in range(2):
        for call in (lambda: apply_k_ladder(state, 170, 1, np.inf),
                     lambda: ladder_reference(state, 170, 1, np.inf)):
            with pytest.raises(Overflow, match="leaves double range at k=170"):
                call()
    assert _raising_weights.cache_info().currsize == 0


def check_class_reference(k, j):
    """_check_class with every argument sent through operator.index."""
    try:
        k, j = tuple(operator.index(v) for v in (k, j))
    except TypeError:
        raise ValueError(f"order and class must be integers, got {(k, j)!r}") from None
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if not 0 <= j < k:
        raise ValueError(f"class index {j} outside [0, {k})")
    return k, j


def test_check_class_fast_path_keeps_every_outcome():
    for k, j in ((3, 1), (True, False), (np.int64(3), 2), (2.0, 0), (0, 0), (2, 2), (2, -1)):
        got = outcome(lambda: _check_class(k, j))
        ref = outcome(lambda: check_class_reference(k, j))
        assert got == ref, (k, j)
        if not isinstance(got[0], type):
            assert all(type(v) is int for v in _check_class(k, j))


def series_reference(k, seed, x, d=0):
    """_series with every level product formed from exact integers per term."""
    s, e = _seed(seed)
    term = x**d / s
    if k >= 307:
        return term, e
    steps = 100_000
    if x >= k * steps:
        last = k * (steps - 1) + seed
        if x > math.prod(range(last + 1, last + k + 1)):
            steps = 0
    total = 0.0
    small = 0
    for m in range(steps):
        total += term
        if total > _SCALE_LIMIT:
            if math.isinf(total):
                raise Overflow("norm series overflows double precision")
            total *= _SCALE
            term *= _SCALE
            e += _SCALE_BITS
        if term <= total * 1e-16:
            small += 1
            if small >= 3 or term == 0.0:
                return total, e
        else:
            small = 0
        idx = k * m + seed
        den = math.prod(range(idx + 1, idx + k + 1))
        if den <= _DOUBLE_MAX:
            term *= x / float(den)
        else:
            lead, shift = _split(den)
            term *= math.ldexp(x / lead, shift)
    raise Overflow("norm series needs more terms")


def test_series_matches_per_term_products():
    # x = 900 and 5000 at order 1 pass the 2^512 rescale, and 5000 runs past
    # the tabled levels; from order 171 on every level product leaves double
    # range, so each ratio is formed from the product's leading bits
    xs = (0.0, 1e-300, 0.3, 16.0, 900.0, 5000.0, 1e40, 1e160, 1e300)
    for k in (1, 2, 3, 5, 8, 170, 171, 200, 306, 307):
        for seed in {0, 1, k // 2, k - 1}:
            for x in xs:
                for d in (0, 1):
                    got = outcome(lambda: _series(k, seed, x, d))
                    ref = outcome(lambda: series_reference(k, seed, x, d))
                    if isinstance(ref[0], type):
                        assert got[0] is ref[0], (k, seed, x, d)
                    else:
                        assert got == ref, (k, seed, x, d)


def synthesize_reference(coeffs, x):
    """_synthesize with three temporaries per level in its recurrence."""
    out = np.zeros((coeffs.shape[0], x.size), dtype=np.complex128)
    used = np.any(coeffs != 0.0, axis=0)
    top = int(np.flatnonzero(used)[-1]) + 1 if used.any() else 0
    basis = np.empty((64, x.size))
    product = np.empty((coeffs.shape[0], x.size))
    held = []
    prev = np.zeros_like(x)
    cur = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for n in range(top):
        if n > 0:
            prev, cur = cur, math.sqrt(2.0 / n) * x * cur - math.sqrt((n - 1) / n) * prev
        if used[n]:
            basis[len(held)] = cur
            held.append(n)
        if len(held) == 64 or n == top - 1:
            c = coeffs[:, held]
            out.real += _matmul_tiles(c.real, basis[: len(held)], product)
            out.imag += _matmul_tiles(c.imag, basis[: len(held)], product)
            held = []
    return out


def test_synthesis_matches_the_reference_recurrence():
    rng = np.random.default_rng(23)
    c = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
    c[:, ::5] = 0.0
    c[1] = 0.0
    for x in (np.linspace(-30.0, 30.0, 401), np.array([0.0]), np.linspace(-9.0, 9.0, 4096)):
        assert _synthesize(c, x).tobytes() == synthesize_reference(c, x).tobytes()
    state = build_mcs(MCSLabel(3, 1, 2.0))
    x = np.linspace(-10.0, 10.0, 801)
    ref = synthesize_reference(state.coeffs[None, :], x)[0]
    assert fock_wavefunction(state, x).tobytes() == ref.tobytes()


def level_products_reference(k, seed):
    """Every product of (k, seed) below _TABLE_LEVELS, as one table built whole."""
    dens = []
    for n in range(seed, _TABLE_LEVELS - k, k):
        den = math.prod(range(n + 1, n + k + 1))
        if den > _DOUBLE_MAX:
            break
        dens.append(float(den))
    return tuple(dens)


def test_level_products_match_the_table_built_whole():
    for k in (1, 2, 3, 8, 100, 113, 170, 171, 400, 511, 512, 600):
        for seed in sorted({0, 1, k // 2, k - 1}):
            assert _level_products(k, seed) == level_products_reference(k, seed), (k, seed)


def test_tables_are_read_only_bounded_and_clearing_them_moves_no_bit():
    caches = (_levels, _raising_weights, _level_products)
    state = random_state(np.random.default_rng(24), 64)
    label = MCSLabel(3, 2, 1.7 + 0.4j)

    def results():
        return (outcome(lambda: time_evolve(state, 0.37)),
                outcome(lambda: apply_k_ladder(state, 3, 1, np.inf)),
                outcome(lambda: _series(3, 2, 2.9, 1)),
                outcome(lambda: build_mcs(label, 64)))

    warm = results()
    for table in (*_levels(64), *_raising_weights(64, 3)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert isinstance(_level_products(3, 2), tuple)
    for cache in caches:
        assert cache.cache_info().maxsize == _TABLE_KEYS
        cache.cache_clear()
    assert results() == warm
    # more keys than a cache holds, and sizes past the tabled levels, which
    # are formed without being kept
    for n_max in range(1, 2 * _TABLE_KEYS):
        time_evolve(basis_state(0, n_max), 0.1)
        apply_k_ladder(basis_state(0, n_max), 1, -1)
        _series(1 + n_max % 7, n_max % (1 + n_max % 7), 1.5)
    size = _levels.cache_info().currsize
    time_evolve(basis_state(0, _TABLE_LEVELS + 1), 0.1)
    assert _levels.cache_info().currsize == size
    for cache in caches:
        assert cache.cache_info().currsize <= _TABLE_KEYS
    assert results() == warm


def test_time_evolve_matches_the_direct_phases_bit_for_bit():
    # 600 levels lie past the tables; 0.0 and then -0.0 share a cache key
    rng = np.random.default_rng(25)
    for n_max in (1, 2, 128, _TABLE_LEVELS, _TABLE_LEVELS + 88):
        state = random_state(rng, n_max)
        for t in (0.01, np.float32(0.1), 2, -3.7, 2.0 * math.pi / 3.0, 1e10, 0.0, -0.0):
            direct = np.exp(-1j * (np.arange(n_max) + 0.5) * t) * state.coeffs
            assert time_evolve(state, t).coeffs.tobytes() == direct.tobytes(), (n_max, t)


def test_verify_tables_are_read_only_and_bounded():
    tables = (*_levels(64), _evolution(64, 0.37))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    n = np.arange(64)
    for table, direct in zip(_levels(64), (n, n + 0.5, np.sqrt(n), np.sqrt(n * abs(n - 1)))):
        assert table.tobytes() == direct.astype(np.float64).tobytes()
    for cache in (_levels, _evolution):
        assert cache.cache_info().maxsize == _TABLE_KEYS
    for t in range(2 * _TABLE_KEYS):
        time_evolve(basis_state(0, 16), 0.1 + t)
    assert _evolution.cache_info().currsize <= _TABLE_KEYS
    size = _evolution.cache_info().currsize
    time_evolve(basis_state(0, _TABLE_LEVELS + 1), 0.1)
    assert _evolution.cache_info().currsize == size


def commutator_reference(k, probe):
    """The residuals of pha_commutator_check with every ladder applied afresh:
    seven ladder applications and per-call diagonals."""
    n = np.arange(probe.n_max)

    def ladder(c, sign):
        return apply_k_ladder(FockVector(c), k, sign, leak_tol=np.inf).coeffs

    def rel(diff, ref):
        return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), 1.0))

    c = probe.coeffs
    low, high = ladder(c, -1), ladder(c, +1)
    r_low = rel((n + 0.5) * ladder(c, -1) - ladder((n + 0.5) * c, -1) + k * low, low)
    r_high = rel((n + 0.5) * ladder(c, +1) - ladder((n + 0.5) * c, +1) - k * high, high)
    poly = falling_reference(n.astype(np.float64), k) * c
    r_poly = rel(ladder(low, +1) - poly, poly)
    return r_low, r_high, r_poly


def test_commutator_residuals_match_fresh_ladders():
    rng = np.random.default_rng(26)
    for k in range(1, 6):
        for _ in range(4):
            c = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            c[128 - k - 1 :] = 0.0
            probe = FockVector(c / np.linalg.norm(c))
            got = tuple(float(v).hex() for v in pha_commutator_check(k, probe))
            assert got == tuple(v.hex() for v in commutator_reference(k, probe)), k


def test_series_of_numpy_scalars_return_python_floats_of_the_same_bits():
    for k, j in ((2, 0), (2, 1), (3, 2), (5, 0)):
        for r in (1e-3, 0.37, 2.0, 4.0):
            want = _a_norm_series(k, j, r * r)
            got = _a_norm_series(k, j, np.float64(r) * np.float64(r))
            assert type(got) is float and got.hex() == want.hex()
            for z in (r, complex(r * 0.6, r * 0.8)):
                want_c, want_h = _class_norm(k, j, z)
                got_c, got_h = _class_norm(k, j, np.complex128(z))
                assert type(got_c) is float and got_c.hex() == want_c.hex()
                assert got_h == want_h
                assert _class_norm(k, j, np.float64(abs(z))) == _class_norm(k, j, abs(z))


def numeric_moments_reference(state):
    c = state.coeffs / np.linalg.norm(state.coeffs)
    n = np.arange(c.size, dtype=np.float64)
    return (float(np.sum(n * np.abs(c) ** 2)),
            complex(np.sum(np.sqrt(n[1:]) * np.conj(c[:-1]) * c[1:])),
            complex(np.sum(np.sqrt(n[1:-1] * n[2:]) * np.conj(c[:-2]) * c[2:])))


def test_numeric_moments_keep_their_bits():
    rng = np.random.default_rng(27)
    for n_max in (1, 2, 3, _TABLE_LEVELS + 88):
        state = random_state(rng, n_max)
        mean_n, mean_a, mean_a2 = numeric_moments_reference(state)
        got = numeric_moments(state)
        assert got.a_norm_sq.hex() == mean_n.hex()
        assert got.mean_x.hex() == (math.sqrt(2.0) * mean_a.real).hex()
        assert got.mean_p.hex() == (math.sqrt(2.0) * mean_a.imag).hex()
        assert got.mean_x2.hex() == (mean_a2.real + mean_n + 0.5).hex()
        assert got.mean_p2.hex() == (mean_n + 0.5 - mean_a2.real).hex()


def scaled_moment_reference(candidate, n, n_panels):
    """integral x^(n-1) f(x) dx / Gamma(kn+j+1) for one order, in v = x^(1/k)."""
    k, j = candidate.k, candidate.j
    v, w = _panel_nodes(0.0, candidate.support_hint, n_panels)
    log_f, sign = candidate.log_density(v)
    log_mag = np.log(v) * (k * n - 1) + log_f - math.lgamma(k * n + j + 1)
    return float(k * np.sum(w * (sign * np.exp(log_mag))))


def moments_reference(candidate, n_top):
    """Each scaled moment 1..n_top, its panels doubled until it alone settles."""
    moments = []
    for n in range(1, n_top + 1):
        n_panels = _BASE_PANELS
        prev = scaled_moment_reference(candidate, n, n_panels)
        while True:
            assert n_panels < _MAX_PANELS, (candidate.name, n)
            n_panels *= 2
            val = scaled_moment_reference(candidate, n, n_panels)
            if abs(val - prev) / max(abs(val), 1e-3) <= _MOMENT_STEP:
                break
            prev = val
        moments.append(val)
    return np.array(moments)


def reference_candidates():
    """The candidates verify and tests/test_completeness.py check, with their n_top."""
    def named(log_density, hint, name):
        return MeasureCandidate(k=1, j=0, log_density=log_density, support_hint=hint, name=name)

    def exponential(v):
        return -v, np.ones_like(v)

    def zero(v):
        return np.full_like(v, -np.inf), np.zeros_like(v)

    def wobble(v):
        return np.log(v) - v + np.log(np.abs(np.cos(3.0 * v))), np.sign(np.cos(3.0 * v))

    family = [(root_exponential_density(k, j), 12) for k, j in ((1, 0), (2, 1), (3, 0), (3, 2))]
    return family + [
        (named(exponential, 200.0, "exp(-x)"), 6),
        (root_exponential_density(1, 0), 20),
        (root_exponential_density(2, 0), 12),
        (named(zero, 10.0, "zero"), 3),
        (named(exponential, 60.0, "exp(-x), short"), 4),
        (named(wobble, 60.0, "wobble"), 3),
        (root_exponential_density(5, 4), 24),
    ]


@pytest.mark.parametrize("candidate, n_top", reference_candidates(),
                         ids=lambda c: getattr(c, "name", None))
def test_one_pass_moments_match_the_per_order_refinement(candidate, n_top):
    ref = moments_reference(candidate, n_top)
    got = moment_check(candidate, n_top).rel_errors
    gap = np.abs(got - np.abs(ref - 1.0))
    assert np.all(gap <= 1e-11 * np.maximum(np.abs(ref), 1e-3)), (gap, ref)


# exact to degree 119, past the 103 of 12 moments of k <= 8; the rule's own
# rounding grows with its size (8e-13 at 100 nodes) and its weights are NaN
# at 198
_LAGUERRE_NODES = 60


def laguerre_log_moments(k, j, orders):
    """Log weights and, per node and order n, log v^(kn+j) - lgamma(kn+j+1):
    Gauss-Laguerre in v integrates v^(kn+j) e^(-v), the root-exponential
    family's order-n integrand, exactly."""
    v, w = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
    powers = k * np.asarray(orders) + j
    lgammas = np.array([math.lgamma(p + 1) for p in powers.tolist()])
    return np.log(w), np.log(v)[:, None] * powers - lgammas


@pytest.mark.parametrize("k", range(1, 9))
def test_identity_blocks_match_gauss_laguerre(k):
    # the angular integral is exactly delta_mn, so the block is diagonal, and
    # its diagonal is the scaled moment integrals of orders 0 .. dim - 1
    for dim in (1, 12):
        for j in range(k):
            log_w, log_mag = laguerre_log_moments(k, j, np.arange(dim))
            ref = np.exp(log_w[:, None] + log_mag).sum(axis=0)
            assert np.max(np.abs(_identity_diagonal(k, j, dim) - ref)) <= 1e-12, (j, dim)


@pytest.mark.parametrize("k", range(1, 9))
def test_scaled_moments_match_gauss_laguerre(k):
    orders = np.arange(1, 13)
    for j in range(k):
        log_w, log_mag = laguerre_log_moments(k, j, orders)
        ref = np.exp(log_w[:, None] + log_mag).sum(axis=0)
        got = moment_check(root_exponential_density(k, j), n_top=12).rel_errors
        assert np.all(np.abs(got - np.abs(ref - 1.0)) <= 1e-12), j
