"""The matrix-product kernels against the loop forms they replaced.

Each reference below is the earlier implementation, kept verbatim in
arithmetic: the pairwise sum of complex Gaussians for `wigner_closed`, the
unfolded complex y transform for `wigner_numeric`, the per-frame
`time_evolve` plus sequential Hermite synthesis for the Fock-route
`density_movie`, and the per-frame sum of complex Gaussians for the
closed-route `density_movie`. The new kernels sum in a different order, so
agreement is asked to 1e-13 of the field or density scale, not bit for bit.

The full-length coefficient loop that `build_mcs` ran before it stopped at
the last level that matters is kept too; what the trimmed states feed is
asked to agree with it to 1e-15 of scale.
"""

import math

import numpy as np
import pytest

from mcskit import (
    FockVector,
    MCSLabel,
    MomentSet,
    PhaseGrid,
    basis_state,
    build_mcs,
    component_norm,
    density_movie,
    fock_wavefunction,
    numeric_moments,
    time_evolve,
    wigner_closed,
    wigner_numeric,
)

REL_TOL = 1e-13
SUPPORT_TOL = 1e-15


def closed_pairwise(k, j, z, grid):
    """k^2 full-grid exponentials, one per ring pair (a, b)."""
    z = complex(z)
    nj = component_norm(k, j, z)
    qq = grid.q_axis[:, None]
    pp = grid.p_axis[None, :]
    mu = np.exp(2j * np.pi / k)
    ring = mu ** np.arange(k) * z
    acc = np.zeros((grid.n_q, grid.n_p), dtype=np.complex128)
    for a in range(k):
        za = np.conj(ring[a])
        for b in range(k):
            zb = ring[b]
            center_q = (za + zb) / math.sqrt(2.0)
            center_p = 1j * (za - zb) / math.sqrt(2.0)
            damp = za * zb - abs(z) ** 2
            acc += mu ** (j * (a - b)) * np.exp(
                -((qq - center_q) ** 2) - (pp - center_p) ** 2 + damp
            )
    return (acc * (math.exp(abs(z) ** 2) / (k * nj) ** 2 / math.pi)).real


def numeric_unfolded(state, grid, window_half=10.0, window_points=4096):
    """Full-window complex correlator times exp(2iyp), y from -W to W."""
    h_q = (grid.q_max - grid.q_min) / (grid.n_q - 1)
    m = max(1, math.ceil(h_q * window_points / (2.0 * window_half)))
    h = h_q / m
    n_half = math.ceil(window_half / h)
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


def movie_per_frame(k, j, z, x, t_grid, n_max):
    base = build_mcs(MCSLabel(k, j, complex(z) ** k), n_max)
    return np.array(
        [np.abs(sequential_synthesis(time_evolve(base, t).coeffs, x)) ** 2 for t in t_grid]
    )


def closed_frame(k, j, z, x, t):
    """One instant of the closed wavefunction: k complex Gaussians."""
    nj = component_norm(k, j, z)
    prefactor = math.pi ** (-0.25) * math.exp(0.5 * abs(z) ** 2) / (k * nj)
    overall = np.exp(-1j * j * np.angle(z)) * np.exp(-0.5j * t)
    mu = np.exp(2j * np.pi / k)
    acc = np.zeros_like(x, dtype=np.complex128)
    for l in range(k):
        zl = mu**l * z * np.exp(-1j * t)
        mean_x = math.sqrt(2.0) * zl.real
        mean_p = math.sqrt(2.0) * zl.imag
        branch = np.exp(-0.5j * mean_x * mean_p)
        acc += (
            mu ** (-j * l)
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
            assert relative_gap(new.values, ref) <= REL_TOL
            assert new.imag_residue <= REL_TOL * np.max(np.abs(ref))


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
        ref = closed_pairwise(k, j, z, grid)
        assert np.all(np.isfinite(new.values))
        assert relative_gap(new.values, ref) <= tol


def test_numeric_fold_matches_unfolded_transform():
    grid = PhaseGrid(-6.0, 6.5, -5.0, 7.0, 73, 61)
    states = [basis_state(3, n_max=16)]
    for k in range(1, 9):
        z = 1.5 * np.exp(0.7j * k)
        states.append(build_mcs(MCSLabel(k, k // 2, z**k)))
    for state in states:
        new = wigner_numeric(state, grid)
        ref = numeric_unfolded(state, grid)
        assert new.imag_residue == 0.0
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
    # summation order of the shorter synthesis. The |z| = 3 rings of order
    # 4 and up need a wider y window than the default 10
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
            field = wigner_numeric(new, grid, window_half=14.0).values
            ref_field = wigner_numeric(ref, grid, window_half=14.0).values
            assert relative_gap(field, ref_field) <= SUPPORT_TOL
            got, want = numeric_moments(new), numeric_moments(ref)
            for name in MomentSet.__dataclass_fields__:
                scale = max(1.0, abs(getattr(want, name)))
                assert abs(getattr(got, name) - getattr(want, name)) <= SUPPORT_TOL * scale
