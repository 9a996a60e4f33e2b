"""The ring routes against exact arithmetic.

Each double route is compared with the same quantity evaluated by mpmath at
40 digits from the defining sums, which share no code with mcskit: the
class state c_n = e^{-ij arg z} z^n / (sqrt(n!) N_j) on n = j mod k, its
wavefunction through the Hermite recurrence, the Wigner field as the sum of
its k^2 ring pairs, the number expectation as a ratio of filtered
exponential series and the roots of unity as e^{2 pi i m/k}. At 40 digits
the cancellation of the ring costs at most 10 of them, so each oracle value
is exact to far below the double rounding it judges.

Each route is held to an error bound stated as a formula in eps, the ring
scale num / den of `_ring_norm` (e^{|z|^2/2} / N_j, squared for a field) and
|z|, so an error that grows with a turn index, as a power of a rounded root
does, fails where the bound does not grow with it. The radii include each
class just above the threshold below which the ring is refused, where the
branches cancel most.
"""
import functools
import math

import numpy as np
import pytest
from mpmath import mp

from mcskit import (MCSLabel, PhaseGrid, a_norm_closed, mcs_as_scs, mcs_wavefunction,
                    states, wigner_closed)
from mcskit.decomposition import _class_norm, _ring_norm
from mcskit.errors import DegenerateNorm
from mcskit.states import _turns

DIGITS = 40
EPS = float(np.finfo(np.float64).eps)
ORDERS = range(1, 9)
# the x points of the amplitudes, and the far edge of their phases
X_POINTS = np.linspace(-8.0, 8.0, 25)
X_EDGE = 8.0
FIELD_GRID = PhaseGrid(-5.0, 5.0, -4.5, 5.5, 5, 5)
LEVELS = 200  # c_n past this is below 1e-60 for every |z| here


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(DIGITS):
        yield


def exact_turn(m, k):
    return mp.expjpi(mp.mpf(2 * (m % k)) / k)


def exact(value):
    """A double as the mpmath number it is exactly."""
    value = complex(value)
    return mp.mpc(value.real, value.imag)


def class_norm_sq(k, j, r):
    """N_j^2 = sum over n = j mod k of r^{2n} / n!, summed until the terms
    past the peak fall below 10^-45 of the total."""
    r2 = exact(r).real ** 2
    total, n, term = mp.mpf(0), j, r2**j / mp.factorial(j)
    while term and not (n > r2 and term < total * mp.mpf(10) ** -45):
        total += term
        term *= r2**k / mp.rf(n + 1, k)
        n += k
    return total + term


def class_coeffs(k, j, z):
    """The class state's coefficients c_n, n < LEVELS, keyed by n."""
    z = exact(z)
    scale = mp.expj(-j * mp.arg(z)) / mp.sqrt(class_norm_sq(k, j, abs(z)))
    return {n: scale * z**n / mp.sqrt(mp.factorial(n)) for n in range(j, LEVELS, k)}


@functools.cache
def eigenfunctions(x):
    """psi_n(x), n < LEVELS, from the two-term recurrence."""
    x = mp.mpf(float(x))
    out, prev = [mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)], mp.mpf(0)
    for n in range(1, LEVELS):
        out.append(mp.sqrt(mp.mpf(2) / n) * x * out[-1] - mp.sqrt(mp.mpf(n - 1) / n) * prev)
        prev = out[-2]
    return out


def exact_amplitudes(k, j, z, xs, t):
    """psi(x, t) = sum_n c_n e^{-i(n + 1/2)t} psi_n(x) at each x of xs."""
    t = mp.mpf(t)
    terms = [(n, c * mp.expj(-(n + mp.mpf(0.5)) * t)) for n, c in class_coeffs(k, j, z).items()]
    return [sum(c * psi[n] for n, c in terms) for psi in map(eigenfunctions, map(float, xs))]


def exact_field(k, j, z, grid):
    """The field as its k^2 ring pairs, each exp(-(q-Q)^2) exp(-(p-P)^2) e^D,
    times e^{|z|^2} / (k^2 N_j^2 pi)."""
    z = exact(z)
    ring = [exact_turn(a, k) * z for a in range(k)]
    qs, ps = [mp.mpf(float(q)) for q in grid.q_axis], [mp.mpf(float(p)) for p in grid.p_axis]
    total = [[mp.mpc(0)] * len(ps) for _ in qs]
    for a in range(k):
        for b in range(k):
            za, zb = mp.conj(ring[a]), ring[b]
            center_q, center_p = (za + zb) / mp.sqrt(2), 1j * (za - zb) / mp.sqrt(2)
            weight = exact_turn(j * (a - b), k) * mp.exp(za * zb - abs(z) ** 2)
            left = [weight * mp.exp(-((q - center_q) ** 2)) for q in qs]
            right = [mp.exp(-((p - center_p) ** 2)) for p in ps]
            for row, value in zip(total, left):
                row[:] = [cell + value * factor for cell, factor in zip(row, right)]
    scale = mp.exp(abs(z) ** 2) / (k * k * class_norm_sq(k, j, abs(z)) * mp.pi)
    return [[(cell * scale).real for cell in row] for row in total]


def threshold(k, j, pairs):
    """The smallest |z|, to 1e-6 relative, at which the ring route serves."""
    lo, hi = 1e-12, 5.0
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        try:
            _ring_norm(k, j, mid, "x", pairs)
            hi = mid
        except DegenerateNorm:
            lo = mid
    return hi


def labels(k, pairs, radii):
    """Every class of order k at each radius, and just above its threshold
    where that is not negligibly small, at an angle that moves with the label."""
    out = []
    for j in range(k):
        edge = threshold(k, j, pairs) if j else 0.0
        for r in ([1.02 * edge] if edge > 1e-3 else []) + list(radii):
            out.append((j, r * np.exp(1j * (0.7 + 0.3 * k + j))))
    if k == 5:
        out.append((4, 0.3))
    return out


def ring_scale(k, j, z, pairs=False):
    num, den = _ring_norm(k, j, z, "x", pairs)
    return num / den ** (2 if pairs else 1)


def amplitude_errors(k):
    """(label, error, bound) of the closed wavefunction at X_POINTS.

    The bound is pi^{-1/4} eps num / den (2 pi + |z| (|z| + sqrt2 X_EDGE)):
    the k branches, each of modulus up to pi^{-1/4} num / (k den), carry
    exact turns and phases X P / 2 + P x + t / 2 of up to |z|^2 +
    sqrt2 |z| X_EDGE + 2 pi, each rounded to eps of its size.
    """
    out = []
    for j, z in labels(k, False, (1.3, 4.5)):
        t = 0.37 * k
        values = mcs_wavefunction(k, j, z, X_POINTS, t=t)
        ref = exact_amplitudes(k, j, z, X_POINTS, t)
        error = max(abs(exact(v) - e) for v, e in zip(values, ref))
        r = abs(z)
        bound = math.pi**-0.25 * EPS * ring_scale(k, j, z) * (
            2.0 * math.pi + r * (r + math.sqrt(2.0) * X_EDGE)
        )
        out.append(((k, j, r), float(error), bound))
    return out


def vector_errors(k):
    """(label, error, bound) of the ring vector's coefficients.

    The bound is 4 eps num / den (1 + |z|^2): the k weights num / (k den),
    each with an exact turn and rounded to about 2 eps, multiply coherent
    coefficients of modulus below 1, whose recurrence rounds them by about
    eps per level up to the peak at n ~ |z|^2.
    """
    out = []
    for j, z in labels(k, False, (1.3, 4.5)):
        values = mcs_as_scs(k, j, z).fock_vector(LEVELS).coeffs
        coeffs = class_coeffs(k, j, z)
        error = max(abs(exact(v) - coeffs.get(n, 0)) for n, v in enumerate(values))
        r = abs(z)
        out.append(((k, j, r), float(error), 4.0 * EPS * ring_scale(k, j, z) * (1.0 + r * r)))
    return out


def field_errors(k):
    """(label, error, bound) of the closed field on FIELD_GRID.

    The bound is eps num / den^2 (2 + 4 |z| (|z| + R)) / pi, R the grid's
    reach: the k^2 pairs, each of modulus up to num / (k den)^2 / pi, carry
    exact turns and phases 2 d Im Q, 2 e Im P and Im D of up to
    4 |z| (R + |z|), each rounded to eps of its size, and `_ring_norm`
    allows 2 eps num / den^2 for the rest.
    """
    reach = max(abs(FIELD_GRID.q_min), abs(FIELD_GRID.q_max),
                abs(FIELD_GRID.p_min), abs(FIELD_GRID.p_max))
    out = []
    for j, z in labels(k, True, (1.3, 3.0)):
        values = wigner_closed(k, j, z, FIELD_GRID).values
        ref = exact_field(k, j, z, FIELD_GRID)
        error = max(abs(mp.mpf(float(v)) - e) for row, ref_row in zip(values, ref)
                    for v, e in zip(row, ref_row))
        r = abs(z)
        bound = EPS * ring_scale(k, j, z, True) * (2.0 + 4.0 * r * (r + reach)) / math.pi
        out.append(((k, j, r), float(error), bound))
    return out


@pytest.mark.parametrize("errors", [amplitude_errors, vector_errors, field_errors],
                         ids=["amplitude", "vector", "field"])
@pytest.mark.parametrize("k", ORDERS)
def test_ring_routes_meet_the_exact_sums(errors, k):
    for label, error, bound in errors(k):
        assert error <= bound, (label, error, bound)


def test_turn_table_is_within_two_ulps_of_the_roots():
    for k in range(1, 129):
        for m, mu in enumerate(_turns(k)):
            assert abs(exact(mu) - exact_turn(m, k)) <= 4 * 2.0**-53, (k, m)


@pytest.mark.parametrize("k, j", [(1, 0), (2, 1), (3, 0), (5, 4), (8, 3), (8, 7)])
def test_class_norm_across_the_rescale(k, j):
    # the norm series is carried as s 2^e once its total passes 2^512, from
    # about |z|^2 = 355; the bound follows the term ratios, each rounded,
    # that run up to the peak of the series at n ~ |z|^2
    scaled = set()
    for r in (0.5, 3.0, 18.0, 18.7, 18.9, 19.2, 26.5, 27.0, 30.0):
        c, h = _class_norm(k, j, r)
        scaled.add(h > 0)
        error = abs(exact(c).real * mp.mpf(2) ** h / mp.sqrt(class_norm_sq(k, j, r)) - 1)
        assert error <= EPS * (2.0 + r * r / k), (r, h)
    assert scaled == {False, True}


def filtered_series(k, i, y):
    """F_i(y) = sum over n = i mod k, n >= 0, of y^n / n!, from the series
    while y is small and the filter (1/k) sum_l mu^{-il} e^{mu^l y} past it,
    where nothing cancels."""
    if y > 60:
        return sum(exact_turn(-i * l, k) * mp.exp(exact_turn(l, k) * y) for l in range(k)).real / k
    i %= k
    total, n, term = mp.mpf(0), i, y**i / mp.factorial(i)
    while term and not (n > y and term < total * mp.mpf(10) ** -45):
        total += term
        term *= y**k / mp.rf(n + 1, k)
        n += k
    return total + term


def test_number_expectation_on_both_sides_of_the_switch(monkeypatch):
    # every class with k <= 16, at radii that cross the switch from the
    # series to the filter; both agree with the exact A to 1e-13 relative,
    # the tolerance at which the filter hands over to the series
    series = states._a_norm_series
    served = []
    monkeypatch.setattr(states, "_a_norm_series",
                        lambda *args: served.append(True) or series(*args))
    for k in range(1, 17):
        for j in range(k):
            routes = set()
            # radii r = y^{k/2} at the filter's argument y
            for r in (0.0, *(y ** (k / 2) for y in (1e-4, 0.05, 0.5, 2.0, 6.0, 20.0, 300.0))):
                served.clear()
                value = a_norm_closed(MCSLabel(k, j, r))
                routes.add(bool(served))
                y = exact(r).real ** (mp.mpf(2) / k)
                want = y * filtered_series(k, j - 1, y) / filtered_series(k, j, y) if r else j
                assert abs(value - want) <= 1e-13 * max(want, EPS), (k, j, r)
            assert routes == ({False} if k == 1 else {False, True}), (k, j)
