"""Eigenstates of k-th ladder powers and their observable profile.

For each order k and residue class j in 0..k-1 there is a normalized state

    |alpha; k, j>  ~  sum_n  alpha^n / sqrt((kn+j)!)  |kn+j>

annihilated onto itself by (a-)^k with eigenvalue alpha. The class is the
order-k generalization of the coherent states (k=1, j=0 reduces to them
exactly, modulo the alpha -> |alpha|^2 norm convention used throughout:
the norm series S_{k,j}(x) takes x = |alpha|^2).

Moments come in two independent routes, a closed route from the norm series
(the ring filter past |alpha| = 1.34e154) and a numeric route from truncated
matrix elements; `moments` computes both and refuses to return if they differ.

The coefficients fall off faster than geometrically, so `build_mcs` fills
only the levels that matter (its effective support; past it the dropped
weight is under 1e-34 of the norm) and leaves zeros above, whatever n_max
is. It steps on past n_max to weigh what a truncation would drop, rescales
its weights by powers of two as the norm series does and never forms
|alpha|^2, so n_max, not double range, sets which states it builds.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Overflow, RouteMismatch, TailTooHeavy
from .fock import (DEFAULT_N_MAX, _TABLE_KEYS, _TABLE_LEVELS, FockVector, _cached,
                   _check_class, _check_n_max, _levels, _norm, _positive_norm, apply_k_ladder)

# tail share build_mcs may drop, and the route bounds of moments and
# geometric_phase per max(1, <N>)
_TAIL_TOL = 1e-12
_ROUTE_TOL = 1e-10
_PHASE_TOL = 1e-12

# stop a positive-term series once terms are this far below the running sum,
# three times in a row (k-step index patterns can produce one stray small term)
_SERIES_EPS = 1e-16
_SERIES_RUN = 3
_SERIES_MAX_TERMS = 100_000
_DOUBLE_MAX = int(np.finfo(np.float64).max)
# from these orders on no level product is formed: a later term is at most
# x / k! < 2^-1075 times the one before, in _series for any double x once
# k! > 2^2099, in build_mcs for any finite alpha (x < 2^2048) once k! > 2^3123
_SEED_ONLY_K = 307
_BUILD_SEED_ONLY_K = 428

# a_norm_closed takes the series where its ring filter rounds past this share
_FILTER_TOL = 1e-13

# series totals past 2^_SCALE_BITS are carried as s 2^e (see _series);
# coefficient vectors scale by the square root
_SCALE_BITS = 512
_SCALE_LIMIT = 2.0**_SCALE_BITS
_SCALE = 2.0**-_SCALE_BITS
_ROOT_SCALE = 2.0 ** -(_SCALE_BITS // 2)

# build_mcs keeps levels until |c_n|^2 max(1, |alpha|^2) falls to this share
# of the weight so far, and after a step past double range ends before a
# level whose |c_n| max(1, |alpha|) is at most its root (see its docstring)
_SUPPORT_TOL = 1e-34
_ROOT_SUPPORT_TOL = 1e-17


@dataclass(frozen=True)
class MCSLabel:
    """Order k, residue class j, ladder eigenvalue alpha."""

    k: int
    j: int
    alpha: complex

    def __post_init__(self) -> None:
        k, j = _check_class(self.k, self.j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "j", j)
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"eigenvalue must be finite, got {a!r}")
        object.__setattr__(self, "alpha", a)


def _check_series(k: int, j: int, x: float) -> float:
    """x as a Python float, which the series sum in half the time of a numpy
    scalar: ValueError unless x >= 0 and (k, j) is a class."""
    _check_class(k, j)
    if not x >= 0:  # NaN fails this too, before a series runs
        raise ValueError(f"norm argument must be >= 0, got {x}")
    return float(x)


def _power(base: complex, n: float) -> complex:
    """base ** n, raising Overflow where a finite base leaves double range:
    Python raises OverflowError there for some n, and returns inf or NaN
    parts for others (a complex base and n <= 100)."""
    try:
        out = base**n
        if cmath.isfinite(out) or not cmath.isfinite(base):
            return out
    except OverflowError:
        pass
    raise Overflow(f"{base:.3g} ** {n} overflows double precision; the label is too large")


def _split(p: int) -> tuple[float, int]:
    """A positive integer p as (s, e) with 1/p = 2^e / s and e <= 0 even: e = 0
    and s = float(p) while p fits a double, else s is p's leading 64-65 bits."""
    if p <= _DOUBLE_MAX:
        return float(p), 0
    e = (p.bit_length() - 64) & ~1
    return float(p >> e), -e


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _level_products(k: int, seed: int) -> tuple[float, ...]:
    """The cached head of the level products _series and build_mcs read:
    float((n+1)...(n+k)) = float(perm(n + k, k)), for n = seed, seed + k, ...
    while n + k is below _TABLE_LEVELS and the product fits a double."""
    dens = []
    for n in range(seed, _TABLE_LEVELS - k, k):
        den = math.perm(n + k, k)
        if den > _DOUBLE_MAX:
            break
        dens.append(float(den))
    return tuple(dens)


def _seed(seed: int) -> tuple[float, int]:
    """seed! split as in _split; Overflow past _SERIES_MAX_TERMS!."""
    if seed > _SERIES_MAX_TERMS:
        raise Overflow(f"norm series seed past {_SERIES_MAX_TERMS}!; the order is too large")
    return _split(math.factorial(seed))


def _series(k: int, seed: int, x: float, d: int = 0) -> tuple[float, int]:
    """sum_m x^(m+d) / (km+seed)!  as (s, e) with the sum equal to s 2^e.

    Summed by term ratios x / ((n+1)...(n+k)) from the seed term x^d / seed!,
    both split as in _split past double range (e < 0 once seed! is); from
    order _SEED_ONLY_K on the sum is its seed term. Once the running total
    passes 2^_SCALE_BITS, total and term are scaled down by that exact power
    of two, so the sum of any input that fits a double keeps its bits, and
    sums past double range stay usable. Overflow is raised when a single
    term ratio overflows even so, past |alpha|^2 ~ 2^511, and when the sum,
    or its seed, needs more than _SERIES_MAX_TERMS terms (x^(1/k) beyond
    about k 10^5); a sum whose terms still grow at the last allowed one is
    refused before any term is summed.
    """
    s, e = _seed(seed)
    term = x**d / s
    if k >= _SEED_ONLY_K:  # no product of k factors is ever formed
        return term, e
    steps = _SERIES_MAX_TERMS
    if x >= k * steps:  # below, the ratio past the last allowed term is < 1
        last = k * (steps - 1) + seed
        if x > math.perm(last + k, k):
            steps = 0  # the terms still grow there: refuse without summing
    dens = _level_products(k, seed)
    total = 0.0
    small = 0
    for m in range(steps):
        total += term
        if total > _SCALE_LIMIT:
            if math.isinf(total):
                raise Overflow(
                    f"norm series overflows double precision at x={x:.3g} "
                    f"(order {k}); the label is too large"
                )
            total *= _SCALE
            term *= _SCALE
            e += _SCALE_BITS
        if term <= total * _SERIES_EPS:
            small += 1
            if small >= _SERIES_RUN or term == 0.0:
                return total, e
        else:
            small = 0
        if m < len(dens):
            term *= x / dens[m]
        else:  # x / p with p = s 2^-shift (see _split); shift = 0 while p fits a double
            s, shift = _split(math.perm(k * m + seed + k, k))
            term *= math.ldexp(x / s, shift)
    raise Overflow(
        f"norm series at x={x:.3g} (order {k}) needs more than "
        f"{_SERIES_MAX_TERMS} terms; the label is too large"
    )


def build_mcs(label: MCSLabel, n_max: int = DEFAULT_N_MAX) -> FockVector:
    """Truncated coefficient vector for |alpha; k, j>, exactly renormalized.

    One loop steps c_{n+k} = c_n alpha / sqrt((n+1)...(n+k)) and decides the
    truncation. It stops at the first level n = km+j whose next ratio r =
    |alpha|^2 / ((n+1)...(n+k)) is below 1/2 and whose weight |c_n|^2
    max(1, |alpha|^2) is at most 1e-34 of the weight up to it. The ratios
    only fall from there, so the dropped tail is below |c_n|^2 (under 1e-34
    of the norm, far below its rounding), and the defining residual
    |alpha c_n| stays below 1e-17 of the norm. A step past a level product
    beyond double range, from the product's leading bits (see _split), is
    its own ratio test: where its square is below 1/2 and the next level's
    |c_{n+k}| max(1, |alpha|) is at most 1e-17 of the norm so far, that
    level is not stored and the walk ends. Past |alpha| = 1.34e154, where
    |alpha|^2 leaves double range, only this rule stops, and the residual
    there is the truncation's |alpha c_n| = sqrt((n+1)...(n+k)) |c_{n+k}|.
    `top_occupied()` is the last level stored; the levels past it are zero.

    Levels from n_max on are stepped but not stored, their weights summed
    as the tail: once it passes 1e-12 of the weight so far, TailTooHeavy is
    raised instead of returning a quietly wrong vector. The tail ends at
    the same stops, or where its weights underflow.

    Weights and coefficients are scaled by 2^-512 and 2^-256 as they grow,
    as is j! (see _split), so a state whose norm leaves double range, such
    as |alpha|^2 = 900 at order 1, or (100, 0, 1e160) at 4096, builds when
    n_max holds it. From order 428 on no product is formed: the next level
    is below 2^-537 of the first. Overflow where one step's weight leaves
    double range (past |alpha| ~ 1e81 at order 1), or j passes 100000;
    ValueError unless n_max is an integer >= 1, Overflow past 2^26 levels.
    """
    n_max = _check_n_max(n_max)
    k, j, alpha = label.k, label.j, label.alpha
    r = abs(alpha)
    try:
        x = r**2
    except OverflowError:  # no test on x passes: the split steps end the walk
        x = math.inf
    terms: list[complex] = []
    cuts: list[int] = []  # len(terms) at each rescale
    term: complex = 1.0 / math.sqrt(_seed(j)[0])
    included = tail = 0.0  # the weights below n_max and from it on
    lift = max(1.0, x)  # the stop leaves a defining residual of |alpha c_n|
    dens = _level_products(k, j)
    for level, m in enumerate(itertools.count(j, k)):
        # no step makes the term itself inf, which would raise nothing here: that
        # needs a step past 2^768 after a term below 2^-256, but such steps come
        # only at orders with 1/sqrt(j!) above 2^-256, and terms rise with them
        try:
            weight = abs(term) ** 2
        except OverflowError:
            raise Overflow(f"level weights overflow double precision at |alpha|="
                           f"{r:.3g} (order {k}); the label is too large") from None
        if m < n_max:
            terms.append(term)
            included += weight
        else:
            tail += weight
            if tail > _TAIL_TOL * (included + tail):
                raise TailTooHeavy(f"|alpha|={r:.3g} needs more than n_max={n_max} "
                                   f"levels for order {k} class {j}: tail fraction "
                                   f"{tail / (included + tail):.3e} > {_TAIL_TOL:.1e}")
            if weight == 0.0:  # so are the weights past it
                break
        if level < len(dens):
            den = dens[level]
            step = alpha / math.sqrt(den)
        elif k >= _BUILD_SEED_ONLY_K:  # no product of k factors is formed
            break
        else:  # the product as s 2^-e (see _split): e = 0 while it fits a double
            den, e = _split(math.perm(m + k, k))
            step = alpha / math.sqrt(den)
            if e:  # past double range: alpha / sqrt(s) 2^(e/2)
                den, step = math.inf, step * 2.0 ** (e // 2)
                # the ratio test on the step itself: its square below 1/2, and the
                # next level too small to count (see _ROOT_SUPPORT_TOL)
                if abs(step) < 0.5**0.5 and (abs(term * step) * max(1.0, r)
                                             <= _ROOT_SUPPORT_TOL * math.sqrt(included + tail)):
                    break
        if x < 0.5 * den and weight * lift <= _SUPPORT_TOL * (included + tail):
            break
        if included > _SCALE_LIMIT:
            included *= _SCALE
            term *= _ROOT_SCALE
            cuts.append(len(terms))
        term *= step
    coeffs = np.zeros(n_max, dtype=np.complex128)
    if cuts:  # each level takes 2^-256 per rescale after it, in one ldexp that
        # rounds as the repeated products did: exact until the first subnormal
        after = np.repeat(np.arange(len(cuts), -1, -1), np.diff([0, *cuts, len(terms)]))
        parts = np.array(terms, dtype=np.complex128).view(np.float64)
        terms = np.ldexp(parts, np.repeat(after * -(_SCALE_BITS // 2), 2)).view(np.complex128)
    coeffs[j : j + k * len(terms) : k] = terms
    # finite: the Overflow guards keep each term finite, and none exceeds the norm
    return FockVector._trusted(coeffs / _norm(coeffs))


def eigenvalue_residual(
    label: MCSLabel, state: FockVector | None = None, n_max: int = DEFAULT_N_MAX
) -> float:
    """|| (a-)^k |state> - alpha |state> ||, the defining property."""
    if state is None:
        state = build_mcs(label, n_max)
    lowered = apply_k_ladder(state, label.k, -1)
    return _norm(lowered.coeffs - label.alpha * state.coeffs)


def revival_phase(k: int, j: int) -> complex:
    """Global phase picked up over one revival period 2*pi/k."""
    k, j = _check_class(k, j)
    return complex(np.exp(-1j * np.pi * (2 * j + 1) / k))


@dataclass(frozen=True)
class MomentSet:
    """Quadrature moments of a single state (units hbar = m = omega = 1).

    a_norm_sq is ||a |psi>||^2, i.e. the number expectation, which for these
    states is also the norm-series ratio A.
    """

    mean_x: float
    mean_p: float
    mean_x2: float
    mean_p2: float
    var_x: float
    var_p: float
    uncertainty_product: float
    a_norm_sq: float
    mean_H: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"moments must be finite, got {self}")
        if self.var_x < -1e-12 or self.var_p < -1e-12:
            raise ValueError(f"negative variance: {self.var_x}, {self.var_p}")
        if self.uncertainty_product < 0.5 - 1e-9:
            raise ValueError(
                f"uncertainty product {self.uncertainty_product} below the floor 1/2"
            )
        if abs(self.mean_H - self.a_norm_sq - 0.5) > 1e-10:
            raise ValueError("energy and number moments are inconsistent")


def _moment_set(mean_x: float, mean_p: float, mean_x2: float, mean_p2: float,
                a: float) -> MomentSet:
    """The moment set of these first and second moments and number
    expectation a: the variances, their uncertainty product, <H> = a + 1/2."""
    var_x = mean_x2 - mean_x**2
    var_p = mean_p2 - mean_p**2
    product = math.sqrt(max(var_x, 0.0) * max(var_p, 0.0))
    return MomentSet(mean_x, mean_p, mean_x2, mean_p2, var_x, var_p, product, a, a + 0.5)


def numeric_moments(state: FockVector) -> MomentSet:
    """Moments straight from truncated matrix elements of a, a^2, N.
    ValueError unless the norm of the vector is positive and finite."""
    c = state.coeffs / _positive_norm(state.coeffs, "moments")
    n, _, root, pair_root = _cached(_levels, c.size)
    mean_n = float(np.sum(n * np.abs(c) ** 2))
    mean_a = complex(np.sum(root[1:] * np.conj(c[:-1]) * c[1:]))
    mean_a2 = complex(np.sum(pair_root[2:] * np.conj(c[:-2]) * c[2:]))
    mean_x = math.sqrt(2.0) * mean_a.real
    mean_p = math.sqrt(2.0) * mean_a.imag
    return _moment_set(mean_x, mean_p, mean_a2.real + mean_n + 0.5,
                       mean_n + 0.5 - mean_a2.real, mean_n)


def _a_norm_series(k: int, j: int, x: float) -> float:
    """Number expectation A as a ratio of two norm-type series at x=|alpha|^2.

    The numerator is sum_n n' x^{n'} / (kn'+j)! reindexed so that the n'=0
    term drops; for j=0 that shifts the factorial index by a full period k.
    """
    x = _check_series(k, j, x)
    if x == 0.0:  # the state is |j>, and the series ratio would round
        return float(j)
    d = 1 if j == 0 else 0
    num, e_num = _series(k, k * d + j - 1, x, d)  # seed k-1 for j=0, j-1 otherwise
    den, e_den = _series(k, j, x)
    return math.ldexp(num / den, e_num - e_den)


def _class_norm(k: int, j: int, z: complex) -> tuple[float, int]:
    """The class norm N_j = |z|^j sqrt(S_{k,j}(|z|^(2k))), the norm of the
    class-j part of e^{|z|^2/2} |z> (the share of the coherent state on
    n = j mod k), as c 2^h: the norm series is s 2^e (see _series), e even
    since the seed's split exponent is and each rescale adds _SCALE_BITS,
    so c = |z|^j sqrt(s) and h = e/2 exactly. ValueError unless z is finite."""
    if not cmath.isfinite(z):  # before any series runs
        raise ValueError(f"ring label z must be finite, got {z!r}")
    r = _check_series(k, j, abs(z))
    s, e = _series(k, j, _power(r, 2 * k))
    return r**j * math.sqrt(s), e // 2


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _turns(k: int) -> tuple[complex, ...]:
    """mu^m = e^{2 pi i m/k}, m < k, as i^q e^{i pi rem/(2k)} with 4m = qk + rem:
    exact at quarter turns, and no turn is a power of a rounded root. Every ring
    route reads it: `a_norm_closed`, `decomposition._ring_points` and
    `_ring_weights`, and the pair turns of `wigner.wigner_closed`."""
    parts = (divmod(4 * m, k) for m in range(k))
    return tuple(1j**q * cmath.exp(0.5j * math.pi * rem / k) for q, rem in parts)


def a_norm_closed(label: MCSLabel) -> float:
    """Number expectation A = y F_{j-1}(y) / F_j(y) of any order, y = |alpha|^(2/k).

    F_i(y) = sum_{n = i mod k} y^n / n! is the ring filter (1/k) sum_l
    Re(mu^{-il} e^{mu^l y}), its exact turns read from `_turns` at l and at
    -il mod k, scaled by e^{-y}: term l has size e^{(cos 2 pi l/k - 1) y},
    so A -> y stays finite (Overflow only where y leaves double range). Near
    y = 0 the terms cancel: where eps times the sum of their sizes passes
    1e-13 of the smaller filtered sum, `_a_norm_series` serves instead.
    """
    k, j, r = label.k, label.j, abs(label.alpha)
    y = _power(r, 2.0 / k)
    turns = _turns(k)
    num = den = scale = 0.0
    for l, mu in enumerate(turns):
        term = cmath.exp((mu - 1.0) * y)
        num += (term * turns[(1 - j) * l % k]).real
        den += (term * turns[-j * l % k]).real
        scale += abs(term)
    if math.ulp(1.0) * scale > _FILTER_TOL * min(num, den):
        return _a_norm_series(k, j, _power(r, 2))
    return y * num / den


def moments(label: MCSLabel, n_max: int = DEFAULT_N_MAX) -> MomentSet:
    """Moment set for |alpha; k, j>, closed route cross-checked numerically.

    Order 1 is the familiar displaced Gaussian. For k >= 2 the first
    moments vanish identically and the second moments are
    A + 1/2 +- Re(alpha) delta_{k,2}; the +- asymmetry exists only at k=2,
    where (a-)^2 contributes a direct <a^2> = alpha term. A is |alpha|^2 at
    k = 1, else the norm series ratio, or past |alpha| = 1.34e154, where
    |alpha|^2 leaves double range, the ring filter of `a_norm_closed`.

    Raises RouteMismatch if the truncated matrix elements disagree with the
    closed values beyond 1e-10 max(1, <N>); that means n_max is too small
    for this label (or a bug), and no silently wrong numbers are returned.
    The bound grows with <N> because the rounding of both routes does: the
    second moments are sums of terms of size <N>.
    """
    # the build first, so a label n_max cannot hold is refused before a closed
    # MomentSet whose x + 1/2 rounds fails its consistency check
    numeric = numeric_moments(build_mcs(label, n_max))
    closed = _closed_moments(label)
    field, gap = _route_gap(closed, numeric)
    _check_gap(f"series and matrix-element moments disagree on {field}", gap, _ROUTE_TOL,
               closed.a_norm_sq, label)
    return closed


def _closed_moments(label: MCSLabel) -> MomentSet:
    """The closed half of `moments` without its numeric cross-check: the one place A is taken."""
    k, j, alpha = label.k, label.j, label.alpha
    try:  # Overflow is a McskitError, so only |alpha|^2 past double range is caught
        a = abs(alpha) ** 2 if k == 1 else _a_norm_series(k, j, abs(alpha) ** 2)
    except OverflowError:  # the ring filter never forms |alpha|^2; at k = 1 it is A: Overflow
        a = a_norm_closed(label)
    if k == 1:
        mean_x, mean_p = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
        # variances and their product exactly 1/2
        return MomentSet(mean_x, mean_p, mean_x**2 + 0.5, mean_p**2 + 0.5, 0.5, 0.5, 0.5,
                         a, a + 0.5)
    cross = alpha.real if k == 2 else 0.0
    return _moment_set(0.0, 0.0, a + 0.5 + cross, a + 0.5 - cross, a)


def geometric_phase(label: MCSLabel, n_max: int = DEFAULT_N_MAX) -> float:
    """Geometric phase over one revival period 2*pi/k.

    Route one: beta = (2*pi/k)(A - j) from the closed A of `moments`.
    Route two: total revival phase minus the dynamical part, with the
    energy taken from truncated matrix elements. The two must agree to
    1e-12 max(1, <N>), since beta grows like 2 pi <N> / k and so does
    its rounding, or RouteMismatch is raised.
    """
    numeric = numeric_moments(build_mcs(label, n_max))  # the build first, as in moments
    closed = _closed_moments(label)
    beta, gap = _phase_routes(label, closed, numeric)
    _check_gap("geometric phase routes disagree", gap, _PHASE_TOL, closed.a_norm_sq, label)
    return beta


def _check_gap(what: str, gap: float, tol: float, a: float, label: MCSLabel) -> None:
    """RouteMismatch where two routes' gap passes tol max(1, A), A the number expectation."""
    if gap > (bound := tol * max(1.0, a)):
        raise RouteMismatch(f"{what} by {gap:.3e} (> {bound:.1e}) for {label}; raise n_max")


def _route_gap(closed: MomentSet, numeric: MomentSet) -> tuple[str, float]:
    """The field where two moment sets differ most (the first such), and by how much."""
    gaps = ((name, abs(value - getattr(numeric, name))) for name, value in vars(closed).items())
    return max(gaps, key=lambda gap: gap[1])


def _phase_routes(label: MCSLabel, closed: MomentSet, numeric: MomentSet) -> tuple[float, float]:
    """beta = (2 pi / k)(A - j) of the closed A, and |beta - beta_alt|, where beta_alt is
    the revival phase minus the dynamical phase -(2 pi / k) <H> of the numeric moments."""
    k, j = label.k, label.j
    beta = _beta(k, j, closed.a_norm_sq)
    beta_alt = -(2 * j + 1) * math.pi / k + (2.0 * math.pi / k) * numeric.mean_H
    return beta, abs(beta - beta_alt)


def _beta(k: int, j: int, a: float) -> float:
    """The geometric phase (2 pi / k)(A - j) of class j for number expectation A."""
    return (2.0 * math.pi / k) * (a - j)
