"""Measure candidates for resolving the identity over a class of states.

A family |alpha; k, j> resolves the identity on its number-basis class
n = j mod k when a radial density f satisfies the moment condition

    integral_0^inf x^(n-1) f(x) dx = (kn + j)! ... = Gamma(kn + j + 1)

for n = 1, 2, ...; the full measure is then
S_{k,j}(|alpha|^2) f(|alpha|^2) d|alpha| dphi / (pi |alpha|). This module
checks candidate densities against the moment condition and measures how
far the root-exponential family `root_exponential_density(k, j)`, whose
moments are exact for every class, resolves the identity numerically, as
an end-to-end verification.

Both are one quadrature: <m|alpha><alpha|n> carries e^{i(m-n) phi}, whose
integral over phi is 2 pi delta_mn, so the matrix is diagonal, and there
S_{k,j} cancels the squared normalization 1/S_{k,j} of the state, so S is
never evaluated: with x = |alpha|^2, entry m is the order-m moment
integral over Gamma(km + j + 1).

Numerical notes, all load-bearing:

* Candidates are stated in v = x^(1/k), an exact change of variables,
  and in logs: log |f(v^k)| and its sign. The integrand is formed in logs
  and never forms x = v^k, so the range is bounded by the array cap and
  the 4096-panel budget, not by double range; its rounding, about
  eps (kn+j) ln v, sets the accuracy.
* The root-exponential integrand is analytic at v = 0, so one panel
  doubling converges at spectral rate. Each panel count is one density
  call and one (nodes x orders) integrand, scaled by exp(-lgamma(kn+j+1))
  inside the exponential so every entry matches against 1.0, met by the
  node weights in tiles that stay on the calling thread (`_matmul_tiles`):
  the bits do not depend on the BLAS thread count.
* Moments end at support_hint, and raise if their tail there is visible;
  identity checks end past the weight of every state they hold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decomposition import _matmul_tiles
from .errors import QuadratureFailure
from .fock import _check_class, _check_count, _check_entries

# Gauss-Legendre points per panel, and the panel doubling of every integral
_GL_ORDER = 32
_BASE_PANELS = 8
_MAX_PANELS = 4096
# moment_check: relative error a moment may keep, and the relative change
# between panel counts (and unseen tail past support_hint) it may ignore
_MOMENT_TOL = 1e-8
_MOMENT_STEP = 1e-11
# identity checks: relative change of every entry that ends the panel doubling
_BLOCK_STEP = 1e-10


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # on first use: importing numpy.polynomial costs every process ~1.5 MB
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on n_panels equal panels of [lo, hi]."""
    x0, w0 = _gauss_legendre()
    edges = np.linspace(lo, hi, n_panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x0[None, :]
    weights = 0.5 * (b - a) * np.broadcast_to(w0, nodes.shape)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class MeasureCandidate:
    """A radial density f(x) proposed for class (k, j), stated in
    v = x^(1/k). `log_density` maps an array of v > 0 to the pair of arrays
    (log |f(v^k)|, sign f(v^k)); a zero density is (-inf, 0).

    support_hint, finite and positive, bounds in v where the density (times
    any checked moment) still carries weight; integrations stop there.
    """

    k: int
    j: int
    log_density: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    support_hint: float
    name: str

    def __post_init__(self) -> None:
        _check_class(self.k, self.j)
        if not (math.isfinite(self.support_hint) and self.support_hint > 0):
            raise ValueError(f"support_hint must be finite and positive, got {self.support_hint}")


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Outcome of checking a candidate against the factorial moments:
    rel_errors[n - 1] is the relative error of moment n."""

    k: int
    j: int
    rel_errors: np.ndarray
    nonnegative: bool
    passed: bool

    def worst_error(self) -> float:
        return float(np.max(self.rel_errors))


def _v_limit(k: int, j: int, n: int) -> float:
    """End in v = x^(1/k) of the root-exponential weight of moment orders up
    to n: 12 standard deviations plus 40 (e^-40 at order 0) past the peak."""
    return k * n + j + 12.0 * math.sqrt(k * n + j) + 40.0


def _scaled_moments(candidate: MeasureCandidate, v_hi: float, orders: np.ndarray, step: float,
                    what: Callable[[int], str]) -> np.ndarray:
    """Per order n, the integral over [0, v_hi] of k v^(kn-1) f(v^k) dv over
    Gamma(kn+j+1), as (k w sign f) @ exp(log |v^(kn-1) f| - lgamma(kn+j+1));
    the sign carries negative densities through, so bad candidates are
    measured, not crashed. Panels double from _BASE_PANELS until every order
    moves by at most step relative to max(|value|, 1e-3); QuadratureFailure
    naming what(i) of the first order i that did not by _MAX_PANELS, or up
    front if those are wider than the narrowest weight, sqrt(kn+j) + 30 at
    the lowest order: coarser counts would miss it alike."""
    k, j, low = candidate.k, candidate.j, int(orders[0])
    width = math.sqrt(k * low + j) + 30.0
    if v_hi / _MAX_PANELS > width:
        raise QuadratureFailure(f"{_MAX_PANELS} panels on [0, {v_hi:.6g}] miss order {low} of"
                                f" class ({k}, {j}), about {width:.3g} wide")
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    n_panels, prev = _BASE_PANELS, None
    while n_panels <= _MAX_PANELS:
        v, w = _panel_nodes(0.0, v_hi, n_panels)
        _check_entries("integrand entries (nodes x orders)", v.size * orders.size)
        log_f, sign = candidate.log_density(v)
        log_mag = np.log(v)[:, None] * (k * orders - 1) + log_f[:, None] - target
        val = _matmul_tiles((k * w * sign)[None, :], np.exp(log_mag), np.empty((1, orders.size)))[0]
        if prev is not None:
            settled = np.abs(val - prev) / np.maximum(np.abs(val), 1e-3) <= step
            if np.all(settled):
                return val
        n_panels, prev = 2 * n_panels, val
    i = int(np.argmin(settled))
    raise QuadratureFailure(f"{what(i)} did not converge within {_MAX_PANELS} panels")


def moment_check(candidate: MeasureCandidate, n_top: int = 20) -> MomentReport:
    """Check moments n = 1..n_top in one adaptive panel doubling.

    Panels double until successive counts agree to 1e-11 in the
    Gamma-scaled value of every order. QuadratureFailure naming an order if
    4096 panels do not do that or miss order 1, or if the tail estimate
    k v^(kn) f(v^k) / Gamma(kn+j+1) exceeds 1e-11 at support_hint, so no
    non-converged or truncated integral is scored. The candidate passes
    when it is nonnegative and every moment is within 1e-8 of its target.
    ValueError unless n_top is an integer >= 1, Overflow past the array cap.
    """
    n_top = _check_count("n_top", n_top)
    # the first panel count's integrand bounds the order range
    _check_entries("integrand entries (nodes x orders)", _BASE_PANELS * _GL_ORDER * n_top)
    k, j, v_hi = candidate.k, candidate.j, candidate.support_hint
    orders = np.arange(1, n_top + 1)
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    # v = 0 left out: its log is -inf, and a RuntimeWarning is an error
    log_f, sign = candidate.log_density(np.linspace(0.0, v_hi, 513)[1:])
    with np.errstate(over="ignore"):
        edge = k * np.exp(k * orders * math.log(v_hi) - target + log_f[-1])
    if np.any(edge > _MOMENT_STEP):
        n = int(np.argmax(edge > _MOMENT_STEP))
        raise QuadratureFailure(f"moment {n + 1} of {candidate.name!r} still carries {edge[n]:.1e}"
                                f" of its target at support_hint={v_hi:.6g}; raise support_hint")

    scaled = _scaled_moments(candidate, v_hi, orders, _MOMENT_STEP,
                             lambda i: f"moment {i + 1} of {candidate.name!r}")
    rel = np.abs(scaled - 1.0)
    nonneg = bool(np.min(sign) >= 0)
    passed = nonneg and bool(np.all(rel <= _MOMENT_TOL))
    return MomentReport(k=k, j=j, rel_errors=rel, nonnegative=nonneg, passed=passed)


def root_exponential_density(k: int, j: int) -> MeasureCandidate:
    """The density x^((j+1)/k) exp(-x^(1/k)) / k for class (k, j), stated
    in v = x^(1/k) as log f = (j+1) log v - v - log k.

    Its (n-1)-th moment is the integral of v^(kn+j) e^(-v), exactly
    Gamma(kn+j+1) for every order, so one family covers all classes; at
    k=1, j=0 it is x e^(-x). The support hint covers moments up to n = 24.
    """
    k, j = _check_class(k, j)
    log_k = math.log(k)

    def log_density(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (j + 1) * np.log(v) - v - log_k, np.ones_like(v)

    return MeasureCandidate(
        k=k, j=j, log_density=log_density, support_hint=_v_limit(k, j, 24),
        name=f"x^({j + 1}/{k}) exp(-x^(1/{k}))/{k}",
    )


def _identity_diagonal(k: int, j: int, dim_check: int) -> np.ndarray:
    """Entries m < dim_check of the root-exponential measure's diagonal
    matrix on class (k, j): the order-m scaled moments, one for an exact
    measure. The range ends past the weight of order dim_check - 1; panels
    double until every entry moves by at most 1e-10 relative,
    QuadratureFailure naming the first state that did not past 4096, or up
    front if 4096 miss order 0. ValueError unless dim_check is an int >= 1,
    Overflow past the array cap."""
    dim_check = _check_count("dim_check", dim_check)
    # the first panel count's integrand bounds the order range
    _check_entries("integrand entries (nodes x orders)", _BASE_PANELS * _GL_ORDER * dim_check)
    candidate = root_exponential_density(k, j)
    k, j = candidate.k, candidate.j
    return _scaled_moments(candidate, _v_limit(k, j, dim_check - 1), np.arange(dim_check),
                           _BLOCK_STEP, lambda m: f"state {m} of class ({k}, {j})")


def identity_resolution_numeric(k: int, j: int, dim_check: int = 12) -> float:
    """Max deviation from the identity of the root-exponential measure's
    matrix on the first dim_check states of class (k, j).

    The angular integral of <m|alpha><alpha|n> over arg alpha is 2 pi
    delta_mn and S_{k,j} cancels the squared normalization of the state, so
    the matrix is diagonal and the deviation is its largest |entry - 1|,
    rounded by about eps (kn+j) ln v. This is the end-to-end statement that
    the measure makes the class states complete on their subspace: small
    only when moments, range and quadrature are all right at once. Every
    class with k <= 5 reads below 1e-13 at dim_check = 12.
    """
    return float(np.max(np.abs(_identity_diagonal(k, j, dim_check) - 1.0)))
