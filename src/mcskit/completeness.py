"""Measure candidates for resolving the identity over a class of states.

A family |alpha; k, j> resolves the identity on its number-basis class
n = j mod k when a radial density f satisfies the moment condition

    integral_0^inf x^(n-1) f(x) dx = (kn + j)! ... = Gamma(kn + j + 1)

for n = 1, 2, ...; the full measure is then
S_{k,j}(|alpha|^2) f(|alpha|^2) d|alpha| dphi / (pi |alpha|). This module
checks candidate densities against the moment condition and assembles the
resolution-of-identity matrix of the root-exponential family
`root_exponential_density(k, j)`, whose moments are exact for every class,
numerically as an end-to-end verification.

Numerical notes, all load-bearing:

* Candidates are stated in v = x^(1/k), an exact change of variables,
  and in logs: log |f(v^k)| and its sign. The integrand is formed in logs
  and never forms x = v^k, so the range is bounded by the array cap and
  the 4096-panel budget, not by double range; its rounding, about
  eps (kn+j) ln v, sets the accuracy.
* The root-exponential integrand is analytic at v = 0, so one panel
  doubling converges at spectral rate for moments and blocks alike. Each
  panel count is one density call and one (nodes x orders) integrand.
* Each integrand is scaled by exp(-lgamma(kn+j+1)) inside the exponential,
  so moments match against 1.0. In the identity assembly the S_{k,j}
  factor of the measure cancels the squared normalization of the state
  analytically, so S is never evaluated.
* Moments end at support_hint, and raise if their tail there is visible;
  identity blocks end past the weight of every order they hold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
# identity_block: entrywise change that ends the panel doubling
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


def _refine(compute: Callable, distance: Callable, tol: float, what: Callable[[int], str]):
    """compute(n_panels), panels doubling from _BASE_PANELS until every entry
    of distance(new, old) is within tol; past _MAX_PANELS QuadratureFailure
    naming what(i) of the first flat entry i that was not."""
    n_panels = _BASE_PANELS
    prev = compute(n_panels)
    while n_panels < _MAX_PANELS:
        n_panels *= 2
        val = compute(n_panels)
        settled = distance(val, prev) <= tol
        if np.all(settled):
            return val
        prev = val
    i = int(np.argmin(settled))
    raise QuadratureFailure(f"{what(i)} did not converge within {_MAX_PANELS} panels")


def _integrand(candidate: MeasureCandidate, v_hi: float, orders: np.ndarray,
               target: np.ndarray, n_panels: int):
    """Node weights k w sign f(v^k) on n_panels panels of [0, v_hi], and per
    node and order n log |v^(kn-1) f(v^k)| - target (target lgamma(kn+j+1)
    makes weights @ exp of it the scaled moments). The sign carries negative
    densities through, so bad candidates are measured, not crashed.
    QuadratureFailure if 4096 panels are wider than the narrowest weight,
    sqrt(kn+j) + 30 at the lowest order: coarser counts would miss it alike."""
    k, j, low = candidate.k, candidate.j, int(orders[0])
    width = math.sqrt(k * low + j) + 30.0
    if v_hi / _MAX_PANELS > width:
        raise QuadratureFailure(f"{_MAX_PANELS} panels on [0, {v_hi:.6g}] miss order {low} of"
                                f" class ({k}, {j}), about {width:.3g} wide")
    v, w = _panel_nodes(0.0, v_hi, n_panels)
    _check_entries("integrand entries (nodes x orders)", v.size * orders.size)
    log_f, sign = candidate.log_density(v)
    log_mag = np.log(v)[:, None] * (k * orders - 1) + log_f[:, None]
    return k * w * sign, log_mag - target


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

    def moments(n_panels: int) -> np.ndarray:
        weights, log_mag = _integrand(candidate, v_hi, orders, target, n_panels)
        return weights @ np.exp(log_mag)

    scaled = _refine(moments, lambda a, b: np.abs(a - b) / np.maximum(np.abs(a), 1e-3),
                     _MOMENT_STEP, lambda i: f"moment {i + 1} of {candidate.name!r}")
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


def identity_block(k: int, j: int, dim_check: int = 12) -> np.ndarray:
    """Converged overlap matrix of `root_exponential_density(k, j)` on the
    first dim_check states of class (k, j).

    In v = x^(1/k) the measure is k w f(v^k)/v times the angular weight, and
    basis column m, v^(km/2)/sqrt(Gamma(km+j+1)) with S cancelled, is the
    root of the order-m scaled moment integrand; dim_check + 1 uniform angles
    kill every off-diagonal phase exactly (roots of unity). The range ends
    past the weight of order dim_check - 1, the highest the block holds;
    panels double until the matrix moves by less than 1e-10 entrywise,
    QuadratureFailure past 4096, or up front if 4096 miss order 0. Entries
    carry about eps (kn+j) ln v of rounding from the log integrand.
    ValueError unless dim_check is an int >= 1, Overflow past the array cap.
    """
    dim_check = _check_count("dim_check", dim_check)
    _check_entries("block entries ((dim_check + 1) x dim_check)", (dim_check + 1) * dim_check)
    candidate = root_exponential_density(k, j)
    k, j = candidate.k, candidate.j
    v_hi = _v_limit(k, j, dim_check - 1)
    orders = np.arange(dim_check)
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    phases = np.exp(2j * np.pi * (np.outer(np.arange(dim_check + 1), orders) / (dim_check + 1)))
    angular = phases.conj().T @ phases / (dim_check + 1)

    def assemble(n_panels: int) -> np.ndarray:
        weights, log_mag = _integrand(candidate, v_hi, orders, target, n_panels)
        # entries below 1e-150 cannot reach the block's rounding; flushing
        # them keeps subnormal products, ~100x slower, out of the product
        cols = np.exp(0.5 * np.where(log_mag > -690.0, log_mag, -np.inf))
        return ((cols.T * weights) @ cols) * angular

    return _refine(assemble, lambda a, b: np.abs(a - b), _BLOCK_STEP,
                   lambda i: f"identity assembly for class ({k}, {j})")


def identity_resolution_numeric(k: int, j: int) -> float:
    """Max deviation of `identity_block(k, j)`, the first 12 states of the
    class, from the identity.

    This is the end-to-end statement that the root-exponential measure
    makes the class states a complete family on their subspace: small only
    when moments, range and quadrature are all right at once. Every class
    with k <= 5 reads below 1e-13.
    """
    block = identity_block(k, j)
    return float(np.max(np.abs(block - np.eye(block.shape[0]))))
