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

* Moments and identity blocks both integrate in v = x^(1/k) (an exact
  change of variables), where the root-exponential integrand is analytic
  at 0, so one panel-doubling loop converges at spectral rate for both.
  Each panel count is one density call and one (nodes x orders) integrand
  for all orders; the lgamma scales and angular factor are formed once.
* Each integrand is scaled by exp(-lgamma(kn+j+1)) inside the exponential,
  so moments match against 1.0 and nothing overflows at large kn. In the
  identity assembly the S_{k,j} factor of the measure cancels the squared
  normalization of the state analytically, so S is never evaluated.
* Moments end at support_hint, and raise if their tail there is visible;
  identity blocks end past the weight of every order they hold. Arrays are
  capped before they are built, and a range whose x = v^k leaves double
  range raises Overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import Overflow, QuadratureFailure
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
# root_exponential_density: highest moment order its support hint covers
_N_TOP_HINT = 24


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # on first use: importing numpy.polynomial costs every process ~1.5 MB
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on n_panels equal panels of [lo, hi]."""
    x0, w0 = _gauss_legendre()
    edges = np.linspace(lo, hi, n_panels + 1)
    a = edges[:-1, None]
    b = edges[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x0[None, :]
    weights = 0.5 * (b - a) * np.broadcast_to(w0, nodes.shape)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class MeasureCandidate:
    """A radial density f(x) proposed for class (k, j). `density` maps an
    array of x to an array of f(x), as np.exp does.

    support_hint, finite and positive, bounds where the density (times any
    checked moment) still carries weight; integrations stop there.
    """

    k: int
    j: int
    density: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support_hint: float
    name: str

    def __post_init__(self) -> None:
        _check_class(self.k, self.j)
        if not (math.isfinite(self.support_hint) and self.support_hint > 0):
            raise ValueError(f"support_hint must be finite and positive, got {self.support_hint}")


@dataclass(frozen=True)
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
    to n: 12 standard deviations plus 30 past the Gamma(kn+j+1) peak.
    Overflow when x = v^k there leaves double range."""
    v = k * n + j + 12.0 * math.sqrt(k * n + j) + 30.0
    if k * math.log(v) > 709.0:  # a margin below log(DBL_MAX)
        raise Overflow(f"class ({k}, {j}) to order {n} reaches x = {v:.4g}^{k}, past double range")
    return v


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
    densities through, so bad candidates are measured, not crashed."""
    k = candidate.k
    v, w = _panel_nodes(0.0, v_hi, n_panels)
    _check_entries("integrand entries (nodes x orders)", v.size * orders.size)
    f = np.asarray(candidate.density(v**k), dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_mag = np.log(v)[:, None] * (k * orders - 1) + np.log(np.abs(f))[:, None]
    return k * w * np.sign(f), log_mag - target


def moment_check(candidate: MeasureCandidate, n_top: int = 20) -> MomentReport:
    """Check moments n = 1..n_top in one adaptive panel doubling.

    Panels double until successive counts agree to 1e-11 in the
    Gamma-scaled value of every order. QuadratureFailure naming an order if
    4096 panels do not do that, or if the tail estimate k x^n f(x) /
    Gamma(kn+j+1) exceeds 1e-11 at support_hint, so no non-converged or
    truncated integral is scored. The candidate passes when it is
    nonnegative and every moment is within 1e-8 of its target. ValueError
    unless n_top is an integer >= 1, Overflow past the array cap.
    """
    n_top = _check_count("n_top", n_top)
    # the first panel count's integrand bounds the order range
    _check_entries("integrand entries (nodes x orders)", _BASE_PANELS * _GL_ORDER * n_top)
    k, j, x_hi = candidate.k, candidate.j, candidate.support_hint
    orders = np.arange(1, n_top + 1)
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    fs = np.asarray(candidate.density(np.linspace(0.0, x_hi, 512)), dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        edge = k * np.exp(orders * math.log(x_hi) - target + np.log(abs(fs[-1])))
    if np.any(edge > _MOMENT_STEP):
        n = int(np.argmax(edge > _MOMENT_STEP))
        raise QuadratureFailure(f"moment {n + 1} of {candidate.name!r} still carries {edge[n]:.1e}"
                                f" of its target at support_hint={x_hi:.6g}; raise support_hint")
    v_hi = x_hi ** (1.0 / k)

    def moments(n_panels: int) -> np.ndarray:
        weights, log_mag = _integrand(candidate, v_hi, orders, target, n_panels)
        return weights @ np.exp(log_mag)

    scaled = _refine(moments, lambda a, b: np.abs(a - b) / np.maximum(np.abs(a), 1e-3),
                     _MOMENT_STEP, lambda i: f"moment {i + 1} of {candidate.name!r}")
    rel = np.abs(scaled - 1.0)
    nonneg = bool(np.min(fs) >= -1e-12 * max(1.0, float(np.max(np.abs(fs)))))
    passed = nonneg and bool(np.all(rel <= _MOMENT_TOL))
    return MomentReport(k=k, j=j, rel_errors=rel, nonnegative=nonneg, passed=passed)


def root_exponential_density(k: int, j: int) -> MeasureCandidate:
    """The density x^((j+1)/k) exp(-x^(1/k)) / k for class (k, j).

    Substituting t = x^(1/k) shows its (n-1)-th moment is exactly
    Gamma(kn+j+1) for every order, so one family covers all classes; at
    k=1, j=0 it reduces to x e^(-x). The support hint covers moments up to
    n = 24 with a wide safety margin in t; Overflow from k = 90 on, where
    that hint leaves double range.
    """
    k, j = _check_class(k, j)

    def density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x ** ((j + 1.0) / k) * np.exp(-(x ** (1.0 / k))) / k

    return MeasureCandidate(
        k=k, j=j, density=density, support_hint=_v_limit(k, j, _N_TOP_HINT) ** k,
        name=f"x^({j + 1}/{k}) exp(-x^(1/{k}))/{k}",
    )


def identity_block(k: int, j: int, dim_check: int = 12) -> np.ndarray:
    """Converged overlap matrix of `root_exponential_density(k, j)` on the
    first dim_check states of class (k, j).

    In v = x^(1/k) the measure is k w f(v^k)/v times the angular weight, and
    basis column m, v^(km/2)/sqrt(Gamma(km+j+1)) with S cancelled, is the
    root of the order-m scaled moment integrand; dim_check + 1 uniform angles
    kill every off-diagonal phase exactly (roots of unity). The range covers
    the weight of every order the block holds; panels double until the
    matrix moves by less than 1e-10 entrywise, QuadratureFailure past 4096.
    ValueError unless dim_check is an int >= 1, Overflow past the array cap
    or where x = v^k leaves double range.
    """
    dim_check = _check_count("dim_check", dim_check)
    _check_entries("block entries ((dim_check + 1) x dim_check)", (dim_check + 1) * dim_check)
    candidate = root_exponential_density(k, j)
    k, j = candidate.k, candidate.j
    v_hi = _v_limit(k, j, dim_check)
    orders = np.arange(dim_check)
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    turns = np.outer(np.arange(dim_check + 1), orders) / (dim_check + 1)
    phases = np.exp(2j * np.pi * turns)
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
