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
* Each integrand is scaled by exp(-lgamma(kn+j+1)) inside the exponential,
  so moments match against 1.0 and nothing overflows at large kn. In the
  identity assembly the S_{k,j} factor of the measure cancels the squared
  normalization of the state analytically, so S is never evaluated.
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
from .fock import _check_class, _check_count

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

    support_hint bounds where the density (times any checked moment) still
    carries weight; integrations stop there.
    """

    k: int
    j: int
    density: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support_hint: float = 200.0
    name: str = ""

    def __post_init__(self) -> None:
        _check_class(self.k, self.j)
        if self.support_hint <= 0:
            raise ValueError("support_hint must be positive")


@dataclass(frozen=True)
class MomentReport:
    """Outcome of checking a candidate against the factorial moments."""

    k: int
    j: int
    name: str
    orders: np.ndarray
    rel_errors: np.ndarray
    tol: float
    nonnegative: bool
    passed: bool

    def worst_error(self) -> float:
        return float(np.max(self.rel_errors))


def _v_limit(k: int, j: int, n: int) -> float:
    """End in v = x^(1/k) of the root-exponential weight of moment orders up
    to n: 12 standard deviations plus 30 past the Gamma(kn+j+1) peak."""
    return k * n + j + 12.0 * math.sqrt(k * n + j) + 30.0


def _refine(compute: Callable, distance: Callable, tol: float, what: str):
    """compute(n_panels), panels doubling from _BASE_PANELS until successive
    results lie within tol by distance; QuadratureFailure past _MAX_PANELS."""
    n_panels = _BASE_PANELS
    prev = compute(n_panels)
    while n_panels < _MAX_PANELS:
        n_panels *= 2
        val = compute(n_panels)
        if distance(val, prev) <= tol:
            return val
        prev = val
    raise QuadratureFailure(f"{what} did not converge within {_MAX_PANELS} panels")


def _log_integrand(candidate: MeasureCandidate, v: np.ndarray, orders: np.ndarray):
    """sign f(v^k), and log |v^(kn-1) f(v^k)| - lgamma(kn+j+1) per node and
    order n (k times its integral is the scaled moment). The sign carries
    negative densities through, so bad candidates are measured, not crashed."""
    k, j = candidate.k, candidate.j
    f = np.asarray(candidate.density(v**k), dtype=np.float64)
    target = np.array([math.lgamma(k * n + j + 1) for n in orders.tolist()])
    with np.errstate(divide="ignore"):
        log_mag = np.log(v)[:, None] * (k * orders - 1) + np.log(np.abs(f))[:, None]
    return np.sign(f), log_mag - target


def _scaled_moment(candidate: MeasureCandidate, n: int, n_panels: int) -> float:
    """integral x^(n-1) f(x) dx / Gamma(kn+j+1), computed in v = x^(1/k)."""
    v, w = _panel_nodes(0.0, candidate.support_hint ** (1.0 / candidate.k), n_panels)
    sign, log_mag = _log_integrand(candidate, v, np.array([n]))
    return float(candidate.k * np.sum(w * (sign * np.exp(log_mag[:, 0]))))


def moment_check(candidate: MeasureCandidate, n_top: int = 20) -> MomentReport:
    """Check moments n = 1..n_top, each by adaptive panel doubling.

    Each integral is refined until successive panel counts agree to 1e-11
    in the Gamma-scaled value. QuadratureFailure if 4096 panels do not do
    that, or if the tail estimate k x^n f(x) / Gamma(kn+j+1) exceeds 1e-11
    at support_hint, so no non-converged or truncated integral is scored.
    The candidate passes when it is nonnegative and every moment is within
    1e-8 of its target. ValueError unless n_top is an integer >= 1.
    """
    n_top = _check_count("n_top", n_top)
    k, j, x_hi = candidate.k, candidate.j, candidate.support_hint
    label = candidate.name or candidate.density
    orders = np.arange(1, n_top + 1)
    fs = np.asarray(candidate.density(np.linspace(0.0, x_hi, 512)), dtype=np.float64)
    log_edge = [n * math.log(x_hi) - math.lgamma(k * n + j + 1) for n in orders]
    with np.errstate(divide="ignore"):
        edge = k * np.exp(np.array(log_edge) + np.log(abs(fs[-1])))
    if np.any(edge > _MOMENT_STEP):
        n = int(np.argmax(edge > _MOMENT_STEP)) + 1
        raise QuadratureFailure(
            f"moment {n} of {label!r} still carries {edge[n - 1]:.1e} of its target "
            f"at support_hint={x_hi:.6g}; raise support_hint"
        )
    rel = np.array([
        abs(_refine(lambda p: _scaled_moment(candidate, int(n), p),
                    lambda a, b: abs(a - b) / max(abs(a), 1e-3), _MOMENT_STEP,
                    f"moment {n} of {label!r}") - 1.0)
        for n in orders
    ])
    nonneg = bool(np.min(fs) >= -1e-12 * max(1.0, float(np.max(np.abs(fs)))))
    passed = nonneg and bool(np.all(rel <= _MOMENT_TOL))
    return MomentReport(k=k, j=j, name=candidate.name, orders=orders, rel_errors=rel,
                        tol=_MOMENT_TOL, nonnegative=nonneg, passed=passed)


def root_exponential_density(k: int, j: int) -> MeasureCandidate:
    """The density x^((j+1)/k) exp(-x^(1/k)) / k for class (k, j).

    Substituting t = x^(1/k) shows its (n-1)-th moment is exactly
    Gamma(kn+j+1) for every order, so one family covers all classes; at
    k=1, j=0 it reduces to x e^(-x). The support hint covers moments up to
    n = 24 with a wide safety margin in t.
    """

    def density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x ** ((j + 1.0) / k) * np.exp(-(x ** (1.0 / k))) / k

    return MeasureCandidate(
        k=k, j=j, density=density, support_hint=_v_limit(k, j, _N_TOP_HINT) ** k,
        name=f"x^({j + 1}/{k}) exp(-x^(1/{k}))/{k}",
    )


def _assemble(candidate: MeasureCandidate, dim_check: int, n_panels: int) -> np.ndarray:
    """The dim_check x dim_check overlap matrix of integral dmu |alpha><alpha|
    on the class basis at one resolution, in v = x^(1/k).

    The measure is k w f(v^k)/v times the angular weight and basis column m
    is v^(km/2)/sqrt(Gamma(km+j+1)) (the S factor cancelled): a column is the
    root of the order-m scaled moment integrand. The dim_check + 1 uniform
    angles kill every off-diagonal phase exactly (roots of unity).
    """
    v, w = _panel_nodes(0.0, _v_limit(candidate.k, candidate.j, dim_check), n_panels)
    sign, log_mag = _log_integrand(candidate, v, np.arange(dim_check))
    # entries below 1e-150 cannot reach the block's rounding; flushing them
    # keeps subnormal products, ~100x slower, out of the matrix product
    cols = np.exp(0.5 * np.where(log_mag > -690.0, log_mag, -np.inf))
    radial = (cols.T * (candidate.k * w * sign)) @ cols
    turns = np.outer(np.arange(dim_check + 1), np.arange(dim_check)) / (dim_check + 1)
    phases = np.exp(2j * np.pi * turns)
    return radial * (phases.conj().T @ phases / (dim_check + 1))


def identity_block(k: int, j: int, dim_check: int = 12) -> np.ndarray:
    """Converged overlap matrix of `root_exponential_density(k, j)` on the
    first dim_check states of class (k, j).

    The range in v covers the weight of every order the block holds; panels
    double until the matrix moves by less than 1e-10 entrywise, with
    QuadratureFailure past 4096. ValueError unless dim_check is an int >= 1.
    """
    dim_check = _check_count("dim_check", dim_check)
    candidate = root_exponential_density(k, j)
    return _refine(lambda n_panels: _assemble(candidate, dim_check, n_panels),
                   lambda a, b: float(np.max(np.abs(a - b))), _BLOCK_STEP,
                   f"identity assembly for class ({k}, {j})")


def identity_resolution_numeric(k: int, j: int, dim_check: int = 12) -> float:
    """Max deviation of `identity_block(k, j, dim_check)` from the identity.

    This is the end-to-end statement that the root-exponential measure
    makes the class states a complete family on their subspace: small only
    when moments, range and quadrature are all right at once. Every class
    with k <= 5 reads below 1e-13 at the default dim_check.
    """
    block = identity_block(k, j, dim_check)
    return float(np.max(np.abs(block - np.eye(block.shape[0]))))
