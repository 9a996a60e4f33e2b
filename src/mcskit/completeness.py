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

Numerical notes, both load-bearing:

* Moment integrals run in u = sqrt(x) (an exact change of variables) so
  fractional powers of x at the origin cannot spoil panel quadrature, and
  each integrand is scaled by exp(-lgamma(kn+j+1)) inside the exponential,
  so moments match against 1.0 and nothing overflows at large kn.
* In the identity assembly the S_{k,j} factor of the measure cancels the
  squared normalization of the state analytically, so S is never evaluated;
  what remains is polynomially bounded in the radial cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import QuadratureFailure
from .fock import _check_class

# Gauss-Legendre points per panel, in the moment checks and the assembly
_GL_ORDER = 32
# moment_check: relative error a moment may keep, and the panel doubling
# from _BASE_PANELS that each moment integral gets to converge
_MOMENT_TOL = 1e-8
_BASE_PANELS = 8
_MAX_MOMENT_PANELS = 4096
# root_exponential_density: highest moment order its support hint covers
_N_TOP_HINT = 24
# identity_block: entrywise change that ends the radial panel doubling
_REFINE_TOL = 1e-10
_MAX_RADIAL_PANELS = 2048

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
    """A radial density f(x) proposed for class (k, j).

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

    def first_failure(self) -> int | None:
        """Lowest moment order exceeding tol, or None."""
        bad = np.flatnonzero(self.rel_errors > self.tol)
        return int(self.orders[bad[0]]) if bad.size else None


def _density_values(candidate: MeasureCandidate, x: np.ndarray) -> np.ndarray:
    """Evaluate the density over an array, tolerating scalar-only callables."""
    try:
        vals = np.asarray(candidate.density(x), dtype=np.float64)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(candidate.density(float(v))) for v in x])


def _scaled_moment(candidate: MeasureCandidate, n: int, n_panels: int) -> float:
    """integral x^(n-1) f(x) dx / Gamma(kn+j+1), computed in v = x^(1/k).

    The substitution gives k integral v^(kn-1) f(v^k) dv, which is analytic
    at 0 for the k-th-root reference family, so panel doubling converges at
    spectral rate for every order. The Gamma scaling moves inside the
    exponential so the working range never overflows even when the target
    moment is astronomically large. Negative density values are carried
    through by sign so bad candidates are measured, not crashed.
    """
    k = candidate.k
    v_hi = candidate.support_hint ** (1.0 / k)
    v, w = _panel_nodes(0.0, v_hi, n_panels)
    f = _density_values(candidate, v**k)
    target = math.lgamma(k * n + candidate.j + 1)
    with np.errstate(divide="ignore"):
        log_mag = (k * n - 1) * np.log(v) + np.log(np.abs(f)) - target
    integrand = np.sign(f) * np.exp(log_mag)
    return float(k * np.sum(w * integrand))


def moment_check(candidate: MeasureCandidate, n_top: int = 20) -> MomentReport:
    """Check moments n = 1..n_top, each by adaptive panel doubling.

    Each integral is refined until successive panel counts agree to 1e-11
    in the Gamma-scaled value; QuadratureFailure if 4096 panels are not
    enough for that, so a non-converged integral is never scored. The
    candidate passes when it is nonnegative and every moment is within
    1e-8 of its target.
    """
    orders = np.arange(1, n_top + 1)
    rel = np.empty(n_top)
    for i, n in enumerate(orders):
        n_panels = _BASE_PANELS
        prev = None
        while True:
            val = _scaled_moment(candidate, int(n), n_panels)
            if prev is not None and abs(val - prev) <= 1e-11 * max(abs(val), 1e-3):
                break
            if n_panels >= _MAX_MOMENT_PANELS:
                raise QuadratureFailure(
                    f"moment {n} of {candidate.name or candidate.density!r} "
                    f"did not converge within {_MAX_MOMENT_PANELS} panels"
                )
            prev = val
            n_panels *= 2
        rel[i] = abs(val - 1.0)

    xs = np.linspace(0.0, candidate.support_hint, 512)
    fs = _density_values(candidate, xs)
    nonneg = bool(np.min(fs) >= -1e-12 * max(1.0, float(np.max(np.abs(fs)))))
    passed = nonneg and bool(np.all(rel <= _MOMENT_TOL))
    return MomentReport(
        k=candidate.k, j=candidate.j, name=candidate.name,
        orders=orders, rel_errors=rel, tol=_MOMENT_TOL,
        nonnegative=nonneg, passed=passed,
    )


def root_exponential_density(k: int, j: int) -> MeasureCandidate:
    """The density x^((j+1)/k) exp(-x^(1/k)) / k for class (k, j).

    Substituting t = x^(1/k) shows its (n-1)-th moment is exactly
    Gamma(kn+j+1) for every order, so one family covers all classes; at
    k=1, j=0 it reduces to x e^(-x). The support hint covers moments up to
    n = 24 with a wide safety margin in t.
    """

    def density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        root = x ** (1.0 / k)
        return x ** ((j + 1.0) / k) * np.exp(-root) / k

    t_hi = k * _N_TOP_HINT + j + 12.0 * math.sqrt(k * _N_TOP_HINT + j) + 30.0
    return MeasureCandidate(
        k=k, j=j, density=density, support_hint=t_hi**k,
        name=f"x^({j + 1}/{k}) exp(-x^(1/{k}))/{k}",
    )


def assemble_identity_block(
    candidate: MeasureCandidate, radial_cutoff: float, n_panels: int, dim_check: int
) -> np.ndarray:
    """One fixed-resolution assembly of the dim_check x dim_check overlap
    matrix of integral dmu |alpha><alpha| on the class basis.

    Basis functions are the unnormalized radial coefficients
    v_m(r) = r^m / sqrt((km+j)!); the measure weight is w f(r^2)/(pi r)
    times the uniform angular weight, with the S factor already cancelled
    against the state normalization. The angular sum over dim_check + 1
    uniform angles kills every off-diagonal phase exactly (roots of unity),
    so resolution only ever limits the radial direction.
    """
    k, j = candidate.k, candidate.j
    n_angular = dim_check + 1
    r, w = _panel_nodes(0.0, radial_cutoff, n_panels)
    v = np.empty((r.size, dim_check))
    col = np.full(r.size, 1.0 / math.sqrt(math.factorial(j)))
    for m in range(dim_check):
        v[:, m] = col
        idx = k * m + j
        col = col * r / math.sqrt(float(math.prod(range(idx + 1, idx + k + 1))))
    meas = w * _density_values(candidate, r * r)
    meas /= math.pi * r
    meas *= 2.0 * math.pi / n_angular
    block = np.zeros((dim_check, dim_check), dtype=np.complex128)
    m_arr = np.arange(dim_check)
    for l in range(n_angular):
        phases = np.exp(2j * np.pi * l * m_arr / n_angular)
        vl = v * phases[None, :]
        block += (vl.conj().T * meas[None, :]) @ vl
    return block


def identity_block(
    k: int, j: int, radial_cutoff: float = 12.0, n_radial: int = 16, dim_check: int = 12
) -> np.ndarray:
    """Converged overlap matrix of `root_exponential_density(k, j)`.

    Radial panels double from n_radial until the assembled matrix moves by
    less than 1e-10 entrywise; QuadratureFailure past 2048 panels.
    """
    candidate = root_exponential_density(k, j)
    n_panels = n_radial
    prev = None
    while True:
        block = assemble_identity_block(candidate, radial_cutoff, n_panels, dim_check)
        if prev is not None and float(np.max(np.abs(block - prev))) <= _REFINE_TOL:
            return block
        if n_panels >= _MAX_RADIAL_PANELS:
            raise QuadratureFailure(
                f"identity assembly for class ({k}, {j}) did not converge within "
                f"{_MAX_RADIAL_PANELS} radial panels"
            )
        prev = block
        n_panels *= 2


def identity_resolution_numeric(
    k: int, j: int, radial_cutoff: float = 12.0, n_radial: int = 16, dim_check: int = 12
) -> float:
    """Max deviation of the assembled overlap matrix from the identity.

    This is the end-to-end statement that the root-exponential measure
    makes the class states a complete family on their subspace: small only
    when moments, cutoff, and quadrature are all right at once.
    """
    block = identity_block(k, j, radial_cutoff, n_radial, dim_check)
    return float(np.max(np.abs(block - np.eye(dim_check))))
