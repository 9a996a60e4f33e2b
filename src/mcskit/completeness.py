"""Measure candidates for resolving the identity over a class of states.

A family |alpha; k, j> resolves the identity on its number-basis class
n = j mod k when a radial density f satisfies the moment condition

    integral_0^inf x^(n-1) f(x) dx = (kn + j)! ... = Gamma(kn + j + 1)

for n = 1, 2, ...; the full measure is then
S_{k,j}(|alpha|^2) f(|alpha|^2) d|alpha| dphi / (pi |alpha|). This module
checks candidate densities against the moment condition, keeps a registry
of verified ones, and assembles the resolution-of-identity matrix
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

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoCandidate, QuadratureFailure

DEFAULT_GL_ORDER = 32

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _panel_nodes(
    lo: float, hi: float, n_panels: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on n_panels equal panels of [lo, hi]."""
    if order not in _gl_cache:
        _gl_cache[order] = np.polynomial.legendre.leggauss(order)
    x0, w0 = _gl_cache[order]
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
        if self.k < 1 or not 0 <= self.j < self.k:
            raise ValueError(f"bad order/class ({self.k}, {self.j})")
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


def _scaled_moment(
    candidate: MeasureCandidate, n: int, n_panels: int, order: int
) -> float:
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
    v, w = _panel_nodes(0.0, v_hi, n_panels, order)
    f = _density_values(candidate, v**k)
    target = math.lgamma(k * n + candidate.j + 1)
    with np.errstate(divide="ignore"):
        log_mag = (k * n - 1) * np.log(v) + np.log(np.abs(f)) - target
    integrand = np.sign(f) * np.exp(log_mag)
    return float(k * np.sum(w * integrand))


def moment_check(
    candidate: MeasureCandidate,
    n_top: int = 20,
    tol: float = 1e-8,
    base_panels: int = 8,
    max_panels: int = 4096,
    order: int = DEFAULT_GL_ORDER,
) -> MomentReport:
    """Check moments n = 1..n_top, each by adaptive panel doubling.

    Each integral is refined until successive panel counts agree to 1e-11
    in the Gamma-scaled value; QuadratureFailure if max_panels is not
    enough for that, so a non-converged integral is never scored.
    """
    orders = np.arange(1, n_top + 1)
    rel = np.empty(n_top)
    for i, n in enumerate(orders):
        n_panels = base_panels
        prev = None
        while True:
            val = _scaled_moment(candidate, int(n), n_panels, order)
            if prev is not None and abs(val - prev) <= 1e-11 * max(abs(val), 1e-3):
                break
            if n_panels >= max_panels:
                raise QuadratureFailure(
                    f"moment {n} of {candidate.name or candidate.density!r} "
                    f"did not converge within {max_panels} panels"
                )
            prev = val
            n_panels *= 2
        rel[i] = abs(val - 1.0)

    xs = np.linspace(0.0, candidate.support_hint, 512)
    fs = _density_values(candidate, xs)
    nonneg = bool(np.min(fs) >= -1e-12 * max(1.0, float(np.max(np.abs(fs)))))
    passed = nonneg and bool(np.all(rel <= tol))
    return MomentReport(
        k=candidate.k, j=candidate.j, name=candidate.name,
        orders=orders, rel_errors=rel, tol=tol,
        nonnegative=nonneg, passed=passed,
    )


def root_exponential_density(k: int, j: int, n_top_hint: int = 24) -> MeasureCandidate:
    """The density x^((j+1)/k) exp(-x^(1/k)) / k for class (k, j).

    Substituting t = x^(1/k) shows its (n-1)-th moment is exactly
    Gamma(kn+j+1) for every order, so one family covers all classes; at
    k=1, j=0 it reduces to x e^(-x). The support hint covers moments up to
    n_top_hint with a wide safety margin in t.
    """

    def density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        root = x ** (1.0 / k)
        return x ** ((j + 1.0) / k) * np.exp(-root) / k

    t_hi = k * n_top_hint + j + 12.0 * math.sqrt(k * n_top_hint + j) + 30.0
    return MeasureCandidate(
        k=k, j=j, density=density, support_hint=t_hi**k,
        name=f"x^({j + 1}/{k}) exp(-x^(1/{k}))/{k}",
    )


_REGISTRY: dict[tuple[int, int], MeasureCandidate] = {
    # the one class shipped verified out of the box; tests and the verify
    # suite re-run its moment check rather than trusting this line
    (1, 0): root_exponential_density(1, 0),
}


def registered_measure(k: int, j: int) -> MeasureCandidate:
    try:
        return _REGISTRY[(k, j)]
    except KeyError:
        raise NoCandidate(
            f"no measure density registered for class ({k}, {j}); "
            f"verify one with moment_check and add it via register_measure"
        ) from None


def register_measure(
    candidate: MeasureCandidate, n_top: int = 12, tol: float = 1e-8
) -> MomentReport:
    """Admit a candidate to the registry after it passes its moment check."""
    report = moment_check(candidate, n_top=n_top, tol=tol)
    if not report.passed:
        raise ValueError(
            f"candidate {candidate.name!r} for class ({candidate.k}, {candidate.j}) "
            f"fails the moment condition (worst rel error {report.worst_error():.3e}"
            f"{'' if report.nonnegative else ', negative values'})"
        )
    _REGISTRY[(candidate.k, candidate.j)] = candidate
    return report


def assemble_identity_block(
    candidate: MeasureCandidate,
    radial_cutoff: float,
    n_panels: int,
    n_angular: int,
    dim_check: int,
    order: int = DEFAULT_GL_ORDER,
) -> np.ndarray:
    """One fixed-resolution assembly of the dim_check x dim_check overlap
    matrix of integral dmu |alpha><alpha| on the class basis.

    Basis functions are the unnormalized radial coefficients
    v_m(r) = r^m / sqrt((km+j)!); the measure weight is w f(r^2)/(pi r)
    times the uniform angular weight, with the S factor already cancelled
    against the state normalization. The angular sum over n_angular > dim
    uniform angles kills every off-diagonal phase exactly (roots of unity),
    so resolution only ever limits the radial direction.
    """
    if n_angular < dim_check:
        raise ValueError(
            f"n_angular={n_angular} aliases phases below dim_check={dim_check}"
        )
    k, j = candidate.k, candidate.j
    r, w = _panel_nodes(0.0, radial_cutoff, n_panels, order)
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
    k: int,
    j: int,
    radial_cutoff: float = 12.0,
    n_radial: int = 16,
    n_angular: int | None = None,
    dim_check: int = 12,
    refine_tol: float = 1e-10,
    max_panels: int = 2048,
) -> np.ndarray:
    """Converged overlap matrix for the registered (k, j) candidate.

    Radial panels double until the assembled matrix moves by less than
    refine_tol entrywise; QuadratureFailure past max_panels.
    """
    return _converged_block(
        registered_measure(k, j), radial_cutoff, n_radial, n_angular, dim_check,
        refine_tol, max_panels,
    )


def _converged_block(
    candidate: MeasureCandidate,
    radial_cutoff: float,
    n_radial: int,
    n_angular: int | None,
    dim_check: int,
    refine_tol: float = 1e-10,
    max_panels: int = 2048,
) -> np.ndarray:
    """identity_block for any candidate, registered or not."""
    if n_angular is None:
        n_angular = dim_check + 1
    n_panels = n_radial
    prev = None
    while True:
        block = assemble_identity_block(
            candidate, radial_cutoff, n_panels, n_angular, dim_check
        )
        if prev is not None and float(np.max(np.abs(block - prev))) <= refine_tol:
            return block
        if n_panels >= max_panels:
            raise QuadratureFailure(
                f"identity assembly for class ({candidate.k}, {candidate.j}) did not "
                f"converge within {max_panels} radial panels"
            )
        prev = block
        n_panels *= 2


def identity_resolution_numeric(
    k: int,
    j: int,
    radial_cutoff: float = 12.0,
    n_radial: int = 16,
    n_angular: int | None = None,
    dim_check: int = 12,
    refine_tol: float = 1e-10,
    max_panels: int = 2048,
) -> float:
    """Max deviation of the assembled overlap matrix from the identity.

    This is the end-to-end statement that the registered measure makes the
    class states a complete family on their subspace: small only when
    moments, cutoff, and quadrature are all right at once.
    """
    block = identity_block(
        k, j, radial_cutoff, n_radial, n_angular, dim_check, refine_tol, max_panels
    )
    return float(np.max(np.abs(block - np.eye(dim_check))))
