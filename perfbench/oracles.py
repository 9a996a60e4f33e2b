"""Reference values computed apart from mcskit, with numpy and math only.

Nothing here imports the library. Every series is summed in log space
over math.lgamma, so no factorial or norm series of the library is
reused, and wavefunctions are built from the coherent-state formula
rather than from Hermite recurrences.
"""

from __future__ import annotations

import math

import numpy as np

_QUARTIC_ROOT_PI = math.pi ** (-0.25)


def _log_class_weights(k: int, j: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Levels n = k*m + j and log(x^m / n!) for every term that matters."""
    if x == 0.0:
        return np.array([float(j)]), np.array([-math.lgamma(j + 1)])
    # the terms peak near m = x^(1/k); stop well past it
    peak = x ** (1.0 / k)
    m_top = int(peak + 40.0 * math.sqrt(peak + 1.0) + 60.0)
    m = np.arange(m_top + 1, dtype=np.float64)
    n = k * m + j
    lg = np.array([math.lgamma(v + 1.0) for v in n])
    return n, m * math.log(x) - lg


def _logsumexp(v: np.ndarray) -> float:
    top = float(np.max(v))
    return top + math.log(float(np.sum(np.exp(v - top))))


def mean_number(k: int, j: int, x: float) -> float:
    """<N> of the class state |alpha; k, j> at x = |alpha|^2."""
    n, logw = _log_class_weights(k, j, x)
    w = np.exp(logw - np.max(logw))
    return float(np.sum(n * w) / np.sum(w))


def k2_mean_number(j: int, r: float) -> float:
    """Order-2 closed forms: r tanh r (even class), r coth r (odd class)."""
    if j == 0:
        return r * math.tanh(r)
    return r / math.tanh(r) if r > 0 else 1.0


def geometric_phase(k: int, j: int, x: float) -> float:
    """(2 pi / k)(<N> - j); at k = 2 this is pi r tanh r or pi (r coth r - 1)."""
    if k == 2:
        return math.pi * (k2_mean_number(j, math.sqrt(x)) - j)
    return 2.0 * math.pi / k * (mean_number(k, j, x) - j)


def coherent_coeffs(z: complex, n_max: int) -> np.ndarray:
    """c_n = exp(-|z|^2/2) z^n / sqrt(n!) from lgamma, for z != 0."""
    n = np.arange(n_max, dtype=np.float64)
    lg = np.array([math.lgamma(v + 1.0) for v in n])
    r, phi = abs(z), math.atan2(z.imag, z.real)
    log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * lg
    return np.exp(log_mag) * np.exp(1j * phi * n)


def lower_k(c: np.ndarray, k: int) -> np.ndarray:
    """(a-)^k on a truncated coefficient vector: out_n = c_{n+k} sqrt((n+k)!/n!)."""
    n = np.arange(c.size - k, dtype=np.float64)
    lg_hi = np.array([math.lgamma(v + k + 1.0) for v in n])
    lg_lo = np.array([math.lgamma(v + 1.0) for v in n])
    out = np.zeros_like(c)
    out[: c.size - k] = c[k:] * np.exp(0.5 * (lg_hi - lg_lo))
    return out


def _class_norm(k: int, j: int, z: complex) -> float:
    """|| sum_l mu^(-jl) |mu^l z> || = k * sqrt(class-j weight of |z>)."""
    x = abs(z) ** 2
    n, logw = _log_class_weights(1, 0, x)
    keep = (n.astype(np.int64) % k) == j
    return k * math.exp(0.5 * (_logsumexp(logw[keep]) - x))


def ring_wavefunction(k: int, j: int, z: complex, x: np.ndarray) -> np.ndarray:
    """psi(x) of the class state on the ring mu^l z, as a sum of k Gaussians.

    <x|w> = pi^(-1/4) exp(-x^2/2 + sqrt2 w x - w^2/2 - |w|^2/2) for each ring
    point w; the normalization is the class weight of |z>, so the result
    is a unit vector. Time evolution rotates the ring (z -> z e^(-it)) and
    the momentum representation is the ring at -i z.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = np.exp(2j * np.pi / k)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for l in range(k):
        w = mu**l * z
        expo = -0.5 * x * x + math.sqrt(2.0) * w * x - 0.5 * w * w - 0.5 * abs(w) ** 2
        acc += mu ** (-j * l) * np.exp(expo)
    return _QUARTIC_ROOT_PI * acc / _class_norm(k, j, z)


def ring_density(k: int, j: int, z: complex, x: np.ndarray) -> np.ndarray:
    return np.abs(ring_wavefunction(k, j, z, x)) ** 2


def movie_density(k: int, j: int, z: complex, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|psi(x, t)|^2 for every t: the ring turns rigidly, z -> z e^(-it)."""
    return np.array([ring_density(k, j, z * np.exp(-1j * tt), x) for tt in t])


def wigner_gaussian(q0: float, p0: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Field of a displaced vacuum, (1/pi) exp(-(q-q0)^2 - (p-p0)^2)."""
    return np.exp(-((q[:, None] - q0) ** 2) - (p[None, :] - p0) ** 2) / math.pi


def wigner_fock(n: int, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Field of |n>: ((-1)^n / pi) exp(-rho) L_n(2 rho), rho = q^2 + p^2."""
    rho = q[:, None] ** 2 + p[None, :] ** 2
    u = 2.0 * rho
    lag_prev, lag = np.zeros_like(u), np.ones_like(u)
    for m in range(n):
        lag_prev, lag = lag, ((2 * m + 1 - u) * lag - m * lag_prev) / (m + 1)
    return (-1) ** n * np.exp(-rho) * lag / math.pi


def trapz2d(values: np.ndarray, q: np.ndarray, p: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, p, axis=1), q))
