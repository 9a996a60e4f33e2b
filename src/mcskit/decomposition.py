"""Cat decompositions and position-space profiles.

Every order-k class state is a finite superposition of k ordinary coherent
states sitting on a ring: the roots-of-unity filter that keeps n = j mod k
turns |z> into |z; k, j> and back. This module owns that change of basis,
the discrete transform behind it, and the closed-form wavefunctions it
implies.

Conventions. A coherent constituent here is the normalized k=1 state, and
`mcs_as_scs` returns weights with respect to those. The closed wavefunction
carries the per-branch phase exp(-i <x><p> / 2) of each moving Gaussian;
dropping it is harmless for one branch but scrambles the interference of a
superposition, which is observable in |psi|^2. The global phase is pinned
to the number-basis convention of `build_mcs` (real positive seed
coefficient), so closed and synthesized wavefunctions agree pointwise as
complex functions, not just in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNorm
from .fock import DEFAULT_N_MAX, FockVector
from .states import MCSLabel, build_mcs, norm_sum

DEFAULT_X_GRID = (-12.0, 12.0, 2048)

_QUARTIC_ROOT_PI = math.pi ** (-0.25)

# absolute accuracy a sum over the coherent ring must keep (the threshold of
# verify's closed-vs-synthesized row); its k branches cancel down to the
# class amplitude, which leaves about eps e^{|z|^2/2} / component_norm, and
# the k^2 ring pairs of a Wigner field about
# eps e^{|z|^2} / (k component_norm)^2 / pi
_RING_ACCURACY = 1e-8

# eigenfunction rows held at once by the synthesis; bounds its memory to
# _BLOCK_ROWS * len(x) doubles whatever n_max is
_BLOCK_ROWS = 64


def default_x_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_X_GRID
    return np.linspace(lo, hi, n)


def fock_wavefunction(state: FockVector, x: np.ndarray) -> np.ndarray:
    """Synthesize psi(x) = sum_n c_n psi_n(x) with oscillator eigenfunctions.

    Uses the stable two-term recurrence
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1};
    no Hermite polynomial or factorial ever appears explicitly, so n_max in
    the thousands is routine.
    """
    x = np.asarray(x, dtype=np.float64)
    return _synthesize(state.coeffs[None, :], x.ravel())[0].reshape(x.shape)


def _synthesize(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[r] = sum_n coeffs[r, n] psi_n(x) for a (rows, n_max) coefficient
    matrix and a 1-d x: one recurrence over x, whose rows are contracted
    with the coefficients as real matrix products, _BLOCK_ROWS at a time.

    Only levels with a nonzero coefficient in some row are kept, and the
    recurrence stops at the highest of them. `build_mcs` states are zero
    past their effective support (about 45-80 levels at |z| <= 3), so the
    cost follows that support, not n_max.
    """
    out = np.zeros((coeffs.shape[0], x.size), dtype=np.complex128)
    used = np.any(coeffs != 0.0, axis=0)
    top = int(np.flatnonzero(used)[-1]) + 1 if used.any() else 0
    basis = np.empty((_BLOCK_ROWS, x.size))
    held: list[int] = []
    prev = np.zeros_like(x)
    cur = _QUARTIC_ROOT_PI * np.exp(-0.5 * x * x)
    for n in range(top):
        if n > 0:
            prev, cur = cur, math.sqrt(2.0 / n) * x * cur - math.sqrt((n - 1) / n) * prev
        if used[n]:
            basis[len(held)] = cur
            held.append(n)
        if len(held) == _BLOCK_ROWS or n == top - 1:
            c = coeffs[:, held]
            out.real += c.real @ basis[: len(held)]
            out.imag += c.imag @ basis[: len(held)]
            held = []
    return out


@dataclass(frozen=True)
class WaveSample:
    """psi evaluated on a position grid at one instant."""

    x_grid: np.ndarray
    values: np.ndarray
    t: float = 0.0

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density(), self.x_grid))


def coherent_state(z: complex, n_max: int = DEFAULT_N_MAX) -> FockVector:
    """Normalized ordinary coherent state; the k=1 class state."""
    return build_mcs(MCSLabel(1, 0, z), n_max)


def dft_matrix(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-k root-of-unity matrix M[j, l] = mu^(jl) and its exact inverse.

    The inverse is conj(M)/k analytically; returning it avoids an
    unnecessary linear solve and keeps the pair exactly consistent.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    jl = np.outer(np.arange(k), np.arange(k))
    m = np.exp(2j * np.pi * jl / k)
    return m, m.conj() / k


def component_norm(k: int, j: int, z: complex) -> float:
    """Norm |z|^j sqrt(S_{k,j}(|z|^(2k))) of the class-j part of exp(|z|^2/2)-
    scaled |z>; the share of the coherent state living on n = j mod k."""
    r = abs(z)
    return r**j * math.sqrt(norm_sum(k, j, r ** (2 * k)))


def _ring_norm(
    k: int, j: int, z: complex, fallback: str, pairs: bool = False
) -> float:
    """component_norm(k, j, z) for a route that sums the k coherent states
    on the ring, whose weights e^{|z|^2/2} / (k component_norm) cancel down
    to the class amplitude, or with pairs=True the k^2 ring pairs of a Wigner
    field, weighted e^{|z|^2} / (k component_norm)^2 / pi. DegenerateNorm,
    naming the fallback route, once that leaves worse than _RING_ACCURACY
    absolute accuracy."""
    nj = component_norm(k, j, z)
    eps = np.finfo(np.float64).eps
    if pairs:
        bound = eps * math.exp(abs(z) ** 2) / math.pi
        cancelled = bound > _RING_ACCURACY * (k * nj) ** 2
    else:
        cancelled = eps * math.exp(0.5 * abs(z) ** 2) > _RING_ACCURACY * nj
    if cancelled:
        raise DegenerateNorm(
            f"class ({k}, {j}) carries too little weight at z={z} for the ring "
            f"of coherent states, whose branches cancel to worse than "
            f"{_RING_ACCURACY:g} absolute accuracy; use {fallback}"
        )
    return nj


@dataclass(frozen=True)
class ScsSuperposition:
    """A class state written as sum_l weights[l] |mu^l z> over normalized
    coherent constituents on the ring."""

    k: int
    j: int
    z: complex
    weights: np.ndarray

    def constituents(self) -> np.ndarray:
        mu = np.exp(2j * np.pi / self.k)
        return mu ** np.arange(self.k) * self.z

    def raw_weights(self) -> np.ndarray:
        """Weights with respect to unnormalized coherent vectors
        sum_n z^n/sqrt(n!) |n> instead."""
        return self.weights * math.exp(-0.5 * abs(self.z) ** 2)

    def fock_vector(self, n_max: int = DEFAULT_N_MAX) -> FockVector:
        acc = np.zeros(n_max, dtype=np.complex128)
        for w, label in zip(self.weights, self.constituents()):
            acc += w * coherent_state(complex(label), n_max).coeffs
        return FockVector(acc)


def mcs_as_scs(k: int, j: int, z: complex) -> ScsSuperposition:
    """Decompose |z^k; k, j> into k coherent states at angles 2*pi*l/k.

    The weight of constituent l on normalized coherent states is
    mu^(-jl) e^(-i j arg z) e^(|z|^2/2) / (k component_norm). As z -> 0 the
    class norm vanishes for j > 0 and these weights grow until summing them
    cancels away the class amplitude; past 1e-8 absolute accuracy
    DegenerateNorm is raised, and build_mcs serves those labels.
    """
    if k < 1 or not 0 <= j < k:
        raise ValueError(f"bad order/class ({k}, {j})")
    z = complex(z)
    nj = _ring_norm(k, j, z, "build_mcs")
    mu_pow = np.exp(-2j * np.pi * j * np.arange(k) / k)
    align = np.exp(-1j * j * np.angle(z))
    weights = mu_pow * align * math.exp(0.5 * abs(z) ** 2) / (k * nj)
    return ScsSuperposition(k=k, j=j, z=z, weights=weights)


def coherent_from_classes(k: int, z: complex, n_max: int = DEFAULT_N_MAX) -> FockVector:
    """Inverse direction: reassemble |z> from its k class projections.

    The class-j component enters with weight e^(i j arg z) component_norm
    e^(-|z|^2/2); summing over j must reproduce the coherent state exactly.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    z = complex(z)
    acc = np.zeros(n_max, dtype=np.complex128)
    damp = math.exp(-0.5 * abs(z) ** 2)
    for j in range(k):
        w = np.exp(1j * j * np.angle(z)) * component_norm(k, j, z) * damp
        acc += w * build_mcs(MCSLabel(k, j, z**k), n_max).coeffs
    return FockVector(acc)


def mcs_wavefunction(
    k: int,
    j: int,
    z: complex,
    x_grid: np.ndarray | None = None,
    t: float = 0.0,
    method: str = "closed",
    n_max: int = DEFAULT_N_MAX,
) -> WaveSample:
    """psi(x, t) of the class state |z^k; k, j> as a k-Gaussian interference.

    closed: sum of k moving Gaussians, each with its branch phase
    exp(-i X_l P_l / 2) and the common energy phase exp(-it/2), aligned to
    the `build_mcs` global-phase convention. Exact for any k. Where the
    branches would cancel to worse than 1e-8 absolute accuracy (small |z|
    with j > 0) it raises DegenerateNorm; method="fock" serves those labels.

    fock: synthesize from the truncated coefficient vector instead. The two
    routes agree pointwise to machine precision when n_max covers the tail,
    which is the cross-check the verify suite runs.

    Either way this is the one-instant row of `density_movie`'s kernel.
    """
    x_grid = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=np.float64)
    values = _amplitudes(k, j, z, x_grid.ravel(), [t], method, n_max)[0]
    return WaveSample(x_grid=x_grid, values=values.reshape(x_grid.shape), t=t)


def density_movie(
    k: int,
    j: int,
    z: complex,
    x_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
    method: str = "closed",
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """|psi(x, t)|^2 sampled on a time grid, one row per instant.

    t_grid defaults to one revival period 2*pi/k at 65 frames. Row i is
    `mcs_wavefunction(k, j, z, x_grid, t=t_grid[i], method=method)`'s
    density, from the same kernel evaluated on the whole grid at once.
    """
    x_grid = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=np.float64)
    return np.abs(_amplitudes(k, j, z, x_grid, t_grid, method, n_max)) ** 2


def _amplitudes(
    k: int, j: int, z: complex, x: np.ndarray, t: np.ndarray | None, method: str, n_max: int
) -> np.ndarray:
    """psi on the (len(t), len(x)) grid for a 1-d x; t=None is one revival
    period 2*pi/k at 65 instants.

    fock: the eigenfunctions do not depend on time, so every row comes from
    one synthesis C @ Psi with C[t, n] = c_n e^{-i(n+1/2)t}.

    closed: one (len(t), len(x)) pass per ring branch l. Its row weight
    w = prefactor e^{-ij arg z} mu^{-jl} e^{-i X P / 2} e^{-it/2} has a
    constant modulus, so the branch adds |w| e^{-(x-X)^2/2} times
    cos(Px + arg w) to the real part and sin(Px + arg w) to the imaginary
    part: one real exponential and a real cos/sin pair per point.
    """
    if k < 1 or not 0 <= j < k:
        raise ValueError(f"bad order/class ({k}, {j})")
    if method not in ("closed", "fock"):
        raise ValueError(f"unknown method {method!r}")
    if t is None:
        t = np.linspace(0.0, 2.0 * np.pi / k, 65)
    t = np.asarray(t, dtype=np.float64)
    z = complex(z)

    if method == "fock":
        c = build_mcs(MCSLabel(k, j, z**k), n_max).coeffs
        n = np.arange(c.size)
        return _synthesize(np.exp(-1j * np.outer(t, n + 0.5)) * c, x)

    nj = _ring_norm(k, j, z, "method='fock'")
    prefactor = _QUARTIC_ROOT_PI * math.exp(0.5 * abs(z) ** 2) / (k * nj)
    seed = np.exp(-1j * j * np.angle(z)) * prefactor
    t = t[:, None]
    rot = np.exp(-1j * t)
    mu = np.exp(2j * np.pi / k)
    re = np.zeros((t.size, x.size))
    im = np.zeros_like(re)
    for l in range(k):
        zl = mu**l * z * rot
        mean_x = math.sqrt(2.0) * zl.real
        mean_p = math.sqrt(2.0) * zl.imag
        w = seed * mu ** (-j * l) * np.exp(-0.5j * (mean_x * mean_p + t))
        env = np.abs(w) * np.exp(-0.5 * (x - mean_x) ** 2)
        phase = mean_p * x + np.angle(w)
        re += env * np.cos(phase)
        im += env * np.sin(phase)
    return re + 1j * im
