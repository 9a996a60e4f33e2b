"""Truncated number-basis states and the polynomial ladder algebra.

Everything downstream works with finite coefficient vectors over the
oscillator number basis |0>, ..., |n_max - 1> (units hbar = m = omega = 1,
so H = N + 1/2 and x = (a + a+)/sqrt(2)). Ladder amplitudes are computed
from sqrt ratios of neighboring indices, never from factorials, so n_max in
the thousands is fine.

Truncation is handled honestly: lowering is exact on the subspace, raising
reports the squared amplitude it pushed past the edge as `leakage` and
raises LeakageExceeded once that passes a tolerance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EdgeSupport, LeakageExceeded, Overflow

DEFAULT_N_MAX = 256
DEFAULT_LEAK_TOL = 1e-12


def _check_class(k: int, j: int = 0) -> tuple[int, int]:
    """Order k and class j as ints: ValueError unless both are integers with
    k >= 1 and 0 <= j < k. Every entry point that takes an order runs it."""
    try:
        k, j = operator.index(k), operator.index(j)
    except TypeError:
        raise ValueError(f"order and class must be integers, got ({k!r}, {j!r})") from None
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if not 0 <= j < k:
        raise ValueError(f"class index {j} outside [0, {k})")
    return k, j


@dataclass(frozen=True, eq=False)
class FockVector:
    """State vector c_n over |0>..|n_max-1>, plus accumulated leakage.

    `leakage` is the total squared magnitude discarded past the truncation
    edge by raising operators applied so far. It is bookkeeping, not part of
    the physical state, which is why equality stays identity-based.
    """

    coeffs: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_max(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.coeffs / n, self.leakage)

    def top_occupied(self) -> int:
        """Largest index with a nonzero coefficient, or -1 for the zero vector."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) if nz.size else -1


def basis_state(n: int, n_max: int = DEFAULT_N_MAX) -> FockVector:
    if not 0 <= n < n_max:
        raise ValueError(f"basis index {n} outside [0, {n_max})")
    c = np.zeros(n_max, dtype=np.complex128)
    c[n] = 1.0
    return FockVector(c)


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> with the conjugation on the first argument."""
    if a.n_max != b.n_max:
        raise ValueError("mismatched truncations")
    return complex(np.vdot(a.coeffs, b.coeffs))


def apply_lowering(state: FockVector) -> FockVector:
    """a-|n> = sqrt(n)|n-1>. Exact on the truncated subspace."""
    c = state.coeffs
    n = np.arange(1, c.size)
    out = np.zeros_like(c)
    out[:-1] = np.sqrt(n) * c[1:]
    return FockVector(out, state.leakage)


def apply_raising(state: FockVector, leak_tol: float = DEFAULT_LEAK_TOL) -> FockVector:
    """a+|n> = sqrt(n+1)|n+1>, discarding the component pushed past the edge.

    The discarded squared magnitude n_max*|c_{n_max-1}|^2 is added to the
    vector's leakage; LeakageExceeded fires when the running total passes
    leak_tol. Pass leak_tol=np.inf to defer the check to the caller.
    """
    c = state.coeffs
    out = np.zeros_like(c)
    n = np.arange(1, c.size)
    out[1:] = np.sqrt(n) * c[:-1]
    lost = c.size * abs(c[-1]) ** 2
    leakage = state.leakage + lost
    if leakage > leak_tol:
        raise LeakageExceeded(
            f"accumulated raising leakage {leakage:.3e} exceeds {leak_tol:.1e} "
            f"at n_max={c.size}; raise n_max"
        )
    return FockVector(out, leakage)


@dataclass(frozen=True)
class LadderPower:
    """k-th power of a ladder operator: (a-)^k for sign -1, (a+)^k for +1."""

    k: int
    sign: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"ladder power must be >= 1, got {self.k}")
        if self.sign not in (-1, +1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")


def lowering_power(k: int) -> LadderPower:
    return LadderPower(k, -1)


def raising_power(k: int) -> LadderPower:
    return LadderPower(k, +1)


def apply_k_ladder(
    state: FockVector, op: LadderPower, leak_tol: float = DEFAULT_LEAK_TOL
) -> FockVector:
    out = state
    for _ in range(op.k):
        if op.sign < 0:
            out = apply_lowering(out)
        else:
            out = apply_raising(out, leak_tol)
    return out


def hamiltonian_apply(state: FockVector) -> FockVector:
    """H|n> = (n + 1/2)|n>."""
    n = np.arange(state.n_max)
    return FockVector((n + 0.5) * state.coeffs, state.leakage)


def number_falling_apply(state: FockVector, k: int) -> FockVector:
    """Diagonal action of the degree-k generator polynomial.

    The product (H - 1 + 1/2)(H - 2 + 1/2)...(H - k + 1/2) acts on |n> as
    the falling factorial n(n-1)...(n-k+1), which is exactly the number
    operator ordering (a+)^k (a-)^k.
    """
    k, _ = _check_class(k)
    n = np.arange(state.n_max, dtype=np.float64)
    diag = np.ones(state.n_max)
    for i in range(k):
        diag *= n - i
    return FockVector(diag * state.coeffs, state.leakage)


class CommutatorResiduals(NamedTuple):
    lowering: float
    raising: float
    number_poly: float


def pha_commutator_check(k: int, probe: FockVector) -> CommutatorResiduals:
    """Residual norms of the deformed-algebra relations on a probe state.

    Checks, for g+- = (a+-)^k:

      [H, g-] probe = -k g- probe
      [H, g+] probe = +k g+ probe
      g+ g- probe   = (falling factorial in N) probe

    The probe must leave the top k+1 slots empty (EdgeSupport otherwise):
    with that precondition every operator product stays inside the
    truncation and the residuals are pure floating-point noise.

    Each residual is normalized by the magnitude of the operator output
    (floored at 1). The raw vectors grow like n^k, which at k=5 and
    n_max=128 puts bare rounding noise near 1e-6; the relative residual
    measures the identities at working precision uniformly in k.
    """
    k, _ = _check_class(k)
    top = probe.top_occupied()
    if top > probe.n_max - k - 2:
        raise EdgeSupport(
            f"probe occupies |{top}> but the top {k + 1} slots of "
            f"n_max={probe.n_max} must be empty for an exact check"
        )

    def rel(diff: np.ndarray, ref: np.ndarray) -> float:
        return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), 1.0))

    low = apply_k_ladder(probe, lowering_power(k))
    r_low = rel(_h_commutator(probe, k, -1).coeffs + k * low.coeffs, low.coeffs)

    high = apply_k_ladder(probe, raising_power(k), leak_tol=np.inf)
    r_high = rel(_h_commutator(probe, k, +1).coeffs - k * high.coeffs, high.coeffs)

    poly = number_falling_apply(probe, k)
    prod = apply_k_ladder(low, raising_power(k), leak_tol=np.inf)
    r_poly = rel(prod.coeffs - poly.coeffs, poly.coeffs)
    return CommutatorResiduals(lowering=r_low, raising=r_high, number_poly=r_poly)


def _h_commutator(probe: FockVector, k: int, sign: int) -> FockVector:
    """[H, (a^sign)^k] applied to probe, assembled operator by operator."""
    op = LadderPower(k, sign)
    hg = hamiltonian_apply(apply_k_ladder(probe, op, leak_tol=np.inf))
    gh = apply_k_ladder(hamiltonian_apply(probe), op, leak_tol=np.inf)
    return FockVector(hg.coeffs - gh.coeffs)


@dataclass(frozen=True)
class LadderSpectrum:
    """k interleaved arithmetic ladders: ladder j holds j + 1/2 + k*m."""

    k: int
    ladders: tuple = field(repr=False, default=())

    def merged(self, count: int) -> np.ndarray:
        """First `count` energies of the union, ascending."""
        allv = np.sort(np.concatenate(self.ladders))
        if count > allv.size:
            raise ValueError(f"only {allv.size} levels computed, wanted {count}")
        return allv[:count]


def ladder_eigenstate(k: int, j: int, m: int, n_max: int = DEFAULT_N_MAX) -> FockVector:
    """m-th rung of ladder j under the order-k algebra, i.e. |k*m + j>.

    Raises Overflow when the requested level does not fit below n_max.
    """
    k, j = _check_class(k, j)
    if m < 0:
        raise ValueError(f"rung index must be >= 0, got {m}")
    n = k * m + j
    if n >= n_max:
        raise Overflow(f"level {n} = {k}*{m}+{j} does not fit below n_max={n_max}")
    return basis_state(n, n_max)


def ladder_spectrum(k: int, levels: int = 32) -> LadderSpectrum:
    """Spectrum of H as seen by the order-k algebra.

    Each residue class j in 0..k-1 is an equally spaced ladder with spacing
    k starting at the extremal energy j + 1/2; the union over j recovers
    the full oscillator spectrum n + 1/2.
    """
    k, _ = _check_class(k)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    ladders = tuple(j + 0.5 + k * np.arange(levels, dtype=np.float64) for j in range(k))
    return LadderSpectrum(k=k, ladders=ladders)


def time_evolve(state: FockVector, t: float) -> FockVector:
    """exp(-iHt) in the number basis: c_n -> exp(-i(n+1/2)t) c_n."""
    n = np.arange(state.n_max)
    return FockVector(np.exp(-1j * (n + 0.5) * t) * state.coeffs, state.leakage)
