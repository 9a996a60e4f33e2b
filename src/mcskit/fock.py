"""Truncated number-basis states and the polynomial ladder algebra.

Everything downstream works with finite coefficient vectors over the
oscillator number basis |0>, ..., |n_max - 1> (units hbar = m = omega = 1,
so H = N + 1/2 and x = (a + a+)/sqrt(2)). A k-fold ladder (a+-)^k is one
shift by k slots weighted by sqrt(n!/(n-k)!), taken as the k-term product
n(n-1)...(n-k+1), never from whole factorials, so n_max in the thousands
is fine.

Truncation is handled honestly: lowering is exact on the subspace, raising
adds to `leakage` the squared norm of the exact image that lands past the
edge, sum_{n >= n_max-k} (n+k)!/n! |c_n|^2, and raises LeakageExceeded once
the running total passes a tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EdgeSupport, LeakageExceeded, Overflow

DEFAULT_N_MAX = 256
DEFAULT_LEAK_TOL = 1e-12
_FALLING_MAX = int(np.finfo(np.float64).max) // 2
# the most entries one array of ladder_spectrum, a Wigner field or a density
# movie may hold: 512 MiB of float64
_ENTRIES_MAX = 2**26
# per-level tables are cached for up to _TABLE_LEVELS levels and
# _TABLE_KEYS keys per table, so no table cache holds more than 512 KiB
_TABLE_LEVELS = 512
_TABLE_KEYS = 32
# OpenBLAS splits a dot product of more entries over threads, which moves
# its last bits; _dot sums longer ones over chunks of this size
_DOT_CHUNK = 10**4


def _ints(what: str, *values: int) -> tuple[int, ...]:
    """values as ints, ValueError naming `what` unless each is an integer."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _check_count(name: str, value: int) -> int:
    """value as an int: ValueError unless it is an integer >= 1."""
    if type(value) is not int:
        (value,) = _ints(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _check_entries(what: str, count: int) -> None:
    """Overflow, before anything is allocated, when an array of `count`
    entries would pass _ENTRIES_MAX."""
    if count > _ENTRIES_MAX:
        raise Overflow(f"{count} {what} pass the cap of {_ENTRIES_MAX} (512 MiB)")


def _check_n_max(n_max: int) -> int:
    """n_max as an int: ValueError unless an integer >= 1, Overflow past _ENTRIES_MAX."""
    n_max = _check_count("n_max", n_max)
    _check_entries("levels (n_max)", n_max)
    return n_max


def _check_class(k: int, j: int = 0) -> tuple[int, int]:
    """Order k and class j as ints: ValueError unless both are integers with
    k >= 1 and 0 <= j < k. Every entry point that takes an order runs it."""
    if type(k) is not int or type(j) is not int:  # plain ints pass as they are
        k, j = _ints("order and class", k, j)
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if not 0 <= j < k:
        raise ValueError(f"class index {j} outside [0, {k})")
    return k, j


@dataclass(frozen=True, eq=False)
class FockVector:
    """State vector c_n over |0>..|n_max-1>, plus accumulated leakage.

    `leakage` sums, over the raisings (a+)^k applied so far, the squared
    norm of the exact image past the truncation edge,
    sum_{n >= n_max-k} (n+k)!/n! |c_n|^2. It is bookkeeping, not part of
    the physical state, which is why equality stays identity-based.
    Coefficients must be finite (ValueError otherwise).
    """

    coeffs: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        if np.count_nonzero(np.isfinite(arr)) < arr.size:  # faster than .all()
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray, leakage: float = 0.0) -> FockVector:
        """Unvalidated: coeffs are 1-d complex128 that the kernel has shown finite."""
        vec = object.__new__(cls)
        vec.__dict__.update(coeffs=coeffs, leakage=leakage)
        return vec

    @property
    def n_max(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return _norm(self.coeffs)

    def top_occupied(self) -> int:
        """Largest index with a nonzero coefficient, or -1 for the zero vector."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) if nz.size else -1


def _dot(dot: Callable, a: np.ndarray, b: np.ndarray):
    """dot(a, b) of 1-d arrays, summed in order over chunks of _DOT_CHUNK entries."""
    if a.size <= _DOT_CHUNK:
        return dot(a, b)
    total = dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK])
    for lo in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total = total + dot(a[lo : lo + _DOT_CHUNK], b[lo : lo + _DOT_CHUNK])
    return total


def _norm(c: np.ndarray) -> float:
    """np.linalg.norm of a 1-d complex vector, bit for bit up to _DOT_CHUNK
    entries: its own sqrt(re.dot(re) + im.dot(im)) (see _dot), without its dispatch."""
    re, im = c.real, c.imag
    return math.sqrt(_dot(np.ndarray.dot, re, re) + _dot(np.ndarray.dot, im, im))


@np.errstate(over="ignore")  # a norm past double range is refused below
def _positive_norm(c: np.ndarray, what: str) -> float:
    """_norm(c), ValueError naming `what` unless it is positive and finite."""
    norm = _norm(c)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{what} need a vector of positive, finite norm, got {norm}")
    return norm


def basis_state(n: int, n_max: int = DEFAULT_N_MAX) -> FockVector:
    n, n_max = _ints("basis index and n_max", n, n_max)
    if not 0 <= n < n_max:
        raise ValueError(f"basis index {n} outside [0, {n_max})")
    _check_entries("levels (n_max)", n_max)
    c = np.zeros(n_max, dtype=np.complex128)
    c[n] = 1.0
    return FockVector._trusted(c)


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> with the conjugation on the first argument."""
    if a.n_max != b.n_max:
        raise ValueError("mismatched truncations")
    return complex(_dot(np.vdot, a.coeffs, b.coeffs))


def _falling(n: np.ndarray, k: int) -> np.ndarray:
    """n!/(n-k)! = n(n-1)...(n-k+1) over an ascending arange n. Overflow when
    a product on the way to the last entry, with a factor 2 of room for the
    k roundings, passes double range."""
    top = int(n[-1])
    if math.perm(top, min(k, top)) > _FALLING_MAX:
        raise Overflow(f"n!/(n-k)! leaves double range at k={k}, n <= {top}")
    out = n.copy()
    for i in range(1, k):
        out *= n - i
    return out


def _cached(table: Callable, size: int, *key: int):
    """table(size, *key), taken from its cache while size <= _TABLE_LEVELS."""
    return (table if size <= _TABLE_LEVELS else table.__wrapped__)(size, *key)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _raising_weights(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """F(n + k) = (n+k)!/n! over n < size and its square root, read-only.
    Overflow as _falling, and then nothing is cached."""
    weight = _falling(np.arange(k, size + k, dtype=np.float64), k)
    return _read_only(weight), _read_only(np.sqrt(weight))


@np.errstate(over="ignore")  # the image and the leakage are checked below
def apply_k_ladder(
    state: FockVector, k: int, sign: int, leak_tol: float = DEFAULT_LEAK_TOL
) -> FockVector:
    """(a-)^k for sign -1 or (a+)^k for sign +1, as one weighted shift.

    With F(n) = n!/(n-k)!, a^k moves c_n to slot n-k with weight sqrt(F(n))
    and is exact on the subspace. (a+)^k moves c_n to slot n+k with weight
    sqrt(F(n+k)); the exact image of the top k slots lies past the edge,
    and its squared norm sum_{n >= n_max-k} F(n+k)|c_n|^2 is added to the
    vector's leakage. LeakageExceeded fires when the running total passes
    leak_tol; np.inf defers the check to the caller, and NaN raises ValueError.
    Overflow when the image, or the leakage, leaves double range.
    """
    k, _ = _check_class(k)
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    if math.isnan(leak_tol):
        raise ValueError("leak_tol must not be NaN; pass np.inf to defer the check")
    c = state.coeffs
    cut = max(c.size - k, 0)
    weight, root = _cached(_raising_weights, c.size, k)  # F(n + k) and its root
    out = np.zeros_like(c)
    if sign < 0:
        np.multiply(root[:cut], c[k:], out=out[:cut])
        leaked = 0.0
    else:
        np.multiply(root[:cut], c[:cut], out=out[k:])
        leaked = float(weight[cut:] @ np.abs(c[cut:]) ** 2)
    if np.count_nonzero(np.isfinite(out)) < out.size or not math.isfinite(leaked):
        raise Overflow(
            f"(a{'+' if sign > 0 else '-'})^{k} takes the state past double range; "
            f"scale its coefficients down"
        )
    if sign < 0:
        return FockVector._trusted(out, state.leakage)
    leakage = state.leakage + leaked
    if leakage > leak_tol:
        raise LeakageExceeded(
            f"accumulated raising leakage {leakage:.3e} exceeds {leak_tol:.1e} "
            f"at n_max={c.size}; raise n_max"
        )
    return FockVector._trusted(out, leakage)


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _levels(size: int) -> tuple[np.ndarray, ...]:
    """n, n + 1/2 (H), sqrt(n) (a) and sqrt(n (n - 1)) (a^2) over n < size, read-only."""
    n = np.arange(size, dtype=np.float64)
    pair = n * np.maximum(n - 1.0, 0.0)
    return tuple(map(_read_only, (n, n + 0.5, np.sqrt(n), np.sqrt(pair))))


@np.errstate(over="ignore")  # the product is checked below
def _hamiltonian_apply(state: FockVector) -> FockVector:
    """H|n> = (n + 1/2)|n>, Overflow past double range."""
    _, energy, _, _ = _cached(_levels, state.n_max)
    out = energy * state.coeffs
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise Overflow("H takes the state past double range")
    return FockVector._trusted(out, state.leakage)


@np.errstate(over="ignore")  # the product is checked below
def _number_falling_apply(state: FockVector, k: int) -> FockVector:
    """Diagonal action of the degree-k generator polynomial.

    The product (H - 1 + 1/2)(H - 2 + 1/2)...(H - k + 1/2) acts on |n> as
    the falling factorial F(n) = n(n-1)...(n-k+1), which is exactly the
    number operator ordering (a+)^k (a-)^k. F(n) is 0 below n = k and
    F(n + k) of `_raising_weights` from there, Overflow as there and when
    the image leaves double range.
    """
    k, _ = _check_class(k)
    c = state.coeffs
    weight, _ = _cached(_raising_weights, c.size, k)
    out = np.zeros_like(c)
    np.multiply(weight[: max(c.size - k, 0)], c[k:], out=out[k:])
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise Overflow(f"F(N) of order {k} takes the state past double range")
    return FockVector._trusted(out, state.leakage)


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
        return _norm(diff) / max(_norm(ref), 1.0)

    low = apply_k_ladder(probe, k, -1)
    h_probe = _hamiltonian_apply(probe)
    r_low = rel(_h_commutator(h_probe, low, k, -1) + k * low.coeffs, low.coeffs)

    high = apply_k_ladder(probe, k, +1, leak_tol=np.inf)
    r_high = rel(_h_commutator(h_probe, high, k, +1) - k * high.coeffs, high.coeffs)

    poly = _number_falling_apply(probe, k)
    prod = apply_k_ladder(low, k, +1, leak_tol=np.inf)
    r_poly = rel(prod.coeffs - poly.coeffs, poly.coeffs)
    return CommutatorResiduals(lowering=r_low, raising=r_high, number_poly=r_poly)


def _h_commutator(h_probe: FockVector, image: FockVector, k: int, sign: int) -> np.ndarray:
    """[H, (a^sign)^k] applied to a probe, assembled operator by operator
    from H probe and the image (a^sign)^k probe."""
    gh = apply_k_ladder(h_probe, k, sign, leak_tol=np.inf)
    return _hamiltonian_apply(image).coeffs - gh.coeffs


def ladder_spectrum(k: int, levels: int) -> np.ndarray:
    """Spectrum of H as seen by the order-k algebra, as a (k, levels) array.

    Row j, residue class j, is the ladder j + 1/2 + k m of spacing k from
    the extremal energy j + 1/2; the union of the rows recovers the full
    oscillator spectrum n + 1/2. Overflow when k * levels passes 2^26
    entries (512 MiB), before anything is allocated.
    """
    k, _ = _check_class(k)
    levels = _check_count("levels", levels)
    _check_entries("spectrum entries (k * levels)", k * levels)
    return np.arange(k)[:, None] + 0.5 + k * np.arange(levels)


def _check_phase(n_max: int, t) -> None:
    """ValueError unless every time in t is finite; Overflow when the largest
    phase (n_max - 1/2) max|t| of exp(-iHt) leaves double range."""
    if isinstance(t, float):  # a scalar, np.float64 included
        top = abs(float(t))
    else:
        top = float(np.max(np.abs(t), initial=0.0))  # NaN stays NaN
    if not math.isfinite(top):
        raise ValueError(f"time must be finite, got max|t| = {top!r}")
    if not math.isfinite((n_max - 0.5) * top):  # floats overflow to inf, unwarned
        raise Overflow(f"phase (n_max - 1/2) t past double range at |t| = {top:.3g}")


@np.errstate(over="ignore")  # the product is checked below
def time_evolve(state: FockVector, t: float) -> FockVector:
    """exp(-iHt) in the number basis at one time t: c_n -> exp(-i(n+1/2)t) c_n.

    t is one real number: a Python or numpy scalar, or a 0-d array. An
    array of times raises ValueError (`density_movie` evolves over a grid
    of them), as does a non-finite t; Overflow once the phase
    (n_max - 1/2) t, or a part of the evolved state, leaves double range.
    """
    if type(t) is not float:  # a Python float passes as it is
        arr = np.asarray(t)
        if arr.ndim:
            raise ValueError(
                f"time_evolve takes one time, got an array of shape {arr.shape}; "
                f"density_movie evolves over a grid of times"
            )
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"time must be a real number, got {t!r}")
        t = float(arr)  # exact for every real dtype up to float64
    # not in place: numpy rounds an in-place complex product of one entry
    # differently; unit-modulus phases still take a part up to sqrt(2)|c_n|
    out = _cached(_evolution, state.n_max, t) * state.coeffs
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise Overflow(f"exp(-iHt) at t = {t!r} takes the state past double range")
    return FockVector._trusted(out, state.leakage)


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _evolution(n_max: int, t: float) -> np.ndarray:
    """exp(-i(n + 1/2) t) over n < n_max, read-only: exp(-iHt) for a float t,
    after _check_phase. The phases (n + 1/2)(-it) have the bits of
    -i(n + 1/2) t, and are +0 + 0j at t = 0.0 and -0.0 alike, which share a key."""
    _check_phase(n_max, t)
    _, energy, _, _ = _cached(_levels, n_max)
    phase = energy * complex(0.0, -t)
    return _read_only(np.exp(phase, out=phase))
